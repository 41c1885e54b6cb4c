"""Every walkthrough under demos/ runs to completion in a fresh interpreter without scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("[0-9][0-9]_*.py"))


def test_every_demo_is_listed():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


# Runs a script with scipy unimportable: the demos need numpy alone.
WITHOUT_SCIPY = (
    "import runpy, sys; sys.modules['scipy'] = None; "
    "runpy.run_path(sys.argv[1], run_name='__main__')"
)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()

"""Show which outputs a change moves: a pinned command list at a commit and in this working tree.

    python tools/same_bytes.py COMMIT

Checks COMMIT out with ``git worktree add`` into a temporary directory,
then runs every command of ``COMMANDS`` once with that tree's ``src`` and
once with this working tree's, each tree in its own fresh run directory
with the same relative ``--out`` paths and configs.  It compares

* every file a command writes, by sha256;
* each command's stdout, stderr and exit code;
* ``manifest.json`` files as JSON with their ``timings`` entry removed.

It prints one line per difference (and the differing lines of a
printout), then a summary, and exits 1 on any difference, 0 when every
output matches, 2 when COMMIT is not a commit.  The worktree and the run
directories are removed at the end.

Bytes depend on numpy's SIMD dispatch on the host, so compare against a
commit on the same host, under the same ``NPY_ENABLE_CPU_FEATURES``.
BLAS is pinned to one thread in both trees.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_GMM = {"seed": 0}
_TEXTURE = {"seed": 0, "domains": {"kind": "texture", "size": 32}, "bridge": {"steps_per_unit_time": 40}}
_TRAIN = {"epochs": 3, "samples": 400, "hidden": [32, 32]}
_TRAINED_TEXTURE = {
    "seed": 1, "domains": {"kind": "texture", "size": 16}, "bridge": {"steps_per_unit_time": 50},
    "gen_count": 8, "sweep_count": 2, "label_count": 1,
    "train": {**_TRAIN, "attention": {"token_count": 4, "heads": 2, "windows": 2}},
}
_TRAINED_GMM = {"seed": 2, "bridge": {"steps_per_unit_time": 100}, "train": _TRAIN}


def _checkpoints(config: dict, trained: str) -> dict:
    """config with the models a ``train`` run under ``trained`` wrote."""
    paths = {role: f"{trained}/checkpoints/{role}.ckpt" for role in ("source", "target")}
    return {**config, "models": {"kind": "checkpoint", **paths}}


# (out, config, command and flags): each run writes under its own out, in this order.
COMMANDS = [
    ("gmm/gen", _GMM, ["gen", "--seed", "3"]),
    ("gmm/migrate", _GMM, ["migrate", "--steps", "60"]),
    ("gmm/sweep-grid", _GMM, ["sweep", "--depth-grid", "0,0.5,1"]),
    ("gmm/sweep-steps", _GMM, ["sweep", "--steps", "300"]),
    ("gmm/sweep-unsorted", _GMM, ["sweep", "--depth-grid", "1,0.25,0.75,0", "--steps", "100"]),
    ("gmm/label", _GMM, ["label"]),   # exit 1: no image pair
    ("texture/gen", _TEXTURE, ["gen"]),
    ("texture/migrate", _TEXTURE, ["migrate", "--cutoff", "0.3"]),
    ("texture/sweep", _TEXTURE, ["sweep"]),
    ("texture/label", _TEXTURE, ["label"]),
    ("texture/sweep-unsorted", _TEXTURE, ["sweep", "--depth-grid", "1,0.5,0,0.25", "--cutoff", "0.2"]),
    ("texture/label-targets", _TEXTURE,
     ["label", "--depth-grid", "1,0.5,0,0.25", "--targets", "0,0.3,0.6,0.9,1", "--seed", "4"]),
    ("trained-texture/train", _TRAINED_TEXTURE, ["train"]),
    ("trained-texture/migrate", _checkpoints(_TRAINED_TEXTURE, "trained-texture/train"), ["migrate"]),
    ("trained-texture/sweep", _checkpoints(_TRAINED_TEXTURE, "trained-texture/train"), ["sweep"]),
    ("trained-texture/label", _checkpoints(_TRAINED_TEXTURE, "trained-texture/train"),
     ["label", "--targets", "0.2,0.8"]),
    ("trained-gmm/train", _TRAINED_GMM, ["train"]),
    ("trained-gmm/migrate", _checkpoints(_TRAINED_GMM, "trained-gmm/train"), ["migrate"]),
    ("verify/steps-50", {"schedule": {"steps": 50}}, ["verify"]),
    ("verify/steps-1000", {}, ["verify", "--seed", "2"]),
]


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def write_configs(configs: Path) -> None:
    """Each command's config as configs/OUT.json, OUT's slashes as dashes."""
    configs.mkdir()
    for out, config, _ in COMMANDS:
        (configs / (out.replace("/", "-") + ".json")).write_text(json.dumps(config))


def run_commands(tree: Path, runs: Path, configs: Path) -> dict[str, tuple]:
    """Each command's (exit code, stdout, stderr), run with tree's sources from the empty directory runs."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    runs.mkdir()
    printed = {}
    for out, _, argv in COMMANDS:
        config = configs / (out.replace("/", "-") + ".json")
        proc = subprocess.run(
            [sys.executable, "-m", "diffbridge.cli", *argv, "--config", str(config), "--out", out],
            cwd=runs, env=env, capture_output=True, text=True,
        )
        printed[out] = (proc.returncode, proc.stdout, proc.stderr)
    return printed


def _digest(path: Path) -> str:
    """sha256 of a file; of a manifest, of its JSON without ``timings``."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("timings", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def file_differences(base: Path, head: Path) -> tuple[int, list[str]]:
    """How many files the two run directories hold between them, and a line per one that differs."""
    files = {
        str(p.relative_to(root)) for root in (base, head) for p in root.rglob("*") if p.is_file()
    }
    lines = []
    for name in sorted(files):
        a, b = base / name, head / name
        if not b.exists():
            lines.append(f"only at the commit: {name}")
        elif not a.exists():
            lines.append(f"only in the working tree: {name}")
        elif _digest(a) != _digest(b):
            lines.append(f"differs: {name}")
    return len(files), lines


def printout_differences(base: dict, head: dict) -> list[str]:
    """A line per command whose exit code, stdout or stderr differs, with its differing lines."""
    lines = []
    for out in base:
        for what, a, b in zip(("exit code", "stdout", "stderr"), base[out], head[out]):
            if a == b:
                continue
            lines.append(f"{what} differs: {out}" + (f" ({a} -> {b})" if what == "exit code" else ""))
            if what != "exit code":
                diff = difflib.unified_diff(a.splitlines(), b.splitlines(), lineterm="", n=0)
                lines += [f"    {line}" for line in list(diff)[2:] if not line.startswith("@@")]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_bytes.py COMMIT", file=sys.stderr)
        return 2
    try:
        commit = _git("rev-parse", "--verify", "--quiet", argv[0] + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"same_bytes: {argv[0]!r} is not a commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        tmp = Path(tmp)
        write_configs(tmp / "configs")
        tree = tmp / "commit"
        _git("worktree", "add", "--detach", "--quiet", str(tree), commit)
        try:
            base = run_commands(tree, tmp / "runs-commit", tmp / "configs")
        finally:
            _git("worktree", "remove", "--force", str(tree))
        head = run_commands(ROOT, tmp / "runs-head", tmp / "configs")
        count, lines = file_differences(tmp / "runs-commit", tmp / "runs-head")
        lines += printout_differences(base, head)
    for line in lines:
        print(line)
    differing = sum(not line.startswith("    ") for line in lines)
    print(f"same_bytes: {count} files and {len(COMMANDS)} printouts against {commit[:12]}:"
          f" {differing} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

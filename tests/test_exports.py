"""The package imports cleanly, carries pyproject's version, and exports and defines only names that the library, the demos or the benchmark use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diffbridge"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_outside_tests() -> set[str]:
    """Every name read, or attribute taken, in src, demos and perfbench, tests excluded."""
    used = set()
    for top in ("src", "demos", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if path == PACKAGE / "__init__.py" or "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def module_level_definitions() -> list[tuple[str, str]]:
    """(module, name) of every function and class a package module defines at its top level."""
    return [
        (path.stem, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def test_every_export_has_a_caller_outside_tests():
    used = names_used_outside_tests()
    assert [name for name in exported_names() if name not in used] == []


def test_every_module_level_definition_is_read_outside_tests():
    # Methods are out of scope: argparse, not the package, calls _Parser.error.
    used = names_used_outside_tests()
    assert [d for d in module_level_definitions() if d[1] not in used] == []


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("[!_]*.py")))
def test_each_module_imports_in_a_fresh_interpreter(module):
    # Each module alone, so an import cycle fails here whichever module
    # comes first.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import diffbridge.{module}"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_package_version_is_pyproject_s():
    # The manifest records __version__ as tool_version.  A regex, since
    # tomllib needs Python 3.11 and requires-python is 3.10.
    import diffbridge

    text = (ROOT / "pyproject.toml").read_text()
    versions = re.findall(r'^version = "([^"]*)"$', text, re.MULTILINE)
    assert versions == [diffbridge.__version__]

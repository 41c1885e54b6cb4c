"""The package exports only names that the library, the demos or the benchmark use."""

import ast
from pathlib import Path

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


def test_every_export_has_a_caller_outside_tests():
    used = names_used_outside_tests()
    assert [name for name in exported_names() if name not in used] == []

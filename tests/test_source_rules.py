"""Rules on the program's source that no behaviour test can see."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# numpy 2.4.6's ifft2(a, out=b) and irfft2(a, out=b) return a new array
# rather than b, and leave b holding other values.
_NO_OUT = ("ifft2", "irfft2")


def calls_with_out(source: str) -> list[tuple[str, int]]:
    """(function name, line) of every ``ifft2`` or ``irfft2`` call given ``out=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in _NO_OUT and any(k.arg == "out" for k in node.keywords):
            found.append((name, node.lineno))
    return found


def test_no_two_dimensional_inverse_fft_writes_into_out():
    found = [
        (str(path.relative_to(ROOT)), *call)
        for top in ("src", "demos")
        for path in sorted((ROOT / top).rglob("*.py"))
        for call in calls_with_out(path.read_text())
    ]
    assert found == []


def test_the_rule_sees_each_spelling():
    source = (
        "import numpy as np\n"
        "from numpy.fft import irfft2\n"
        "np.fft.ifft2(a, out=b)\n"
        "irfft2(a, s=(4, 4), out=b)\n"
        "np.fft.ifft2(a)\n"
        "np.fft.ifftn(a, out=b)\n"
    )
    assert calls_with_out(source) == [("ifft2", 3), ("irfft2", 4)]

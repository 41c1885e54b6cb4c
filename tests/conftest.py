"""Shared pytest hooks: surface the acceptance lines, fix the fuzz settings, check gradients."""

import numpy as np

from diffbridge.verify import central_differences

try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves without hypothesis
    pass
else:
    # A fixed example sequence of bounded length: fuzz tests run the same
    # inputs on every run, in a bounded time, and keep no example database.
    settings.register_profile(
        "diffbridge", derandomize=True, max_examples=150, deadline=None, database=None
    )
    settings.load_profile("diffbridge")

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def mlp_gradcheck(model, x, t, target):
    """Worst relative error of manual gradients vs central differences, floor 1e-8; NaN stays NaN."""
    analytic, numeric, _ = central_differences(model, x, t, target)
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-8)
    return float(np.max(np.abs(numeric - analytic) / denom))

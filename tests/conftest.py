"""Shared pytest hooks: acceptance lines, fuzz settings, gradient and memory checks, texture variances."""

import tracemalloc

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


def even_variances(shape, seed):
    """Positive mode variances with v[i, j] == v[-i, -j] exactly."""
    v = np.random.default_rng(seed).uniform(0.05, 2.0, shape)
    return (v + np.roll(v[::-1, ::-1], 1, axis=(0, 1))) / 2


def traced_peak(fn) -> int:
    """Bytes fn() allocates at its peak above what was live at the call, by tracemalloc.

    Counts what fn returns while it lives.  Tracing another caller
    started stays on; tracing started here stops.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()

"""Shared pytest hooks: surface the acceptance criterion lines, and fix the fuzz settings."""

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

"""Shared pytest plumbing.

The acceptance suite registers one verdict per criterion here; the hook
prints them as a block in the terminal summary, where they survive
output capture.

Hypothesis runs derandomized, so every run draws the same examples, and
without a deadline, because host speed varies by up to about 2x and a
per-example deadline would make the property tests flaky.
"""

from hypothesis import settings

settings.register_profile("repo", derandomize=True, deadline=None)
settings.load_profile("repo")

CRITERION_RESULTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, status, label in sorted(CRITERION_RESULTS):
        terminalreporter.write_line(f"[criterion {num:02d}] {status} {label}")

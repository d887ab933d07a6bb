"""Shared test plumbing.

test_acceptance appends one line per criterion here; the terminal-summary
hook replays them after the run so the verdict survives output capture.
The pytest settings in pyproject.toml put src/ on the tests' import path;
the CLI tests' subprocesses get it through PYTHONPATH, set here, so a plain
`pytest` runs from a checkout with nothing installed.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

acceptance_lines: list[str] = []


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

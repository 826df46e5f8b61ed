"""Benchmark-suite plumbing.

Each benchmark regenerates one paper table/figure and registers a
rendered text block with the ``paper_report`` fixture; the blocks are
printed in the terminal summary (so they survive pytest's output
capture) and written to ``benchmarks/out/<name>.txt`` for the record.
"""

from __future__ import annotations

import pathlib

import pytest

_REPORTS: dict = {}
OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture
def paper_report():
    """Register a report: ``paper_report(name, text)``."""

    def _register(name: str, text: str) -> None:
        _REPORTS[name] = text
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _register


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    tr = terminalreporter
    tr.section("paper reproduction reports")
    for name in sorted(_REPORTS):
        tr.write_line("")
        tr.write_line(f"==== {name} " + "=" * max(0, 66 - len(name)))
        for line in _REPORTS[name].splitlines():
            tr.write_line(line)

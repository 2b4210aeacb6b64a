"""Shared pytest wiring: collects the acceptance criteria's result lines
and prints them as one summary block, so a plain ``pytest -v`` run shows
one pass/fail line per criterion without needing ``-s``; and counts the
quadratic-variation passes a test runs (``qv_calls``)."""

import sys

import pytest

from qvmart import path_core

_criterion_lines: list[str] = []
_failed_criteria: list[str] = []


def note_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid and report.failed:
        _failed_criteria.append(report.nodeid.split("::")[-1])


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines and not _failed_criteria:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
    for name in _failed_criteria:
        terminalreporter.write_line(f"[FAIL] {name}")


@pytest.fixture
def qv_calls(monkeypatch):
    """The ensembles ``qv_matrix`` runs on, in call order, through every
    qvmart module that names it."""
    calls = []
    original = path_core.qv_matrix

    def counting(ensemble):
        calls.append(ensemble)
        return original(ensemble)

    for name, mod in list(sys.modules.items()):
        if name == "qvmart" or name.startswith("qvmart."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls

"""Shared fixtures: parsed/ground fixture programs and golden-file access.

Also prints one PASS/FAIL line per acceptance criterion at the end of a
run, scraped from the outcomes of tests named ``test_criterion_<n>``.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

from lpadexpl.grounder import ground
from lpadexpl.syntax import parse_program

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def load_restriction(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def load_families():
    """The benchmark's program families (``perfbench/families.py``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def pos_program():
    return parse_program(fixture_text("covid_pos.lpad"))


@pytest.fixture(scope="session")
def pos_ground(pos_program):
    return ground(pos_program)


@pytest.fixture(scope="session")
def neg_program():
    return parse_program(fixture_text("covid_neg.lpad"))


@pytest.fixture(scope="session")
def neg_ground_full(neg_program):
    return ground(neg_program)


@pytest.fixture(scope="session")
def neg_ground(neg_program):
    """Grounding with the two-instance restriction on the contact clause."""
    return ground(neg_program, restriction=load_restriction("restrict_c2.json"))


@pytest.fixture(scope="session")
def neg_ground_min(neg_program):
    """Minimal 6-instance grounding (576 selections)."""
    return ground(neg_program, restriction=load_restriction("restrict_min.json"))


_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, bool] = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            m = _CRITERION.search(nodeid)
            if m:
                n = int(m.group(1))
                outcomes[n] = outcomes.get(n, True) and ok
    if outcomes:
        terminalreporter.write_line("")
        for n in sorted(outcomes):
            terminalreporter.write_line(
                f"CRITERION {n}: {'PASS' if outcomes[n] else 'FAIL'}"
            )

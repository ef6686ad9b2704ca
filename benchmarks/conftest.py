"""Benchmark-suite plumbing: collect paper-vs-measured reports.

Every experiment bench renders an :class:`ExperimentReport` and appends it
to the session sink; the terminal summary prints all of them after the
pytest-benchmark tables, and ``benchmarks/bench_reports.txt`` keeps the
latest render of every section, by title, so EXPERIMENTS.md can be
cross-checked: a run replaces the sections it rendered and keeps the rest
(:func:`repro.bench.reporting.merge_rendered`).

Chip-config fixtures come from :mod:`repro.testing`, shared with the main
test suite's conftest.

Isolation notes: the report sink lives in pytest's config stash (born and
dying with one pytest run) rather than a module-level list, so repeated
in-process runs can't concatenate each other's reports; the config
fixtures are function-scoped so no object — frozen today or not — is
shared between tests.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.reporting import merge_rendered
from repro.testing import make_full_config, make_small_config

_REPORTS_KEY = pytest.StashKey()


def pytest_configure(config):
    config.stash[_REPORTS_KEY] = []


@pytest.fixture(scope="session")
def report_sink(request) -> list[str]:
    """The run's report accumulator (a session artifact by design)."""
    return request.config.stash[_REPORTS_KEY]


@pytest.fixture()
def full_config():
    return make_full_config()


@pytest.fixture()
def small_config():
    return make_small_config()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = config.stash.get(_REPORTS_KEY, None) or []
    if not reports:
        return
    terminalreporter.write_sep("=", "paper-vs-measured experiment reports")
    for text in reports:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    path = os.path.join(os.path.dirname(__file__), "bench_reports.txt")
    previous = ""
    if os.path.exists(path):
        with open(path) as handle:
            previous = handle.read()
    with open(path, "w") as handle:
        handle.write(merge_rendered(previous, reports))
    terminalreporter.write_line(
        f"\n({len(reports)} reports saved to {path}, the others kept)"
    )

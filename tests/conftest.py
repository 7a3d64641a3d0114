"""Shared fixtures plus the acceptance-criteria summary printed after a run."""

import numpy as np
import pytest

from tabret.corpus import Corpus, Table

# nodeid -> (criterion number, title)
_CRITERIA: dict[str, tuple[int, str]] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("criterion")
        if marker is not None:
            _CRITERIA[item.nodeid] = (marker.args[0], marker.args[1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    failed = set()
    passed = set()
    for status, bucket in (("failed", failed), ("error", failed), ("passed", passed)):
        for report in terminalreporter.stats.get(status, []):
            if report.nodeid in _CRITERIA:
                bucket.add(report.nodeid)
    lines = []
    for nodeid, (num, title) in sorted(_CRITERIA.items(), key=lambda kv: kv[1][0]):
        verdict = "FAIL" if nodeid in failed else ("PASS" if nodeid in passed else "NOT RUN")
        lines.append(f"criterion {num} ({title}): {verdict}")
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)


def make_table(table_id: str, rows: list[list[str]], header: list[str] | None = None) -> Table:
    header = header or [f"c{j}" for j in range(len(rows[0]))]
    return Table(table_id=table_id, header=header, instances=[list(r) for r in rows], metadata={})


@pytest.fixture
def tiny_table() -> Table:
    return make_table(
        "inv_a",
        [
            ["a-01", "bolt", "3"],
            ["a-02", "washer", "9"],
            ["a-03", "gasket", "1"],
            ["a-04", "clamp", "7"],
        ],
        header=["sku", "name", "qty"],
    )


@pytest.fixture
def tiny_corpus(tiny_table) -> Corpus:
    other = make_table(
        "inv_b",
        [
            ["b-01", "rotor", "2"],
            ["b-02", "stator", "5"],
        ],
        header=["sku", "name", "qty"],
    )
    return Corpus(tables=[tiny_table, other])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)

"""E3 — efficiency of the approximation algorithms (paper analogue: approx-runtime figure).

PeelApprox (the ratio-sweep peeling baseline), IncApprox (full skyline
decomposition), and CoreApprox (the paper's algorithm) on the medium and
large datasets.  Expected shape: CoreApprox is the fastest, IncApprox sits in
between, and the gap over PeelApprox widens with graph size.  The table step
asserts the ordering the paper reports on the heavy-tailed large graphs:
CoreApprox beats PeelApprox on web-large and citation-large.
"""

from __future__ import annotations

import pytest
from conftest import emit

from repro.bench.harness import format_table, run_method_on_dataset
from repro.datasets.registry import dataset_names, load_dataset

MEDIUM_DATASETS = dataset_names("medium")
LARGE_DATASETS = ["web-large", "citation-large", "planted-large"]
#: Large datasets on which CoreApprox must be faster than PeelApprox.
CORE_BEATS_PEEL = ("web-large", "citation-large")
_rows: list[dict] = []


@pytest.mark.parametrize("dataset", MEDIUM_DATASETS)
@pytest.mark.parametrize("method", ["peel-approx", "inc-approx", "core-approx"])
def test_e3_medium(benchmark, dataset, method):
    graph = load_dataset(dataset)
    record = benchmark.pedantic(
        lambda: run_method_on_dataset("E3", dataset, graph, method), rounds=1, iterations=1
    )
    _rows.append(record.row())
    assert record.result.density > 0


@pytest.mark.parametrize("dataset", LARGE_DATASETS)
@pytest.mark.parametrize("method", ["peel-approx", "core-approx"])
def test_e3_large(benchmark, dataset, method):
    graph = load_dataset(dataset)
    record = benchmark.pedantic(
        lambda: run_method_on_dataset("E3", dataset, graph, method), rounds=1, iterations=1
    )
    _rows.append(record.row())
    assert record.result.density > 0


def test_e3_emit_table(benchmark):
    text = benchmark.pedantic(
        lambda: format_table(_rows, title="E3: approximation-algorithm efficiency"),
        rounds=1,
        iterations=1,
    )
    emit(text)
    assert _rows
    seconds = {(row["dataset"], row["method"]): row["seconds"] for row in _rows}
    for dataset in CORE_BEATS_PEEL:
        core, peel = seconds[(dataset, "core-approx")], seconds[(dataset, "peel-approx")]
        assert core < peel, f"{dataset}: core-approx {core:.3f}s is not faster than peel-approx {peel:.3f}s"

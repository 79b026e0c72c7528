"""E11 — ablation of the exact-algorithm design choices.

Three configurations on each small dataset:

* DCExact seeded with a cheap peel (no core machinery at all),
* DCExact seeded with the CoreApprox incumbent (tight bounds, full-graph
  networks),
* CoreExact (tight bounds + core-restricted networks).

The deltas isolate how much of CoreExact's advantage comes from the better
incumbent/upper bound versus from shrinking the flow networks.
"""

from __future__ import annotations

import pytest
from conftest import emit

from repro.bench.harness import format_table
from repro.core.config import ExactConfig
from repro.core.exact_core import core_exact
from repro.core.exact_dc import dc_exact
from repro.datasets.registry import dataset_names, load_dataset
from repro.utils.timer import time_call

_rows: list[dict] = []

CONFIGURATIONS = {
    "dc (peel seed)": lambda graph: dc_exact(graph, ExactConfig(seed_with_core=False)),
    "dc (core seed)": lambda graph: dc_exact(graph, ExactConfig(seed_with_core=True)),
    "core-exact": core_exact,
}


@pytest.mark.parametrize("dataset", dataset_names("small"))
@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
def test_e11_configurations(benchmark, dataset, config):
    graph = load_dataset(dataset)
    solver = CONFIGURATIONS[config]
    result, seconds = time_call(lambda: solver(graph))
    benchmark.pedantic(lambda: solver(graph), rounds=1, iterations=1)
    _rows.append(
        {
            "dataset": dataset,
            "config": config,
            "density": round(result.density, 4),
            "flow_calls": result.stats["flow_calls"],
            "max_network_nodes": max(result.stats["network_nodes"], default=0),
            "seconds": round(seconds, 3),
        }
    )
    assert result.is_exact


def test_e11_emit_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(format_table(_rows, title="E11: exact-algorithm ablation (incumbent seed vs core restriction)"))
    # All configurations must agree on the optimum for every dataset.
    by_dataset: dict[str, set[float]] = {}
    for row in _rows:
        by_dataset.setdefault(row["dataset"], set()).add(row["density"])
    for dataset, densities in by_dataset.items():
        assert max(densities) - min(densities) < 1e-6, dataset

"""The benchmark's own tests.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q

They run every workload at smoke length (one pass each way), so they take a
minute or two.  The file is deliberately not named ``test_*.py``: the
program's own test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.core import flow_network, fixed_ratio  # noqa: E402
from repro.net import daemon as daemon_module  # noqa: E402
from repro.session import DDSSession  # noqa: E402

from ddsbench.harness import (  # noqa: E402
    InProcessWorkload,
    Outcome,
    Pass,
    ServeWorkload,
    end_to_end,
    per_layer,
    run_workload,
)
from ddsbench.layers import Ledger  # noqa: E402
from ddsbench.tracer import Tracer  # noqa: E402
from ddsbench.workloads import EXACT, SERVE, WORKLOADS, InProcessSpec, Item  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}


def test_benchmark_json_names_the_workloads() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    spec = json.loads((HERE / "metrics.json").read_text())
    assert set(spec["end_to_end"]) == END_TO_END
    assert set(spec["per_layer"]) == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload: str) -> None:
    untraced = run_workload(workload, 3, 0.0, False, setup_repeats=1, min_passes=1)
    assert untraced.correct, untraced.outcome.messages + untraced.final_errors
    assert untraced.outcome.failed == 0 and untraced.outcome.attempted > 0
    metrics = end_to_end(untraced)
    assert set(metrics) == END_TO_END
    assert all(math.isfinite(value) and value > 0 for value in metrics.values()), metrics

    traced = run_workload(workload, 3, 0.0, True, setup_repeats=1, min_passes=2)
    assert traced.correct, traced.outcome.messages
    assert traced.tracer.open_spans() == 0
    assert len(traced.tracer) > 0
    layers = per_layer(traced)
    assert set(layers) == PER_LAYER
    assert layers["runtime.deadline_hits"] == 0 and layers["runtime.anytime_returns"] == 0


def _inflate(original):
    """A densest_subgraph that reports every density 1.0 higher than found."""

    def wrong(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.density += 1.0
        return result

    return wrong


def _in_process(outcome: Outcome) -> InProcessWorkload:
    spec = InProcessSpec(
        name="tiny", items=(Item("social-tiny", 1, EXACT),), write=("social-tiny", EXACT)
    )
    workload = InProcessWorkload(spec, 5, outcome, Tracer(), Ledger())
    workload.setup()
    return workload


def _one_pass(workload) -> None:
    workload.prepare()
    workload.check(workload.run_pass(Pass(traced=False)))


def test_in_process_oracle_catches_a_wrong_answer(monkeypatch: pytest.MonkeyPatch) -> None:
    honest = Outcome()
    _one_pass(_in_process(honest))
    assert honest.failed == 0 and honest.attempted > 0

    outcome = Outcome()
    workload = _in_process(outcome)
    monkeypatch.setattr(DDSSession, "densest_subgraph", _inflate(DDSSession.densest_subgraph))
    _one_pass(workload)
    assert outcome.failed == outcome.attempted > 0


def test_serve_oracle_catches_a_wrong_remote_answer(monkeypatch: pytest.MonkeyPatch) -> None:
    original = daemon_module.run_batch_query

    def wrong(session, spec, deadline_ms=None):
        payload = original(session, spec, deadline_ms=deadline_ms)
        if isinstance(payload, dict) and "density" in payload:
            payload = dict(payload, density=payload["density"] + 1.0)
        return payload

    outcome = Outcome()
    workload = ServeWorkload(replace(SERVE, pass_steps=12), 5, outcome, Tracer(), Ledger())
    try:
        workload.setup()
        monkeypatch.setattr(daemon_module, "run_batch_query", wrong)
        _one_pass(workload)
    finally:
        workload.teardown()
    assert outcome.failed > 0


def test_spans_close_when_the_call_raises() -> None:
    tracer = Tracer()

    def inner() -> None:
        raise ValueError("boom")

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda: traced_inner())
    with pytest.raises(ValueError):
        traced_outer()
    assert len(tracer) == 2 and tracer.open_spans() == 0
    spans = tracer.aggregate()
    total = spans["outer"]["total_s"]
    assert spans["outer"]["self_s"] == pytest.approx(total - spans["inner"]["total_s"])


def test_patching_reaches_every_importer() -> None:
    original = flow_network.build_decision_network
    tracer = Tracer()
    tracer.patch_function(flow_network, "build_decision_network", "build")
    try:
        assert fixed_ratio.build_decision_network is flow_network.build_decision_network
        assert fixed_ratio.build_decision_network is not original
    finally:
        tracer.restore()
    assert fixed_ratio.build_decision_network is original
    assert flow_network.build_decision_network is original


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

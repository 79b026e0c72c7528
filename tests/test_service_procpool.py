"""The process pool: lanes on local shard daemons — bit-identity, crashes, hygiene.

Pins the acceptance criteria of ``BatchExecutor(process_pool=True)``, which
starts one :class:`~repro.net.daemon.ShardDaemon` per pool slot in a child
process for each batch and serves the lanes through the daemon path:

* **Cross-process bit-identity** — process-pool answers are bit-identical
  to the serial and thread-pool paths on hypothesis-generated mixed
  batches (subgraphs, densities, and ``payload_answer()`` dicts), under
  ``fork`` and ``spawn``; a graph whose labels do not survive JSON runs
  inline instead.
* **Crash containment** — through test seams a forked child inherits (a
  patched ``repro.net.daemon.run_batch_query`` or ``ShardDaemon.start``):
  a daemon SIGKILLed mid-lane, or dead before it reported its port, costs
  only its lanes, which run inline, degraded, with the same answers; a
  query the daemon fails is re-run inline; a genuinely bad query raises
  its typed error; a lane outlasting the client's default read timeout is
  answered once.
* **Hygiene** — no child process outlives ``execute``, on normal, crashed
  and raising runs.
* **Order-independent aggregation** — ``BatchReport.aggregate_stats()``
  is a pure function of the per-lane snapshots, not of completion order.
* **One store, many processes** — daemons under ``fork`` and ``spawn`` save
  into one store that warms a fresh session bit-identically, and a
  ``fork`` child saves through a connection of its own even when its
  parent's is open.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import service_mixed_workload
from repro.datasets.registry import load_dataset
from repro.exceptions import AlgorithmError, BatchQueryError
from repro.graph.digraph import DiGraph
from repro.net import daemon as daemon_module
from repro.net.client import ShardClient
from repro.net.daemon import ShardDaemon
from repro.service import (
    BatchExecutor,
    BatchReport,
    SessionStore,
    payload_answer,
    plan_batch,
    run_batch_query,
)
from repro.service import executor as executor_module
from repro.session import DDSSession

DEFAULT_DATASET = "foodweb-tiny"
OTHER_DATASET = "social-tiny"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)

MIXED = [
    {"query": "densest", "method": "core-exact"},
    {"query": "fixed-ratio", "ratio": 1.0},
    {"query": "summary"},
    {"query": "densest", "method": "core-approx", "dataset": OTHER_DATASET},
    {"query": "top-k", "k": 2, "dataset": OTHER_DATASET},
]


def _executor(**kwargs) -> BatchExecutor:
    return BatchExecutor(lambda key: load_dataset(key), **kwargs)


def _answers(report) -> list:
    return [payload_answer(payload) for payload in report.results_in_input_order()]


def _plan(queries=MIXED):
    return plan_batch(queries, default_graph_key=DEFAULT_DATASET)


def _start_daemons_by(monkeypatch, start_method: str) -> None:
    """Start local daemons by ``start_method`` (skipped where the platform lacks it)."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"needs the {start_method} start method")
    monkeypatch.setattr(executor_module, "_start_method", lambda: start_method)


def _on_daemon_queries(monkeypatch, act) -> None:
    """Run ``act(session, spec)`` before each query a forked local daemon answers.

    Patches the daemon's call-time lookup of ``run_batch_query``, which a
    ``fork`` child inherits; the inline fallback in this process answers
    through ``run_lane``'s own default and never sees the patch.
    """
    parent = os.getpid()
    real = daemon_module.run_batch_query

    def patched(session, spec, **options):
        if os.getpid() != parent:
            act(session, spec)
        return real(session, spec, **options)

    monkeypatch.setattr(daemon_module, "run_batch_query", patched)


def _kill_daemon_on(monkeypatch, graph_key: str) -> None:
    """SIGKILL the local daemon that starts a query on ``graph_key``'s graph."""
    fingerprint = load_dataset(graph_key).content_fingerprint()

    def kill(session, spec):
        if session.graph.content_fingerprint() == fingerprint:
            os.kill(os.getpid(), signal.SIGKILL)

    _on_daemon_queries(monkeypatch, kill)


class _AddressLabel:
    """A label whose (default) repr embeds its address, so its fingerprint is per-process."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _AddressLabel) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)


class TestFingerprintCheck:
    def test_graph_failing_its_fingerprint_fails_the_lane(self):
        nodes = [_AddressLabel(value) for value in range(5)]
        graph = DiGraph.from_edges(
            [(nodes[u], nodes[v]) for u in range(5) for v in range(5) if u != v and (u + v) % 3]
        )
        plan = plan_batch([{"query": "densest", "method": "core-exact"}], default_graph_key="g")
        report = BatchExecutor({"g": graph}, process_pool=True, max_retries=0).execute(plan)
        stats = report.executor_stats
        # A copy in another process would fingerprint differently, and the
        # labels do not survive JSON: the lane never leaves, it runs inline.
        assert (stats["unwirable_lanes"], stats["lanes_inline"]) == (1, 1)
        assert (stats["lanes_remote"], stats["remote_failures"]) == (0, 0)
        assert stats["degraded_lanes"] == ["g"]
        assert all(execution.worker is None for execution in report.executions)
        assert all(row["attempts"] == 1 for row in report.timings())
        assert _answers(report) == _answers(BatchExecutor({"g": graph}).execute(plan))


class TestShardCollapseInThePool:
    def test_colliding_graphs_still_use_both_workers(self):
        """Two graphs hashing to one shard must not serialise on one daemon."""
        from repro.graph.generators import gnm_random_digraph

        base = gnm_random_digraph(10, 24, seed=0)
        parity = int(base.content_fingerprint()[:16], 16) % 2
        other = None
        for seed in range(1, 64):
            candidate = gnm_random_digraph(10, 24, seed=seed)
            if int(candidate.content_fingerprint()[:16], 16) % 2 == parity:
                other = candidate
                break
        assert other is not None, "no colliding fingerprint in 64 seeds"
        graphs = {"g0": base, "g1": other}
        plan = plan_batch(
            [
                {"query": "densest", "method": "core-exact", "dataset": "g0"},
                {"query": "densest", "method": "core-exact", "dataset": "g1"},
            ],
            default_graph_key="g0",
        )
        report = BatchExecutor(graphs, process_pool=True, max_workers=2).execute(plan)
        stats = report.executor_stats
        assert stats["mode"] == "process-pool"
        assert stats["shards"] == 2
        assert len(set(stats["hosts"])) == 2
        assert {execution.worker for execution in report.executions} == {0, 1}
        assert _answers(report) == _answers(BatchExecutor(graphs).execute(plan))


# ----------------------------------------------------------------------
# cross-process bit-identity
# ----------------------------------------------------------------------
SPEC_MENU = [
    {"query": "densest", "method": "core-exact"},
    {"query": "densest", "method": "core-approx"},
    {"query": "fixed-ratio", "ratio": 0.75},
    {"query": "fixed-ratio", "ratio": 1.0},
    {"query": "top-k", "k": 2, "method": "core-exact"},
    {"query": "xy-core", "x": 1, "y": 1},
    {"query": "max-core"},
    {"query": "summary"},
]


class TestCrossProcessBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        batch=st.lists(
            st.tuples(
                st.sampled_from(SPEC_MENU), st.sampled_from([None, OTHER_DATASET])
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_process_pool_matches_serial_and_threads(self, batch):
        queries = []
        for spec, dataset in batch:
            spec = dict(spec)
            if dataset is not None:
                spec["dataset"] = dataset
            queries.append(spec)
        plan = _plan(queries)
        serial = _executor(max_workers=1).execute(plan)
        threads = _executor(max_workers=2).execute(plan)
        procs = _executor(max_workers=2, process_pool=True).execute(plan)
        assert _answers(procs) == _answers(serial) == _answers(threads)
        assert procs.executor_stats["mode"] == "process-pool"
        assert multiprocessing.active_children() == []

    def test_mixed_workload_matches_serial(self):
        # The E6 smoke workload: repeated fixed-ratio probes and exact
        # solves must survive the process boundary bit-for-bit, in the same
        # number of min-cuts.
        queries = service_mixed_workload()
        plan = _plan(queries)
        serial = _executor(max_workers=1).execute(plan)
        procs = _executor(max_workers=2, process_pool=True).execute(plan)
        assert _answers(procs) == _answers(serial)
        assert procs.aggregate_stats()["flow_calls"] == serial.aggregate_stats()["flow_calls"] > 0

    def test_spawn_pool_matches_threads(self, monkeypatch):
        _start_daemons_by(monkeypatch, "spawn")
        plan = _plan()
        threads = _executor(max_workers=2).execute(plan)
        spawned = _executor(process_pool=True, max_workers=2).execute(plan)
        stats = spawned.executor_stats
        assert (stats["mode"], stats["lanes_remote"], stats["lanes_inline"]) == ("process-pool", 2, 0)
        assert {execution.worker for execution in spawned.executions} == {0, 1}
        assert spawned.results_in_input_order() == threads.results_in_input_order()
        assert multiprocessing.active_children() == []

    def test_single_lane_still_uses_a_worker(self):
        plan = _plan([{"query": "densest", "method": "core-exact"}])
        report = _executor(process_pool=True).execute(plan)
        assert len(report.executor_stats["hosts"]) == report.executor_stats["lanes_remote"] == 1
        assert all(execution.worker == 0 for execution in report.executions)

    @needs_fork
    def test_unchanged_worker_save_takes_the_store_memory_path(self, tmp_path, monkeypatch):
        # Daemon sessions start at warm_state_version 0 like thread lanes,
        # so a complete warm is remembered and the save after a lane of
        # cache hits reads one generation and writes nothing.
        store_root = tmp_path / "store"
        plan = _plan([{"query": "densest", "method": "core-exact"}])
        cold = _executor(store=SessionStore(store_root)).execute(plan)

        def forbidden(*args, **kwargs):
            raise AssertionError("an unchanged daemon session took the full save path")

        monkeypatch.setattr(SessionStore, "_write", forbidden)  # forked daemons inherit it
        report = _executor(process_pool=True, store=SessionStore(store_root)).execute(plan)
        stats = report.executor_stats
        assert (stats["lanes_inline"], stats["degraded_lanes"]) == (0, [])
        assert report.store_stats[DEFAULT_DATASET]["results_loaded"] == 1
        assert _answers(report) == _answers(cold)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_pool_store_round_trip(self, tmp_path, monkeypatch, start_method):
        _start_daemons_by(monkeypatch, start_method)
        store_root = tmp_path / "store"
        plan = _plan()

        def run():
            store = SessionStore(store_root)
            return _executor(process_pool=True, max_workers=2, store=store).execute(plan)

        first, second = run(), run()
        cold = _executor().execute(plan)
        assert _answers(first) == _answers(second) == _answers(cold)
        assert set(first.store_stats) == set(plan.lanes)
        assert first.executor_stats["lanes_remote"] == 2
        # The second run warmed every answer the first one saved.
        saved = sum(counters["results_saved"] for counters in first.store_stats.values())
        assert sum(counters["results_loaded"] for counters in second.store_stats.values()) == saved > 0
        store = SessionStore(store_root)
        assert store.verify() == []
        assert len(store.inventory()) == 2
        # What the daemons wrote warms a fresh session in this process into
        # the same answers, without a min-cut.
        warmed = DDSSession(load_dataset(DEFAULT_DATASET))
        assert store.warm_session(warmed)["results_loaded"] > 0
        for entry in plan.lanes[DEFAULT_DATASET]:
            served = run_batch_query(warmed, dict(entry.spec))
            computed = run_batch_query(DDSSession(load_dataset(DEFAULT_DATASET)), dict(entry.spec))
            assert payload_answer(served) == payload_answer(computed)
        assert warmed.cache_stats()["flow_calls"] == 0
        store.close()

    @needs_fork
    def test_fork_child_saves_beside_its_parents_open_connection(self, tmp_path):
        """A ``fork`` child opens its own connection; the parent's stays usable."""
        store = SessionStore(tmp_path / "store")
        parent = DDSSession(load_dataset(DEFAULT_DATASET))
        parent.densest_subgraph("core-exact")
        store.save_session(parent)
        assert store._db is not None  # the parent's connection is open now
        child = multiprocessing.get_context("fork").Process(target=_save_top_k, args=(store,))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        parent.fixed_ratio(1.0)
        assert store.save_session(parent)["results_saved"] == 1
        warmed = DDSSession(load_dataset(DEFAULT_DATASET))
        counters = store.warm_session(warmed)
        assert (counters["results_loaded"], counters["results_corrupt"]) == (4, 0)
        assert store.verify() == []
        cold = DDSSession(load_dataset(DEFAULT_DATASET))
        for spec in FORK_SPECS:
            served, computed = run_batch_query(warmed, dict(spec)), run_batch_query(cold, dict(spec))
            assert payload_answer(served) == payload_answer(computed)
        outcome = warmed.fixed_ratio(1.0)
        assert (outcome.lower.hex(), outcome.upper.hex()) == (
            cold.fixed_ratio(1.0).lower.hex(),
            cold.fixed_ratio(1.0).upper.hex(),
        )
        assert warmed.cache_stats()["flow_calls"] == 0


#: The answers of the fork test: the parent's, the child's, the parent's.
FORK_SPECS = (
    {"query": "densest", "method": "core-exact"},
    {"query": "top-k", "k": 2, "method": "core-approx"},
    {"query": "fixed-ratio", "ratio": 1.0},
)


def _save_top_k(store: SessionStore) -> None:
    """In a forked child: answer a top-k query and save it through the inherited store."""
    session = DDSSession(load_dataset(DEFAULT_DATASET))
    session.top_k(2, method="core-approx")
    if store.save_session(session)["results_saved"] != 2:  # the list and its first round
        raise SystemExit(1)


# ----------------------------------------------------------------------
# crash containment
# ----------------------------------------------------------------------
class TestFaultInjection:
    @needs_fork
    def test_sigkilled_daemon_costs_only_its_lanes(self, monkeypatch):
        plan = _plan()
        reference = _answers(_executor().execute(plan))
        _kill_daemon_on(monkeypatch, DEFAULT_DATASET)
        report = _executor(process_pool=True, max_workers=2).execute(plan)
        assert _answers(report) == reference
        stats = report.executor_stats
        assert (stats["remote_failures"], stats["lanes_inline"], stats["lanes_remote"]) == (1, 1, 1)
        assert stats["degraded_lanes"] == [DEFAULT_DATASET]
        degraded_rows = [row for row in report.timings() if row.get("degraded")]
        assert degraded_rows and all(
            row["graph"] == DEFAULT_DATASET and row["attempts"] == 2 and "worker" not in row
            for row in degraded_rows
        )
        # The other daemon's lane was untouched.
        assert all(
            not execution.degraded and execution.worker is not None
            for execution in report.executions
            if execution.graph_key == OTHER_DATASET
        )
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_daemon_dead_before_its_port_costs_its_lanes(self, monkeypatch):
        real_start = ShardDaemon.start

        def die_first(self):
            if multiprocessing.current_process().name == "dds-local-shard-0":
                os._exit(0)
            return real_start(self)

        monkeypatch.setattr(ShardDaemon, "start", die_first)  # forked children inherit it
        plan = _plan()
        report = _executor(process_pool=True, max_workers=2).execute(plan)
        stats = report.executor_stats
        assert stats["hosts"][0] is None and stats["hosts"][1] is not None
        assert (stats["remote_failures"], stats["lanes_inline"], stats["lanes_remote"]) == (1, 1, 1)
        (lost,) = stats["degraded_lanes"]
        assert all(
            execution.degraded == (execution.graph_key == lost) for execution in report.executions
        )
        assert _answers(report) == _answers(_executor().execute(plan))
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_poisoned_query_is_retried_then_succeeds(self, monkeypatch):
        plan = _plan()
        reference = _answers(_executor().execute(plan))

        def poison(session, spec):
            if spec.get("query") == "fixed-ratio":
                raise BatchQueryError("poisoned on the daemon")

        _on_daemon_queries(monkeypatch, poison)
        report = _executor(process_pool=True).execute(plan)
        assert _answers(report) == reference
        stats = report.executor_stats
        # The daemon answered with the error, so the transport stayed
        # healthy: the lane re-ran inline, no failure was counted.
        assert (stats["lanes_inline"], stats["remote_failures"]) == (1, 0)
        assert stats["degraded_lanes"] == [DEFAULT_DATASET]
        assert set(stats["breaker_states"].values()) == {"closed"}

    @needs_fork
    def test_exhausted_retries_fall_back_inline(self, monkeypatch):
        plan = _plan()
        reference = _answers(_executor().execute(plan))
        _kill_daemon_on(monkeypatch, DEFAULT_DATASET)
        report = _executor(process_pool=True, max_workers=1, max_retries=1).execute(plan)
        # One daemon served both lanes.  The killed lane's request was
        # retried once on a fresh connection, then ran inline; the breaker
        # it opened sent the other lane inline without a connection.
        assert _answers(report) == reference
        stats = report.executor_stats
        assert (stats["client"]["retries"], stats["client"]["failures"]) == (1, 1)
        assert (stats["remote_failures"], stats["breaker_skipped_lanes"]) == (1, 1)
        assert all(e.worker is None and e.degraded for e in report.executions)
        assert multiprocessing.active_children() == []

    def test_genuinely_bad_query_raises_its_real_error(self, tmp_path):
        plan = _plan(
            [
                {"query": "densest", "method": "no-such-method"},
                {"query": "densest", "method": "core-approx", "dataset": OTHER_DATASET},
            ]
        )
        with pytest.raises(AlgorithmError, match="no-such-method"):
            _executor(
                process_pool=True, max_retries=1, store=SessionStore(tmp_path / "store")
            ).execute(plan)
        assert multiprocessing.active_children() == []
        # The other lane drained first: its daemon saved its answer.
        store = SessionStore(tmp_path / "store")
        assert store.warm_session(DDSSession(load_dataset(OTHER_DATASET)))["results_loaded"] == 1
        store.close()

    @needs_fork
    def test_lane_past_the_read_timeout_is_answered_once(self, monkeypatch):
        plan = _plan([{"query": "summary"}])
        monkeypatch.setitem(ShardClient.__init__.__kwdefaults__, "read_timeout", 0.2)
        _on_daemon_queries(monkeypatch, lambda session, spec: time.sleep(0.6))
        report = _executor(process_pool=True, max_retries=1).execute(plan)
        stats = report.executor_stats
        assert (stats["lanes_remote"], stats["lanes_inline"], stats["remote_failures"]) == (1, 0, 0)
        assert (stats["client"]["requests"], stats["client"]["retries"]) == (1, 0)
        assert all(execution.worker == 0 and not execution.degraded for execution in report.executions)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# no live children
# ----------------------------------------------------------------------


class TestNoLiveChildren:
    """``execute`` leaves no child process alive, whatever happened in it."""

    def test_normal_run(self):
        _executor(process_pool=True, max_workers=2).execute(_plan())
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_sigkill_and_retry_run(self, monkeypatch):
        _kill_daemon_on(monkeypatch, DEFAULT_DATASET)
        report = _executor(process_pool=True, max_workers=2).execute(_plan())
        assert report.executor_stats["client"]["retries"] == 1
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_exhausted_retries_inline_run(self, monkeypatch):
        _kill_daemon_on(monkeypatch, OTHER_DATASET)
        report = _executor(process_pool=True, max_workers=2, max_retries=0).execute(_plan())
        assert report.executor_stats["remote_failures"] == 1
        assert report.executor_stats["client"]["retries"] == 0
        assert multiprocessing.active_children() == []

    def test_raising_run(self):
        plan = _plan(
            [
                {"query": "densest", "method": "no-such-method"},
                {"query": "summary", "dataset": OTHER_DATASET},
            ]
        )
        with pytest.raises(AlgorithmError):
            _executor(process_pool=True, max_retries=0).execute(plan)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# order-independent stats aggregation
# ----------------------------------------------------------------------
class TestAggregateStatsOrder:
    def test_merge_is_completion_order_independent(self):
        # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 at the bit level: float
        # summation order matters, and completion order is nondeterministic
        # under any pool.  The aggregate must be a pure function of the
        # per-lane snapshots.
        lane_stats = {
            "a": {"queries": 3, "seconds_in_flow": 0.1},
            "b": {"queries": 1, "seconds_in_flow": 0.2},
            "c": {"queries": 2, "seconds_in_flow": 0.3},
        }
        aggregates = []
        for order in permutations(lane_stats):
            report = BatchReport(
                executions=[],
                session_stats={key: dict(lane_stats[key]) for key in order},
            )
            aggregates.append(report.aggregate_stats())
        assert all(aggregate == aggregates[0] for aggregate in aggregates)
        # And it equals the sorted-lane-order sum, bit for bit.
        assert aggregates[0]["seconds_in_flow"] == (0.1 + 0.2) + 0.3
        assert aggregates[0]["queries"] == 6

    def test_non_numeric_and_bool_values_are_skipped(self):
        report = BatchReport(
            executions=[],
            session_stats={"a": {"flag": True, "name": "x", "count": 2}},
        )
        assert report.aggregate_stats() == {"count": 2}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_batch_process_pool_flag(self, tmp_path, capsys):
        import json

        from repro.cli import main

        queries_path = tmp_path / "queries.json"
        queries_path.write_text(json.dumps(MIXED))
        code = main(
            [
                "batch",
                "--dataset",
                DEFAULT_DATASET,
                str(queries_path),
                "--process-pool",
                "--max-retries",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor"]["mode"] == "process-pool"
        assert payload["executor"]["lanes_remote"] == len(payload["executor"]["hosts"]) == 2
        assert len(payload["results"]) == len(MIXED)

"""The process-pool executor: the graph hand-off, bit-identity, faults, hygiene.

Pins the acceptance criteria of the multiprocess sharded executor:

* **The hand-off** — a ``DiGraph`` pickles as flat CSR and unpickles with
  its labels, edges, self-loop policy and fingerprint intact under a fresh
  ``state_token``; a worker fails a lane whose graph does not reproduce
  the fingerprint it was routed by.
* **Cross-process bit-identity** — process-pool answers are bit-identical
  to the serial and thread-pool paths on hypothesis-generated mixed
  batches (subgraphs, densities, and ``payload_answer()`` dicts), under
  ``fork`` and ``spawn``.
* **Fault tolerance** — a worker SIGKILLed mid-lane, poisoned by an
  erroring query, or dead before it read its graphs is retried on a fresh
  worker (then inline), the lane is marked degraded in the per-query
  timings, and the batch always completes or fails with the query's
  genuine error — never a deadlock.
* **Hygiene** — no worker process outlives ``execute``, on normal,
  retried, inline-fallback and raising runs.
* **Order-independent aggregation** — ``BatchReport.aggregate_stats()``
  is a pure function of the per-lane snapshots, not of completion order.
* **One store, many processes** — workers under ``fork`` and ``spawn`` save
  into one store, and a ``fork`` child saves through a connection of its
  own even when its parent's is open.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from array import array
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import service_mixed_workload
from repro.core.config import FlowConfig
from repro.datasets.registry import load_dataset
from repro.exceptions import AlgorithmError, ConfigError, GraphError
from repro.graph.digraph import DiGraph
from repro.service import (
    BatchExecutor,
    BatchReport,
    SessionStore,
    ShardMap,
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


# ----------------------------------------------------------------------
# the graph hand-off
# ----------------------------------------------------------------------
_LABELS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.text(max_size=3),
    st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
    st.frozensets(st.integers(min_value=0, max_value=3), max_size=2),
    st.none(),
)


@st.composite
def _labelled_graphs(draw) -> DiGraph:
    """Small graphs over mixed, non-string labels, with or without self-loops."""
    labels = draw(st.lists(_LABELS, max_size=10, unique=True))
    edges = []
    if labels:
        endpoint = st.sampled_from(labels)
        edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=30))
    return DiGraph.from_edges(edges, nodes=labels, allow_self_loops=draw(st.booleans()))


class TestDiGraphPickle:
    @settings(max_examples=60, deadline=None)
    @given(graph=_labelled_graphs())
    def test_round_trip_keeps_content_under_a_fresh_token(self, graph):
        fingerprint = graph.content_fingerprint()
        blob = pickle.dumps(graph)
        drawn_before = DiGraph().state_token
        rebuilt = pickle.loads(blob)
        assert rebuilt.nodes() == graph.nodes()
        assert [type(label) for label in rebuilt.nodes()] == [
            type(label) for label in graph.nodes()
        ]
        assert sorted(rebuilt.edge_indices()) == sorted(graph.edge_indices())
        assert rebuilt.num_edges == graph.num_edges
        assert rebuilt.allow_self_loops == graph.allow_self_loops
        assert rebuilt.content_fingerprint() == fingerprint
        # Drawn from this process's counter after unpickling, not copied.
        assert rebuilt.state_token > drawn_before


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
        # The worker's copy fingerprints differently, so it refuses the lane
        # (an error, not a crash) and the parent runs it inline.
        assert stats["degraded_lanes"] == ["g"]
        assert (stats["worker_crashes"], stats["worker_retries"]) == (0, 0)
        assert all(execution.worker is None for execution in report.executions)
        assert _answers(report) == _answers(BatchExecutor({"g": graph}).execute(plan))


class TestFromCsrArrays:
    def test_round_trip_preserves_fingerprint(self, small_random_graph):
        graph = small_random_graph
        starts, targets = [0], []
        for row in graph.out_adj:
            targets.extend(row)
            starts.append(len(targets))
        rebuilt = DiGraph.from_csr_arrays(graph.nodes(), starts, targets)
        assert rebuilt.content_fingerprint() == graph.content_fingerprint()
        assert rebuilt.num_edges == graph.num_edges

    def test_rejects_malformed_csr(self):
        with pytest.raises(GraphError, match="monotone"):
            DiGraph.from_csr_arrays(["a", "b"], [0, 1], [1, 0])
        with pytest.raises(GraphError, match="duplicates"):
            DiGraph.from_csr_arrays(["a", "a"], [0, 0, 0], [])
        with pytest.raises(GraphError, match="out of range"):
            DiGraph.from_csr_arrays(["a", "b"], [0, 1, 1], [5])
        with pytest.raises(GraphError, match="self-loop"):
            DiGraph.from_csr_arrays(["a", "b"], [0, 1, 1], [0])


# ----------------------------------------------------------------------
# shard routing
# ----------------------------------------------------------------------
class TestShardMap:
    def test_routing_is_content_stable(self):
        graph = load_dataset(DEFAULT_DATASET)
        copy = graph.copy()
        shard_map = ShardMap(4)
        assert shard_map.shard_of(graph.content_fingerprint()) == shard_map.shard_of(
            copy.content_fingerprint()
        )
        # Routing ignores batch composition: any assignment that includes
        # the graph puts it on the same shard.
        solo = shard_map.assign({"g": graph.content_fingerprint()})
        mixed = shard_map.assign(
            {
                "other": load_dataset(OTHER_DATASET).content_fingerprint(),
                "g": graph.content_fingerprint(),
            }
        )
        (solo_shard,) = [shard for shard, keys in solo.items() if "g" in keys]
        (mixed_shard,) = [shard for shard, keys in mixed.items() if "g" in keys]
        assert solo_shard == mixed_shard

    def test_assign_partitions_all_keys(self):
        fingerprints = {
            key: load_dataset(name).content_fingerprint()
            for key, name in (("a", DEFAULT_DATASET), ("b", OTHER_DATASET))
        }
        shards = ShardMap(2).assign(fingerprints)
        assigned = [key for keys in shards.values() for key in keys]
        assert sorted(assigned) == ["a", "b"]
        assert all(0 <= shard < 2 for shard in shards)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigError):
            ShardMap(0)
        with pytest.raises(ConfigError):
            ShardMap(2).shard_of("not-a-fingerprint")

    def test_collapse_spreads_collisions_to_empty_shards(self):
        # Three distinct fingerprints engineered onto shard 0 of 4: without
        # collapsing, one shard serialises all three lanes while three
        # slots idle.
        fp = lambda value: "%016x" % value + "0" * 48  # noqa: E731
        fingerprints = {"a": fp(0), "b": fp(4), "c": fp(8)}
        shard_map = ShardMap(4)
        assert shard_map.assign(fingerprints) == {0: ["a", "b", "c"]}
        collapsed = shard_map.assign(fingerprints, collapse=True)
        assert len(collapsed) == 3
        assert sorted(key for keys in collapsed.values() for key in keys) == ["a", "b", "c"]
        # The overfull shard keeps its smallest fingerprint; donations go to
        # the empty shards in ascending order, fingerprint-sorted.
        assert collapsed == {0: ["a"], 1: ["b"], 2: ["c"]}

    def test_collapse_moves_same_fingerprint_keys_together(self):
        fp = lambda value: "%016x" % value + "0" * 48  # noqa: E731
        fingerprints = {"a1": fp(0), "b1": fp(2), "a2": fp(0), "b2": fp(2)}
        collapsed = ShardMap(2).assign(fingerprints, collapse=True)
        assert collapsed == {0: ["a1", "a2"], 1: ["b1", "b2"]}

    def test_collapse_without_empty_shards_is_identity(self):
        fingerprints = {
            key: load_dataset(name).content_fingerprint()
            for key, name in (("a", DEFAULT_DATASET), ("b", OTHER_DATASET))
        }
        shard_map = ShardMap(1)
        assert shard_map.assign(fingerprints, collapse=True) == shard_map.assign(
            fingerprints
        )

    def test_collapse_never_outnumbers_distinct_fingerprints(self):
        fp = lambda value: "%016x" % value + "0" * 48  # noqa: E731
        fingerprints = {"a": fp(0), "b": fp(8)}  # both on shard 0 of 8
        collapsed = ShardMap(8).assign(fingerprints, collapse=True)
        assert len(collapsed) == 2


class TestShardCollapseInThePool:
    def test_colliding_graphs_still_use_both_workers(self):
        """Two graphs hashing to one shard must not serialise on one worker."""
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
        assert stats["workers_spawned"] == 2
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
        flow = FlowConfig()
        serial = _executor(flow=flow, max_workers=1).execute(plan)
        threads = _executor(flow=flow, max_workers=2).execute(plan)
        procs = _executor(flow=flow, max_workers=2, process_pool=True).execute(plan)
        assert _answers(procs) == _answers(serial) == _answers(threads)
        assert procs.executor_stats["mode"] == "process-pool"
        assert multiprocessing.active_children() == []

    def test_mixed_workload_matches_serial(self):
        # The E6 smoke workload: repeated fixed-ratio probes and exact
        # solves must survive the process boundary bit-for-bit, in the same
        # number of min-cuts.
        queries = service_mixed_workload()
        plan = _plan(queries)
        flow = FlowConfig()
        serial = _executor(flow=flow, max_workers=1).execute(plan)
        procs = _executor(flow=flow, max_workers=2, process_pool=True).execute(plan)
        assert _answers(procs) == _answers(serial)
        assert procs.aggregate_stats()["flow_calls"] == serial.aggregate_stats()["flow_calls"] > 0

    def test_spawn_pool_matches_threads(self):
        plan = _plan()
        threads = _executor(max_workers=2).execute(plan)
        spawned = _executor(process_pool=True, max_workers=2, mp_start_method="spawn").execute(plan)
        stats = spawned.executor_stats
        assert (stats["mode"], stats["start_method"]) == ("process-pool", "spawn")
        assert stats["workers_spawned"] == 2
        assert spawned.results_in_input_order() == threads.results_in_input_order()
        assert multiprocessing.active_children() == []

    def test_single_lane_still_uses_a_worker(self):
        plan = _plan([{"query": "densest", "method": "core-exact"}])
        report = _executor(process_pool=True).execute(plan)
        assert report.executor_stats["workers_spawned"] == 1
        assert all(execution.worker is not None for execution in report.executions)

    @needs_fork
    def test_unchanged_worker_save_takes_the_store_memory_path(self, tmp_path, monkeypatch):
        # Worker sessions start at warm_state_version 0 like thread lanes,
        # so a complete warm is remembered and the save after a lane of
        # cache hits reads one generation and writes nothing.
        store_root = tmp_path / "store"
        plan = _plan([{"query": "densest", "method": "core-exact"}])
        cold = _executor(store=SessionStore(store_root)).execute(plan)

        def forbidden(*args, **kwargs):
            raise AssertionError("an unchanged worker session took the full save path")

        monkeypatch.setattr(SessionStore, "_write", forbidden)  # forked workers inherit it
        report = _executor(
            process_pool=True, mp_start_method="fork", store=SessionStore(store_root)
        ).execute(plan)
        stats = report.executor_stats
        assert (stats["worker_retries"], stats["degraded_lanes"]) == (0, [])
        assert report.store_stats[DEFAULT_DATASET]["results_loaded"] == 1
        assert _answers(report) == _answers(cold)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_pool_store_round_trip(self, tmp_path, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"needs the {start_method} start method")
        store_root = tmp_path / "store"
        plan = _plan()

        def run():
            store = SessionStore(store_root)
            return _executor(
                process_pool=True, max_workers=2, mp_start_method=start_method, store=store
            ).execute(plan)

        first, second = run(), run()
        cold = _executor().execute(plan)
        assert _answers(first) == _answers(second) == _answers(cold)
        assert set(first.store_stats) == set(plan.lanes)
        assert first.executor_stats["start_method"] == start_method
        # The second run warmed every answer the first one saved.
        saved = sum(counters["results_saved"] for counters in first.store_stats.values())
        assert sum(counters["results_loaded"] for counters in second.store_stats.values()) == saved > 0
        store = SessionStore(store_root)
        assert store.verify() == []
        assert len(store.inventory()) == 2

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
# fault injection
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_sigkilled_worker_is_retried_on_a_fresh_worker(self):
        plan = _plan()
        reference = _answers(_executor().execute(plan))
        report = _executor(
            process_pool=True,
            max_workers=2,
            fault_injection={
                "graph_key": DEFAULT_DATASET,
                "kind": "sigkill",
                "times": 1,
            },
        ).execute(plan)
        assert _answers(report) == reference
        stats = report.executor_stats
        assert stats["worker_crashes"] == 1
        assert stats["worker_retries"] == 1
        assert stats["degraded_lanes"] == [DEFAULT_DATASET]
        degraded_rows = [row for row in report.timings() if row.get("degraded")]
        assert degraded_rows and all(
            row["graph"] == DEFAULT_DATASET and row["attempts"] == 2
            for row in degraded_rows
        )
        # The other lane was untouched.
        assert all(
            not execution.degraded
            for execution in report.executions
            if execution.graph_key == OTHER_DATASET
        )
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_dead_before_reading_its_graphs_is_a_crash(self, monkeypatch):
        real_main = executor_module._process_worker_main

        def die_first(conn, assignment):
            if assignment["worker_id"] == 0:
                os._exit(0)
            real_main(conn, assignment)

        # Forked workers run the patched entry point.  The graph pickles to
        # about 1.6 MB, more than a pipe buffers, so the parent's send to the
        # dead worker fails instead of filling a buffer nobody reads.
        monkeypatch.setattr(executor_module, "_process_worker_main", die_first)
        n, degree = 2000, 100
        graph = DiGraph.from_csr_arrays(
            list(range(n)),
            array("q", range(0, n * degree + 1, degree)),
            array("q", ((u + 1 + k) % n for u in range(n) for k in range(degree))),
        )
        plan = plan_batch([{"query": "summary"}], default_graph_key="big")
        report = BatchExecutor(
            {"big": graph}, process_pool=True, mp_start_method="fork"
        ).execute(plan)
        stats = report.executor_stats
        assert (stats["worker_crashes"], stats["worker_retries"]) == (1, 1)
        assert stats["degraded_lanes"] == ["big"]
        assert all(execution.worker == 1 for execution in report.executions)
        assert _answers(report) == _answers(BatchExecutor({"big": graph}).execute(plan))
        assert multiprocessing.active_children() == []

    def test_poisoned_query_is_retried_then_succeeds(self):
        plan = _plan()
        reference = _answers(_executor().execute(plan))
        report = _executor(
            process_pool=True,
            fault_injection={
                "graph_key": DEFAULT_DATASET,
                "index": 0,
                "kind": "error",
                "times": 1,
            },
        ).execute(plan)
        assert _answers(report) == reference
        assert report.executor_stats["worker_retries"] == 1
        assert report.executor_stats["worker_crashes"] == 0
        assert report.executor_stats["degraded_lanes"] == [DEFAULT_DATASET]

    def test_exhausted_retries_fall_back_inline(self):
        plan = _plan()
        reference = _answers(_executor().execute(plan))
        report = _executor(
            process_pool=True,
            max_retries=1,
            fault_injection={"graph_key": DEFAULT_DATASET, "kind": "sigkill", "times": 5},
        ).execute(plan)
        # Both process dispatches died; the inline fallback completed the
        # lane on the parent (worker=None) and the batch still finished.
        assert _answers(report) == reference
        assert report.executor_stats["worker_crashes"] == 2
        lane_rows = [e for e in report.executions if e.graph_key == DEFAULT_DATASET]
        assert lane_rows and all(e.worker is None and e.degraded for e in lane_rows)
        assert multiprocessing.active_children() == []

    def test_genuinely_bad_query_raises_its_real_error(self):
        plan = _plan([{"query": "densest", "method": "no-such-method"}])
        with pytest.raises(AlgorithmError, match="no-such-method"):
            _executor(process_pool=True, max_retries=1).execute(plan)
        assert multiprocessing.active_children() == []

    def test_fault_spec_is_validated(self):
        with pytest.raises(ConfigError, match="fault_injection"):
            _executor(process_pool=True, fault_injection={"kind": "explode"})


# ----------------------------------------------------------------------
# no live children
# ----------------------------------------------------------------------


class TestNoLiveChildren:
    """``execute`` leaves no worker process alive, whatever happened in it."""

    def test_normal_run(self):
        _executor(process_pool=True, max_workers=2).execute(_plan())
        assert multiprocessing.active_children() == []

    def test_sigkill_and_retry_run(self):
        report = _executor(
            process_pool=True,
            fault_injection={"graph_key": DEFAULT_DATASET, "kind": "sigkill", "times": 1},
        ).execute(_plan())
        assert report.executor_stats["worker_retries"] == 1
        assert multiprocessing.active_children() == []

    def test_exhausted_retries_inline_run(self):
        report = _executor(
            process_pool=True,
            max_retries=1,
            fault_injection={"graph_key": DEFAULT_DATASET, "kind": "sigkill", "times": 5},
        ).execute(_plan())
        assert report.executor_stats["worker_crashes"] == 2
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
        assert payload["executor"]["workers_spawned"] >= 1
        assert len(payload["results"]) == len(MIXED)

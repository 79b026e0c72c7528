"""The persistent session store: lossless round trips and integrity checks.

A result loaded from the store compares equal — subgraph, density,
stats — to the freshly computed one; corruption (tampered payloads, wrong
schema versions, mismatched graphs) is detected and counted, never
silently served.  Damage is done to the database's rows through
``store_rows``.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os

import pytest
import store_rows

from repro.core.config import ApproxConfig, ExactConfig
from repro.core.method_registry import get_method_spec
from repro.datasets.registry import load_dataset
from repro.exceptions import AlgorithmError, StoreError
from repro.graph.digraph import DiGraph
from repro.net import ShardDaemon
from repro.service import STORE_SCHEMA_VERSION, BatchExecutor, SessionStore, plan_batch
from repro.service import store as store_module
from repro.service.queries import run_batch_query
from repro.session import DDSSession
from repro.utils.canonical import canonical_json, checksum


@pytest.fixture
def graph():
    return load_dataset("foodweb-tiny")


def _strip_hit_marker(result):
    stats = dict(result.stats)
    stats.pop("result_cache_hit", None)
    return stats


class TestFingerprint:
    def test_stable_across_instances(self):
        a = DiGraph.from_edges([("a", "b"), ("b", "c")])
        b = DiGraph.from_edges([("a", "b"), ("b", "c")])
        assert a.content_fingerprint() == b.content_fingerprint()
        assert a.state_token != b.state_token

    def test_changes_with_structure_and_node_order(self):
        base = DiGraph.from_edges([("a", "b"), ("b", "c")])
        more = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        reordered = DiGraph.from_edges([("b", "c"), ("a", "b")])
        assert base.content_fingerprint() != more.content_fingerprint()
        # Node insertion order is part of the identity (index tie-breaking).
        assert base.content_fingerprint() != reordered.content_fingerprint()

    def test_cache_invalidated_on_mutation(self):
        graph = DiGraph.from_edges([("a", "b")])
        before = graph.content_fingerprint()
        graph.add_edge("b", "a")
        assert graph.content_fingerprint() != before


class TestRoundTrip:
    def test_result_round_trip_is_lossless(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        warm = DDSSession(graph)
        fresh = warm.densest_subgraph("core-exact")
        warm.xy_core(2, 2)
        warm.max_xy_core()
        counters = store.save_session(warm)
        assert counters["results_saved"] == 1
        assert counters["derived_saved"] == 1

        cold = DDSSession(load_dataset("foodweb-tiny"))
        loaded = store.warm_session(cold)
        assert loaded["results_loaded"] == 1
        assert loaded["derived_loaded"] == 1
        assert loaded["results_corrupt"] == 0
        served = cold.densest_subgraph("core-exact")
        # Served straight from the store: no recomputation happened ...
        assert served.stats["result_cache_hit"] is True
        assert cold.cache_stats()["flow_calls"] == 0
        # ... and the answer is bit-identical to the freshly computed one.
        assert served.s_nodes == fresh.s_nodes
        assert served.t_nodes == fresh.t_nodes
        assert served.density == fresh.density
        assert served.edge_count == fresh.edge_count
        assert served.is_exact == fresh.is_exact
        assert _strip_hit_marker(served) == _strip_hit_marker(fresh)

    def test_derived_state_round_trips(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        warm = DDSSession(graph)
        core = warm.max_xy_core()
        store.save_session(warm)

        cold = DDSSession(load_dataset("foodweb-tiny"))
        store.warm_session(cold)
        assert cold.out_degrees() == warm.out_degrees()
        assert cold.in_degrees() == warm.in_degrees()
        assert cold.density_upper_bound() == warm.density_upper_bound()
        restored = cold.cached_max_core()
        assert restored is not None
        assert (restored.x, restored.y) == (core.x, core.y)
        assert restored.s_nodes == core.s_nodes

    def test_distinct_configs_stored_separately(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        session = DDSSession(graph)
        session.densest_subgraph("core-exact")
        session.densest_subgraph("core-exact", config=ExactConfig(tolerance=0.5))
        session.densest_subgraph("core-approx", config=ApproxConfig())
        assert store.save_session(session)["results_saved"] == 3
        cold = DDSSession(load_dataset("foodweb-tiny"))
        assert store.warm_session(cold)["results_loaded"] == 3
        hit = cold.densest_subgraph("core-exact", config=ExactConfig(tolerance=0.5))
        assert hit.stats["result_cache_hit"] is True

    def test_non_json_native_labels_are_skipped_not_mangled(self, tmp_path):
        graph = DiGraph.from_edges([((1, "a"), (2, "b")), ((1, "a"), (3, "c"))])
        session = DDSSession(graph)
        session.densest_subgraph("core-approx")
        counters = SessionStore(tmp_path).save_session(session)
        assert counters["results_saved"] == 0
        assert counters["results_skipped"] == 1

    def test_unknown_graph_warms_nothing(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        counters = store.warm_session(DDSSession(graph))
        assert counters == {
            "results_loaded": 0,
            "results_corrupt": 0,
            "results_incompatible": 0,
            "derived_loaded": 0,
            "derived_corrupt": 0,
            "manifest_corrupt": 0,
        }


class TestIntegrity:
    def _populated_store(self, graph, root) -> SessionStore:
        store = SessionStore(root)
        session = DDSSession(graph)
        session.densest_subgraph("core-exact")
        store.save_session(session)
        return store

    def test_tampered_result_is_counted_and_skipped(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        [entry] = store_rows.entries(tmp_path)
        store_rows.tamper(tmp_path, entry, lambda payload: payload["result"].update(density=999.0))
        cold = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(cold)
        assert counters["results_corrupt"] == 1
        assert counters["results_loaded"] == 0
        # The poisoned entry is never served: the query recomputes.
        assert cold.densest_subgraph("core-exact").stats["result_cache_hit"] is False

    def test_verify_reports_tampering(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        assert store.verify() == []
        [entry] = store_rows.entries(tmp_path)
        store_rows.tamper(tmp_path, entry, lambda payload: payload["result"].update(density=999.0))
        problems = store.verify()
        assert len(problems) == 1 and "checksum" in problems[0]

    def test_wrong_store_schema_version_is_refused(self, tmp_path):
        with store_rows.connect(tmp_path) as db:
            db.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        with pytest.raises(StoreError, match="schema version"):
            SessionStore(tmp_path)

    @pytest.mark.parametrize("marker", ["store.json", "graphs"])
    def test_version_1_directory_store_is_refused(self, tmp_path, marker):
        if marker == "graphs":
            (tmp_path / "graphs" / ("0" * 64)).mkdir(parents=True)
        else:
            (tmp_path / marker).write_text(json.dumps({"store_schema_version": 1}))
        with pytest.raises(StoreError, match=rf"version-1 directory store \({marker}\).*choose another root"):
            SessionStore(tmp_path)
        assert not (tmp_path / store_module.DATABASE_NAME).exists()

    def test_root_that_is_a_file_raises_store_error(self, tmp_path):
        root = tmp_path / "store"
        root.write_text("a file where the store belongs")
        with pytest.raises(StoreError, match="is not a directory"):
            SessionStore(root)
        # A root under a file is refused by the first save that creates it.
        store = SessionStore(root / "below")
        session = DDSSession(load_dataset("foodweb-tiny"))
        session.densest_subgraph("core-approx")
        with pytest.raises(StoreError, match="cannot create store root"):
            store.save_session(session)

    def test_database_sqlite_cannot_open_raises_store_error(self, tmp_path):
        (tmp_path / store_module.DATABASE_NAME).write_bytes(b"not a database " * 100)
        with pytest.raises(StoreError, match="store database"):
            SessionStore(tmp_path)

    def test_corrupt_manifest_loads_nothing_but_never_raises(self, graph, tmp_path):
        """Serving must not die because a cache entry rotted: a bad manifest
        distrusts every row of the graph, counted, and the query recomputes."""
        store = self._populated_store(graph, tmp_path)
        manifest = (graph.content_fingerprint(), "manifest")
        store_rows.tamper(
            tmp_path, manifest, lambda payload: payload.update(num_edges=payload["num_edges"] + 1)
        )
        # The tamper is visible to the operator tool ...
        assert any("manifest" in problem for problem in store.verify())
        # ... and to the serving path, which distrusts the graph's rows.
        session = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(session)
        assert counters["manifest_corrupt"] == 1
        assert counters["results_loaded"] == 0
        assert session.densest_subgraph("core-exact").stats["result_cache_hit"] is False
        # Saving self-heals the manifest from the live graph ...
        store.save_session(session)
        healed = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        # ... so the next warm start trusts the graph's rows again.
        assert healed["manifest_corrupt"] == 0
        assert healed["results_loaded"] == 1

    def test_save_repairs_a_tampered_result_under_an_intact_checksum_field(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        [entry] = store_rows.entries(tmp_path)
        store_rows.tamper(tmp_path, entry, lambda payload: payload["result"].update(density=999.0))
        session = DDSSession(load_dataset("foodweb-tiny"))
        assert store.warm_session(session)["results_corrupt"] == 1
        session.densest_subgraph("core-exact")
        assert store.save_session(session)["results_saved"] == 1
        assert store.verify() == []
        assert store.warm_session(DDSSession(load_dataset("foodweb-tiny")))["results_loaded"] == 1

    def test_save_repairs_tampered_derived_state_under_an_intact_checksum_field(
        self, graph, tmp_path
    ):
        store = self._populated_store(graph, tmp_path)
        derived = (graph.content_fingerprint(), "derived")
        store_rows.tamper(tmp_path, derived, lambda payload: payload.update(density_upper_bound=999.0))
        session = DDSSession(load_dataset("foodweb-tiny"))
        assert store.warm_session(session)["derived_corrupt"] == 1
        assert store.save_session(session)["derived_saved"] == 1
        assert store.verify() == []
        assert store.warm_session(DDSSession(load_dataset("foodweb-tiny")))["derived_loaded"] == 1

    def test_warm_reads_the_manifest_once(self, graph, tmp_path, monkeypatch):
        """A warm reads the graph's rows in one snapshot: an eviction right after it cannot tear it."""
        store = self._populated_store(graph, tmp_path)
        read = SessionStore._read
        reads = []

        def read_then_evict(self, fingerprint, remembered):
            found = read(self, fingerprint, remembered)
            reads.append(fingerprint)
            assert SessionStore(tmp_path).evict(max_bytes=0)["graphs_evicted"] == 1
            return found

        monkeypatch.setattr(SessionStore, "_read", read_then_evict)
        counters = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        assert reads == [graph.content_fingerprint()]
        assert counters["manifest_corrupt"] == 0
        assert counters["derived_loaded"] == 1
        assert counters["results_loaded"] == 1

    def test_save_reads_the_manifest_once(self, graph, tmp_path, monkeypatch):
        store = self._populated_store(graph, tmp_path)
        read = SessionStore._read
        reads = []

        def counting_read(self, fingerprint, remembered):
            reads.append(fingerprint)
            return read(self, fingerprint, remembered)

        monkeypatch.setattr(SessionStore, "_read", counting_read)
        session = DDSSession(load_dataset("foodweb-tiny"))
        session.densest_subgraph("core-approx")
        assert store.save_session(session)["results_saved"] == 1
        assert len(reads) == 1

    def test_undecodable_manifest_is_corrupt_not_fatal(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        # Under an honest checksum, so only the JSON is broken.
        store_rows.edit_row(tmp_path, (graph.content_fingerprint(), "manifest"), text='{"num_nodes": ')
        counters = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        assert counters["manifest_corrupt"] == 1
        assert len(store.verify()) == 1

    def test_blocked_store_directory_raises_store_error(self, graph, tmp_path):
        (tmp_path / store_module.DATABASE_NAME).mkdir()
        with pytest.raises(StoreError, match="unable to open"):
            SessionStore(tmp_path)
        # A store whose schema was broken under it raises on its next use.
        store = SessionStore(tmp_path / "other")
        session = DDSSession(graph)
        store.save_session(session)
        with store_rows.connect(tmp_path / "other") as db:
            db.execute("DROP TABLE graphs")
        session.densest_subgraph("core-approx")
        with pytest.raises(StoreError, match="no such table"):
            store.save_session(session)

    def test_incompatible_method_is_counted_not_fatal(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        [entry] = store_rows.entries(tmp_path)
        # Under an honest checksum, so only the method name is "wrong".
        store_rows.edit_row(
            tmp_path, entry, dict(store_rows.payload(tmp_path, entry), method="not-a-registered-method")
        )
        counters = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        assert counters["results_incompatible"] == 1
        assert counters["results_corrupt"] == 0

    @pytest.mark.parametrize(
        "flow",
        [
            {"solver": "dinic", "batch_size": 32, "deadline_ms": None},
            {"solver": "dinic", "network_cache_size": 64, "deadline_ms": None},
            {"solver": "numpy-push-relabel", "deadline_ms": None},
            {"solver": "dinic", "deadline_ms": None},
            {"solver": "auto", "deadline_ms": None},
            {"deadline_ms": None},
        ],
        ids=["batch_size", "network_cache_size", "numpy-push-relabel", "dinic", "auto", "budget"],
    )
    def test_entry_with_a_removed_config_field_is_incompatible_not_corrupt(
        self, graph, tmp_path, flow
    ):
        """An entry saved by a build whose nested config this one cannot rebuild.

        Older builds stored every exact config with a nested flow config
        and the ``leaf_ratio_count`` and ``node_limit`` fields, so each of
        their entries carries since-removed fields, whatever its flow
        config held: a since-removed field (``batch_size``,
        ``network_cache_size``, ``solver``), a since-removed solver
        (``numpy-push-relabel``), the one that still runs every min-cut
        (``dinic``, also named ``auto``), or only the budget.  Such an entry
        is intact, but this build cannot rebuild its config, and the rest
        of the graph's state still loads.
        """
        store = SessionStore(tmp_path)
        donor = DDSSession(graph)
        donor.densest_subgraph("core-approx")
        store.save_session(donor)
        payload = {
            "method": "dc-exact",
            "config_type": "ExactConfig",
            "config": {
                "tolerance": None,
                "leaf_ratio_count": 2,
                "seed_with_core": False,
                "node_limit": None,
                "flow": flow,
            },
            "result": DDSSession(graph).densest_subgraph("dc-exact").to_dict(),
        }
        store_rows.edit_row(tmp_path, (graph.content_fingerprint(), "0" * 32), payload, kind="densest")

        receiver = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(receiver)
        assert counters == {
            "results_loaded": 1,
            "results_corrupt": 0,
            "results_incompatible": 1,
            "derived_loaded": 1,
            "derived_corrupt": 0,
            "manifest_corrupt": 0,
        }
        assert receiver.densest_subgraph("core-approx").stats["result_cache_hit"] is True
        assert receiver.densest_subgraph("dc-exact").stats["result_cache_hit"] is False

    def test_rows_of_the_nested_config_shape_are_incompatible_not_corrupt(self, graph, tmp_path):
        # Each config kind as older builds stored it: exact configs with a
        # nested flow config, leaf_ratio_count and node_limit, approximate
        # ones with ratios, in a densest row and inside a top-k query.
        old_fields = {
            "ExactConfig": {"leaf_ratio_count": 2, "node_limit": None, "flow": {"deadline_ms": None}},
            "ApproxConfig": {"ratios": None},
        }
        session = DDSSession(graph)
        session.densest_subgraph("dc-exact")
        session.densest_subgraph("peel-approx")
        session.top_k(2, method="core-approx")
        SessionStore(tmp_path).save_session(session)
        entries = store_rows.entries(tmp_path)
        assert len(entries) == 4  # the top-k list, its first round, and the two above
        for entry in entries:
            payload = store_rows.payload(tmp_path, entry)
            document = payload["query"] if payload["method"] == "top-k" else payload
            document["config"].update(old_fields[document["config_type"]])
            store_rows.edit_row(tmp_path, entry, payload)
        counters = SessionStore(tmp_path).warm_session(DDSSession(graph.copy()))
        assert (counters["results_loaded"], counters["results_incompatible"]) == (0, 4)
        assert counters["results_corrupt"] == 0
        assert counters["derived_loaded"] == 1


class TestManagement:
    def test_inventory_and_clear(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        assert store.inventory() == []
        session = DDSSession(graph)
        session.densest_subgraph("core-approx")
        store.save_session(session)
        other = DDSSession(load_dataset("social-tiny"))
        other.densest_subgraph("core-approx")
        store.save_session(other)
        rows = store.inventory()
        assert len(rows) == 2
        assert all(row["results"] == 1 and row["derived"] for row in rows)
        assert {row["num_nodes"] for row in rows} == {
            graph.num_nodes,
            other.graph.num_nodes,
        }
        assert store.clear() == 2
        assert store.inventory() == []

    def test_reads_of_a_missing_store_create_nothing(self, graph, tmp_path):
        root = tmp_path / "missing"
        store = SessionStore(root)
        assert store.inventory() == [] and store.verify() == []
        assert not any(store.warm_session(DDSSession(graph)).values())
        assert store.evict(older_than_days=0, max_bytes=0) == {
            "results_evicted": 0,
            "graphs_evicted": 0,
            "bytes_freed": 0,
            "bytes_remaining": 0,
        }
        assert store.clear() == 0
        assert not root.exists()
        session = DDSSession(graph)
        session.densest_subgraph("core-approx")
        assert store.save_session(session)["results_saved"] == 1
        assert (root / store_module.DATABASE_NAME).is_file()

    def test_connection_is_opened_on_use_and_released_by_close(self, graph, tmp_path):
        session = DDSSession(graph)
        session.densest_subgraph("core-approx")
        SessionStore(tmp_path).save_session(session)
        store = SessionStore(tmp_path)  # checks the schema version, holds nothing
        assert store._db is None
        assert store.inventory()[0]["results"] == 1
        assert store._db is not None
        store.close()
        store.close()  # idempotent
        assert store._db is None
        # The next use opens a new connection.
        assert store.warm_session(DDSSession(graph.copy()))["results_loaded"] == 1
        assert store._db is not None
        store.close()

    def test_save_is_idempotent_and_skips_unchanged_entries(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        session = DDSSession(graph)
        session.densest_subgraph("core-exact")
        first = store.save_session(session)
        assert first["results_saved"] == 1 and first["derived_saved"] == 1
        # Re-saving identical state rewrites nothing (no write churn on the
        # warm->serve->save loop of a store-backed batch).
        second = store.save_session(session)
        assert second["results_saved"] == 0
        assert second["results_unchanged"] == 1
        assert second["derived_saved"] == 0
        assert len(store_rows.entries(tmp_path)) == 1


class TestEviction:
    def _store_with_entries(self, tmp_path, datasets=("foodweb-tiny", "social-tiny")):
        """A store holding one exact + one approx result per dataset."""
        store = SessionStore(tmp_path)
        for name in datasets:
            session = DDSSession(load_dataset(name))
            session.densest_subgraph("core-approx")
            session.densest_subgraph("core-exact")
            store.save_session(session)
        return store

    def test_evict_requires_a_policy(self, tmp_path):
        with pytest.raises(StoreError, match="older_than_days and/or max_bytes"):
            SessionStore(tmp_path).evict()
        with pytest.raises(StoreError, match="older_than_days"):
            SessionStore(tmp_path).evict(older_than_days=-1)
        with pytest.raises(StoreError, match="max_bytes"):
            SessionStore(tmp_path).evict(max_bytes=-5)

    def test_age_sweep_removes_only_stale_entries(self, tmp_path):
        import time as time_module

        store = self._store_with_entries(tmp_path)
        entries = store_rows.entries(tmp_path)
        assert len(entries) == 4
        now = time_module.time()
        stale = entries[:2]
        store_rows.age_rows(tmp_path, now - 10 * 86400, stale)
        counters = store.evict(older_than_days=7, now=now)
        assert counters["results_evicted"] == 2
        assert counters["bytes_freed"] > 0
        assert store_rows.entries(tmp_path) == sorted(set(entries) - set(stale))
        # The surviving store is still fully loadable.
        session = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(session)
        assert counters["results_corrupt"] == 0

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        import time as time_module

        store = self._store_with_entries(tmp_path)
        entries = store_rows.entries(tmp_path)
        now = time_module.time()
        # Make one entry clearly the oldest.
        oldest = entries[0]
        store_rows.age_rows(tmp_path, now - 100, [oldest])
        total = sum(row["bytes"] for row in store.inventory())
        counters = store.evict(max_bytes=total - 1, now=now)
        assert counters["results_evicted"] >= 1
        assert oldest not in store_rows.entries(tmp_path)
        assert counters["bytes_remaining"] <= total - 1
        assert counters["bytes_remaining"] == sum(row["bytes"] for row in store.inventory())

    def test_max_bytes_zero_drops_whole_graphs(self, tmp_path):
        store = self._store_with_entries(tmp_path)
        counters = store.evict(max_bytes=0)
        assert counters["graphs_evicted"] == 2
        assert counters["bytes_remaining"] == 0
        assert store.inventory() == []
        # An evicted store warms nothing but never raises.
        session = DDSSession(load_dataset("foodweb-tiny"))
        assert store.warm_session(session)["results_loaded"] == 0

    def test_max_bytes_ties_break_deterministically_by_path(self, tmp_path):
        """Entries written at one time sweep in (fingerprint, key) order — eviction is reproducible.

        The LRU sweep sorts by ``(written, fingerprint, key)``; with every
        write time forced equal, the tie-break alone decides, so the same
        two first entries must go on every run.
        """
        import time as time_module

        store = self._store_with_entries(tmp_path)
        entries = store_rows.entries(tmp_path)
        assert len(entries) == 4
        now = time_module.time()
        store_rows.age_rows(tmp_path, now - 50)
        sizes = {name: len(text) for name, (_, text, _) in store_rows.rows(tmp_path).items()}
        total = sum(row["bytes"] for row in store.inventory())
        assert total == sum(sizes.values())
        counters = store.evict(max_bytes=total - sizes[entries[0]] - sizes[entries[1]], now=now)
        assert counters["results_evicted"] == 2
        assert store_rows.entries(tmp_path) == entries[2:]

    def test_age_sweep_keeps_fresh_store_intact(self, tmp_path):
        store = self._store_with_entries(tmp_path)
        counters = store.evict(older_than_days=7)
        assert counters == {
            "results_evicted": 0,
            "graphs_evicted": 0,
            "bytes_freed": 0,
            "bytes_remaining": sum(row["bytes"] for row in store.inventory()),
        }
        assert len(store.inventory()) == 2

    def test_written_time_moves_only_when_a_payload_changes(self, tmp_path):
        store = self._store_with_entries(tmp_path, datasets=("foodweb-tiny",))
        store_rows.age_rows(tmp_path, 1.0)
        session = DDSSession(load_dataset("foodweb-tiny"))
        store.warm_session(session)
        session.densest_subgraph("core-approx")
        session.fixed_ratio(1.0)
        assert store.save_session(session)["results_saved"] == 1
        assert sorted(store_rows.written(tmp_path).values())[:2] == [1.0, 1.0]
        assert SessionStore(tmp_path).save_session(session)["results_unchanged"] == 3
        assert sorted(store_rows.written(tmp_path).values())[:2] == [1.0, 1.0]


def _save_at_once(root, barrier, queue) -> None:
    """Answer two queries on foodweb-tiny, wait for the other writer, then save.

    Puts the save's counters on ``queue``, or the error it raised, so a
    failed writer fails the test at once.
    """
    session = DDSSession(load_dataset("foodweb-tiny"))
    session.densest_subgraph("core-exact")
    session.densest_subgraph("core-approx")
    store = SessionStore(root)
    barrier.wait(timeout=60)
    try:
        queue.put(store.save_session(session))
    except StoreError as error:
        queue.put(repr(error))


def _race(context, root) -> list[dict]:
    """Run two :func:`_save_at_once` writers on ``root``; their save counters."""
    barrier, queue = context.Barrier(2), context.Queue()
    writers = [context.Process(target=_save_at_once, args=(root, barrier, queue)) for _ in range(2)]
    for writer in writers:
        writer.start()
    counters = [queue.get(timeout=60) for _ in writers]
    for writer in writers:
        writer.join(timeout=60)
    assert [writer.exitcode for writer in writers] == [0, 0]
    assert all(isinstance(c, dict) for c in counters), counters
    return counters


class TestConcurrentWriters:
    def test_parallel_saves_leave_a_consistent_store(self, graph, tmp_path):
        """Two warmers racing on one graph must not corrupt anything."""
        import threading

        sessions = []
        for _ in range(4):
            session = DDSSession(graph.copy())
            session.densest_subgraph("core-exact")
            session.densest_subgraph("core-approx")
            sessions.append(session)
        store = SessionStore(tmp_path)
        errors = []

        def save(session):
            try:
                store.save_session(session)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=save, args=(s,)) for s in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.verify() == []
        [row] = store.inventory()
        assert row["results"] == 2
        fresh = DDSSession(graph.copy())
        counters = store.warm_session(fresh)
        assert counters["results_loaded"] == 2
        assert counters["results_corrupt"] == 0

    def test_lock_serialises_writers(self, graph, tmp_path):
        """Two processes saving one graph at once: SQLite's write lock serialises them.

        Each opens its own store on one root and saves the same answers at
        the same moment.  Whichever commits second finds every row current
        and writes nothing, so the graph ends with one row per key.
        """
        counters = _race(multiprocessing.get_context(), tmp_path)
        assert sorted(c["results_saved"] for c in counters) == [0, 2]
        assert sorted(c["derived_saved"] for c in counters) == [0, 1]
        store = SessionStore(tmp_path)
        assert store.verify() == []
        assert len(store_rows.entries(tmp_path)) == 2
        [row] = store.inventory()
        assert row["results"] == 2
        assert store.warm_session(DDSSession(graph))["results_loaded"] == 2

    def test_simultaneous_first_saves_create_one_database(self, tmp_path):
        """Two processes whose first saves create one store at the same moment both save.

        Switching a new database to WAL mode takes a lock SQLite does not
        wait for, so the database must appear whole.  Each round races two
        first saves on a fresh root: one writes the answer, the other finds
        it current, and no temporary file is left behind.
        """
        context = multiprocessing.get_context()
        for round_ in range(50):
            root = tmp_path / str(round_)
            counters = _race(context, root)
            assert sorted(c["results_saved"] for c in counters) == [0, 2], round_
            # The database (with its WAL files, while connections race to
            # close) and nothing else: no temporary copy is left behind.
            left = [name for name in os.listdir(root) if not name.startswith(store_module.DATABASE_NAME)]
            assert left == [], (round_, left)
            assert (root / store_module.DATABASE_NAME).exists()


class TestSessionSeedHooks:
    def test_seed_result_respects_disabled_cache(self, graph):
        donor = DDSSession(graph)
        donor.densest_subgraph("core-approx")
        [(method, config, cached)] = donor.cached_results()
        disabled = DDSSession(load_dataset("foodweb-tiny"), result_cache_size=0)
        assert disabled.seed_result(method, config, cached) is False

    def test_seed_derived_validates_degree_lengths(self, graph):
        from repro.exceptions import GraphError

        session = DDSSession(graph)
        with pytest.raises(GraphError, match="seeded out_degrees"):
            session.seed_derived(out_degrees=[1, 2, 3])

    def test_seed_derived_rejects_foreign_core_indices(self, graph):
        from repro.core.xycore import XYCore
        from repro.exceptions import GraphError

        session = DDSSession(graph)
        alien = XYCore(x=1, y=1, s_nodes=[graph.num_nodes + 5], t_nodes=[0])
        with pytest.raises(GraphError, match="different graph"):
            session.seed_derived(xy_cores=[alien])
        with pytest.raises(GraphError, match="different graph"):
            session.seed_derived(max_core=alien)

    def test_session_flow_config_is_independent_of_store(self, graph, tmp_path, flow_oracle):
        # A store written by queries with a budget, whose min-cuts ran on
        # the oracle, warms a session with neither: the cached *results* are
        # solver-independent facts about the graph, keyed without a budget.
        store = SessionStore(tmp_path)
        donor = DDSSession(graph)
        donor.densest_subgraph("core-approx")
        donor.densest_subgraph("dc-exact", deadline_ms=60_000)
        store.save_session(donor)
        receiver = DDSSession(load_dataset("foodweb-tiny"))
        assert store.warm_session(receiver)["results_loaded"] == 2
        assert receiver.densest_subgraph("dc-exact").stats["result_cache_hit"] is True


# ----------------------------------------------------------------------
# fixed-ratio outcomes and top-k lists
# ----------------------------------------------------------------------
#: Batch specs of the two cached query kinds beside densest results.
ANSWER_SPECS = (
    {"query": "fixed-ratio", "ratio": 0.5},
    {"query": "fixed-ratio", "ratio": 2.0, "tolerance": 1e-6},
    {"query": "top-k", "k": 2, "method": "core-approx"},
    {"query": "top-k", "k": 3, "method": "core-exact"},
)


def _bracket_bits(payloads):
    """Every fixed-ratio payload's bracket as exact bit patterns."""
    return [
        (payload["lower"].hex(), payload["upper"].hex())
        for payload in payloads
        if isinstance(payload, dict) and "lower" in payload
    ]


def _answered(graph, specs=ANSWER_SPECS) -> tuple[DDSSession, list]:
    """A session that answered ``specs``, and the payloads it returned."""
    session = DDSSession(graph)
    return session, [run_batch_query(session, dict(spec)) for spec in specs]


def _write_solver_twin(root, entry, name: str) -> None:
    """Store ``entry``'s answer beside it under the solver ``name``, as older builds named it."""
    payload = store_rows.payload(root, entry)
    kind = payload["method"]
    if kind == "fixed-ratio":
        payload["query"]["flow_solver"] = name
        key = store_module._entry_key(kind, payload["query"])
    elif kind == "top-k":
        payload["query"]["config"]["flow"] = {"solver": name, "deadline_ms": None}
        key = store_module._entry_key(kind, payload["query"])
    else:
        kind = "densest"
        payload["config"]["flow"] = {"solver": name, "deadline_ms": None}
        key = store_module._entry_key(payload["method"], payload["config"])
    store_rows.edit_row(root, (entry[0], key), payload, kind=kind)


class TestAnswerKinds:
    def test_store_round_trip_answers_like_a_cold_session(self, graph, tmp_path):
        _, cold = _answered(graph.copy())
        session, _ = _answered(graph)
        counters = SessionStore(tmp_path).save_session(session)
        assert counters["results_saved"] == len(session.cached_results())
        warmed = DDSSession(graph.copy())
        loaded = SessionStore(tmp_path).warm_session(warmed)
        assert loaded["results_loaded"] == counters["results_saved"]
        assert loaded["results_corrupt"] == loaded["results_incompatible"] == 0
        served = [run_batch_query(warmed, dict(spec)) for spec in ANSWER_SPECS]
        assert served == cold
        assert _bracket_bits(served) == _bracket_bits(cold)
        stats = warmed.cache_stats()
        assert stats["result_cache_hits"] == len(ANSWER_SPECS)
        assert stats["flow_calls"] == 0

    def test_daemon_read_answers_like_a_cold_session(self, graph, tmp_path):
        _, cold = _answered(graph.copy())
        specs = [dict(spec, dataset="g") for spec in ANSWER_SPECS]
        with ShardDaemon(SessionStore(tmp_path), max_sessions=1) as daemon:
            executor = BatchExecutor({"g": graph}, remote_hosts=[daemon.address])
            first = executor.execute(plan_batch(specs)).results_in_input_order()
            # A second graph evicts the first session to the store, so the
            # next read is served by a session warmed from it.
            other = [{"query": "fixed-ratio", "ratio": 1.0, "dataset": "h"}]
            BatchExecutor({"h": load_dataset("social-tiny")}, remote_hosts=[daemon.address]).execute(
                plan_batch(other)
            )
            second = executor.execute(plan_batch(specs)).results_in_input_order()
            assert daemon.daemon_stats()["sessions_evicted"] >= 1
        assert first == cold and second == cold
        assert _bracket_bits(second) == _bracket_bits(cold)

    def test_inventory_counts_entries_by_kind(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        session, _ = _answered(graph)
        store.save_session(session)
        [row] = store.inventory()
        assert (row["results"], row["fixed_ratio"], row["top_k"]) == (2, 2, 2)

    def test_no_registered_method_shares_a_kind_name(self):
        # An entry of either kind is intact but unusable to a build that
        # predates the kind: it counts results_incompatible, not corrupt.
        for name in ("fixed-ratio", "top-k"):
            with pytest.raises(AlgorithmError):
                get_method_spec(name)

    def test_unknown_kind_is_incompatible_not_corrupt(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        session, _ = _answered(graph, ANSWER_SPECS[:1])
        store.save_session(session)
        [entry] = store_rows.entries(tmp_path, kind="fixed-ratio")
        store_rows.edit_row(tmp_path, entry, dict(store_rows.payload(tmp_path, entry), method="kth-densest"))
        counters = SessionStore(tmp_path).warm_session(DDSSession(graph.copy()))
        assert counters["results_incompatible"] == 1
        assert counters["results_corrupt"] == 0

    def test_stored_rows_naming_a_solver_are_incompatible(self, graph, tmp_path):
        # Rows written when fixed-ratio queries and flow configs named the
        # solver are intact but name a field this build lacks, whichever
        # name it is; the rows beside them still load.
        session = DDSSession(graph)
        session.fixed_ratio(1.0)
        session.densest_subgraph("dc-exact")
        session.top_k(2, method="core-exact")
        SessionStore(tmp_path).save_session(session)
        # The top-k list, its first (densest) round, dc-exact and the probe.
        entries = store_rows.entries(tmp_path)
        assert len(entries) == 4
        for entry in entries:
            for name in ("auto", "dinic"):
                _write_solver_twin(tmp_path, entry, name)
        assert len(store_rows.entries(tmp_path)) == 12
        warmed = DDSSession(graph.copy())
        counters = SessionStore(tmp_path).warm_session(warmed)
        assert (counters["results_loaded"], counters["results_incompatible"]) == (4, 8)
        assert counters["results_corrupt"] == 0
        warmed.fixed_ratio(1.0)
        warmed.densest_subgraph("dc-exact")
        warmed.top_k(2, method="core-exact")
        stats = warmed.cache_stats()
        assert (stats["result_cache_hits"], stats["flow_calls"]) == (3, 0)

    def test_unencodable_top_k_labels_are_skipped(self, tmp_path):
        graph = DiGraph.from_edges([((1, "a"), (2, "b")), ((1, "a"), (3, "c"))])
        session = DDSSession(graph)
        session.top_k(2, method="core-approx")
        session.fixed_ratio(1.0)  # node indices: always stored
        counters = SessionStore(tmp_path).save_session(session)
        assert counters["results_skipped"] == 2  # round 1 and the list
        assert counters["results_saved"] == 1


# ----------------------------------------------------------------------
# row text and the decoded-answer memory
# ----------------------------------------------------------------------
def _count_decodes(monkeypatch) -> list:
    """Record every row a store parses."""
    calls = []
    decode = store_module._decode

    def spy(where, text):
        calls.append(where)
        return decode(where, text)

    monkeypatch.setattr(store_module, "_decode", spy)
    return calls


class TestFileFormat:
    def test_files_are_compact_canonical_json(self, graph, tmp_path):
        """Every row holds compact canonical JSON text beside the SHA-256 of that text."""
        session, _ = _answered(graph)
        SessionStore(tmp_path).save_session(session)
        rows = store_rows.rows(tmp_path)
        assert len(rows) == 2 + len(session.cached_results())
        for kind, text, digest in rows.values():
            payload = json.loads(text)
            assert text == canonical_json(payload)
            assert digest == checksum(payload)
            assert kind in ("manifest", "derived", "densest") or kind == payload["method"]

    def test_unchanged_files_are_not_verified_again(self, graph, tmp_path, monkeypatch):
        """At an unchanged generation a warm parses no row; a store without that memory parses every row."""
        store = SessionStore(tmp_path)
        session, _ = _answered(graph)
        store.save_session(session)
        decodes = _count_decodes(monkeypatch)
        for _ in range(2):
            warmed = DDSSession(graph)  # the graph the store already knows
            assert store.warm_session(warmed)["results_loaded"] == len(session.cached_results())
        assert decodes == []
        SessionStore(tmp_path).warm_session(DDSSession(graph.copy()))
        assert len(decodes) == len(store_rows.rows(tmp_path))

    def test_a_file_replaced_between_warms_is_verified_again(self, graph, tmp_path, monkeypatch):
        """A row rewritten between warms moves the generation: only that row is parsed again."""
        store = SessionStore(tmp_path)
        session, _ = _answered(graph)
        store.save_session(session)
        store.warm_session(DDSSession(graph))
        entry = store_rows.entries(tmp_path, kind="top-k")[0]
        # The same payload in other text, under an honest checksum.
        text = json.dumps(store_rows.payload(tmp_path, entry), indent=2)
        store_rows.edit_row(tmp_path, entry, text=text)
        decodes = _count_decodes(monkeypatch)
        loaded = store.warm_session(DDSSession(graph))
        assert decodes == [entry[1]]
        assert loaded["results_loaded"] == len(session.cached_results())

    def test_a_file_tampered_between_warms_is_corrupt(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        session, _ = _answered(graph)
        store.save_session(session)
        assert store.warm_session(DDSSession(graph))["results_corrupt"] == 0
        entry = store_rows.entries(tmp_path, kind="fixed-ratio")[0]

        def raise_upper(payload):
            payload["outcome"]["upper"] += 1.0  # the checksum now lies

        store_rows.tamper(tmp_path, entry, raise_upper)
        warmed = DDSSession(graph)
        counters = store.warm_session(warmed)
        assert counters["results_corrupt"] == 1
        assert counters["results_loaded"] == len(session.cached_results()) - 1
        assert store.save_session(warmed)["results_saved"] == 0  # nothing to repair from
        assert len(store.verify()) == 1
        # Every later warm still counts it, as a store without this memory does.
        assert store.warm_session(DDSSession(graph))["results_corrupt"] == 1

    def test_memory_lives_no_longer_than_the_graph(self, tmp_path):
        store = SessionStore(tmp_path)
        graph = load_dataset("foodweb-tiny")
        session, _ = _answered(graph, ANSWER_SPECS[:1])
        store.save_session(session)
        assert len(store._known) == 1
        del session, graph
        gc.collect()
        assert len(store._known) == 0

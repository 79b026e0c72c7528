"""The persistent session store: lossless round trips and integrity checks.

Acceptance criteria of the service tier (ISSUE 4): a result loaded from
disk compares equal — subgraph, density, stats — to the freshly computed
one; corruption (tampered payloads, wrong schema versions, mismatched
graphs) is detected and counted, never silently served.
"""

from __future__ import annotations

import json

import pytest
from flow_oracle import EdmondsKarpSolver

from repro.core.config import ApproxConfig, ExactConfig, FlowConfig
from repro.datasets.registry import load_dataset
from repro.exceptions import StoreError
from repro.flow.registry import register_solver, unregister_solver
from repro.graph.digraph import DiGraph
from repro.service import STORE_SCHEMA_VERSION, SessionStore
from repro.session import DDSSession


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
        [entry] = (tmp_path / "graphs").glob("*/results/*.json")
        document = json.loads(entry.read_text())
        document["payload"]["result"]["density"] = 999.0  # checksum now lies
        entry.write_text(json.dumps(document))
        cold = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(cold)
        assert counters["results_corrupt"] == 1
        assert counters["results_loaded"] == 0
        # The poisoned entry is never served: the query recomputes.
        assert cold.densest_subgraph("core-exact").stats["result_cache_hit"] is False

    def test_verify_reports_tampering(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        assert store.verify() == []
        [entry] = (tmp_path / "graphs").glob("*/results/*.json")
        document = json.loads(entry.read_text())
        document["payload"]["result"]["density"] = 999.0
        entry.write_text(json.dumps(document))
        problems = store.verify()
        assert len(problems) == 1 and "checksum" in problems[0]

    def test_wrong_store_schema_version_is_refused(self, tmp_path):
        (tmp_path / "store.json").write_text(
            json.dumps({"store_schema_version": STORE_SCHEMA_VERSION + 1})
        )
        with pytest.raises(StoreError, match="schema version"):
            SessionStore(tmp_path)

    def test_corrupt_manifest_loads_nothing_but_never_raises(self, graph, tmp_path):
        """Serving must not die because a cache entry rotted: a bad manifest
        distrusts the whole graph directory, counted, and the query recomputes."""
        store = self._populated_store(graph, tmp_path)
        [manifest] = (tmp_path / "graphs").glob("*/manifest.json")
        document = json.loads(manifest.read_text())
        document["payload"]["num_edges"] += 1
        manifest.write_text(json.dumps(document))
        # The tamper is visible to the operator tool ...
        assert any("manifest.json" in problem for problem in store.verify())
        # ... and to the serving path, which distrusts the directory.
        session = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(session)
        assert counters["manifest_corrupt"] == 1
        assert counters["results_loaded"] == 0
        assert session.densest_subgraph("core-exact").stats["result_cache_hit"] is False
        # Saving self-heals the manifest from the live graph ...
        store.save_session(session)
        healed = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        # ... so the next warm start trusts the directory again.
        assert healed["manifest_corrupt"] == 0
        assert healed["results_loaded"] == 1

    def test_save_repairs_a_tampered_result_under_an_intact_checksum_field(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        [entry] = (tmp_path / "graphs").glob("*/results/*.json")
        document = json.loads(entry.read_text())
        document["payload"]["result"]["density"] = 999.0  # "checksum" left as it was
        entry.write_text(json.dumps(document))
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
        [derived] = (tmp_path / "graphs").glob("*/derived.json")
        document = json.loads(derived.read_text())
        document["payload"]["density_upper_bound"] = 999.0
        derived.write_text(json.dumps(document))
        session = DDSSession(load_dataset("foodweb-tiny"))
        assert store.warm_session(session)["derived_corrupt"] == 1
        assert store.save_session(session)["derived_saved"] == 1
        assert store.verify() == []
        assert store.warm_session(DDSSession(load_dataset("foodweb-tiny")))["derived_loaded"] == 1

    @staticmethod
    def _evict_manifest_after_first_read(monkeypatch) -> None:
        """Delete the manifest right after its first read, as a concurrent evict can."""
        read_json = SessionStore._read_json

        def read_then_evict(path):
            document = read_json(path)
            if path.name == "manifest.json" and path.exists():
                path.unlink()
            return document

        monkeypatch.setattr(SessionStore, "_read_json", staticmethod(read_then_evict))

    def test_warm_reads_the_manifest_once(self, graph, tmp_path, monkeypatch):
        store = self._populated_store(graph, tmp_path)
        self._evict_manifest_after_first_read(monkeypatch)
        counters = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        assert counters["manifest_corrupt"] == 0
        assert counters["derived_loaded"] == 1
        assert counters["results_loaded"] == 1

    def test_save_reads_the_manifest_once(self, graph, tmp_path, monkeypatch):
        store = self._populated_store(graph, tmp_path)
        read_json = SessionStore._read_json
        manifest_reads = []

        def counting_read(path):
            if path.name == "manifest.json":
                manifest_reads.append(path)
            return read_json(path)

        monkeypatch.setattr(SessionStore, "_read_json", staticmethod(counting_read))
        session = DDSSession(load_dataset("foodweb-tiny"))
        session.densest_subgraph("core-approx")
        assert store.save_session(session)["results_saved"] == 1
        assert len(manifest_reads) == 1

    def test_undecodable_manifest_is_corrupt_not_fatal(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        [manifest] = (tmp_path / "graphs").glob("*/manifest.json")
        manifest.write_bytes(b"\xff\xfe not utf-8")
        counters = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        assert counters["manifest_corrupt"] == 1
        assert len(store.verify()) == 1

    def test_blocked_store_directory_raises_store_error(self, graph, tmp_path):
        store = SessionStore(tmp_path)
        (tmp_path / "graphs").write_text("a file where the graphs directory belongs")
        session = DDSSession(graph)
        session.densest_subgraph("core-approx")
        with pytest.raises(StoreError):
            store.save_session(session)
        with pytest.raises(StoreError):
            SessionStore._write_json(tmp_path / "graphs" / "entry.json", {})

    def test_incompatible_method_is_counted_not_fatal(self, graph, tmp_path):
        store = self._populated_store(graph, tmp_path)
        [entry] = (tmp_path / "graphs").glob("*/results/*.json")
        document = json.loads(entry.read_text())
        document["payload"]["method"] = "not-a-registered-method"
        # Re-checksum so only the method name is "wrong", not the envelope.
        import hashlib

        canonical = json.dumps(document["payload"], sort_keys=True, separators=(",", ":"))
        document["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        entry.write_text(json.dumps(document))
        counters = store.warm_session(DDSSession(load_dataset("foodweb-tiny")))
        assert counters["results_incompatible"] == 1
        assert counters["results_corrupt"] == 0

    def test_unregistered_flow_solver_is_counted_not_fatal(self, graph, tmp_path):
        # A store written by a build with a solver this one lacks (here a
        # plugin): that entry is incompatible, and every other entry still
        # loads.
        store = SessionStore(tmp_path)
        register_solver("store-only-solver", EdmondsKarpSolver)
        try:
            donor = DDSSession(graph)
            donor.densest_subgraph("dc-exact", flow_solver="store-only-solver")
            donor.densest_subgraph("core-approx")
            store.save_session(donor)
        finally:
            unregister_solver("store-only-solver")
        receiver = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(receiver)
        assert counters["results_incompatible"] == 1
        assert counters["results_corrupt"] == 0
        assert counters["results_loaded"] == 1
        assert receiver.densest_subgraph("core-approx").stats["result_cache_hit"] is True

    @pytest.mark.parametrize(
        "flow",
        [
            {"solver": "dinic", "batch_size": 32, "deadline_ms": None},
            {"solver": "dinic", "network_cache_size": 64, "deadline_ms": None},
            {"solver": "numpy-push-relabel", "deadline_ms": None},
        ],
        ids=["batch_size", "network_cache_size", "numpy-push-relabel"],
    )
    def test_entry_with_a_removed_config_field_is_incompatible_not_corrupt(
        self, graph, tmp_path, flow
    ):
        """An entry saved by a build whose ``FlowConfig`` this one cannot rebuild.

        Every stored config embeds its nested flow config, so each entry of
        a build with a since-removed field (``batch_size``,
        ``network_cache_size``) carries it, and an entry may name a
        since-removed solver (``numpy-push-relabel``).  Such an entry is
        intact, but this build cannot rebuild its config, and the rest of
        the graph's state still loads.
        """
        import hashlib

        store = SessionStore(tmp_path)
        donor = DDSSession(graph)
        donor.densest_subgraph("core-approx")
        store.save_session(donor)
        [graph_dir] = (tmp_path / "graphs").iterdir()
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
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        document = {"checksum": hashlib.sha256(canonical.encode()).hexdigest(), "payload": payload}
        (graph_dir / "results" / ("0" * 32 + ".json")).write_text(json.dumps(document))

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
        [graph_dir] = (tmp_path / "graphs").iterdir()
        assert len(list((graph_dir / "results").glob("*.json"))) == 1


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
        import os
        import time as time_module

        store = self._store_with_entries(tmp_path)
        entries = sorted((tmp_path / "graphs").glob("*/results/*.json"))
        assert len(entries) == 4
        now = time_module.time()
        stale = entries[:2]
        for path in stale:
            os.utime(path, (now - 10 * 86400, now - 10 * 86400))
        counters = store.evict(older_than_days=7, now=now)
        assert counters["results_evicted"] == 2
        assert counters["bytes_freed"] > 0
        remaining = sorted((tmp_path / "graphs").glob("*/results/*.json"))
        assert remaining == sorted(set(entries) - set(stale))
        # The surviving store is still fully loadable.
        session = DDSSession(load_dataset("foodweb-tiny"))
        counters = store.warm_session(session)
        assert counters["results_corrupt"] == 0

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        import os
        import time as time_module

        store = self._store_with_entries(tmp_path)
        entries = sorted((tmp_path / "graphs").glob("*/results/*.json"))
        now = time_module.time()
        # Make one entry clearly the oldest.
        oldest = entries[0]
        os.utime(oldest, (now - 100, now - 100))
        total = sum(
            p.stat().st_size for p in (tmp_path / "graphs").rglob("*") if p.is_file()
        )
        counters = store.evict(max_bytes=total - 1, now=now)
        assert counters["results_evicted"] >= 1
        assert not oldest.exists()
        assert counters["bytes_remaining"] <= total - 1

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
        """Equal-mtime entries sweep in path order — eviction is reproducible.

        The LRU sweep sorts by ``(mtime, path)``; with every mtime forced
        equal, the path tie-break alone decides, so the same two
        lexicographically-first entries must go on every run regardless of
        filesystem enumeration order.
        """
        import os
        import time as time_module

        store = self._store_with_entries(tmp_path)
        entries = sorted((tmp_path / "graphs").glob("*/results/*.json"))
        assert len(entries) == 4
        now = time_module.time()
        stamp = now - 50
        for path in entries:
            os.utime(path, (stamp, stamp))
        total = sum(
            p.stat().st_size for p in (tmp_path / "graphs").rglob("*") if p.is_file()
        )
        budget = total - entries[0].stat().st_size - entries[1].stat().st_size
        counters = store.evict(max_bytes=budget, now=now)
        assert counters["results_evicted"] == 2
        assert not entries[0].exists()
        assert not entries[1].exists()
        assert entries[2].exists()
        assert entries[3].exists()

    def test_age_sweep_keeps_fresh_store_intact(self, tmp_path):
        store = self._store_with_entries(tmp_path)
        counters = store.evict(older_than_days=7)
        assert counters["results_evicted"] == 0
        assert counters["graphs_evicted"] == 0
        assert counters["skipped_locked"] == 0
        assert len(store.inventory()) == 2

    def test_age_sweep_skips_directories_whose_lock_is_held(self, tmp_path):
        """A directory a writer currently holds is skipped, never raced.

        ``flock`` locks belong to the open file description, so a second
        open of the lock file — even in the same process — contends for
        real: holding ``_locked`` here exercises exactly what a concurrent
        warmer's lock does to the sweep.
        """
        import os
        import time as time_module

        pytest.importorskip("fcntl")
        store = self._store_with_entries(tmp_path)
        entries = sorted((tmp_path / "graphs").glob("*/results/*.json"))
        now = time_module.time()
        for path in entries:
            os.utime(path, (now - 10 * 86400, now - 10 * 86400))
        held_dir, other_dir = sorted(
            path for path in (tmp_path / "graphs").iterdir() if path.is_dir()
        )
        with store._locked(held_dir):
            counters = store.evict(older_than_days=7, now=now)
        assert counters["skipped_locked"] == 1
        assert counters["results_evicted"] == 2  # the unlocked graph's
        assert len(list((held_dir / "results").glob("*.json"))) == 2
        assert list((other_dir / "results").glob("*.json")) == []
        # Lock released: the next sweep finishes the job.
        counters = store.evict(older_than_days=7, now=now)
        assert counters["skipped_locked"] == 0
        assert counters["results_evicted"] == 2

    def test_max_bytes_sweep_skips_locked_graphs_entirely(self, tmp_path):
        """Neither entry deletion nor the whole-graph drop touches a held dir."""
        pytest.importorskip("fcntl")
        store = self._store_with_entries(tmp_path)
        held_dir = sorted(
            path for path in (tmp_path / "graphs").iterdir() if path.is_dir()
        )[0]
        before = sorted(held_dir.rglob("*"))
        with store._locked(held_dir):
            counters = store.evict(max_bytes=0)
        assert counters["skipped_locked"] >= 1
        assert counters["graphs_evicted"] == 1  # only the unlocked graph
        assert sorted(held_dir.rglob("*")) == before
        assert len(store.inventory()) == 1
        # Released: the budget is now enforceable.
        counters = store.evict(max_bytes=0)
        assert counters["graphs_evicted"] == 1
        assert store.inventory() == []


class TestConcurrentWriters:
    def test_parallel_saves_leave_a_consistent_store(self, graph, tmp_path):
        """Two warmers racing on one graph dir must not corrupt anything."""
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
        """The advisory lock really excludes a second writer while held."""
        fcntl = pytest.importorskip("fcntl")
        import multiprocessing

        store = SessionStore(tmp_path)
        session = DDSSession(graph)
        session.densest_subgraph("core-approx")
        store.save_session(session)
        [graph_dir] = (tmp_path / "graphs").iterdir()
        lock_path = graph_dir / ".lock"
        assert lock_path.exists()
        with store._locked(graph_dir):
            # A second process cannot take the lock while we hold it.
            def try_lock(path, queue):
                with open(path, "a+") as handle:
                    try:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    except OSError:
                        queue.put("blocked")
                    else:
                        queue.put("acquired")

            queue = multiprocessing.Queue()
            process = multiprocessing.Process(target=try_lock, args=(lock_path, queue))
            process.start()
            process.join(timeout=10)
            assert queue.get(timeout=10) == "blocked"
        # Released: the same probe now succeeds.
        with open(lock_path, "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


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
        # A store written under one solver warms sessions using another: the
        # cached *results* are solver-independent facts about the graph.
        store = SessionStore(tmp_path)
        donor = DDSSession(graph, flow=FlowConfig(solver=flow_oracle))
        donor.densest_subgraph("core-approx")
        store.save_session(donor)
        receiver = DDSSession(load_dataset("foodweb-tiny"))
        assert store.warm_session(receiver)["results_loaded"] == 1

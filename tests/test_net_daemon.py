"""Loopback tests for the network tier: daemon, client, remote executor.

Pins the acceptance criteria of the ``repro.net`` subsystem:

* **Cross-machine bit-identity** — a batch routed to loopback
  :class:`~repro.net.ShardDaemon` s returns ``payload_answer()`` dicts
  bit-identical to the local thread-path run, on first contact (graph
  ships over the wire) and on re-contact (session resident in the LRU).
* **Partition handling** — a daemon killed mid-batch costs only its
  lanes: the client retries on fresh connections with backoff, then the
  executor solves the lanes inline, bit-identically, with the failure
  recorded in ``BatchReport.executor_stats``.  A transient drop (one
  connection closed without a response) is absorbed by the retry alone.
* **Error semantics** — a *semantic* remote failure is never retried:
  the lane re-runs inline so the genuine typed error surfaces exactly
  like a thread lane's.
* **Hygiene** — daemons hold zero client connections after shutdown.
* **Graphs cross once** — a daemon keeps the graphs it receives, so an
  executor sends each graph to its daemon once; a daemon that has dropped
  the graph answers ``GraphNotResidentError`` and the lane is resent once
  with it, without degrading.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest
import store_rows

from repro.core.config import ExactConfig
from repro.datasets.registry import load_dataset
from repro.exceptions import AlgorithmError, ConfigError, NetError, ProtocolError
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_digraph
from repro.net import (
    RemoteOpError,
    ShardClient,
    ShardClientPool,
    ShardDaemon,
    graph_to_wire,
    parse_host_port,
)
from repro.net import daemon as daemon_module
from repro.net import protocol as protocol_module
from repro.service import (
    BatchExecutor,
    SessionStore,
    ShardMap,
    payload_answer,
    plan_batch,
    run_batch_query,
)
from repro.session import DDSSession

DEFAULT_DATASET = "foodweb-tiny"
OTHER_DATASET = "social-tiny"

MIXED = [
    {"query": "densest", "method": "core-exact"},
    {"query": "fixed-ratio", "ratio": 1.0},
    {"query": "summary"},
    {"query": "densest", "method": "core-approx", "dataset": OTHER_DATASET},
    {"query": "top-k", "k": 2, "dataset": OTHER_DATASET},
]


def _plan(queries=MIXED):
    return plan_batch(queries, default_graph_key=DEFAULT_DATASET)


def _answers(report) -> list:
    return [payload_answer(payload) for payload in report.results_in_input_order()]


@pytest.fixture(scope="module")
def local_answers():
    return _answers(BatchExecutor(load_dataset).execute(_plan()))


def _hosts(*daemons: ShardDaemon) -> list[str]:
    return [daemon.address for daemon in daemons]


# ----------------------------------------------------------------------
# client plumbing
# ----------------------------------------------------------------------
class TestClientPlumbing:
    def test_parse_host_port(self):
        assert parse_host_port("localhost:8080") == ("localhost", 8080)
        assert parse_host_port(" 10.0.0.1:1 ") == ("10.0.0.1", 1)
        assert parse_host_port("box", default_port=99) == ("box", 99)
        for bad in ("", ":80", "box:", "box:notaport", "box:0", "box:70000", "box"):
            with pytest.raises(ConfigError):
                parse_host_port(bad)

    def test_backoff_is_bounded_exponential_with_jitter(self):
        client = ShardClient(
            "127.0.0.1", 1, backoff_base=0.1, backoff_max=0.3, rng=random.Random(7)
        )
        for attempt in range(6):
            ceiling = min(0.3, 0.1 * 2**attempt)
            delay = client.backoff_delay(attempt)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_exhausted_ladder_raises_neterror_and_counts(self):
        # A freshly-bound-then-closed port: nothing listens there.
        daemon = ShardDaemon()
        daemon.start()
        daemon.shutdown()
        client = ShardClient(
            daemon.host, daemon.port, max_retries=2, backoff_base=0.001
        )
        with pytest.raises(NetError, match="3 attempts"):
            client.ping()
        stats = client.stats()
        assert stats["retries"] == 2
        assert stats["failures"] == 1
        assert stats["requests"] == 0

    def test_unencodable_payload_fails_at_once_and_leaves_the_breaker_alone(self):
        with ShardDaemon() as daemon:
            client = ShardClient(daemon.host, daemon.port, max_retries=2)
            with pytest.raises(ProtocolError, match="not JSON-serialisable"):
                client.request("ping", {"echo": {1, 2}})
            stats = client.stats()
            assert (stats["retries"], stats["failures"], stats["breaker_opens"]) == (0, 0, 0)
            assert client.breaker.state == "closed"
            assert daemon.daemon_stats()["connections_accepted"] == 0
            # The host is healthy, and the breaker still says so.
            assert client.ping(echo="ok")["echo"] == "ok"

    def test_retries_resend_the_frame_encoded_once(self, monkeypatch):
        encoded: list[str] = []
        real_encode = protocol_module.encode_request

        def counting_encode(request_id, op, payload):
            encoded.append(request_id)
            return real_encode(request_id, op, payload)

        monkeypatch.setattr(protocol_module, "encode_request", counting_encode)
        fault = {"op": "ping", "kind": "close", "times": 1}
        with ShardDaemon(fault_injection=fault) as daemon:
            client = ShardClient(daemon.host, daemon.port, max_retries=2, backoff_base=0.001)
            assert client.ping(echo="again")["echo"] == "again"
            assert client.stats()["retries"] == 1
        assert len(encoded) == 1

    def test_pool_routes_by_shard_and_aggregates(self):
        pool = ShardClientPool(["a:1", "b:2"])
        assert len(pool) == 2
        assert pool.addresses == ["a:1", "b:2"]
        assert pool.client_for(0).address == "a:1"
        assert pool.client_for(1).address == "b:2"
        assert pool.client_for(3).address == "b:2"
        assert pool.aggregate_stats()["requests"] == 0
        with pytest.raises(ConfigError):
            ShardClientPool([])


# ----------------------------------------------------------------------
# one daemon, one client
# ----------------------------------------------------------------------
class TestDaemonOps:
    def test_ping_and_stats(self):
        with ShardDaemon() as daemon:
            client = ShardClient(daemon.host, daemon.port)
            pong = client.ping(echo="hello")
            assert pong["pong"] is True
            assert pong["echo"] == "hello"
            assert pong["sessions_resident"] == 0
            stats = daemon.daemon_stats()
            assert stats["requests"] == {"ping": 1}
            assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0
            assert stats["connections_accepted"] == 1

    def test_solve_builds_then_reuses_resident_session(self):
        graph = load_dataset(DEFAULT_DATASET)
        entries = [(0, {"query": "densest", "method": "core-exact"})]
        with ShardDaemon() as daemon:
            client = ShardClient(daemon.host, daemon.port)
            first = client.solve_lane(
                "g", graph.content_fingerprint(), entries, graph=graph_to_wire(graph)
            )
            assert first["session_cache_hit"] is False
            # Resident now: no graph document needed.
            second = client.solve_lane("g", graph.content_fingerprint(), entries)
            assert second["session_cache_hit"] is True
            assert payload_answer(first["executions"][0]["payload"]) == payload_answer(
                second["executions"][0]["payload"]
            )
            assert second["stats"]["result_cache_hits"] >= 1
            stats = daemon.daemon_stats()
            assert stats["session_cache_hits"] == 1
            assert stats["session_cache_misses"] == 1
            assert stats["sessions_resident"] == 1

    def test_missing_graph_without_document_errors_remotely(self):
        graph = load_dataset(DEFAULT_DATASET)
        with ShardDaemon() as daemon:
            client = ShardClient(daemon.host, daemon.port)
            with pytest.raises(RemoteOpError, match="not resident") as excinfo:
                client.solve_lane("g", graph.content_fingerprint(), [(0, {})])
            assert excinfo.value.remote_type == "GraphNotResidentError"
            assert daemon.daemon_stats()["graph_misses"] == 1

    def test_semantic_error_is_not_retried(self):
        graph = load_dataset(DEFAULT_DATASET)
        with ShardDaemon() as daemon:
            client = ShardClient(daemon.host, daemon.port, max_retries=3)
            with pytest.raises(RemoteOpError) as excinfo:
                client.solve_lane(
                    "g",
                    graph.content_fingerprint(),
                    [(0, {"query": "densest", "method": "no-such-method"})],
                    graph=graph_to_wire(graph),
                )
            assert excinfo.value.remote_type == "AlgorithmError"
            assert client.stats()["retries"] == 0
            assert daemon.daemon_stats()["errors"] == 1

    def test_lru_evicts_to_capacity(self):
        with ShardDaemon(max_sessions=1) as daemon:
            client = ShardClient(daemon.host, daemon.port)
            for name in (DEFAULT_DATASET, OTHER_DATASET):
                graph = load_dataset(name)
                client.solve_lane(
                    name,
                    graph.content_fingerprint(),
                    [(0, {"query": "summary"})],
                    graph=graph_to_wire(graph),
                )
            stats = daemon.daemon_stats()
            assert stats["sessions_resident"] == 1
            assert stats["sessions_evicted"] == 1

    def test_warm_and_inventory_with_store(self, tmp_path):
        graph = load_dataset(DEFAULT_DATASET)
        with ShardDaemon(SessionStore(tmp_path / "store")) as daemon:
            client = ShardClient(daemon.host, daemon.port)
            warmed = client.warm(
                graph_to_wire(graph), methods=["core-exact"], max_core=True
            )
            assert warmed["fingerprint"] == graph.content_fingerprint()
            assert "core-exact" in warmed["computed"]
            assert "max-core" in warmed["computed"]
            assert warmed["saved"].get("results_saved", 0) >= 1
            inventory = client.inventory()
            assert inventory["store_root"] == str(tmp_path / "store")
            assert len(inventory["store"]) == 1
            assert inventory["daemon"]["requests"]["warm"] == 1

    def test_evicted_sessions_are_saved_to_the_store(self, tmp_path):
        """Every state a resident session reaches is on disk after its request.

        With one resident session, alternating reads of two graphs evict on
        every request, so the daemon saves on eviction, warms the next
        session from the store, and saves it after its lane; most of those
        saves find nothing changed.  A new [x, y]-core every few reads must
        still reach the store.
        """
        store_root = tmp_path / "store"
        graphs = {name: load_dataset(name) for name in (DEFAULT_DATASET, OTHER_DATASET)}
        with ShardDaemon(SessionStore(store_root), max_sessions=1) as daemon:
            client = ShardClient(daemon.host, daemon.port)
            for read in range(12):
                name = (DEFAULT_DATASET, OTHER_DATASET)[read % 2]
                graph = graphs[name]
                fingerprint = graph.content_fingerprint()
                entries = [(0, {"query": "densest", "method": "core-approx"})]
                if read % 3 == 0:
                    entries.append((1, {"query": "xy-core", "x": 1 + read // 3, "y": 1}))
                client.solve_lane(name, fingerprint, entries, graph=graph_to_wire(graph))
                resident = daemon._sessions[fingerprint].session
                warmed = DDSSession(graph.copy())
                SessionStore(store_root).warm_session(warmed)
                assert [key for *key, _ in warmed.cached_results()] == [
                    key for *key, _ in resident.cached_results()
                ]
                assert {(core.x, core.y) for core in warmed.cached_xy_cores()} == {
                    (core.x, core.y) for core in resident.cached_xy_cores()
                }
            assert daemon.daemon_stats()["sessions_evicted"] == 11
        # Both graphs persisted: the resident one on save, the evicted one
        # at eviction time.
        assert len(SessionStore(store_root).inventory()) == 2

    def test_blocked_store_does_not_kill_the_teardown(self, tmp_path, monkeypatch):
        """A store that fails to save at shutdown is skipped, not fatal to the loop."""
        store_root = tmp_path / "store"
        uncaught: list = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        daemon = ShardDaemon(SessionStore(store_root))
        daemon.start()
        try:
            graph = load_dataset(DEFAULT_DATASET)
            ShardClient(daemon.host, daemon.port).solve_lane(
                DEFAULT_DATASET,
                graph.content_fingerprint(),
                [(0, {"query": "densest", "method": "core-approx"})],
                graph=graph_to_wire(graph),
            )
            # Break the database under the daemon: its teardown save fails.
            with store_rows.connect(store_root) as db:
                db.execute("DROP TABLE graphs")
        finally:
            daemon.shutdown()
        assert uncaught == []
        assert daemon.daemon_stats()["sessions_flushed"] == 0
        assert not daemon._thread.is_alive()
        assert daemon._waker_recv.fileno() == -1
        assert daemon._waker_send.fileno() == -1

    def test_shutdown_closes_the_store_files(self, tmp_path):
        """The store's database, WAL and shared-memory files are closed at shutdown."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd to list this process's open files")
        store_root = tmp_path / "store"
        store_root.mkdir()
        prefix = str(store_root.resolve())

        def open_store_files() -> list[str]:
            found = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:  # the listing's own descriptor, closed by now
                    continue
                if target.startswith(prefix):
                    found.append(target)
            return found

        daemon = ShardDaemon(SessionStore(store_root))
        daemon.start()
        try:
            graph = load_dataset(DEFAULT_DATASET)
            ShardClient(daemon.host, daemon.port).solve_lane(
                DEFAULT_DATASET,
                graph.content_fingerprint(),
                [(0, {"query": "densest", "method": "core-approx"})],
                graph=graph_to_wire(graph),
            )
            assert open_store_files()  # the lane's save opened the database
        finally:
            daemon.shutdown()
        assert open_store_files() == []
        assert daemon.daemon_stats()["sessions_flushed"] == 1

    def test_shutdown_is_idempotent_and_leaves_no_connections(self):
        daemon = ShardDaemon()
        daemon.start()
        client = ShardClient(daemon.host, daemon.port)
        client.ping()
        assert client.shutdown_daemon()["stopping"] is True
        daemon.join(10)
        daemon.shutdown()
        assert daemon.open_connections() == 0

    def test_start_twice_raises(self):
        with ShardDaemon() as daemon:
            with pytest.raises(NetError, match="already started"):
                daemon.start()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ShardDaemon(max_sessions=0)
        with pytest.raises(ConfigError):
            ShardDaemon(max_workers=0)
        with pytest.raises(ConfigError):
            ShardDaemon(fault_injection={"kind": "explode"})

    def test_concurrent_clients_share_one_daemon(self):
        graph = load_dataset(DEFAULT_DATASET)
        wire = graph_to_wire(graph)
        fingerprint = graph.content_fingerprint()
        answers: list = []
        errors: list = []

        def probe():
            try:
                client = ShardClient(*parse_host_port(address))
                result = client.solve_lane(
                    "g",
                    fingerprint,
                    [(0, {"query": "densest", "method": "core-exact"})],
                    graph=wire,
                )
                answers.append(payload_answer(result["executions"][0]["payload"]))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        with ShardDaemon(max_workers=4) as daemon:
            address = daemon.address
            threads = [threading.Thread(target=probe) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        assert not errors
        assert len(answers) == 4
        assert all(answer == answers[0] for answer in answers)


# ----------------------------------------------------------------------
# the remote executor
# ----------------------------------------------------------------------
class TestRemoteExecutor:
    def test_two_daemon_parity_and_residency(self, local_answers):
        with ShardDaemon() as d1, ShardDaemon() as d2:
            hosts = _hosts(d1, d2)
            first = BatchExecutor(load_dataset, remote_hosts=hosts).execute(_plan())
            assert _answers(first) == local_answers
            stats = first.executor_stats
            assert stats["mode"] == "remote"
            assert stats["lanes_remote"] == 2
            assert stats["lanes_inline"] == 0
            assert stats["remote_failures"] == 0
            assert stats["degraded_lanes"] == []
            # Same hosts again: daemons serve from resident sessions.
            second = BatchExecutor(load_dataset, remote_hosts=hosts).execute(_plan())
            assert _answers(second) == local_answers
            hits = sum(
                daemon.daemon_stats()["session_cache_hits"] for daemon in (d1, d2)
            )
            assert hits == 2
        assert d1.open_connections() == 0
        assert d2.open_connections() == 0

    def test_report_shape_matches_local(self, local_answers):
        with ShardDaemon() as daemon:
            report = BatchExecutor(
                load_dataset, remote_hosts=_hosts(daemon)
            ).execute(_plan())
        assert _answers(report) == local_answers
        assert set(report.session_stats) == {DEFAULT_DATASET, OTHER_DATASET}
        assert report.aggregate_stats()["queries"] == len(MIXED)
        assert all(row["worker"] == 0 for row in report.timings())

    def test_executor_flow_config_reaches_daemon_built_sessions(self, monkeypatch):
        # A query's budget rides in its own entry and a lane's in the solve
        # payload's ``deadline_ms``; no flow document crosses.  The sessions
        # the daemon builds answer as the local path does, and key their
        # results without the budget.
        plan = _plan([dict(MIXED[0], deadline_ms=90_000), *MIXED[1:]])
        local = BatchExecutor(load_dataset, deadline_ms=60_000).execute(plan)
        sent: list[set[str]] = []
        request = ShardClient.request

        def spy(self, op, payload, **kwargs):
            if op == "solve":
                sent.append(set(payload))
            return request(self, op, payload, **kwargs)

        monkeypatch.setattr(ShardClient, "request", spy)
        with ShardDaemon() as daemon:
            remote = BatchExecutor(
                load_dataset, deadline_ms=60_000, remote_hosts=_hosts(daemon)
            ).execute(plan)
            configs = [
                config
                for entry in daemon._sessions.values()
                for method, config, _ in entry.session.cached_results()
                if method == "core-exact"
            ]
        assert _answers(remote) == _answers(local)
        assert sent == [{"graph_key", "fingerprint", "entries", "graph", "deadline_ms"}] * 2
        assert set(configs) == {ExactConfig()}

    def test_killed_daemon_falls_back_inline_bit_identically(self, local_answers):
        # The first solve the faulted daemon receives takes the whole daemon
        # down without a response — the loopback stand-in for SIGKILL.
        with ShardDaemon(
            fault_injection={"op": "solve", "kind": "exit", "times": 1}
        ) as daemon:
            report = BatchExecutor(
                load_dataset, remote_hosts=_hosts(daemon), max_retries=1
            ).execute(_plan())
        assert _answers(report) == local_answers
        stats = report.executor_stats
        assert stats["remote_failures"] >= 1
        assert stats["lanes_inline"] >= 1
        assert stats["client"]["retries"] >= 1
        assert set(stats["degraded_lanes"]) <= {DEFAULT_DATASET, OTHER_DATASET}
        degraded_rows = [row for row in report.timings() if row.get("degraded")]
        assert degraded_rows and all(row["attempts"] == 2 for row in degraded_rows)

    def test_transient_drop_is_absorbed_by_retry_alone(self, local_answers):
        # One connection dropped without a response; the retry ladder's
        # fresh connection succeeds, so no lane degrades.
        with ShardDaemon(
            fault_injection={"op": "solve", "kind": "close", "times": 1}
        ) as daemon:
            report = BatchExecutor(
                load_dataset, remote_hosts=_hosts(daemon), max_retries=2
            ).execute(_plan())
        assert _answers(report) == local_answers
        stats = report.executor_stats
        assert stats["lanes_inline"] == 0
        assert stats["remote_failures"] == 0
        assert stats["degraded_lanes"] == []
        assert stats["client"]["retries"] >= 1

    def test_semantic_remote_error_surfaces_the_typed_error(self):
        plan = plan_batch(
            [{"query": "densest", "method": "no-such-method"}],
            default_graph_key=DEFAULT_DATASET,
        )
        with ShardDaemon() as daemon:
            with pytest.raises(AlgorithmError):
                BatchExecutor(load_dataset, remote_hosts=_hosts(daemon)).execute(plan)

    def test_unwirable_lane_runs_inline(self, local_answers):
        tuple_graph = DiGraph.from_edges([((0, 1), (1, 2)), ((1, 2), (0, 1))])
        graphs = {
            DEFAULT_DATASET: load_dataset(DEFAULT_DATASET),
            "tuples": tuple_graph,
        }
        plan = plan_batch(
            [
                {"query": "densest", "method": "core-exact"},
                {"query": "summary", "dataset": "tuples"},
            ],
            default_graph_key=DEFAULT_DATASET,
        )
        local = BatchExecutor(graphs).execute(plan)
        with ShardDaemon() as daemon:
            report = BatchExecutor(graphs, remote_hosts=_hosts(daemon)).execute(plan)
        assert _answers(report) == _answers(local)
        stats = report.executor_stats
        assert stats["unwirable_lanes"] == 1
        assert stats["lanes_remote"] == 1
        assert stats["degraded_lanes"] == ["tuples"]

    def test_oversized_document_is_unwirable_not_a_remote_failure(self, monkeypatch):
        # The solve frame carrying this graph's document exceeds the lowered
        # cap, so the client refuses to encode it before any socket opens or
        # the breaker is asked: the lane runs inline once, the host stays
        # healthy, and the other lane is served remotely.
        graphs = {
            "big": gnm_random_digraph(400, 3000, seed=1),
            DEFAULT_DATASET: load_dataset(DEFAULT_DATASET),
        }
        plan = plan_batch(
            [{"query": "summary", "dataset": "big"}, {"query": "summary"}],
            default_graph_key=DEFAULT_DATASET,
        )
        local = BatchExecutor(graphs).execute(plan)
        monkeypatch.setattr(protocol_module, "MAX_FRAME_BYTES", 8192)
        with ShardDaemon() as daemon:
            report = BatchExecutor(graphs, remote_hosts=_hosts(daemon)).execute(plan)
        assert _answers(report) == _answers(local)
        stats = report.executor_stats
        assert (stats["unwirable_lanes"], stats["lanes_inline"], stats["lanes_remote"]) == (1, 1, 1)
        assert stats["remote_failures"] == 0
        assert stats["degraded_lanes"] == ["big"]
        assert [row["attempts"] for row in report.timings() if row["graph"] == "big"] == [1]
        assert stats["breaker_states"] == {daemon.address: "closed"}
        assert stats["client"]["requests"] == 1

    def test_spent_lane_budget_is_answered_remotely_as_deadline_hits(self):
        # A budget spent before the request leaves still ships as a positive
        # one: the daemon answers every entry as a deadline hit instead of
        # rejecting the request into an inline fallback.
        with ShardDaemon() as daemon:
            report = BatchExecutor(
                load_dataset, remote_hosts=_hosts(daemon), deadline_ms=1e-6
            ).execute(_plan())
        stats = report.executor_stats
        assert stats["lanes_remote"] == 2
        assert stats["lanes_inline"] == 0
        assert stats["deadline_hit_queries"] == len(MIXED)

    def test_remote_hosts_validation(self):
        with pytest.raises(ConfigError):
            BatchExecutor(load_dataset, remote_hosts=[])
        with pytest.raises(ConfigError):
            BatchExecutor(load_dataset, remote_hosts=["nope"])
        with pytest.raises(ConfigError):
            BatchExecutor(load_dataset, remote_hosts=["a:1"], process_pool=True)

    def test_store_backed_daemons_persist_answers(self, tmp_path, local_answers):
        store_root = tmp_path / "shard0"
        with ShardDaemon(SessionStore(store_root)) as daemon:
            report = BatchExecutor(
                load_dataset, remote_hosts=_hosts(daemon)
            ).execute(_plan())
        assert _answers(report) == local_answers
        assert report.store_stats  # daemon-side save counters came home
        assert len(SessionStore(store_root).inventory()) == 2


# ----------------------------------------------------------------------
# graphs cross the wire once
# ----------------------------------------------------------------------
SUMMARY = [(0, {"query": "summary"})]


def _ship_both(client: ShardClient) -> tuple[DiGraph, DiGraph]:
    """Solve one lane each of the two tiny graphs, documents inline."""
    graphs = load_dataset(DEFAULT_DATASET), load_dataset(OTHER_DATASET)
    for graph in graphs:
        client.solve_lane(
            "g", graph.content_fingerprint(), SUMMARY, graph=graph_to_wire(graph)
        )
    return graphs


class TestKeptGraphs:
    def test_evicted_session_is_rebuilt_from_the_kept_graph(self, monkeypatch):
        spec = {"query": "densest", "method": "core-exact"}
        with ShardDaemon(max_sessions=1) as daemon:
            client = ShardClient(daemon.host, daemon.port)
            graph, _ = _ship_both(client)  # the second evicts the first's session
            decodes: list = []
            real_decode = protocol_module.graph_from_wire
            monkeypatch.setattr(
                protocol_module,
                "graph_from_wire",
                lambda document: decodes.append(document) or real_decode(document),
            )
            answer = client.solve_lane("g", graph.content_fingerprint(), [(0, spec)])
            stats = daemon.daemon_stats()
        assert answer["session_cache_hit"] is False
        assert decodes == []
        expected = run_batch_query(DDSSession(graph), dict(spec))
        assert payload_answer(answer["executions"][0]["payload"]) == payload_answer(expected)
        assert stats["sessions_evicted"] == 2
        assert stats["graphs_kept"] == 2
        assert stats["graph_misses"] == 0

    def test_graph_pushed_out_of_the_kept_lru_is_not_resident(self, monkeypatch):
        # Room for the larger tiny graph alone: keeping the second drops the first.
        monkeypatch.setattr(
            daemon_module, "KEPT_GRAPH_EDGES", load_dataset(OTHER_DATASET).num_edges
        )
        with ShardDaemon(max_sessions=1) as daemon:
            client = ShardClient(daemon.host, daemon.port)
            graph, _ = _ship_both(client)
            with pytest.raises(RemoteOpError) as excinfo:
                client.solve_lane("g", graph.content_fingerprint(), SUMMARY)
            stats = daemon.daemon_stats()
        assert excinfo.value.remote_type == "GraphNotResidentError"
        assert stats["graphs_kept"] == 1
        assert stats["graph_misses"] == 1

    def test_kept_graph_whose_fingerprint_changed_counts_as_absent(self):
        with ShardDaemon(max_sessions=1) as daemon:
            client = ShardClient(daemon.host, daemon.port)
            graph, other = _ship_both(client)
            fingerprint = graph.content_fingerprint()
            kept, _ = daemon._graphs[fingerprint]
            u, *rest = kept.nodes()
            kept.add_edge(u, next(v for v in rest if not kept.has_edge(u, v)))
            with pytest.raises(RemoteOpError) as excinfo:
                client.solve_lane("g", fingerprint, SUMMARY)
            assert excinfo.value.remote_type == "GraphNotResidentError"
            assert daemon.daemon_stats()["graphs_kept"] == 1
            assert daemon._kept_edges == other.num_edges
            # The document rebuilds the session from a freshly verified graph.
            resent = client.solve_lane(
                "g", fingerprint, SUMMARY, graph=graph_to_wire(graph)
            )
            assert daemon._graphs[fingerprint][0] is not kept
        assert resent["executions"][0]["payload"]["edges"] == graph.num_edges


class TestGraphsShippedOnce:
    def test_second_execute_ships_no_graph(self, local_answers):
        with ShardDaemon() as d1, ShardDaemon() as d2:
            executor = BatchExecutor(load_dataset, remote_hosts=_hosts(d1, d2))
            first = executor.execute(_plan())
            second = executor.execute(_plan())
        assert _answers(first) == local_answers
        assert _answers(second) == local_answers
        assert first.executor_stats["graphs_shipped"] == 2
        stats = second.executor_stats
        assert stats["graphs_shipped"] == 0
        assert stats["graph_resends"] == 0
        assert stats["lanes_remote"] == 2
        assert stats["client"]["bytes_sent"] < first.executor_stats["client"]["bytes_sent"]

    def test_dropped_graph_is_resent_once_with_the_remaining_budget(
        self, monkeypatch, local_answers
    ):
        monkeypatch.setattr(daemon_module, "KEPT_GRAPH_EDGES", 0)  # keep nothing
        calls: list[tuple[str, bool, float]] = []
        real_solve_lane = ShardClient.solve_lane

        def recording(self, graph_key, fingerprint, entries, **options):
            calls.append((graph_key, options["graph"] is not None, options["deadline_ms"]))
            return real_solve_lane(self, graph_key, fingerprint, entries, **options)

        monkeypatch.setattr(ShardClient, "solve_lane", recording)
        with ShardDaemon(max_sessions=1) as daemon:
            executor = BatchExecutor(
                load_dataset, remote_hosts=_hosts(daemon), deadline_ms=600_000
            )
            executor.execute(_plan())
            del calls[:]
            report = executor.execute(_plan())
        stats = report.executor_stats
        assert _answers(report) == local_answers
        assert stats["graph_resends"] >= 1
        assert stats["graphs_shipped"] == stats["graph_resends"]
        assert stats["lanes_inline"] == 0
        assert stats["remote_failures"] == 0
        assert stats["degraded_lanes"] == []
        assert stats["breaker_states"] == {daemon.address: "closed"}
        for key in {key for key, carried, _ in calls if carried}:
            (_, _, first), (_, _, resend) = [call for call in calls if call[0] == key]
            assert 0 < resend < first < 600_000


class TestSharedStateStress:
    def test_lanes_over_two_daemons_keep_shipped_and_kept_state_consistent(
        self, monkeypatch
    ):
        # Sessions and kept graphs churn (room for about two graphs each),
        # so lanes race through hits, kept-graph rebuilds and resends.
        monkeypatch.setattr(daemon_module, "KEPT_GRAPH_EDGES", 60)
        lane_count = max(8, 2 * (os.cpu_count() or 2))
        graphs = {f"g{index}": gnm_random_digraph(12, 30, seed=index) for index in range(lane_count)}
        queries = [
            {"query": query, "dataset": key, **extra}
            for key in graphs
            for query, extra in (("summary", {}), ("densest", {"method": "core-approx"}))
        ]
        plan = plan_batch(queries, default_graph_key="g0")
        reference = _answers(BatchExecutor(graphs, max_workers=1).execute(plan))
        reports: list = []
        errors: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardDaemon(max_sessions=2) as d1, ShardDaemon(max_sessions=2) as d2:
                daemons = (d1, d2)
                executor = BatchExecutor(graphs, remote_hosts=_hosts(*daemons), max_workers=4)

                def rounds():
                    try:
                        for _ in range(3):
                            reports.append(executor.execute(plan))
                    except Exception as error:  # pragma: no cover - surfaced below
                        errors.append(error)

                worker = threading.Thread(target=rounds)
                worker.start()
                worker.join(120)
                assert not worker.is_alive()
                kept = [(d._kept_edges, list(d._graphs.values())) for d in daemons]
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(reports) == 3
        for report in reports:
            assert _answers(report) == reference
            assert report.executor_stats["lanes_inline"] == 0
        shard_map = ShardMap(2)
        expected: dict[str, set[str]] = {}
        for graph in graphs.values():
            fingerprint = graph.content_fingerprint()
            host = _hosts(*daemons)[shard_map.shard_of(fingerprint)]
            expected.setdefault(host, set()).add(fingerprint)
        assert executor._shipped == expected
        for total, entries in kept:
            assert total == sum(edges for _, edges in entries)
            assert total == sum(graph.num_edges for graph, _ in entries)
            assert total <= 60

"""Chaos tests: deadlines mid-solve, circuit-breaker lifecycle, drain under fire.

The robustness acceptance criteria, pinned:

* **Cancellation safety** — a solve cancelled at a cooperative checkpoint
  leaves its warm network in the valid state it had at solve entry, so
  re-running the query on the same session retunes **bit-identically** to
  a fresh session (densities *and* node sets compared with ``==``).
  Expiry is driven by an injected stepping clock, so the cancellation
  point is deterministic per parameterisation — no sleeps, no flakes.
* **Anytime bounds** — the partial carried by a mid-solve
  :class:`~repro.exceptions.DeadlineExceeded` brackets the true optimum:
  ``partial.density <= rho_opt <= partial.upper_bound``.
* **Breaker lifecycle** — closed → open after ``failure_threshold``
  exhausted ladders, fast-fail while open, exactly one half-open probe
  after the cooldown, reclose on success / re-open on failure — all on an
  injected monotonic clock.
* **Drain under fire** — a daemon draining with work in flight finishes
  that work before exiting; a daemon killed *mid-drain* still tears down
  without deadlocking.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ConfigError, DeadlineExceeded, NetError
from repro.flow.registry import available_flow_solvers
from repro.graph.generators import gnp_random_digraph
from repro.net import CircuitBreaker, CircuitOpenError, ShardClient, ShardDaemon
from repro.runtime import Deadline
from repro.service import BatchExecutor, payload_answer, plan_batch
from repro.session import DDSSession


class SteppingClock:
    """A monotonic clock that advances a fixed step on every reading.

    Each deadline checkpoint reads the clock once, so ``budget_ms /
    step_ms`` readings in, the budget expires — at a *deterministic*
    checkpoint, however fast the machine is.
    """

    def __init__(self, step_ms: float) -> None:
        self.now = 0.0
        self.step = step_ms / 1000.0
        self.readings = 0

    def __call__(self) -> float:
        self.readings += 1
        now = self.now
        self.now += self.step
        return now


def _answer(result) -> tuple:
    """The bit-comparable part of a DDSResult: density plus both node sets."""
    return (result.density, sorted(map(str, result.s_nodes)), sorted(map(str, result.t_nodes)))


class TestCancellationSafety:
    """A cancelled warm network must retune bit-identically."""

    # Budgets chosen to expire at different checkpoint depths: early (the
    # first few engine admissions), mid-search, and deep into the D&C.
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("budget_readings", [3, 10, 40, 150])
    @pytest.mark.parametrize("solver", available_flow_solvers())
    def test_cancel_then_resume_is_bit_identical(self, solver, budget_readings):
        graph = gnp_random_digraph(48, 0.12, seed=11)
        reference = _answer(DDSSession(graph, flow=solver).densest_subgraph("dc-exact"))

        session = DDSSession(graph, flow=solver)
        engine = session._engine_for(solver)
        clock = SteppingClock(step_ms=1.0)
        # Arm the engine's deadline conduit directly with the stepping
        # clock (the session arms real wall-clock deadlines; chaos wants a
        # deterministic expiry point).  One reading is spent at
        # construction, the rest at solver/driver checkpoints.
        engine.deadline = Deadline(float(budget_readings), clock=clock)
        try:
            session.densest_subgraph("dc-exact")
        except DeadlineExceeded as error:
            partial = error.partial
            assert partial is not None
            # Certified bracket around the true optimum.
            assert partial.density <= reference[0] + 1e-9
            assert reference[0] <= partial.upper_bound + 1e-9
        else:
            pytest.skip(f"budget of {budget_readings} readings outlived the solve")
        finally:
            engine.deadline = None

        # The cancelled solve left warm networks behind; retuning them must
        # reproduce the fresh session's answer exactly.
        resumed = _answer(session.densest_subgraph("dc-exact"))
        assert resumed == reference

    def test_cancelled_flow_exact_also_retunes_bit_identically(self):
        # The ratio-enumeration driver has its own anytime assembly path;
        # one small case pins it (flow-exact enumerates O(n^2) ratios, so
        # the graph stays tiny).
        graph = gnp_random_digraph(16, 0.2, seed=11)
        reference = _answer(DDSSession(graph).densest_subgraph("flow-exact"))
        session = DDSSession(graph)
        engine = session._engine_for(session.flow.solver)
        engine.deadline = Deadline(40.0, clock=SteppingClock(step_ms=1.0))
        try:
            with pytest.raises(DeadlineExceeded) as excinfo:
                session.densest_subgraph("flow-exact")
        finally:
            engine.deadline = None
        partial = excinfo.value.partial
        assert partial is not None and partial.method == "flow-exact"
        assert partial.density <= reference[0] + 1e-9 <= partial.upper_bound + 2e-9
        assert _answer(session.densest_subgraph("flow-exact")) == reference

    def test_generous_deadline_is_bit_identical_to_none(self):
        graph = gnp_random_digraph(40, 0.15, seed=3)
        reference = _answer(DDSSession(graph).densest_subgraph("dc-exact"))
        timed = _answer(
            DDSSession(graph).densest_subgraph("dc-exact", deadline_ms=1e9)
        )
        assert timed == reference

    def test_session_counts_anytime_returns(self):
        graph = gnp_random_digraph(40, 0.15, seed=5)
        session = DDSSession(graph)
        with pytest.raises(DeadlineExceeded):
            # A microscopic real budget expires at the first checkpoint.
            session.densest_subgraph("dc-exact", deadline_ms=1e-6)
        stats = session.cache_stats()
        assert stats["anytime_returns"] == 1
        assert stats["deadline_hits"] >= 1


class TestCircuitBreaker:
    def test_open_after_threshold_then_half_open_then_reclose(self):
        clock = SteppingClock(step_ms=0.0)  # frozen until advanced by hand
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=5.0, clock=clock)
        breaker.admit("h:1")
        breaker.record_failure()
        assert breaker.state == "closed"  # one short of the threshold
        breaker.admit("h:1")
        breaker.record_failure()
        assert breaker.state == "open"

        with pytest.raises(CircuitOpenError):
            breaker.admit("h:1")

        clock.now += 5.0  # cooldown elapses on the monotonic clock
        breaker.admit("h:1")  # becomes the half-open probe
        assert breaker.state == "half-open"
        # Concurrent callers during the probe keep failing fast.
        with pytest.raises(CircuitOpenError):
            breaker.admit("h:1")

        breaker.record_success()
        assert breaker.state == "closed"
        stats = breaker.stats()
        assert stats["breaker_opens"] == 1
        assert stats["breaker_half_open_probes"] == 1
        assert stats["breaker_reclosures"] == 1
        assert stats["breaker_fast_failures"] == 2

    def test_half_open_failure_reopens_for_another_cooldown(self):
        clock = SteppingClock(step_ms=0.0)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=2.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now += 2.0
        breaker.admit("h:1")
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.admit("h:1")  # new cooldown, still closed off
        clock.now += 2.0
        breaker.admit("h:1")
        assert breaker.stats()["breaker_opens"] == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown_s=0)

    def test_client_breaker_opens_on_dead_host_and_readmits(self):
        # A daemon serves, dies, and comes back on the same port: the
        # client's breaker must open on the exhausted ladder, fast-fail
        # while open, then re-admit through a successful half-open probe.
        daemon = ShardDaemon(None)
        host, port = daemon.start()
        clock = SteppingClock(step_ms=0.0)
        client = ShardClient(
            host,
            port,
            max_retries=0,
            connect_timeout=0.5,
            breaker=CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock),
        )
        assert client.ping()["pong"] is True
        daemon.shutdown()

        with pytest.raises(NetError):
            client.ping()  # exhausted ladder against the dead daemon
        assert client.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.ping()  # no socket touched: fast fail

        revived = ShardDaemon(None, host=host, port=port)
        revived.start()
        try:
            clock.now += 5.0  # cooldown elapses
            assert client.ping()["pong"] is True  # the half-open probe
            assert client.breaker.state == "closed"
            stats = client.stats()
            assert stats["breaker_reclosures"] == 1
            assert stats["breaker_fast_failures"] == 1
        finally:
            revived.shutdown()

    def test_executor_routes_around_an_open_breaker(self):
        # With one worker the lanes run sequentially: the first exhausted
        # ladder opens the dead host's breaker, so every later lane skips
        # the ladder entirely and solves inline immediately.
        graphs = {
            f"g{i}": gnp_random_digraph(24, 0.2, seed=i) for i in range(3)
        }
        queries = [
            {"query": "densest", "method": "core-exact", "dataset": key} for key in graphs
        ]
        plan = plan_batch(queries, default_graph_key="g0")
        local = BatchExecutor(graphs).execute(plan)
        remote = BatchExecutor(
            graphs, remote_hosts=["127.0.0.1:9"], max_retries=0, max_workers=1
        ).execute(plan)
        stats = remote.executor_stats
        assert stats["remote_failures"] == 1
        assert stats["breaker_skipped_lanes"] == 2
        assert stats["lanes_inline"] == 3
        assert stats["breaker_states"] == {"127.0.0.1:9": "open"}
        assert [payload_answer(p) for p in remote.results_in_input_order()] == [
            payload_answer(p) for p in local.results_in_input_order()
        ]


class TestDrainUnderFire:
    def test_drain_finishes_in_flight_work_then_exits(self):
        daemon = ShardDaemon(None)
        host, port = daemon.start()
        client = ShardClient(host, port, max_retries=0)
        graph = gnp_random_digraph(160, 0.08, seed=29)
        from repro.net import graph_to_wire

        wire = graph_to_wire(graph)
        entries = [(0, {"query": "densest", "method": "dc-exact"})]
        results: dict[str, object] = {}

        def slow_solve() -> None:
            results["payload"] = client.solve_lane(
                "g", graph.content_fingerprint(), entries, graph=wire
            )

        worker = threading.Thread(target=slow_solve)
        worker.start()
        try:
            # Wait for the solve to be genuinely in flight before draining,
            # so the drain provably races live work (bounded spin, no sleep
            # calibration).
            import time as _time

            spin_until = _time.monotonic() + 10.0
            while _time.monotonic() < spin_until:
                if daemon.daemon_stats()["in_flight"] > 0 or "payload" in results:
                    break
            response = client.drain(grace_s=30.0)
            assert response["draining"] is True
            worker.join(timeout=60)
            assert not worker.is_alive()
            # The in-flight solve completed with a real answer.
            assert results["payload"]["executions"][0]["payload"]["density"] > 0
        finally:
            worker.join(timeout=60)
        daemon.join(timeout=30)
        assert daemon._thread is None or not daemon._thread.is_alive()
        assert daemon.daemon_stats()["unjoined_threads"] == 0

    def test_kill_mid_drain_does_not_deadlock(self):
        daemon = ShardDaemon(None)
        daemon.start()
        daemon.drain(grace_s=60.0)  # long grace: the drain waiter is alive
        daemon.shutdown()  # the kill — must not deadlock against the drain
        daemon.join(timeout=30)
        assert daemon._thread is None or not daemon._thread.is_alive()
        # Idempotence under fire: draining an already-dead daemon is a no-op.
        daemon.drain(grace_s=1.0)

    def test_drain_validation(self):
        daemon = ShardDaemon(None)
        with pytest.raises(ConfigError):
            daemon.drain(grace_s=0)
        with pytest.raises(ConfigError):
            daemon.drain(grace_s=-1.0)

"""Batched block-diagonal solve: stacking, bit-identity, counters, advisory.

The batched path must be *observationally identical* to the sequential one:
per member network, the same canonical min-cut source side, the same
Dinkelbach bracket evolution (hence the same ``flow_calls``); only the
wall-clock, the push attribution and the warm/cold split change.  The
sequential search solves the guesses after a narrowing cut cold on
narrowed networks while the lockstep members continue warm, so that split
may differ.
The hypothesis suite here pins exactly that, member for member, against
:func:`~repro.core.fixed_ratio.maximize_fixed_ratio`; the solo-solve class
pins :class:`~repro.flow.batch.BatchedFlowNetwork` against per-network
solves at the engine level, including the per-owner ``arcs_pushed`` split.

Batching only engages when each member sits below the auto arc threshold
while the family clears it in aggregate, so most tests shrink
``repro.flow.registry.AUTO_ARC_THRESHOLD`` to one more than the member arc
count (restored in ``finally``), which makes any family of >= 2 members
eligible regardless of graph size.

The advisory class covers the small-workload regression itself: forcing
``numpy-push-relabel`` onto below-threshold networks is the one recorded
perf bug (see ``BENCH_flow.json``), and the session now surfaces it as a
``backend_mismatch`` stats entry plus a once-per-session ``UserWarning``.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ExactConfig, FlowConfig
from repro.core.density import global_density_upper_bound
from repro.core.exact_dc import dc_exact
from repro.core.exact_flow import flow_exact
from repro.core.fixed_ratio import maximize_fixed_ratio, maximize_fixed_ratio_batch
from repro.core.flow_network import build_decision_network, decision_network_arc_count
from repro.core.network_cache import NetworkCache
from repro.core.subproblem import STSubproblem
from repro.exceptions import AlgorithmError, ConfigError, FlowError
from repro.flow import registry
from repro.flow.engine import FlowEngine
from repro.flow.network import FlowNetwork
from repro.flow.registry import AUTO_SOLVER, VECTOR_SOLVER, has_vector_backend
from repro.graph.generators import gnm_random_digraph
from repro.session import DDSSession

needs_numpy = pytest.mark.skipif(
    not has_vector_backend(), reason="numpy not importable; no vectorised backend"
)


class patched_threshold:
    """Temporarily shrink the auto arc threshold (restored on exit)."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __enter__(self) -> None:
        self._saved = registry.AUTO_ARC_THRESHOLD
        registry.AUTO_ARC_THRESHOLD = self.value

    def __exit__(self, *exc) -> None:
        registry.AUTO_ARC_THRESHOLD = self._saved


class TestBatchPolicy:
    def test_batch_size_validation(self):
        assert FlowConfig(batch_size=1).batch_size == 1
        with pytest.raises(ConfigError, match="batch_size"):
            FlowConfig(batch_size=0)
        with pytest.raises(ConfigError, match="batch_size"):
            FlowConfig(batch_size=-3)
        with pytest.raises(ConfigError, match="batch_size"):
            FlowConfig(batch_size="many")

    def test_single_member_families_are_never_eligible(self):
        assert not registry.batch_eligible([])
        assert not registry.batch_eligible([registry.AUTO_ARC_THRESHOLD * 2])

    def test_large_members_are_never_eligible(self):
        # One member at/above the threshold already earns the vector backend
        # alone; batching it with small members would only couple their solves.
        big = registry.AUTO_ARC_THRESHOLD
        assert not registry.batch_eligible([big, 10])

    @needs_numpy
    def test_small_families_below_aggregate_threshold_are_not_eligible(self):
        assert not registry.batch_eligible([10, 10])

    @needs_numpy
    def test_aggregate_of_small_members_is_eligible(self):
        small = registry.AUTO_ARC_THRESHOLD // 2
        assert registry.batch_eligible([small, small, small])
        name, _ = registry.resolve_auto_solver_batch([small, small, small])
        assert name == VECTOR_SOLVER

    @needs_numpy
    def test_only_auto_engines_support_batching(self):
        small = registry.AUTO_ARC_THRESHOLD // 2
        counts = [small, small, small]
        assert FlowEngine(AUTO_SOLVER).supports_batching(counts)
        # Explicit solver names pin every solve to that solver — batching
        # would silently override the user's choice.
        assert not FlowEngine("dinic").supports_batching(counts)
        assert not FlowEngine(VECTOR_SOLVER).supports_batching(counts)

    @needs_numpy
    def test_min_cut_batch_rejects_explicit_engines(self):
        import numpy as np  # noqa: F401

        from repro.flow.batch import BatchedFlowNetwork

        members = []
        for seed in (1, 2):
            network = FlowNetwork(3)
            network.add_edge(0, 1, 2.0 + seed)
            network.add_edge(1, 2, 1.0 + seed)
            members.append((network, 0, 2))
        batch = BatchedFlowNetwork(members)
        with pytest.raises(FlowError, match="auto"):
            FlowEngine("dinic").min_cut_batch(batch, [0, 1], [False, False])


@needs_numpy
class TestAppendPairedArcs:
    def _by_add_edge(self, arcs):
        network = FlowNetwork(4)
        for tail, target, capacity in arcs:
            network.add_edge(tail, target, capacity)
        return network

    def test_matches_add_edge_construction(self):
        import numpy as np

        arcs = [(0, 1, 2.5), (1, 2, 1.0), (2, 3, 4.0), (0, 3, 0.5)]
        expected = self._by_add_edge(arcs)
        network = FlowNetwork(4)
        exp_starts, exp_order, exp_targets, exp_caps, exp_tails, exp_base = (
            expected.numpy_csr()
        )
        first = network.append_paired_arcs(
            exp_tails.copy(), exp_targets.copy(), exp_caps.copy(), exp_base.copy()
        )
        assert first == 0
        starts, order, targets, caps, tails, base = network.numpy_csr()
        assert np.array_equal(starts, exp_starts)
        assert np.array_equal(order, exp_order)
        assert np.array_equal(targets, exp_targets)
        assert np.array_equal(caps, exp_caps)
        assert np.array_equal(tails, exp_tails)
        assert np.array_equal(base, exp_base)

    def test_rejects_unpaired_and_mismatched_columns(self):
        import numpy as np

        network = FlowNetwork(3)
        with pytest.raises(FlowError, match="even number"):
            network.append_paired_arcs(
                np.array([0]), np.array([1]), np.array([1.0]), np.array([1.0])
            )
        with pytest.raises(FlowError, match="length"):
            network.append_paired_arcs(
                np.array([0, 1]), np.array([1, 0]), np.array([1.0]), np.array([1.0, 0.0])
            )

    def test_out_of_range_nodes_roll_back_cleanly(self):
        import numpy as np

        network = FlowNetwork(3)
        network.add_edge(0, 1, 1.0)
        before = network.num_arcs
        for bad in (5, -1):
            with pytest.raises(FlowError, match=f"node {bad} out of range"):
                network.append_paired_arcs(
                    np.array([1, bad], dtype=np.int64),
                    np.array([bad, 1], dtype=np.int64),
                    np.array([1.0, 0.0]),
                    np.array([1.0, 0.0]),
                )
            assert network.num_arcs == before
        # The network stays fully usable after the rollback.
        network.add_edge(1, 2, 2.0)
        assert network.num_arcs == before + 2


def _decision_members(graph, ratios, guess):
    """Decision networks for ``ratios`` over the whole-graph subproblem."""
    subproblem = STSubproblem.from_graph(graph)
    members = []
    for ratio in ratios:
        decision = build_decision_network(subproblem, ratio, guess)
        members.append(decision)
    return subproblem, members


@needs_numpy
class TestBatchedSolveAgainstSoloSolves:
    def test_block_values_cuts_and_push_attribution(self):
        from repro.flow.batch import BatchedFlowNetwork

        graph = gnm_random_digraph(10, 28, seed=4)
        ratios = (0.5, 1.0, 2.0)
        _, members = _decision_members(graph, ratios, guess=1.5)

        solo = []
        for decision in members:
            value, solver = FlowEngine("dinic").min_cut(
                decision.network, decision.source, decision.sink
            )
            solo.append((value, solver.min_cut_source_side()))

        _, fresh = _decision_members(graph, ratios, guess=1.5)
        batch = BatchedFlowNetwork(
            [(d.network, d.source, d.sink) for d in fresh]
        )
        count = decision_network_arc_count(STSubproblem.from_graph(graph))
        engine = FlowEngine(AUTO_SOLVER)
        with patched_threshold(count + 1):
            results = engine.min_cut_batch(
                batch, list(range(len(fresh))), [False] * len(fresh)
            )

        assert engine.batched_solves == 1
        assert engine.flow_calls == len(fresh)
        assert engine.backend_selections == len(fresh)
        assert engine.auto_backend_choices == {VECTOR_SOLVER: len(fresh)}
        total_pushes = 0
        for (value, cut, pushes), (solo_value, solo_cut) in zip(results, solo):
            assert value == pytest.approx(solo_value, abs=1e-9)
            assert cut == solo_cut  # canonical cut, member-local indices
            assert pushes >= 0
            total_pushes += pushes
        # Every push of the big solve belongs to exactly one member (the
        # terminal arcs carry their member's label too).
        assert total_pushes == engine.arcs_pushed

    def test_batched_members_need_at_least_two(self):
        from repro.flow.batch import BatchedFlowNetwork

        network = FlowNetwork(2)
        network.add_edge(0, 1, 1.0)
        with pytest.raises(FlowError, match="two members"):
            BatchedFlowNetwork([(network, 0, 1)])


def _outcome_key(outcome):
    """The observable fields the batched search must replay exactly.

    ``arcs_pushed`` is engine-level and intentionally absent: a batched
    solve may distribute interior flow differently (any max flow yields the
    same canonical cut), so push counts are work metrics, not answers.  The
    warm/cold split is absent too: the sequential search solves its
    narrowed guesses cold while the lockstep members continue warm on their
    stacked networks.
    """
    return (
        outcome.ratio,
        outcome.lower,
        outcome.upper,
        outcome.best_s,
        outcome.best_t,
        outcome.best_density,
        outcome.last_s,
        outcome.last_t,
        outcome.last_surrogate,
        outcome.flow_calls,
        outcome.networks_built,
        outcome.networks_reused,
        outcome.network_nodes,
        outcome.network_arcs,
    )


@needs_numpy
class TestLockstepBitIdentity:
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=6, max_value=10),
        m=st.integers(min_value=8, max_value=26),
        ratio_count=st.integers(min_value=2, max_value=4),
    )
    def test_batched_search_replays_the_sequential_search(self, seed, n, m, ratio_count):
        graph = gnm_random_digraph(n, m, seed=seed)
        if graph.num_edges == 0:
            return
        subproblem = STSubproblem.from_graph(graph)
        ratios = [0.5, 1.0, 2.0, 3.0][:ratio_count]
        upper = global_density_upper_bound(graph)
        tolerance = 1e-3
        count = decision_network_arc_count(subproblem)

        sequential = []
        engine_seq = FlowEngine(AUTO_SOLVER)
        cache_seq = NetworkCache(8)
        for ratio in ratios:
            sequential.append(
                maximize_fixed_ratio(
                    subproblem,
                    ratio,
                    lower=0.0,
                    upper=upper,
                    tolerance=tolerance,
                    engine=engine_seq,
                    network_cache=cache_seq,
                )
            )

        engine_bat = FlowEngine(AUTO_SOLVER)
        cache_bat = NetworkCache(8)
        with patched_threshold(count + 1):
            batched = maximize_fixed_ratio_batch(
                subproblem,
                ratios,
                lower=0.0,
                upper=upper,
                tolerance=tolerance,
                engine=engine_bat,
                network_cache=cache_bat,
            )

        assert [_outcome_key(o) for o in batched] == [_outcome_key(o) for o in sequential]
        # Counter attribution: one engine flow call per member round, the
        # auto invariant intact, and the family genuinely batched (members
        # converge at different rounds, so late rounds may fall to one
        # active member and solve solo — batched_solves only counts the
        # multi-member rounds).
        assert engine_bat.flow_calls == sum(o.flow_calls for o in batched)
        assert engine_bat.backend_selections == engine_bat.flow_calls
        assert engine_bat.batched_solves >= 1
        assert (
            engine_bat.warm_starts_used + engine_bat.cold_starts
            == engine_bat.flow_calls
        )
        assert engine_bat.warm_starts_used == sum(o.warm_starts_used for o in batched)

    def test_batched_search_validates_its_inputs(self):
        graph = gnm_random_digraph(6, 10, seed=1)
        subproblem = STSubproblem.from_graph(graph)
        with pytest.raises(AlgorithmError, match="two ratios"):
            maximize_fixed_ratio_batch(
                subproblem, [1.0], lower=0.0, upper=4.0, tolerance=1e-3
            )
        with pytest.raises(AlgorithmError, match="distinct"):
            maximize_fixed_ratio_batch(
                subproblem, [1.0, 1.0], lower=0.0, upper=4.0, tolerance=1e-3
            )

    def test_empty_subproblem_returns_zero_outcomes(self):
        graph = gnm_random_digraph(6, 10, seed=1)
        empty = STSubproblem(graph=graph, s_candidates=[], t_candidates=[], edges=[])
        outcomes = maximize_fixed_ratio_batch(
            empty, [0.5, 2.0], lower=0.0, upper=4.0, tolerance=1e-3
        )
        assert [o.ratio for o in outcomes] == [0.5, 2.0]
        assert all(o.flow_calls == 0 and o.best_density == 0.0 for o in outcomes)


@needs_numpy
class TestClientWiring:
    def test_flow_exact_batched_is_bit_identical(self):
        graph = gnm_random_digraph(12, 36, seed=9)
        count = decision_network_arc_count(STSubproblem.from_graph(graph))
        sequential = flow_exact(
            graph, ExactConfig(flow=FlowConfig(solver=AUTO_SOLVER, batch_size=1))
        )
        with patched_threshold(count + 1):
            batched = flow_exact(
                graph, ExactConfig(flow=FlowConfig(solver=AUTO_SOLVER, batch_size=4))
            )
        assert batched.density == sequential.density
        assert sorted(batched.s_nodes) == sorted(sequential.s_nodes)
        assert sorted(batched.t_nodes) == sorted(sequential.t_nodes)
        assert batched.stats["flow_calls"] == sequential.stats["flow_calls"]
        assert batched.stats["batched_solves"] > 0
        assert sequential.stats["batched_solves"] == 0

    def test_dc_exact_batched_leaves_are_bit_identical(self):
        graph = gnm_random_digraph(12, 36, seed=9)
        count = decision_network_arc_count(STSubproblem.from_graph(graph))
        config = lambda size: ExactConfig(  # noqa: E731
            leaf_ratio_count=10,
            flow=FlowConfig(solver=AUTO_SOLVER, batch_size=size),
        )
        sequential = dc_exact(graph, config(1))
        with patched_threshold(count + 1):
            batched = dc_exact(graph, config(10))
        assert batched.density == sequential.density
        assert sorted(batched.s_nodes) == sorted(sequential.s_nodes)
        assert sorted(batched.t_nodes) == sorted(sequential.t_nodes)
        assert batched.stats["flow_calls"] == sequential.stats["flow_calls"]
        assert batched.stats["batched_solves"] > 0

    def test_explicit_solvers_never_batch(self):
        graph = gnm_random_digraph(12, 36, seed=9)
        count = decision_network_arc_count(STSubproblem.from_graph(graph))
        with patched_threshold(count + 1):
            result = flow_exact(
                graph,
                ExactConfig(flow=FlowConfig(solver=VECTOR_SOLVER, batch_size=8)),
            )
        assert result.stats["batched_solves"] == 0

    def test_session_surfaces_batched_solves(self):
        graph = gnm_random_digraph(12, 36, seed=9)
        count = decision_network_arc_count(STSubproblem.from_graph(graph))
        session = DDSSession(graph, flow=FlowConfig(solver=AUTO_SOLVER, batch_size=4))
        with patched_threshold(count + 1):
            session.densest_subgraph("flow-exact")
        stats = session.cache_stats()
        assert stats["batched_solves"] > 0
        assert stats["backend_selections"] == stats["flow_calls"]


@needs_numpy
class TestBackendMismatchAdvisory:
    def test_forced_small_vector_solves_warn_once_per_session(self):
        graph = gnm_random_digraph(8, 20, seed=3)
        session = DDSSession(graph, flow=FlowConfig(solver=VECTOR_SOLVER))
        with pytest.warns(UserWarning, match="below the auto arc threshold"):
            result = session.densest_subgraph("flow-exact")
        mismatch = result.stats["backend_mismatch"]
        assert mismatch["flow_solver"] == VECTOR_SOLVER
        assert mismatch["small_vector_solves"] > 0
        # Once per session: a second affected query keeps the stats entry
        # but stays silent, mirroring flow_solver_ignored.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            second = session.densest_subgraph("dc-exact")
        assert "backend_mismatch" in second.stats
        assert not [w for w in caught if "auto arc threshold" in str(w.message)]

    def test_auto_policy_never_trips_the_advisory(self):
        graph = gnm_random_digraph(8, 20, seed=3)
        session = DDSSession(graph, flow=FlowConfig(solver=AUTO_SOLVER))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = session.densest_subgraph("flow-exact")
        assert "backend_mismatch" not in result.stats
        assert session.cache_stats()["small_vector_solves"] == 0
        assert not [w for w in caught if "auto arc threshold" in str(w.message)]

    def test_bench_trajectory_records_the_regression_and_the_fix(self):
        """BENCH_flow.json row pinning: the bug and its fix stay recorded."""
        document = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_flow.json").read_text()
        )
        assert document["schema_version"] == 2
        rows = {
            (row["workload"], row["solver"], row["mode"]): row
            for row in document["rows"]
        }
        workload = "e2-small:foodweb-tiny/flow-exact"
        dinic = rows[(workload, "dinic", "sequential")]
        vector = rows[(workload, VECTOR_SOLVER, "sequential")]
        batched = rows[(workload, AUTO_SOLVER, "batched")]
        # The recorded bug: one small network cannot fill the vector width.
        assert vector["wall_ms"] > dinic["wall_ms"]
        assert vector["batched_solves"] == 0
        # The recorded fix: the batched auto run stacks the guess sequence
        # and claws the vector speedup back (the >= 1.5x margin is enforced
        # at regeneration time by tools/bench_trajectory.py --check).
        assert batched["batched_solves"] > 0
        assert batched["wall_ms"] * 1.5 <= vector["wall_ms"]

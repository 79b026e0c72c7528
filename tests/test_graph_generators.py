"""Unit tests for the random-graph generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import generator_loops as loops
import pytest

from repro.exceptions import AlgorithmError
from repro.graph import generators
from repro.graph.generators import (
    chung_lu_digraph,
    complete_bipartite_digraph,
    cycle_digraph,
    expected_planted_density,
    gnm_random_digraph,
    gnp_random_digraph,
    path_digraph,
    planted_dds_digraph,
    powerlaw_digraph,
    rmat_digraph,
    star_digraph,
)


class TestUniformGenerators:
    def test_gnp_zero_probability(self):
        g = gnp_random_digraph(10, 0.0, seed=1)
        assert g.num_nodes == 10
        assert g.num_edges == 0

    def test_gnp_full_probability(self):
        g = gnp_random_digraph(5, 1.0, seed=1)
        assert g.num_edges == 5 * 4

    def test_gnp_determinism(self):
        a = gnp_random_digraph(20, 0.2, seed=42)
        b = gnp_random_digraph(20, 0.2, seed=42)
        assert set(a.edges()) == set(b.edges())

    def test_gnp_rejects_bad_probability(self):
        with pytest.raises(AlgorithmError):
            gnp_random_digraph(5, 1.5)

    def test_gnm_exact_edge_count(self):
        g = gnm_random_digraph(15, 60, seed=2)
        assert g.num_nodes == 15
        assert g.num_edges == 60

    def test_gnm_caps_at_max_edges(self):
        g = gnm_random_digraph(4, 100, seed=2)
        assert g.num_edges == 4 * 3

    def test_gnm_no_self_loops(self):
        g = gnm_random_digraph(10, 50, seed=3)
        assert all(u != v for u, v in g.edges())


class TestHeavyTailedGenerators:
    def test_chung_lu_respects_zero_weights(self):
        g = chung_lu_digraph([0.0, 5.0, 5.0], [5.0, 5.0, 0.0], seed=1)
        assert g.out_degree(0) == 0
        assert g.in_degree(2) == 0

    def test_chung_lu_length_mismatch(self):
        with pytest.raises(AlgorithmError):
            chung_lu_digraph([1.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -2.0, -1], ids=["nan", "inf", "-inf", "-2.0", "-1"]
    )
    @pytest.mark.parametrize("side", ["out", "in"])
    def test_chung_lu_refuses_weights_that_are_not_finite_and_non_negative(self, bad, side):
        # A NaN or infinite weight used to give an edgeless graph, and a
        # negative one shrank sum(out_weights), raising every other pair's
        # probability.
        weights = [3.0, bad, 2.0]
        good = [1.0, 1.0, 1.0]
        out_weights, in_weights = (weights, good) if side == "out" else (good, weights)
        with pytest.raises(AlgorithmError, match=f"{side}_weights must be finite and >= 0"):
            chung_lu_digraph(out_weights, in_weights, seed=1)

    def test_powerlaw_refuses_an_infinite_average_degree(self):
        with pytest.raises(AlgorithmError):
            powerlaw_digraph(20, average_degree=math.inf)

    def test_powerlaw_reasonable_size(self):
        g = powerlaw_digraph(200, average_degree=4.0, exponent=2.5, seed=7)
        assert g.num_nodes == 200
        # Expected edge count is ~ n * average_degree (heavy-tailed, so allow slack).
        assert 100 <= g.num_edges <= 3000

    def test_powerlaw_determinism(self):
        a = powerlaw_digraph(100, seed=11)
        b = powerlaw_digraph(100, seed=11)
        assert set(a.edges()) == set(b.edges())

    def test_powerlaw_rejects_bad_exponent(self):
        with pytest.raises(AlgorithmError):
            powerlaw_digraph(10, exponent=0.9)

    def test_rmat_size_and_skew(self):
        g = rmat_digraph(8, edge_factor=8, seed=5)
        assert g.num_nodes == 256
        assert 0 < g.num_edges <= 8 * 256
        # The recursive-matrix construction concentrates edges on low ids.
        assert g.max_out_degree() >= 4

    def test_rmat_partition_must_sum_to_one(self):
        with pytest.raises(AlgorithmError):
            rmat_digraph(4, partition=(0.5, 0.5, 0.5, 0.5))


class TestPlantedGenerator:
    def test_planted_block_is_dense(self):
        graph, planted_s, planted_t = planted_dds_digraph(
            n_background=50, background_degree=2.0, s_size=5, t_size=6, p_dense=1.0, seed=3
        )
        s_idx = graph.indices_of(planted_s)
        t_idx = graph.indices_of(planted_t)
        assert graph.count_edges_between(s_idx, t_idx) == 5 * 6
        assert graph.num_nodes == 50 + 5 + 6

    @pytest.mark.parametrize("degree", [-1.0, -0.5, -1e-9, -5, float("nan"), float("inf"), -float("inf")])
    def test_background_degree_refuses_negative_nan_and_infinite(self, degree):
        with pytest.raises(AlgorithmError, match=r"background_degree must be finite and >= 0") as caught:
            planted_dds_digraph(10, degree, 2, 2, seed=1)
        assert str(caught.value).endswith(f"got {degree!r}")

    def test_background_degree_zero_builds_no_background(self):
        for degree in (0, 0.0):
            graph, planted_s, planted_t = planted_dds_digraph(10, degree, 2, 2, p_dense=1.0, seed=1)
            background = graph.indices_of(range(10))
            assert graph.count_edges_between(background, background) == 0
            assert graph.count_edges_between(graph.indices_of(planted_s), graph.indices_of(planted_t)) == 4
        assert sorted(planted_dds_digraph(10, 0.0, 2, 2, seed=1)[0].edges()) == sorted(
            planted_dds_digraph(10, 0, 2, 2, seed=1)[0].edges()
        )

    def test_expected_planted_density(self):
        assert expected_planted_density(4, 9, 1.0) == pytest.approx(6.0)
        assert expected_planted_density(0, 9, 1.0) == 0.0
        assert expected_planted_density(4, 9, 0.5) == pytest.approx(3.0)

    def test_planted_density_dominates_background(self):
        graph, planted_s, planted_t = planted_dds_digraph(
            n_background=80, background_degree=2.0, s_size=6, t_size=8, p_dense=0.95, seed=9
        )
        s_idx = graph.indices_of(planted_s)
        t_idx = graph.indices_of(planted_t)
        block_density = graph.count_edges_between(s_idx, t_idx) / math.sqrt(6 * 8)
        overall_density = graph.num_edges / math.sqrt(graph.num_nodes**2)
        assert block_density > 2 * overall_density


class TestDeterministicFamilies:
    def test_complete_bipartite(self):
        g = complete_bipartite_digraph(3, 4)
        assert g.num_nodes == 7
        assert g.num_edges == 12
        assert g.out_degree("s0") == 4
        assert g.in_degree("t0") == 3

    def test_star_outward_and_inward(self):
        out_star = star_digraph(5, outward=True)
        in_star = star_digraph(5, outward=False)
        assert out_star.out_degree("hub") == 5
        assert in_star.in_degree("hub") == 5

    def test_path_and_cycle(self):
        assert path_digraph(5).num_edges == 4
        assert cycle_digraph(5).num_edges == 5
        assert cycle_digraph(1).num_edges == 0


# ----------------------------------------------------------------------
# the bulk sweeps against the per-pair loops (tests/generator_loops.py)
# ----------------------------------------------------------------------
def _layout(graph):
    """What a generator fixes: content, and the order edges were inserted in."""
    return (
        graph.content_fingerprint(),
        list(graph.edges()),
        [graph.successors(node) for node in graph.nodes()],
        [graph.predecessors(node) for node in graph.nodes()],
    )


def _assert_matches_loop(build, reference, case):
    """``build`` and ``reference`` on one shared generator, used before and after."""
    shared = random.Random(f"shared-{case}")
    for _ in range(case % 3):
        shared.random()
    twin = random.Random()
    twin.setstate(shared.getstate())
    got, want = build(shared), reference(twin)
    if isinstance(want, tuple):
        (got, *got_rest), (want, *want_rest) = got, want
        assert got_rest == want_rest
    assert _layout(got) == _layout(want)
    assert shared.getstate() == twin.getstate()
    assert shared.random() == twin.random()


def _probability(shape, case):
    """0, 1 (as a float and as an int), and random probabilities, in turn."""
    return [0.0, 1.0, 1, shape.random(), shape.random() * 0.1][case % 5]


#: Weight kinds of the Chung–Lu cases.  Floats take float64 arrays; ints,
#: big ints (whose products pass 2**53) and Fractions are multiplied as
#: Python objects.  "heavy" makes pairs of probability >= 1.
WEIGHT_KINDS = ["float", "int", "mixed", "heavy", "big-int", "fraction"]


def _chung_lu_weights(shape, n, kind):
    """Seeded weights of one kind, about one in seven of them zero."""
    weights = []
    for _ in range(n):
        if shape.random() < 0.15:
            weights.append(shape.choice([0, 0.0]))
        elif kind == "int" or (kind == "mixed" and shape.random() < 0.5):
            weights.append(shape.randrange(1, 6))
        elif kind == "heavy":
            weights.append(shape.choice([0.5, 1.0, 2.0 * n, 4.0 * n]))
        elif kind == "big-int":
            weights.append(shape.randrange(1, 1 << 40))
        elif kind == "fraction":
            weights.append(Fraction(shape.randrange(1, 30), shape.randrange(1, 7)))
        else:
            weights.append((1.0 - shape.random()) ** -0.8)
    return weights


#: Sweep blocks of one row, of a few rows and of whole small graphs.
BLOCK_CELLS = [1, 7, 64, generators._SWEEP_CELLS]


class TestBulkSweepsMatchTheLoops:
    @pytest.fixture(params=BLOCK_CELLS, ids=lambda cells: f"cells{cells}")
    def block_cells(self, request, monkeypatch):
        monkeypatch.setattr(generators, "_SWEEP_CELLS", request.param)
        return request.param

    @pytest.mark.parametrize("case", range(12))
    def test_gnp(self, case, block_cells):
        shape = random.Random(f"gnp-{case}")
        n, p = [0, 1, 2][case] if case < 3 else shape.randrange(3, 81), _probability(shape, case)
        _assert_matches_loop(
            lambda rng: gnp_random_digraph(n, p, seed=rng),
            lambda rng: loops.gnp_random_digraph(n, p, seed=rng),
            case,
        )

    @pytest.mark.parametrize("case", range(12))
    def test_planted(self, case, block_cells):
        shape = random.Random(f"planted-{case}")
        n_background = [0, 1][case] if case < 2 else shape.randrange(2, 61)
        degree = [0, 0.0, 1.5, 100.0, shape.random() * 6][case % 5]
        s_size, t_size = shape.randrange(1, 12), shape.randrange(1, 12)
        if case % 4 == 1:
            s_size = 0
        elif case % 4 == 2:
            t_size = 0
        p_dense = _probability(shape, case)
        _assert_matches_loop(
            lambda rng: planted_dds_digraph(n_background, degree, s_size, t_size, p_dense, seed=rng),
            lambda rng: loops.planted_dds_digraph(n_background, degree, s_size, t_size, p_dense, seed=rng),
            case,
        )

    @pytest.mark.parametrize("case", range(18))
    def test_chung_lu(self, case, block_cells):
        shape = random.Random(f"chung-lu-{case}")
        n = [0, 1][case] if case < 2 else shape.randrange(2, 81)
        out_kind = WEIGHT_KINDS[case % len(WEIGHT_KINDS)]
        in_kind = WEIGHT_KINDS[(case + case // len(WEIGHT_KINDS)) % len(WEIGHT_KINDS)]
        out_weights, in_weights = _chung_lu_weights(shape, n, out_kind), _chung_lu_weights(shape, n, in_kind)
        _assert_matches_loop(
            lambda rng: chung_lu_digraph(out_weights, in_weights, seed=rng),
            lambda rng: loops.chung_lu_digraph(out_weights, in_weights, seed=rng),
            case,
        )

    def test_chung_lu_int_products_past_2_53_are_exact(self):
        # 3 * (2**53 + 1) / (3 * (2**53 + 1)) is exactly 1 in Python's int
        # arithmetic: a sure pair, no draw.  Rounded to float64 first, the
        # operands give 3 * 2**53 / (3 * 2**53 + 4) < 1 and a draw.
        big = (1 << 53) + 1
        out_weights, in_weights = [big, 2 * big], [0, 3]
        _assert_matches_loop(
            lambda rng: chung_lu_digraph(out_weights, in_weights, seed=rng),
            lambda rng: loops.chung_lu_digraph(out_weights, in_weights, seed=rng),
            0,
        )

    def test_registry_shaped_powerlaw_graph(self):
        # wiki-talk-medium's shape at a fifth of its size: several sweep blocks.
        n, degree, exponent = 400, 4.0, 2.1

        def reference(rng):
            out_weights = generators._powerlaw_weights(n, exponent, rng)
            in_weights = generators._powerlaw_weights(n, exponent, rng)
            out_weights = [w * (n * degree / sum(out_weights)) for w in out_weights]
            in_weights = [w * (n * degree / sum(in_weights)) for w in in_weights]
            return loops.chung_lu_digraph(out_weights, in_weights, seed=rng)

        _assert_matches_loop(lambda rng: powerlaw_digraph(n, degree, exponent, seed=rng), reference, 1)

    def test_registry_shaped_planted_graph(self):
        # planted-medium's shape at half its size: several sweep blocks.
        _assert_matches_loop(
            lambda rng: planted_dds_digraph(750, 4.0, 15, 25, 0.7, seed=rng),
            lambda rng: loops.planted_dds_digraph(750, 4.0, 15, 25, 0.7, seed=rng),
            2,
        )

    def test_a_subclass_overriding_random_is_drawn_one_value_at_a_time(self):
        class Shifted(random.Random):
            """Not MT19937's doubles: a bulk draw of the state would differ."""

            def random(self):
                self.calls = getattr(self, "calls", 0) + 1
                return (super().random() + 0.25) % 1.0

        def run(module):
            rngs = [Shifted(seed) for seed in (1, 2, 3)]
            graphs = (
                module.gnp_random_digraph(30, 0.2, seed=rngs[0]),
                module.planted_dds_digraph(25, 2.0, 4, 5, 0.8, seed=rngs[1])[0],
                module.chung_lu_digraph([1.0, 0.0, 3.0] * 10, [2.0, 1.0, 0.0] * 10, seed=rngs[2]),
            )
            return [_layout(graph) for graph in graphs], [(rng.calls, rng.getstate()) for rng in rngs]

        assert run(generators) == run(loops)

    def test_system_random_still_works(self):
        graph = gnp_random_digraph(20, 0.5, seed=random.SystemRandom())
        assert graph.num_nodes == 20
        assert all(u != v for u, v in graph.edges())
        graph, planted_s, planted_t = planted_dds_digraph(10, 2.0, 3, 4, 1.0, seed=random.SystemRandom())
        assert graph.count_edges_between(graph.indices_of(planted_s), graph.indices_of(planted_t)) == 12
        graph = chung_lu_digraph([30.0] * 5, [30.0] * 5, seed=random.SystemRandom())
        assert graph.num_edges == 20

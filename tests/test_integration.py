"""End-to-end integration tests: datasets -> algorithms -> consistent answers."""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import core_based_bounds
from repro.core.density import directed_density
from repro.datasets.casestudy import hub_authority_case, precision_recall, rating_fraud_case
from repro.datasets.registry import dataset_names, load_dataset
from repro.graph.io import read_edge_list, write_edge_list
from repro.session import DDSSession


class TestSmallDatasetsExact:
    """On every small dataset the three exact algorithms agree, and the
    approximations respect their guarantees against the exact optimum."""

    @pytest.mark.parametrize("name", ["foodweb-tiny", "social-tiny"])
    def test_exact_algorithms_agree(self, name):
        graph = load_dataset(name)
        flow = DDSSession(graph).densest_subgraph("flow-exact")
        dc = DDSSession(graph).densest_subgraph("dc-exact")
        core = DDSSession(graph).densest_subgraph("core-exact")
        assert dc.density == pytest.approx(flow.density, abs=1e-9)
        assert core.density == pytest.approx(flow.density, abs=1e-9)

    @pytest.mark.parametrize("name", dataset_names("small"))
    def test_approximations_respect_guarantees(self, name):
        graph = load_dataset(name)
        exact = DDSSession(graph).densest_subgraph("core-exact")
        core = DDSSession(graph).densest_subgraph("core-approx")
        peel = DDSSession(graph).densest_subgraph("peel-approx", epsilon=0.5)
        assert core.density >= exact.density / 2.0 - 1e-9
        assert peel.density >= exact.density / (2.0 * math.sqrt(1.5)) - 1e-9
        assert core.density <= exact.density + 1e-9
        assert peel.density <= exact.density + 1e-9

    @pytest.mark.parametrize("name", dataset_names("small"))
    def test_core_bounds_bracket_exact_density(self, name):
        graph = load_dataset(name)
        exact = DDSSession(graph).densest_subgraph("core-exact")
        bounds = core_based_bounds(graph)
        assert bounds.lower <= exact.density + 1e-9
        assert exact.density <= bounds.upper + 1e-9


class TestMediumDatasetsApprox:
    @pytest.mark.parametrize("name", ["amazon-medium", "planted-medium"])
    def test_approximations_are_consistent(self, name):
        graph = load_dataset(name)
        core = DDSSession(graph).densest_subgraph("core-approx")
        peel = DDSSession(graph).densest_subgraph("peel-approx")
        # Both must report densities consistent with their own (S, T) pair.
        for result in (core, peel):
            assert result.density == pytest.approx(
                directed_density(graph, result.s_nodes, result.t_nodes)
            )
        # The 2-approximations can differ, but never by more than the combined
        # guarantee factor.
        assert max(core.density, peel.density) <= 2.0 * min(core.density, peel.density) + 1e-9

    def test_planted_medium_block_found(self):
        graph = load_dataset("planted-medium")
        result = DDSSession(graph).densest_subgraph("core-approx")
        # The planted 15x25 block with p=0.7 has expected density ~13.6, far
        # above the sparse background, so the core approximation must report
        # a density in that ballpark.
        assert result.density > 8.0


class TestCaseStudyRecovery:
    def test_rating_fraud_roles_recovered(self):
        case = rating_fraud_case(seed=7)
        result = DDSSession(case.graph).densest_subgraph("core-approx")
        s_precision, s_recall = precision_recall(result.s_nodes, case.true_s)
        t_precision, t_recall = precision_recall(result.t_nodes, case.true_t)
        assert s_recall >= 0.9
        assert t_recall >= 0.9
        assert s_precision >= 0.8
        assert t_precision >= 0.8

    def test_hub_authority_roles_recovered(self):
        case = hub_authority_case(seed=8)
        result = DDSSession(case.graph).densest_subgraph("core-approx")
        _, hub_recall = precision_recall(result.s_nodes, case.true_s)
        _, authority_recall = precision_recall(result.t_nodes, case.true_t)
        assert hub_recall >= 0.9
        assert authority_recall >= 0.8


class TestRoundTripPipeline:
    def test_write_read_solve(self, tmp_path):
        graph = load_dataset("foodweb-tiny")
        path = tmp_path / "foodweb.tsv"
        write_edge_list(graph, path)
        reloaded = read_edge_list(path)
        original = DDSSession(graph).densest_subgraph("core-exact")
        roundtrip = DDSSession(reloaded).densest_subgraph("core-exact")
        assert roundtrip.density == pytest.approx(original.density)

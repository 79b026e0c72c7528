"""Tests for the dataset registry and case-study generators."""

from __future__ import annotations

import pytest

from repro.datasets.casestudy import hub_authority_case, precision_recall, rating_fraud_case
from repro.datasets.registry import (
    dataset_names,
    dataset_specs,
    exact_dataset_names,
    large_dataset_names,
    load_dataset,
)
from repro.exceptions import DatasetError


#: Content fingerprint of every registered dataset, recorded before the
#: generators took their draws in bulk.  The experiment tables, the seeded
#: counter pins and the large-tier timings in ROADMAP.md all assume these
#: graphs never change; a generator change that moves one fails here.
DATASET_FINGERPRINTS = {
    "foodweb-tiny": "b44f57b4fdc22c92954b1846322b5d48fb67d1d6cfdb56e2872125fd100fb5bb",
    "social-tiny": "1b4c0f0d48f4b635cc6180ba257b75021fcf77c123e4d4895e7631775b26e120",
    "flights-small": "63a1dfd559ea66e257aff0fa831e891de479f1ef890af1467f9f8584a36fc9f3",
    "advogato-small": "15ecfd9c0d858f842768311e08cc27f8cd0fae33024c1f460d960fe526f4b2a0",
    "er-small": "dc2d01d0cb48abfb1becd1157bdfe5a53fe37e39fb5147327e49b578eed48db4",
    "amazon-medium": "9e8485f459640333fd23402ca0983754dbb789b8673569da94b28eba9bd947d7",
    "wiki-talk-medium": "befdff827cb8a9286f2fdd5a0f013f55730d407fe7afee5cd3b210817736022b",
    "planted-medium": "74712c262f4276c546684ba598c02e26e44d209f6f81c9a247e9080af60cc6f8",
    "rmat-medium": "57d1cc71abe5284f510624db7af9c6832be6496bb881d21f817c789c8151fa47",
    "er-medium": "19c7dda836a70060e024c8f35924842c5f192e6e8df5a20671444b3a76c026aa",
    "web-large": "cbcce741c7dc3dbc28d21277cf945a8e595c1c752f0e6d9a70b5e3695ba5aa54",
    "citation-large": "d5ba8d357f97b408d04c6ffda2134a3b2392c026640c7da01bf53091c5fda3d1",
    "planted-large": "1379c40b2f7e27616f24ed26c6af85068c59c62d1960b34da559bd6e76cfbd50",
}


class TestRegistry:
    def test_all_specs_have_metadata(self):
        for spec in dataset_specs():
            assert spec.name
            assert spec.tier in {"small", "medium", "large"}
            assert spec.description
            assert spec.paper_analogue

    def test_tier_filters(self):
        assert set(exact_dataset_names()) == set(dataset_names("small"))
        assert set(large_dataset_names()) == set(dataset_names("medium")) | set(
            dataset_names("large")
        )
        assert set(dataset_names()) >= set(exact_dataset_names())

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("does-not-exist")

    def test_load_is_deterministic(self):
        a = load_dataset("foodweb-tiny")
        b = load_dataset("foodweb-tiny")
        assert set(a.edges()) == set(b.edges())

    def test_load_returns_independent_copies(self):
        a = load_dataset("foodweb-tiny")
        edges_before = load_dataset("foodweb-tiny").num_edges
        a.add_edge("brand-new-u", "brand-new-v")
        assert load_dataset("foodweb-tiny").num_edges == edges_before

    @pytest.mark.parametrize("name", dataset_names("small"))
    def test_small_datasets_materialise(self, name):
        graph = load_dataset(name)
        assert graph.num_edges > 0
        assert graph.num_nodes <= 400

    def test_every_dataset_keeps_its_content_fingerprint(self):
        assert list(DATASET_FINGERPRINTS) == dataset_names()
        for spec in dataset_specs():
            assert spec.builder().content_fingerprint() == DATASET_FINGERPRINTS[spec.name], spec.name

    def test_medium_and_large_sizes_are_tiered(self):
        small = max(load_dataset(name).num_nodes for name in dataset_names("small"))
        medium = min(load_dataset(name).num_nodes for name in dataset_names("medium"))
        assert small <= medium


class TestCaseStudies:
    def test_rating_fraud_structure(self):
        case = rating_fraud_case(n_users=50, n_products=30, n_fraud_users=5, n_boosted_products=4, seed=1)
        assert case.graph.num_edges > 0
        assert len(case.true_s) == 5
        assert len(case.true_t) == 4
        # The graph is bipartite user -> product: products never rate.
        for product in case.true_t:
            assert case.graph.out_degree(product) == 0

    def test_hub_authority_structure(self):
        case = hub_authority_case(n_pages=60, n_hubs=4, n_authorities=6, seed=2)
        assert len(case.true_s) == 4
        assert len(case.true_t) == 6
        assert case.graph.num_nodes == 60

    def test_precision_recall(self):
        precision, recall = precision_recall(["a", "b", "c"], ["b", "c", "d", "e"])
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(0.5)
        assert precision_recall([], ["a"]) == (0.0, 0.0)

    def test_case_studies_deterministic(self):
        a = rating_fraud_case(seed=3)
        b = rating_fraud_case(seed=3)
        assert set(a.graph.edges()) == set(b.graph.edges())

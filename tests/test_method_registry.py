"""Tests for the method registry and the typed config dataclasses."""

from __future__ import annotations

import pytest

from repro.core.config import ApproxConfig, ExactConfig, FlowConfig
from repro.core.method_registry import (
    MethodSpec,
    available_methods,
    get_method_spec,
    method_specs,
    register_method,
    unregister_method,
)
from repro.core.results import DDSResult
from repro.exceptions import AlgorithmError, ConfigError, FlowError
from repro.graph.generators import complete_bipartite_digraph
from repro.session import DDSSession


class TestRegistry:
    def test_builtins_registered(self):
        names = available_methods()
        assert names == sorted(names)
        for expected in (
            "flow-exact",
            "dc-exact",
            "core-exact",
            "core-approx",
            "inc-approx",
            "peel-approx",
            "brute-force",
        ):
            assert expected in names

    def test_capability_flags(self):
        flow_backed = {spec.name for spec in method_specs() if spec.flow_backed}
        assert flow_backed == {"flow-exact", "dc-exact", "core-exact"}
        exact = {spec.name for spec in method_specs() if spec.is_exact}
        assert exact == {"flow-exact", "dc-exact", "core-exact", "brute-force"}
        for spec in method_specs():
            assert spec.description

    def test_config_types(self):
        assert get_method_spec("core-exact").config_type is ExactConfig
        assert get_method_spec("peel-approx").config_type is ApproxConfig

    def test_unknown_method(self):
        with pytest.raises(AlgorithmError, match="unknown method"):
            get_method_spec("nope")

    def test_register_and_unregister_custom_method(self):
        def runner(graph, config, context):
            return DDSResult(
                s_nodes=[graph.label_of(0)],
                t_nodes=[graph.label_of(1)],
                density=0.5,
                edge_count=1,
                method="half-density",
                is_exact=False,
            )

        register_method(MethodSpec(
            name="half-density",
            runner=runner,
            config_type=ApproxConfig,
            is_exact=False,
            flow_backed=False,
            description="test stub",
        ))
        try:
            session = DDSSession(complete_bipartite_digraph(2, 2))
            result = session.densest_subgraph("half-density")
            assert result.method == "half-density"
            assert result.density == 0.5
        finally:
            unregister_method("half-density")
        with pytest.raises(AlgorithmError):
            get_method_spec("half-density")

    def test_exact_config_subclass_methods_resolve_defaults(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class BoostConfig(ExactConfig):
            boost: float = 2.0

        def runner(graph, config, context):
            return DDSResult(
                s_nodes=[graph.label_of(0)],
                t_nodes=[graph.label_of(1)],
                density=config.boost,
                edge_count=1,
                method="boosted",
                is_exact=False,
            )

        register_method(MethodSpec(
            name="boosted",
            runner=runner,
            config_type=BoostConfig,
            is_exact=False,
            flow_backed=True,
            description="test stub with a config subclass",
        ))
        try:
            session = DDSSession(complete_bipartite_digraph(2, 2), flow="push-relabel")
            # Default-config query must build the subclass (with the session
            # flow folded in), not a bare ExactConfig.
            result = session.densest_subgraph("boosted")
            assert result.density == 2.0
            custom = session.densest_subgraph("boosted", config=BoostConfig(boost=3.5))
            assert custom.density == 3.5
        finally:
            unregister_method("boosted")

    def test_register_validates_spec(self):
        with pytest.raises(AlgorithmError):
            register_method(MethodSpec(
                name="",
                runner=lambda g, c, ctx: None,
                config_type=ApproxConfig,
                is_exact=False,
                flow_backed=False,
            ))
        with pytest.raises(AlgorithmError, match="MethodConfig"):
            register_method(MethodSpec(
                name="bad-config",
                runner=lambda g, c, ctx: None,
                config_type=dict,
                is_exact=False,
                flow_backed=False,
            ))

    def test_register_rejects_unhashable_config_type(self):
        from dataclasses import dataclass

        from repro.core.config import MethodConfig

        @dataclass  # not frozen: eq=True sets __hash__ = None
        class MutableConfig(MethodConfig):
            epsilon: float = 0.5

        with pytest.raises(AlgorithmError, match="hashable"):
            register_method(MethodSpec(
                name="mutable-config",
                runner=lambda g, c, ctx: None,
                config_type=MutableConfig,
                is_exact=False,
                flow_backed=False,
            ))


class TestConfigValidation:
    def test_exact_config_defaults(self):
        cfg = ExactConfig()
        assert cfg.tolerance is None
        assert cfg.leaf_ratio_count == 2
        assert cfg.flow.solver == "dinic"

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_exact_config_rejects_bad_tolerance(self, bad):
        with pytest.raises(ConfigError, match="tolerance"):
            ExactConfig(tolerance=bad)

    def test_exact_config_rejects_bad_leaf_count(self):
        with pytest.raises(ConfigError, match="leaf_ratio_count"):
            ExactConfig(leaf_ratio_count=0)

    def test_exact_config_rejects_bad_node_limit(self):
        with pytest.raises(ConfigError, match="node_limit"):
            ExactConfig(node_limit=0)

    def test_exact_config_coerces_solver_name(self):
        assert ExactConfig(flow="push-relabel").flow == FlowConfig(solver="push-relabel")

    def test_flow_config_rejects_unknown_solver(self):
        with pytest.raises(FlowError, match="unknown flow solver"):
            FlowConfig(solver="nope")

    def test_flow_config_rejects_negative_cache(self):
        with pytest.raises(ConfigError, match="network_cache_size"):
            FlowConfig(network_cache_size=-1)

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_approx_config_rejects_bad_epsilon(self, bad):
        with pytest.raises(ConfigError, match="epsilon"):
            ApproxConfig(epsilon=bad)

    def test_approx_config_normalises_ratios(self):
        cfg = ApproxConfig(ratios=[1, 2.0])
        assert cfg.ratios == (1.0, 2.0)
        with pytest.raises(ConfigError, match="ratio"):
            ApproxConfig(ratios=[1.0, -2.0])
        with pytest.raises(ConfigError, match="ratios"):
            ApproxConfig(ratios=[])

    def test_resolve_rejects_unknown_overrides(self):
        with pytest.raises(ConfigError, match="does not accept"):
            ExactConfig.resolve(None, tolerence=0.1)  # typo on purpose
        with pytest.raises(ConfigError, match="flow_solver"):
            ApproxConfig.resolve(None, flow_solver="dinic")

    def test_resolve_rejects_wrong_config_type(self):
        with pytest.raises(ConfigError, match="ExactConfig"):
            ExactConfig.resolve(ApproxConfig())

    def test_resolve_accepts_legacy_max_nodes_alias(self):
        assert ExactConfig.resolve(None, max_nodes=10).node_limit == 10
        with pytest.raises(ConfigError, match="alias"):
            ExactConfig.resolve(None, max_nodes=10, node_limit=12)
        with pytest.raises(ConfigError, match="max_nodes"):
            ApproxConfig.resolve(None, max_nodes=10)

    def test_resolve_flow_string_plus_flow_solver(self):
        resolved = ExactConfig.resolve(None, flow="dinic", flow_solver="push-relabel")
        assert resolved.flow == FlowConfig(solver="push-relabel")

    def test_resolve_overlays_fields(self):
        base = ExactConfig(tolerance=0.5)
        resolved = ExactConfig.resolve(base, flow_solver="edmonds-karp")
        assert resolved.tolerance == 0.5
        assert resolved.flow.solver == "edmonds-karp"
        # ``None`` overrides leave the base untouched (and return it as-is).
        assert ExactConfig.resolve(base, tolerance=None) is base

    def test_configs_are_hashable_cache_keys(self):
        assert hash(ExactConfig()) == hash(ExactConfig())
        assert ExactConfig(flow="dinic") == ExactConfig()
        assert ApproxConfig(ratios=[1.0]) == ApproxConfig(ratios=(1.0,))


class TestConfigThroughSession:
    def test_wrong_config_type_for_method(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with pytest.raises(ConfigError, match="ExactConfig"):
            session.densest_subgraph("dc-exact", config=ApproxConfig())
        with pytest.raises(ConfigError, match="ApproxConfig"):
            session.densest_subgraph("peel-approx", config=ExactConfig())

    def test_epsilon_rejected_by_exact_methods(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with pytest.raises(ConfigError, match="does not accept"):
            session.densest_subgraph("core-exact", epsilon=0.5)

    def test_tolerance_rejected_by_approx_methods(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with pytest.raises(ConfigError, match="does not accept"):
            session.densest_subgraph("peel-approx", tolerance=0.1)

    def test_invalid_value_rejected_before_any_work(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with pytest.raises(ConfigError, match="tolerance"):
            session.densest_subgraph("dc-exact", tolerance=-1.0)
        assert session.cache_stats()["queries"] == 0

    def test_legacy_kwargs_still_flow_through(self):
        session = DDSSession(complete_bipartite_digraph(3, 3))
        result = session.densest_subgraph("peel-approx", epsilon=0.25)
        assert result.stats["epsilon"] == 0.25

    def test_unused_knobs_are_rejected_not_ignored(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        # node_limit guards flow-exact/brute-force only; dc-exact never
        # consults it, so setting it must error instead of doing nothing.
        with pytest.raises(ConfigError, match="does not use config field 'node_limit'"):
            session.densest_subgraph("dc-exact", node_limit=50)
        with pytest.raises(ConfigError, match="does not use config field 'epsilon'"):
            session.densest_subgraph("core-approx", config=ApproxConfig(epsilon=0.25))
        with pytest.raises(ConfigError, match="'seed_with_core'"):
            session.densest_subgraph("core-exact", config=ExactConfig(seed_with_core=True))

    def test_flow_config_on_non_flow_method_is_ignored_with_warning(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        with pytest.warns(UserWarning, match="performs no min-cuts"):
            result = session.densest_subgraph(
                "brute-force", config=ExactConfig(flow="push-relabel")
            )
        assert result.stats["flow_solver_ignored"] == {
            "flow_solver": "push-relabel",
            "method": "brute-force",
        }

    def test_session_default_flow_does_not_trigger_spurious_warning(self):
        import warnings as warnings_module

        # A session-wide solver preference is policy, not a per-query request:
        # a default-config brute-force query must not warn about it.
        session = DDSSession(complete_bipartite_digraph(2, 3), flow="push-relabel")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", UserWarning)
            result = session.densest_subgraph("brute-force")
        assert "flow_solver_ignored" not in result.stats

    def test_explicit_flow_matching_session_default_still_warns(self):
        session = DDSSession(complete_bipartite_digraph(2, 3), flow="push-relabel")
        with pytest.warns(UserWarning, match="performs no min-cuts"):
            result = session.densest_subgraph(
                "brute-force", config=ExactConfig(flow="push-relabel")
            )
        assert result.stats["flow_solver_ignored"]["flow_solver"] == "push-relabel"

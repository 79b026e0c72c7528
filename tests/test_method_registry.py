"""Tests for the method registry and the typed config dataclasses."""

from __future__ import annotations

import pytest

from repro.core.config import ApproxConfig, ExactConfig
from repro.core.method_registry import (
    MethodSpec,
    available_methods,
    get_method_spec,
    method_specs,
    register_method,
    unregister_method,
)
from repro.core.results import DDSResult
from repro.datasets.registry import load_dataset
from repro.exceptions import AlgorithmError, ConfigError
from repro.graph.generators import complete_bipartite_digraph
from repro.session import DDSSession

#: Values no number field of a config accepts: not finite, a bool, or not a
#: number.  A ``tolerance`` of ``inf`` would stop an exact search before its
#: first min-cut and still mark the answer exact.
NOT_POSITIVE_FINITE = [float("inf"), float("-inf"), float("nan"), True, False, "1e-9", [1e-9]]


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
            session = DDSSession(complete_bipartite_digraph(2, 2))
            # Default-config query must build the subclass, not a bare
            # ExactConfig, and a budget override must resolve against it.
            result = session.densest_subgraph("boosted", deadline_ms=60_000)
            assert result.density == 2.0
            [(_, config, _)] = session.cached_results()
            assert config == BoostConfig()
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
        assert cfg.seed_with_core is False
        assert cfg.deadline_ms is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, *NOT_POSITIVE_FINITE])
    def test_exact_config_rejects_bad_tolerance(self, bad):
        with pytest.raises(ConfigError, match="tolerance"):
            ExactConfig(tolerance=bad)

    def test_exact_config_rejects_bad_leaf_count(self):
        # The leaf limit is the driver's constant: no count is a setting.
        with pytest.raises(TypeError, match="leaf_ratio_count"):
            ExactConfig(leaf_ratio_count=2)
        with pytest.raises(ConfigError, match="does not accept: leaf_ratio_count"):
            ExactConfig.resolve(None, leaf_ratio_count=8)

    def test_exact_config_rejects_bad_node_limit(self):
        # The node limits are the methods' constants: no limit is a setting.
        with pytest.raises(TypeError, match="node_limit"):
            ExactConfig(node_limit=10)
        with pytest.raises(ConfigError, match="does not accept: node_limit"):
            ExactConfig.resolve(None, node_limit=10)

    def test_flow_config_rejects_unknown_solver(self):
        # The budget the flow config held is a plain field, validated as it
        # was there, and no config names a solver or holds a flow config.
        with pytest.raises(TypeError, match="solver"):
            ExactConfig(solver="dinic")
        for removed in ("solver", "flow"):
            with pytest.raises(ConfigError, match=f"does not accept: {removed}"):
                ExactConfig.resolve(None, **{removed: "dinic"}, deadline_ms=None)
        for bad in (0, -1.0, float("inf"), float("nan"), True, "5"):
            with pytest.raises(ConfigError, match="deadline_ms"):
                ExactConfig(deadline_ms=bad)

    @pytest.mark.parametrize("bad", [0.0, -0.5, None, *NOT_POSITIVE_FINITE])
    def test_approx_config_rejects_bad_epsilon(self, bad):
        with pytest.raises(ConfigError, match="epsilon"):
            ApproxConfig(epsilon=bad)

    @pytest.mark.parametrize("bad", ["no", "false", "True", 1, 0, None], ids=repr)
    def test_seed_with_core_must_be_a_bool(self, bad):
        with pytest.raises(ConfigError, match="seed_with_core must be a bool"):
            ExactConfig(seed_with_core=bad)

    def test_accepted_numbers_are_kept_as_given(self):
        # An int stays an int, so a stored entry's key digest is unchanged.
        for stored, value in (
            (ExactConfig(tolerance=1).tolerance, 1),
            (ExactConfig(tolerance=2.5e-7).tolerance, 2.5e-7),
            (ApproxConfig(epsilon=1).epsilon, 1),
        ):
            assert stored == value and type(stored) is type(value)
        assert ExactConfig(seed_with_core=True).seed_with_core is True

    def test_approx_config_normalises_ratios(self):
        # peel-approx always sweeps the geometric grid: no list is a setting.
        with pytest.raises(TypeError, match="ratios"):
            ApproxConfig(ratios=[1.0])
        with pytest.raises(ConfigError, match="does not accept: ratios"):
            ApproxConfig.resolve(None, ratios=(1.0, 2.0))

    def test_resolve_rejects_unknown_overrides(self):
        with pytest.raises(ConfigError, match="does not accept"):
            ExactConfig.resolve(None, tolerence=0.1)  # typo on purpose
        # Only the session reads the flow_solver= override (and ignores it).
        with pytest.raises(ConfigError, match="flow_solver"):
            ApproxConfig.resolve(None, flow_solver="dinic")
        with pytest.raises(ConfigError, match="flow_solver"):
            ExactConfig.resolve(None, flow_solver="dinic")
        with pytest.raises(ConfigError, match="max_nodes"):
            ExactConfig.resolve(None, max_nodes=10)

    def test_resolve_rejects_wrong_config_type(self):
        with pytest.raises(ConfigError, match="ExactConfig"):
            ExactConfig.resolve(ApproxConfig())

    def test_resolve_flow_string_plus_flow_solver(self):
        # A solver name is no config field, beside a budget or not.
        for overrides in ({}, {"deadline_ms": 5}):
            with pytest.raises(ConfigError, match="does not accept: flow"):
                ExactConfig.resolve(None, flow="dinic", **overrides)
        with pytest.raises(ConfigError, match="flow, flow_solver"):
            ExactConfig.resolve(None, flow="auto", flow_solver="dinic")

    def test_resolve_overlays_fields(self):
        base = ExactConfig(tolerance=0.5)
        resolved = ExactConfig.resolve(base, deadline_ms=500)
        assert resolved == ExactConfig(tolerance=0.5, deadline_ms=500.0)
        assert ExactConfig.resolve(resolved, deadline_ms=7).deadline_ms == 7.0
        # ``None`` overrides leave the base untouched (and return it as-is).
        assert ExactConfig.resolve(base, tolerance=None) is base

    def test_configs_are_hashable_cache_keys(self):
        assert hash(ExactConfig()) == hash(ExactConfig())
        assert ExactConfig(deadline_ms=5) == ExactConfig(deadline_ms=5.0)
        assert hash(ExactConfig(deadline_ms=5)) == hash(ExactConfig(deadline_ms=5.0))
        assert hash(ApproxConfig(epsilon=1)) == hash(ApproxConfig(epsilon=1.0))


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

    def test_an_infinite_tolerance_cannot_make_an_inexact_answer_exact(self):
        # With tolerance=inf the search would stop before its first min-cut
        # and report the seed's density as exact.
        session = DDSSession(load_dataset("er-small"))
        with pytest.raises(ConfigError, match="tolerance must be a positive finite number"):
            session.densest_subgraph("core-exact", tolerance=float("inf"))
        with pytest.raises(ConfigError, match="seed_with_core must be a bool"):
            session.densest_subgraph("dc-exact", seed_with_core="no")
        stats = session.cache_stats()
        assert (stats["queries"], stats["flow_calls"]) == (0, 0)

    def test_legacy_kwargs_still_flow_through(self):
        session = DDSSession(complete_bipartite_digraph(3, 3))
        result = session.densest_subgraph("peel-approx", epsilon=0.25)
        assert result.stats["epsilon"] == 0.25

    def test_unused_knobs_are_rejected_not_ignored(self):
        session = DDSSession(complete_bipartite_digraph(2, 3))
        # seed_with_core seeds dc-exact only; flow-exact never consults
        # it, so setting it must error instead of doing nothing.
        with pytest.raises(ConfigError, match="does not use config field 'seed_with_core'"):
            session.densest_subgraph("flow-exact", seed_with_core=True)
        with pytest.raises(ConfigError, match="does not use config field 'tolerance'"):
            session.densest_subgraph("brute-force", tolerance=0.5)
        with pytest.raises(ConfigError, match="does not use config field 'epsilon'"):
            session.densest_subgraph("core-approx", config=ApproxConfig(epsilon=0.25))
        with pytest.raises(ConfigError, match="'seed_with_core'"):
            session.densest_subgraph("core-exact", config=ExactConfig(seed_with_core=True))

    def test_session_default_flow_does_not_trigger_spurious_warning(self):
        import warnings as warnings_module

        # A session-wide solver name is no per-query request: a
        # default-config brute-force query must not warn about it.
        session = DDSSession(complete_bipartite_digraph(2, 3), flow="auto")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", UserWarning)
            result = session.densest_subgraph("brute-force")
        assert "flow_solver_ignored" not in result.stats

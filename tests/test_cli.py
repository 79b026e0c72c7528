"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest
import store_rows
from flow_oracle import ORACLE_SOLVER, use_solver

from repro.cli import build_parser, main
from repro.graph.digraph import DiGraph
from repro.graph.io import write_edge_list


@pytest.fixture
def edge_list_file(tmp_path):
    graph = DiGraph.from_edges([(0, 1), (0, 2), (1, 2), (3, 0)])
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_find_defaults(self):
        args = build_parser().parse_args(["find", "--dataset", "foodweb-tiny"])
        assert args.method == "auto"

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["find", "--dataset", "x", "--method", "nope"])


class TestCommands:
    def test_find_on_edge_list(self, edge_list_file, capsys):
        exit_code = main(["find", "--edge-list", str(edge_list_file), "--method", "core-exact"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_exact"] is True
        assert payload["density"] > 0

    def test_find_with_flow_solver(self, edge_list_file, capsys, request):
        """``find`` answers alike on the oracle solver, and its payload names no solver."""
        argv = ["find", "--edge-list", str(edge_list_file), "--method", "dc-exact"]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        use_solver(request, ORACLE_SOLVER)
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == plain
        assert "flow_solver" not in payload
        assert payload["is_exact"] is True

    def test_find_rejects_unknown_flow_solver(self, edge_list_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "find",
                    "--edge-list",
                    str(edge_list_file),
                    "--flow-solver",
                    "nope",
                ]
            )

    def test_find_on_dataset_with_nodes(self, capsys):
        exit_code = main(
            ["find", "--dataset", "foodweb-tiny", "--method", "core-approx", "--show-nodes"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["s_nodes"]
        assert payload["t_nodes"]

    def test_find_without_source_errors(self):
        with pytest.raises(SystemExit):
            main(["find", "--method", "core-approx"])

    def test_core_command_max_core(self, edge_list_file, capsys):
        exit_code = main(["core", "--edge-list", str(edge_list_file)])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"] >= 1
        assert payload["y"] >= 1

    def test_core_command_specific_orders(self, edge_list_file, capsys):
        exit_code = main(["core", "--edge-list", str(edge_list_file), "--x", "1", "--y", "1"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"] == 1 and payload["y"] == 1

    def test_topk_command(self, edge_list_file, capsys):
        exit_code = main(
            ["top-k", "--edge-list", str(edge_list_file), "--k", "2", "--method", "core-exact"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 1 <= len(payload) <= 2
        assert payload[0]["rank"] == 1
        assert payload[0]["density"] >= payload[-1]["density"]

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "foodweb-tiny" in out
        assert "web-large" in out

    def test_summary_command(self, edge_list_file, capsys):
        assert main(["summary", "--edge-list", str(edge_list_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 4
        assert payload["edges"] == 4


class TestQualityFlags:
    """--tolerance / --epsilon are validated through the config dataclasses."""

    def test_find_with_tolerance(self, edge_list_file, capsys):
        exit_code = main(
            [
                "find",
                "--edge-list",
                str(edge_list_file),
                "--method",
                "dc-exact",
                "--tolerance",
                "0.001",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_exact"] is True

    def test_find_with_epsilon(self, edge_list_file, capsys):
        exit_code = main(
            [
                "find",
                "--edge-list",
                str(edge_list_file),
                "--method",
                "peel-approx",
                "--epsilon",
                "0.25",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "peel-approx"

    def test_epsilon_rejected_for_exact_method(self, edge_list_file):
        with pytest.raises(SystemExit, match="invalid configuration"):
            main(
                [
                    "find",
                    "--edge-list",
                    str(edge_list_file),
                    "--method",
                    "core-exact",
                    "--epsilon",
                    "0.5",
                ]
            )

    def test_tolerance_rejected_for_approx_method(self, edge_list_file):
        with pytest.raises(SystemExit, match="invalid configuration"):
            main(
                [
                    "find",
                    "--edge-list",
                    str(edge_list_file),
                    "--method",
                    "core-approx",
                    "--tolerance",
                    "0.1",
                ]
            )

    def test_negative_tolerance_rejected(self, edge_list_file):
        with pytest.raises(SystemExit, match="invalid configuration"):
            main(
                [
                    "find",
                    "--edge-list",
                    str(edge_list_file),
                    "--method",
                    "dc-exact",
                    "--tolerance",
                    "-0.5",
                ]
            )


class TestCleanErrors:
    def test_unknown_dataset_is_clean_error(self):
        with pytest.raises(SystemExit, match="error: unknown dataset"):
            main(["find", "--dataset", "nope"])

    def test_node_limit_refusal_is_clean_error(self):
        with pytest.raises(SystemExit, match="error: flow_exact enumerates"):
            main(["find", "--dataset", "amazon-medium", "--method", "flow-exact"])


class TestBatchCommand:
    def _write_queries(self, tmp_path, queries):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(queries))
        return path

    def test_batch_runs_many_queries_on_one_session(self, edge_list_file, tmp_path, capsys):
        queries = [
            {"query": "densest", "method": "core-exact"},
            {"query": "densest", "method": "core-exact"},
            {"query": "top-k", "k": 2, "method": "core-exact"},
            {"query": "xy-core", "x": 1, "y": 1},
            {"query": "max-core"},
            {"query": "fixed-ratio", "ratio": 1.0},
            {"query": "summary"},
        ]
        path = self._write_queries(tmp_path, queries)
        assert main(["batch", "--edge-list", str(edge_list_file), str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == len(queries)
        # The repeated densest query must be a session result-cache hit.
        assert payload["session"]["result_cache_hits"] >= 2
        assert payload["results"][0] == payload["results"][1]
        assert payload["results"][6]["nodes"] == 4

    def test_batch_remote_routes_lanes_to_a_daemon(self, edge_list_file, tmp_path, capsys):
        from repro.net import ShardDaemon

        queries = [
            {"query": "densest", "method": "core-exact"},
            {"query": "top-k", "k": 2, "method": "core-exact"},
        ]
        path = self._write_queries(tmp_path, queries)
        with ShardDaemon() as daemon:
            exit_code = main(
                [
                    "batch",
                    "--edge-list",
                    str(edge_list_file),
                    "--remote",
                    daemon.address,
                    str(path),
                ]
            )
            assert exit_code == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["results"]) == len(queries)
            assert payload["executor"]["mode"] == "remote"
            assert payload["executor"]["lanes_remote"] == 1
            assert payload["executor"]["remote_failures"] == 0
            assert daemon.daemon_stats()["requests"] == {"solve": 1}
        # Parity with the plain local run.
        assert main(["batch", "--edge-list", str(edge_list_file), str(path)]) == 0
        local = json.loads(capsys.readouterr().out)
        assert local["results"] == payload["results"]

    def test_batch_remote_excludes_process_pool(self, edge_list_file, tmp_path):
        path = self._write_queries(tmp_path, [{"query": "summary"}])
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "batch",
                    "--edge-list",
                    str(edge_list_file),
                    "--remote",
                    "localhost:1",
                    "--process-pool",
                    str(path),
                ]
            )

    def test_batch_remote_rejects_malformed_hosts(self, edge_list_file, tmp_path):
        path = self._write_queries(tmp_path, [{"query": "summary"}])
        with pytest.raises(SystemExit, match="invalid configuration"):
            main(
                [
                    "batch",
                    "--edge-list",
                    str(edge_list_file),
                    "--remote",
                    "no-port-here",
                    str(path),
                ]
            )

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.max_sessions == 8
        assert args.jobs == 4
        assert args.store is None

    def test_batch_rejects_unknown_query(self, edge_list_file, tmp_path):
        path = self._write_queries(tmp_path, [{"query": "frobnicate"}])
        with pytest.raises(SystemExit, match="unknown batch query"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])

    def test_batch_rejects_invalid_config(self, edge_list_file, tmp_path):
        path = self._write_queries(
            tmp_path, [{"query": "densest", "method": "core-approx", "tolerance": 0.1}]
        )
        with pytest.raises(SystemExit, match="invalid configuration"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])

    @pytest.mark.parametrize(
        "entry, line",
        [
            (
                {"query": "densest", "method": "core-exact", "tolerance": "x"},
                "invalid configuration: tolerance must be a positive finite number, got 'x'",
            ),
            (
                {"query": "densest", "method": "core-exact", "tolerance": float("inf")},
                "invalid configuration: tolerance must be a positive finite number, got inf",
            ),
            (
                {"query": "densest", "method": "peel-approx", "epsilon": True},
                "invalid configuration: epsilon must be a positive finite number, got True",
            ),
            (
                {"query": "densest", "method": "dc-exact", "seed_with_core": "false"},
                "invalid configuration: seed_with_core must be a bool, got 'false'",
            ),
        ],
        ids=["string-tolerance", "infinite-tolerance", "bool-epsilon", "string-seed"],
    )
    def test_batch_refuses_a_config_value_in_one_line(self, edge_list_file, tmp_path, entry, line):
        path = self._write_queries(tmp_path, [entry])
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", "--edge-list", str(edge_list_file), str(path)])
        assert exit_info.value.code == line

    def test_batch_rejects_non_list_payload(self, edge_list_file, tmp_path):
        path = self._write_queries(tmp_path, {"query": "densest"})
        with pytest.raises(SystemExit, match="JSON list"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])

    def test_batch_missing_file(self, edge_list_file, tmp_path):
        with pytest.raises(SystemExit, match="cannot read batch queries"):
            main(["batch", "--edge-list", str(edge_list_file), str(tmp_path / "missing.json")])

    def test_batch_missing_required_field(self, edge_list_file, tmp_path):
        path = self._write_queries(tmp_path, [{"query": "xy-core", "x": 1}])
        with pytest.raises(SystemExit, match="requires a 'y' field"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])
        path = self._write_queries(tmp_path, [{"query": "fixed-ratio"}])
        with pytest.raises(SystemExit, match="requires a 'ratio' field"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])

    def test_batch_unknown_method_is_clean_error(self, edge_list_file, tmp_path):
        path = self._write_queries(tmp_path, [{"query": "densest", "method": "nope"}])
        with pytest.raises(SystemExit, match="batch query failed: unknown method"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])

    def test_batch_rejects_non_numeric_values(self, edge_list_file, tmp_path):
        path = self._write_queries(tmp_path, [{"query": "fixed-ratio", "ratio": "abc"}])
        with pytest.raises(SystemExit, match="'ratio' must be a number"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])
        path = self._write_queries(
            tmp_path, [{"query": "fixed-ratio", "ratio": 1.0, "tolerance": "0.5"}]
        )
        with pytest.raises(SystemExit, match="'tolerance' must be a number"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])

    def test_batch_rejects_typoed_fields(self, edge_list_file, tmp_path):
        path = self._write_queries(
            tmp_path, [{"query": "fixed-ratio", "ratio": 1.0, "tolernce": 0.5}]
        )
        with pytest.raises(SystemExit, match="unexpected fields: tolernce"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])
        path = self._write_queries(tmp_path, [{"query": "summary", "x": 1}])
        with pytest.raises(SystemExit, match="unexpected fields: x"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])


class TestBatchPlanning:
    """The batch command drives the service tier: planner + executor + store."""

    def _write_queries(self, tmp_path, queries):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(queries))
        return path

    MIXED = [
        {"query": "densest", "method": "core-exact"},
        {"query": "fixed-ratio", "ratio": 1.0},
        {"query": "densest", "method": "core-approx"},
        {"query": "densest", "method": "core-exact"},
        {"query": "fixed-ratio", "ratio": 1.0},
    ]

    def test_explain_reports_plan_and_realized_hits(self, edge_list_file, tmp_path, capsys):
        path = self._write_queries(tmp_path, self.MIXED)
        assert main(["batch", "--edge-list", str(edge_list_file), str(path), "--explain"]) == 0
        payload = json.loads(capsys.readouterr().out)
        plan = payload["plan"]
        # One graph: one lane, run in file order.
        assert plan["execution_order"] == list(range(len(self.MIXED)))
        assert plan["lanes"] == {str(edge_list_file): list(range(len(self.MIXED)))}
        assert len(plan["timings"]) == len(self.MIXED)
        # The per-kind summary adds up the timing rows.
        by_kind = plan["cpu_by_kind"]
        assert {kind: row["queries"] for kind, row in by_kind.items()} == {
            "densest": 3,
            "fixed-ratio": 2,
        }
        for kind, row in by_kind.items():
            rows = [t["cpu_seconds"] for t in plan["timings"] if t["query"] == kind]
            assert row["cpu_seconds"] == pytest.approx(sum(rows), abs=1e-6)
        # The repeated densest and fixed-ratio queries are served from the
        # session's result cache.
        assert payload["session"]["result_cache_hits"] == 2
        assert payload["results"][0] == payload["results"][3]
        assert payload["results"][1] == payload["results"][4]

    def test_per_query_dataset_routes_to_own_session(self, tmp_path, capsys):
        queries = [
            {"query": "densest", "method": "core-approx"},
            {"query": "densest", "method": "core-approx", "dataset": "social-tiny"},
        ]
        path = self._write_queries(tmp_path, queries)
        assert main(["batch", "--dataset", "foodweb-tiny", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["density"] != payload["results"][1]["density"]

    def test_batch_store_round_trip_serves_second_run_from_cache(
        self, edge_list_file, tmp_path, capsys
    ):
        path = self._write_queries(tmp_path, [{"query": "densest", "method": "core-exact"}])
        store_dir = str(tmp_path / "store")
        argv = ["batch", "--edge-list", str(edge_list_file), str(path), "--store", store_dir]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert sum(row["results_saved"] for row in first["store"].values()) == 1
        assert first["session"]["result_cache_hits"] == 0
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert sum(row["results_loaded"] for row in second["store"].values()) == 1
        # The only query is answered straight from the persistent store.
        assert second["session"]["result_cache_hits"] == 1
        assert second["session"]["flow_calls"] == 0
        assert second["results"] == first["results"]

    def test_unknown_per_query_dataset_is_clean_error(self, edge_list_file, tmp_path):
        path = self._write_queries(
            tmp_path, [{"query": "summary", "dataset": "not-a-dataset"}]
        )
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["batch", "--edge-list", str(edge_list_file), str(path)])


class TestWarmAndStoreCommands:
    def test_warm_then_store_inventory_and_clear(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert (
            main(["warm", "--dataset", "foodweb-tiny", "--store", store_dir, "--max-core"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["saved"]["results_saved"] == 1
        assert "max-core" in payload["computed"]
        assert len(payload["fingerprint"]) == 64

        assert main(["store", store_dir]) == 0
        inventory = json.loads(capsys.readouterr().out)
        assert len(inventory["graphs"]) == 1
        assert inventory["graphs"][0]["results"] == 1
        assert inventory["graphs"][0]["fixed_ratio"] == inventory["graphs"][0]["top_k"] == 0

        queries = tmp_path / "queries.json"
        queries.write_text(
            json.dumps([{"query": "fixed-ratio", "ratio": 1.0}, {"query": "top-k", "k": 2}])
        )
        assert main(["batch", "--dataset", "foodweb-tiny", str(queries), "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["store", store_dir]) == 0
        [row] = json.loads(capsys.readouterr().out)["graphs"]
        assert (row["results"], row["fixed_ratio"], row["top_k"]) == (1, 1, 1)

        assert main(["store", store_dir, "--verify"]) == 0
        assert json.loads(capsys.readouterr().out)["problems"] == []

        assert main(["store", store_dir, "--clear"]) == 0
        assert json.loads(capsys.readouterr().out)["cleared_graphs"] == 1

    def test_warm_with_explicit_methods(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        argv = [
            "warm", "--dataset", "foodweb-tiny", "--store", store_dir,
            "--method", "core-approx", "--method", "core-exact",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["saved"]["results_saved"] == 2

    def test_store_verify_fails_on_tampering(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["warm", "--dataset", "foodweb-tiny", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        [entry] = store_rows.entries(store_dir)
        store_rows.tamper(store_dir, entry, lambda payload: payload["result"].update(density=123.0))
        assert main(["store", str(store_dir), "--verify"]) == 1
        assert json.loads(capsys.readouterr().out)["problems"]

    def test_store_evict_older_than(self, tmp_path, capsys):
        import time

        store_dir = tmp_path / "store"
        assert main(["warm", "--dataset", "foodweb-tiny", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        store_rows.age_rows(store_dir, time.time() - 30 * 86400)
        assert main(["store", str(store_dir), "--evict-older-than", "7"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted"]["results_evicted"] == 1
        assert store_rows.entries(store_dir) == []
        assert payload["graphs"][0]["results"] == 0

    def test_store_evict_max_bytes(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["warm", "--dataset", "foodweb-tiny", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        assert main(["store", str(store_dir), "--max-bytes", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evicted"]["graphs_evicted"] == 1
        assert payload["evicted"]["bytes_remaining"] == 0
        assert payload["graphs"] == []

    def test_store_evict_composes_with_verify(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["warm", "--dataset", "foodweb-tiny", "--store", str(store_dir)]) == 0
        capsys.readouterr()
        # Clean store: evict-then-verify reports no problems and exits 0.
        assert main(["store", str(store_dir), "--evict-older-than", "7", "--verify"]) == 0
        assert json.loads(capsys.readouterr().out)["problems"] == []
        # Tampered store: the combined invocation must still exit 1.
        [entry] = store_rows.entries(store_dir)
        store_rows.tamper(store_dir, entry, lambda payload: payload["result"].update(density=99.0))
        assert main(["store", str(store_dir), "--evict-older-than", "7", "--verify"]) == 1
        assert json.loads(capsys.readouterr().out)["problems"]


class TestFlowSolverFlags:
    def test_no_subcommand_takes_flow_solver(self, tmp_path, capsys):
        queries = tmp_path / "queries.json"
        queries.write_text("[]")
        for argv in (
            ["find", "--dataset", "foodweb-tiny"],
            ["top-k", "--dataset", "foodweb-tiny"],
            ["batch", "--dataset", "foodweb-tiny", str(queries)],
            ["serve"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([*argv, "--flow-solver", "auto"])
            assert excinfo.value.code == 2, argv
            assert "unrecognized arguments: --flow-solver" in capsys.readouterr().err

    def test_batch_accepts_flow_solver(self, tmp_path, capsys):
        """A batch entry may still name the one solver; the name selects nothing."""
        entry = {"query": "densest", "method": "dc-exact"}
        plain_queries = tmp_path / "plain.json"
        plain_queries.write_text(json.dumps([entry]))
        assert main(["batch", "--dataset", "foodweb-tiny", str(plain_queries)]) == 0
        plain = json.loads(capsys.readouterr().out)
        named_queries = tmp_path / "named.json"
        named_queries.write_text(json.dumps([dict(entry, flow_solver=name) for name in ("auto", "dinic")]))
        assert main(["batch", "--dataset", "foodweb-tiny", str(named_queries), "--jobs", "2"]) == 0
        named = json.loads(capsys.readouterr().out)
        assert named["results"] == plain["results"] * 2
        assert named["session"]["result_cache_entries"] == 1

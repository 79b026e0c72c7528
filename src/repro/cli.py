"""Command-line interface: ``dds-repro`` (or ``python -m repro``).

Every sub-command that touches a graph builds one
:class:`~repro.session.DDSSession` and serves the request through it, so a
single invocation shares derived state (cores, bounds, results) across
whatever it computes.  ``batch`` goes further and drives the service
tier (:mod:`repro.service`): the planner groups the queries into one lane
per graph, executed on a pool of per-graph sessions, with an optional
persistent store carrying warm state across invocations.

Sub-commands
------------
``find``      run a DDS algorithm on an edge-list file or a named dataset
``top-k``     greedy edge-disjoint top-k dense pairs
``core``      compute an [x, y]-core or the maximum-product core
``batch``     plan + execute a JSON list of queries (``--explain`` for the
              plan report, ``--store`` for persistent warm state,
              ``--process-pool`` for shard daemons in local child processes,
              ``--remote host:port,...`` to route lanes to running shard
              daemons, ``--deadline-ms`` for per-lane budgets with anytime
              answers)
``serve``     run a shard daemon serving DDS answers over the frame protocol
              (SIGINT/SIGTERM drain gracefully within ``--drain-grace``)
``ping``      health-check a shard daemon
``warm``      precompute a graph's warm state into a persistent store
``store``     inspect, verify, or clear a persistent store
``datasets``  list the registered synthetic datasets
``summary``   print structural statistics of a graph
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.core.method_registry import available_methods
from repro.datasets.registry import dataset_specs, load_dataset
from repro.exceptions import ConfigError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.io import read_edge_list
from repro.service import BatchExecutor, SessionStore, plan_batch
from repro.service.queries import core_payload, find_payload, topk_payload
from repro.session import DDSSession


def _load_graph(args: argparse.Namespace) -> DiGraph:
    if args.dataset is not None:
        return load_dataset(args.dataset)
    if args.edge_list is not None:
        return read_edge_list(args.edge_list)
    raise SystemExit("either --dataset or --edge-list is required")


def _load_session(args: argparse.Namespace) -> DDSSession:
    return DDSSession(_load_graph(args))


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="name of a registered synthetic dataset")
    parser.add_argument("--edge-list", help="path to a whitespace-separated edge-list file")


def _add_method_options(parser: argparse.ArgumentParser, *, with_quality: bool) -> None:
    parser.add_argument(
        "--method",
        default="auto",
        choices=["auto"] + available_methods(),
        help="algorithm to run (default: auto)",
    )
    if with_quality:
        parser.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="binary-search stopping gap of the exact methods "
            "(default: the provably-exact gap of the input graph)",
        )
        parser.add_argument(
            "--epsilon",
            type=float,
            default=None,
            help="ratio-grid step of peel-approx (guarantee 2*sqrt(1+epsilon))",
        )


def _method_kwargs(args: argparse.Namespace) -> dict:
    """Per-field config overrides taken from the CLI flags.

    Validation happens in the typed config dataclasses
    (:mod:`repro.core.config`); a :class:`ConfigError` — e.g. ``--epsilon``
    passed to an exact method — is rendered as a clean CLI error.
    """
    kwargs = {}
    for name in ("tolerance", "epsilon"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return kwargs


def _cmd_find(args: argparse.Namespace) -> int:
    session = _load_session(args)
    result = session.densest_subgraph(args.method, **_method_kwargs(args))
    print(json.dumps(find_payload(result, args.show_nodes), indent=2))
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    session = _load_session(args)
    print(json.dumps(core_payload(session, args.x, args.y, args.show_nodes), indent=2))
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    session = _load_session(args)
    results = session.top_k(
        args.k, method=args.method, min_density=args.min_density, **_method_kwargs(args)
    )
    print(json.dumps(topk_payload(results), indent=2))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    for spec in dataset_specs():
        print(f"{spec.name:18s} [{spec.tier:6s}] {spec.description} (analogue: {spec.paper_analogue})")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    session = _load_session(args)
    print(json.dumps(session.summary(), indent=2))
    return 0


# ----------------------------------------------------------------------
# batch: many queries through the service tier
# ----------------------------------------------------------------------
def _batch_graph_source(args: argparse.Namespace) -> tuple[str, Any]:
    """The batch's default graph key plus the executor's graph provider.

    The default graph comes from ``--dataset``/``--edge-list`` exactly like
    the single-query commands; per-query ``"dataset"`` fields address any
    registered dataset on top of that.
    """
    if args.dataset is not None:
        default_key = args.dataset
    elif args.edge_list is not None:
        default_key = str(args.edge_list)
    else:
        raise SystemExit("either --dataset or --edge-list is required")

    def provider(key: str) -> DiGraph:
        if args.edge_list is not None and key == str(args.edge_list):
            return read_edge_list(args.edge_list)
        return load_dataset(key)

    return default_key, provider


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        with open(args.queries, "r", encoding="utf-8") as handle:
            queries = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot read batch queries from {args.queries!r}: {error}")
    if not isinstance(queries, list):
        raise SystemExit("the batch file must contain a JSON list of query objects")
    default_key, provider = _batch_graph_source(args)
    store = SessionStore(args.store) if args.store is not None else None
    try:
        plan = plan_batch(queries, default_graph_key=default_key)
        with BatchExecutor(
            provider,
            max_workers=args.jobs,
            store=store,
            process_pool=args.process_pool,
            remote_hosts=args.remote.split(",") if args.remote else None,
            max_retries=args.max_retries,
            deadline_ms=args.deadline_ms,
        ) as executor:
            report = executor.execute(plan)
    except ConfigError as error:
        raise SystemExit(f"invalid configuration: {error}")
    except ReproError as error:
        # Unknown method names, malformed entries, bad parameter values, ... —
        # render the same clean one-line error every other CLI path produces.
        raise SystemExit(f"batch query failed: {error}")
    payload: dict[str, Any] = {
        "results": report.results_in_input_order(),
        "session": report.aggregate_stats(),
    }
    if report.executor_stats:
        payload["executor"] = report.executor_stats
    if args.explain:
        explanation = plan.explain()
        explanation["timings"] = report.timings()
        explanation["cpu_by_kind"] = report.cpu_by_kind()
        payload["plan"] = explanation
    if store is not None:
        payload["store"] = report.store_stats
    print(json.dumps(payload, indent=2, default=str))
    return 0


# ----------------------------------------------------------------------
# serve: a shard daemon on this box
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.net.daemon import ShardDaemon, _positive_number

    # Checked before serving: a grace the drain would refuse must not
    # surface only when the first signal arrives.
    grace = _positive_number(args.drain_grace, "--drain-grace")
    store = SessionStore(args.store) if args.store is not None else None
    daemon = ShardDaemon(
        store,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_workers=args.jobs,
    )
    host, port = daemon.start()

    # SIGINT/SIGTERM trigger a graceful drain — stop accepting, finish
    # in-flight work within --drain-grace, flush resident sessions to the
    # store — instead of dropping connections mid-frame.  A second signal
    # falls through to KeyboardInterrupt (SIGINT) or default termination
    # (SIGTERM), so a stuck daemon can still be killed by hand.
    def _drain_once(signum: int, frame: Any) -> None:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        daemon.drain(grace)

    signal.signal(signal.SIGINT, _drain_once)
    signal.signal(signal.SIGTERM, _drain_once)
    # One machine-readable ready line (flushed) so wrappers — tests, shell
    # scripts starting a fleet on ephemeral ports — can parse the address.
    print(
        json.dumps({"serving": f"{host}:{port}", "store": args.store}),
        flush=True,
    )
    try:
        daemon.join()
    except KeyboardInterrupt:
        daemon.shutdown()
    print(json.dumps({"stopped": f"{host}:{port}", "stats": daemon.daemon_stats()}))
    return 0


# ----------------------------------------------------------------------
# ping: health-check a shard daemon
# ----------------------------------------------------------------------
def _cmd_ping(args: argparse.Namespace) -> int:
    from repro.exceptions import NetError
    from repro.net.client import ShardClient, parse_host_port

    host, port = parse_host_port(args.address)
    client = ShardClient(host, port, max_retries=args.max_retries)
    try:
        payload = client.ping()
    except NetError as error:
        print(json.dumps({"address": f"{host}:{port}", "reachable": False, "error": str(error)}))
        return 1
    finally:
        client.close()
    print(json.dumps({"address": f"{host}:{port}", "reachable": True, "pong": payload}, default=str))
    return 0


# ----------------------------------------------------------------------
# warm / store: persistent warm-state management
# ----------------------------------------------------------------------
def _cmd_warm(args: argparse.Namespace) -> int:
    # Open the store before computing anything: an incompatible store must
    # fail fast, not after the expensive solves it could never persist.
    store = SessionStore(args.store)
    graph = _load_graph(args)
    session = DDSSession(graph)
    methods = args.method or ["auto"]
    results = {}
    for method in methods:
        result = session.densest_subgraph(method)
        results[method] = {"method": result.method, "density": result.density}
    if args.max_core:
        core = session.max_xy_core()
        results["max-core"] = {"x": core.x, "y": core.y}
    payload = {
        "fingerprint": graph.content_fingerprint(),
        "computed": results,
        "saved": store.save_session(session),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = SessionStore(args.root)
    if args.clear:
        print(json.dumps({"cleared_graphs": store.clear()}, indent=2))
        return 0
    payload: dict[str, Any] = {"root": str(store.root)}
    if args.evict_older_than is not None or args.max_bytes is not None:
        # Eviction composes with --verify below: sweep first, then report
        # (and integrity-check) what survived.
        payload["evicted"] = store.evict(
            older_than_days=args.evict_older_than, max_bytes=args.max_bytes
        )
    payload["graphs"] = store.inventory()
    if args.verify:
        problems = store.verify()
        payload["problems"] = problems
        print(json.dumps(payload, indent=2))
        return 1 if problems else 0
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="dds-repro",
        description="Densest subgraph discovery on directed graphs (SIGMOD 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    find = subparsers.add_parser("find", help="run a DDS algorithm")
    _add_graph_source(find)
    _add_method_options(find, with_quality=True)
    find.add_argument("--show-nodes", action="store_true", help="include the node lists")
    find.set_defaults(handler=_cmd_find)

    core = subparsers.add_parser("core", help="compute an [x, y]-core")
    _add_graph_source(core)
    core.add_argument("--x", type=int, default=None, help="required out-degree into T")
    core.add_argument("--y", type=int, default=None, help="required in-degree from S")
    core.add_argument("--show-nodes", action="store_true", help="include the node lists")
    core.set_defaults(handler=_cmd_core)

    topk = subparsers.add_parser("top-k", help="greedy edge-disjoint top-k dense pairs")
    _add_graph_source(topk)
    topk.add_argument("--k", type=int, default=3, help="number of pairs to extract")
    _add_method_options(topk, with_quality=True)
    topk.add_argument(
        "--min-density", type=float, default=0.0, help="stop once the best density drops below this"
    )
    topk.set_defaults(handler=_cmd_topk)

    batch = subparsers.add_parser(
        "batch", help="plan and execute a JSON list of queries on a session pool"
    )
    _add_graph_source(batch)
    batch.add_argument(
        "queries",
        help="path to a JSON file holding a list of query objects, e.g. "
        '[{"query": "densest", "method": "core-exact"}, {"query": "top-k", "k": 2}]; '
        'an entry may address another registered dataset with "dataset": "<name>"',
    )
    batch.add_argument(
        "--explain",
        action="store_true",
        help="include the plan (execution order, lanes, per-query timings and "
        "their CPU summed per query kind) in the output payload",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="maximum concurrent per-graph sessions (default: one per graph); "
        "thread lanes share the GIL, so they overlap waits but not compute: "
        "--process-pool or --remote gives real parallelism",
    )
    batch.add_argument(
        "--store",
        default=None,
        help="persistent session-store directory: sessions warm from it before "
        "the first query and save back afterwards",
    )
    batch.add_argument(
        "--process-pool",
        action="store_true",
        help="run lanes on shard daemons started in local child processes for "
        "this batch (the GIL-free scale-out path): graphs are routed to them by "
        "content fingerprint and sent as wire documents, and the lanes of a "
        "daemon that dies fall back to solving inline",
    )
    batch.add_argument(
        "--remote",
        default=None,
        metavar="HOSTS",
        help="comma-separated 'host:port' shard daemons (started with "
        "'dds-repro serve'): lanes are routed to daemons by content "
        "fingerprint, unreachable daemons are retried with backoff, and "
        "their lanes fall back to solving inline; mutually exclusive with "
        "--process-pool",
    )
    batch.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="--process-pool or --remote: fresh-connection retries per daemon "
        "request before the lane falls back to solving inline (default: 1)",
    )
    batch.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-lane wall-clock budget: each query gets the budget still "
        "remaining when it starts and answers past it come back as anytime "
        "partials ({\"deadline_exceeded\": true} with certified density "
        "bounds) instead of blocking the batch",
    )
    batch.set_defaults(handler=_cmd_batch)

    serve = subparsers.add_parser(
        "serve", help="run a shard daemon serving DDS answers over sockets"
    )
    serve.add_argument(
        "--store",
        default=None,
        help="session-store directory this daemon owns (omit for in-memory only)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (default: 0 = ephemeral)"
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="resident-session LRU capacity (default: 8); evicted sessions "
        "are saved to the store first",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="per-request worker threads (default: 4); requests for the same "
        "graph serialise on its session regardless",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGINT/SIGTERM: stop accepting new connections, wait up to "
        "SECONDS (a positive finite number) for in-flight requests, flush "
        "resident sessions to the store, then exit 0 (default: 10)",
    )
    serve.set_defaults(handler=_cmd_serve)

    ping = subparsers.add_parser(
        "ping", help="health-check a shard daemon (exit 0 if reachable)"
    )
    ping.add_argument("address", help="daemon address as 'host:port'")
    ping.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="fresh-connection retries before reporting unreachable (default: 0)",
    )
    ping.set_defaults(handler=_cmd_ping)

    warm = subparsers.add_parser(
        "warm", help="precompute a graph's warm state into a persistent store"
    )
    _add_graph_source(warm)
    warm.add_argument("--store", required=True, help="session-store directory to write")
    warm.add_argument(
        "--method",
        action="append",
        default=None,
        choices=["auto"] + available_methods(),
        help="method(s) whose results to precompute (repeatable; default: auto)",
    )
    warm.add_argument(
        "--max-core",
        action="store_true",
        help="also compute (and persist) the maximum-product [x, y]-core",
    )
    warm.set_defaults(handler=_cmd_warm)

    store = subparsers.add_parser("store", help="inspect, verify, or clear a session store")
    store.add_argument("root", help="session-store directory")
    store.add_argument(
        "--verify", action="store_true", help="integrity-check every entry (exit 1 on problems)"
    )
    store.add_argument("--clear", action="store_true", help="delete every stored graph")
    store.add_argument(
        "--evict-older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="delete result entries whose content has not changed in DAYS days",
    )
    store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict result entries oldest-first (then whole graphs) until the "
        "store holds at most N bytes of payloads",
    )
    store.set_defaults(handler=_cmd_store)

    datasets = subparsers.add_parser("datasets", help="list registered datasets")
    datasets.set_defaults(handler=_cmd_datasets)

    summary = subparsers.add_parser("summary", help="print graph statistics")
    _add_graph_source(summary)
    summary.set_defaults(handler=_cmd_summary)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (returns a process exit code).

    Library errors — unknown datasets, empty graphs, invalid configurations,
    refused node limits, corrupt stores — are rendered as clean one-line
    messages instead of tracebacks; sub-command handlers may still raise more
    specific :class:`SystemExit` messages of their own (e.g. ``batch``).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as error:
        raise SystemExit(f"invalid configuration: {error}")
    except ReproError as error:
        raise SystemExit(f"error: {error}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

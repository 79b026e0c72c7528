"""Run one workload: set up, measure closed-loop passes, check every answer.

Each workload is a closed loop with one client and one request in flight.
A *pass* is one run through the workload's request sequence; its time is
the sum of the timed client calls in it (requests and writes), so untimed
work between calls (priming a write's session, copying a graph for the
oracle) never counts.  Passes repeat until ``seconds`` is spent, and answers
are checked after each pass, outside every timed region.

Calls and set-ups are timed in process CPU time (``time.process_time``:
every thread of the process, daemon workers included).  On a shared
virtual machine the wall clock also counts the time the host gives the
virtual CPU to other tenants, which spread whole runs by up to half their
median; the kernel leaves that steal time out of CPU time.  On an idle
machine the two agree for these calls, up to serve-mixed's socket waits.
Contention for caches, memory and shared cores slows CPU time as well, so
a fixed probe (:mod:`ddsbench.probe`) runs, untimed, before every timed
call, and each pass's times are scaled by the machine speed it measured
over that pass: they read as CPU seconds on a quiet machine.

With tracing on, untraced and traced passes alternate: the untraced ones
give the baseline for ``trace.overhead``, the traced ones every per-layer
metric, normalised per traced pass.
"""

from __future__ import annotations

import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.graph.digraph import DiGraph
from repro.graph.generators import edge_update_stream
from repro.net.daemon import ShardDaemon
from repro.service import planner
from repro.service.executor import BatchExecutor
from repro.service.planner import ShardMap
from repro.service.store import SessionStore
from repro.session import DDSSession

from ddsbench import oracle as checks
from ddsbench.oracle import answer
from ddsbench.layers import Ledger, instrument, per_layer_metrics
from ddsbench.probe import SpeedProbe
from ddsbench.tracer import Tracer
from ddsbench.workloads import (
    IN_PROCESS,
    SERVE,
    InProcessSpec,
    ServeSpec,
    graph_seed,
    make_graph,
    read_menu,
    zipf_schedule,
)

clock = time.perf_counter
cpu = time.process_time

#: Scratch space for stores and span files, relative to the working directory.
OUTPUT_DIR = Path(".perfbench")

#: The serve warm-up asks every graph the whole query menu once.
FULL_MENU = (
    {"query": "densest", "method": "core-approx"},
    {"query": "densest", "method": "core-exact", "flow_solver": "auto"},
    {"query": "fixed-ratio", "ratio": 1.0},
    {"query": "xy-core", "x": 1, "y": 1},
    {"query": "top-k", "k": 2, "method": "core-approx"},
)

#: Probe runs after each set-up, to scale its CPU time.
SETUP_PROBES = 10

#: Seed of the in-process warm-up graph, fixed for every run seed.
WARM_UP_SEED = 0

#: Re-answered after every serve-mixed write.
WRITE_METHODS = ("dc-exact", "core-approx")


@dataclass
class Pass:
    """Timings of one pass, in seconds."""

    traced: bool
    #: Machine speed while the pass ran (:meth:`SpeedProbe.take`); a call's
    #: CPU seconds times ``scale`` are its seconds at the reference speed.
    scale: float = 1.0
    #: Call key -> seconds.  Every pass makes the same calls under the same
    #: keys, so a call's repeats line up across passes.
    requests: dict[str, float] = field(default_factory=dict)
    updates: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.requests.values()) + sum(self.updates.values())


class Outcome:
    """Attempt and failure counts, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"FAILED: {message}", file=sys.stderr)

    def check(self, errors: list[str]) -> None:
        """Count one attempt as failed if checking it produced any error."""
        if errors:
            self.fail("; ".join(errors))


class WriteStream:
    """Writes replayed on fresh copies of a few write graphs, taken in turn.

    Each write graph gets its own session, primed (untimed) with every
    re-answered method before the pass.  A write is one ``apply_updates``
    batch plus those methods answered again.  Every pass replays the same
    batches on fresh copies, so a write's repeats do the same work.
    """

    def __init__(
        self, seed: int, family: str, graphs: int, writes: int, batch_size: int, methods: tuple[str, ...]
    ) -> None:
        self.methods = methods
        self.graphs = [make_graph(seed, family, f"write{copy}") for copy in range(graphs)]
        self.batches = [
            edge_update_stream(
                graph, -(-writes // graphs), batch_size=batch_size, p_add=0.5,
                seed=graph_seed(seed, "write-stream", copy),
            )
            for copy, graph in enumerate(self.graphs)
        ]
        self.sessions: list[DDSSession] = []

    def prepare(self) -> None:
        self.sessions = []
        for graph in self.graphs:
            session = DDSSession(graph.copy(), flow="auto")
            for method in self.methods:
                answer(session, method)
            self.sessions.append(session)
        self._next = [iter(batches) for batches in self.batches]
        self._done = 0

    def write(self, record: Pass, pending: list, call: str, outcome: Outcome, ledger: Ledger) -> None:
        target = self._done % len(self.sessions)
        self._done += 1
        added, removed = next(self._next[target])
        session = self.sessions[target]
        start = cpu()
        try:
            session.apply_updates(added, removed)
            warm = {method: answer(session, method) for method in self.methods}
        except Exception as error:  # noqa: BLE001 - a failed write is counted
            outcome.fail(f"{call} raised {error!r}")
            return
        record.updates[call] = cpu() - start
        if record.traced:
            for result in warm.values():
                ledger.result(result.stats)
        pending.append(("write", session.graph.copy(), warm))


class InProcessWorkload:
    """Fresh-session requests on in-process graphs, then a short write stream."""

    def __init__(
        self, spec: InProcessSpec, seed: int, outcome: Outcome, tracer: Tracer, ledger: Ledger,
        probe: SpeedProbe | None = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.outcome = outcome
        self.tracer = tracer
        self.ledger = ledger
        self.probe = probe or SpeedProbe()
        self.oracle = checks.Oracle()
        self.cold: dict[tuple[str, str], float] = {}

    def setup(self) -> float:
        """Generate the graphs and warm up; returns graph generation seconds."""
        start = cpu()
        self.graphs = [
            (f"{item.family}#{copy}", make_graph(self.seed, item.family, copy), item.methods)
            for item in self.spec.items
            for copy in range(item.copies)
        ]
        family, methods = self.spec.write
        self.writes = WriteStream(
            self.seed, family, self.spec.write_graphs, self.spec.writes, self.spec.write_batch, methods
        )
        generate_s = cpu() - start
        # Warm-up: every method once on a tiny graph, so first-call costs
        # land in setup rather than in the first pass.  The graph is the same
        # for every seed: it is not measured, and a seed's own tiny graph
        # would make set-up cost swing with its shape.
        tiny = make_graph(WARM_UP_SEED, "brute-tiny", "warm-up")
        for method in sorted({m for _, _, methods in self.graphs for m in methods}):
            answer(DDSSession(tiny, flow="auto"), method)
        return generate_s

    def teardown(self) -> None:
        pass

    def prepare(self) -> None:
        self.writes.prepare()

    def live_sessions(self) -> list[DDSSession]:
        return list(self.writes.sessions)

    def run_pass(self, record: Pass) -> list:
        pending: list = []
        for key, graph, methods in self.graphs:
            for method in methods:
                self.outcome.attempted += 1
                self.tracer.request_id += 1
                self.probe.sample()
                start = cpu()
                try:
                    session = DDSSession(graph, flow="auto")
                    result = answer(session, method)
                except Exception as error:  # noqa: BLE001 - a failed request is counted
                    self.outcome.fail(f"{key} {method} raised {error!r}")
                    continue
                record.requests[f"{key} {method}"] = cpu() - start
                pending.append((key, graph, result))
                if record.traced:
                    self.ledger.result(result.stats)
        for index in range(self.spec.writes):
            self.outcome.attempted += 1
            self.tracer.request_id += 1
            self.probe.sample()
            self.writes.write(record, pending, f"write {index}", self.outcome, self.ledger)
        return pending

    def check(self, pending: list) -> None:
        for key, graph, result in pending:
            if key == "write":
                self.outcome.check(checks.update_check(graph, result, self.cold))
            else:
                error = self.oracle.check(key, graph, result)
                self.outcome.check([error] if error else [])

    def final_checks(self) -> list[str]:
        return checks.brute_force_check(self.seed)

    def finish_trace(self) -> None:
        pass


class ServeWorkload:
    """Remote reads through loopback shard daemons, in-process writes."""

    def __init__(
        self, spec: ServeSpec, seed: int, outcome: Outcome, tracer: Tracer, ledger: Ledger,
        probe: SpeedProbe | None = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.outcome = outcome
        self.tracer = tracer
        self.ledger = ledger
        self.probe = probe or SpeedProbe()
        self.daemons: list[ShardDaemon] = []
        self.tmpdir: Path | None = None
        self.daemon_seconds: dict[int, float] = {}
        self.cold: dict[tuple[str, str], float] = {}

    def setup(self) -> float:
        spec = self.spec
        start = cpu()
        self.graphs = self._read_graphs()
        self.writes = WriteStream(
            self.seed, spec.write_family, spec.write_graphs, spec.pass_steps // spec.write_every,
            spec.write_batch, WRITE_METHODS,
        )
        generate_s = cpu() - start
        self.payloads = checks.PayloadOracle(self.graphs)
        # The block of steps every pass replays: every write_every-th step a
        # write, the rest reads of graphs in Zipf proportion.
        rng = random.Random(graph_seed(self.seed, "serve-stream"))
        order = list(self.graphs)
        reads = iter(
            zipf_schedule(order, spec.zipf_exponent, spec.pass_steps - spec.pass_steps // spec.write_every)
        )
        self.block = []
        for step in range(1, spec.pass_steps + 1):
            if step % spec.write_every == 0:
                self.block.append(None)
                continue
            key = next(reads)
            queries = [dict(query, dataset=key) for query in read_menu(rng, len(self.block))]
            self.block.append((f"{step:03d} {key}", key, queries))
        self._start()
        return generate_s

    def _start(self) -> None:
        """Start the daemons on empty stores and ask every graph the whole menu."""
        spec = self.spec
        OUTPUT_DIR.mkdir(exist_ok=True)
        self.tmpdir = Path(tempfile.mkdtemp(prefix="serve-", dir=OUTPUT_DIR))
        for shard in range(spec.daemons):
            daemon = ShardDaemon(
                SessionStore(self.tmpdir / f"shard{shard}"),
                max_sessions=spec.max_sessions,
                max_workers=spec.daemon_workers,
                flow="auto",
            )
            self.daemons.append(daemon)
            daemon.start()
        self.executor = BatchExecutor(
            self.graphs,
            flow="auto",
            remote_hosts=[daemon.address for daemon in self.daemons],
            deadline_ms=spec.deadline_ms,
        )
        for key in self.graphs:
            self.executor.execute(planner.plan_batch([dict(q, dataset=key) for q in FULL_MENU]))
        self.fresh = True

    def _read_graphs(self) -> dict[str, DiGraph]:
        """Per family, ``copies`` graphs on each shard, in Zipf rank order.

        Graphs are routed by content fingerprint, so copies are drawn until
        each daemon owns ``copies`` of every family: every seed then puts the
        same load on both daemons.
        """
        spec = self.spec
        shard_map = ShardMap(spec.daemons)
        graphs: dict[str, DiGraph] = {}
        for family in spec.read_families:
            placed: dict[int, list[DiGraph]] = {shard: [] for shard in range(spec.daemons)}
            copy = 0
            while any(len(owned) < spec.copies for owned in placed.values()):
                graph = make_graph(self.seed, family, copy)
                owned = placed[shard_map.shard_of(graph.content_fingerprint())]
                if len(owned) < spec.copies:
                    owned.append(graph)
                copy += 1
            for index in range(spec.copies):
                for shard in range(spec.daemons):
                    graphs[f"{family}@{shard}.{index}"] = placed[shard][index]
        return graphs

    def teardown(self) -> None:
        for daemon in self.daemons:
            daemon.shutdown()
        self.daemons = []
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None

    def prepare(self) -> None:
        """Untimed: every pass starts from the serving state set-up leaves.

        The daemons' sessions and stores grow with every read (each lane's
        deadline budget is part of the result-cache key), and in one process
        a pass's CPU time doubled over 24 passes; rebuilt daemons make every
        pass the same work.
        """
        if not self.fresh:
            self.teardown()
            self._start()
        self.fresh = False
        self.writes.prepare()

    def live_sessions(self) -> list[DDSSession]:
        """The write sessions and every session resident on a daemon."""
        resident = [
            entry.session for daemon in self.daemons for entry in list(daemon._sessions.values())
        ]
        return [*self.writes.sessions, *resident]

    def _read(self, record: Pass, pending: list, call: str, key: str, specs: list[dict]) -> None:
        request_id = self.tracer.request_id
        start = cpu()
        try:
            report = self.executor.execute(planner.plan_batch(specs))
        except Exception as error:  # noqa: BLE001
            self.outcome.fail(f"read {key} raised {error!r}")
            return
        record.requests[call] = cpu() - start
        stats = report.executor_stats
        if record.traced:
            client = stats.get("client", {})
            for counter in ("bytes_sent", "bytes_received", "retries"):
                self.ledger.add(counter, client.get(counter, 0))
            self.ledger.add("lanes_inline", stats.get("lanes_inline", 0))
            self.daemon_seconds[request_id] = sum(e.seconds for e in report.executions)
        if stats.get("lanes_inline", 0) or any(e.degraded for e in report.executions):
            self.outcome.fail(f"read {key}: lane ran inline after a remote failure")
            return
        pending.append((key, specs, report.results_in_input_order()))

    def run_pass(self, record: Pass) -> list:
        pending: list = []
        daemons_before = [daemon.daemon_stats() for daemon in self.daemons]
        for step, read in enumerate(self.block):
            self.outcome.attempted += 1
            self.tracer.request_id += 1
            self.probe.sample()
            if read is None:
                self.writes.write(record, pending, f"{step:03d} write", self.outcome, self.ledger)
            else:
                self._read(record, pending, *read)
        if record.traced:
            for daemon, before in zip(self.daemons, daemons_before):
                after = daemon.daemon_stats()
                for counter in ("session_cache_hits", "session_cache_misses", "sessions_evicted"):
                    self.ledger.add(counter, after[counter] - before[counter])
                self.ledger.add("daemon_deadline_hits", after["deadline_hits"] - before["deadline_hits"])
        return pending

    def check(self, pending: list) -> None:
        for key, subject, answers in pending:
            if key == "write":
                self.outcome.check(checks.update_check(subject, answers, self.cold))
                continue
            errors = []
            for spec, payload in zip(subject, answers):
                try:
                    error = self.payloads.check(key, spec, payload)
                except (KeyError, TypeError, ValueError) as exc:
                    error = f"{key} {spec}: malformed payload ({exc!r})"
                if error:
                    errors.append(error)
            self.outcome.check(errors)

    def final_checks(self) -> list[str]:
        return []

    def finish_trace(self) -> None:
        """Ledger the daemon wait time and store size, which need the whole run."""
        per_request = self.tracer.by_request(
            {"net.client.request", "net.protocol.encode", "net.protocol.decode"}
        )
        wait = 0.0
        for request_id, solve_s in self.daemon_seconds.items():
            row = per_request.get(request_id, {})
            wait += (
                row.get("net.client.request", 0.0)
                - solve_s
                - row.get("net.protocol.encode", 0.0)
                - row.get("net.protocol.decode", 0.0)
            )
        self.ledger.add("wait_s", wait)
        if self.tmpdir is not None:
            self.ledger.add(
                "store_bytes", sum(p.stat().st_size for p in self.tmpdir.rglob("*") if p.is_file())
            )


def make_workload(name: str, seed: int, outcome: Outcome, tracer: Tracer, ledger: Ledger, probe: SpeedProbe):
    if name in IN_PROCESS:
        return InProcessWorkload(IN_PROCESS[name], seed, outcome, tracer, ledger, probe)
    if name == SERVE.name:
        return ServeWorkload(SERVE, seed, outcome, tracer, ledger, probe)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class RunResult:
    """Everything one run measured; :func:`end_to_end` and :func:`per_layer` summarise it."""

    outcome: Outcome
    setup_s: list[float]
    generate_s: list[float]
    passes: list[Pass]
    tracer: Tracer
    ledger: Ledger
    final_errors: list[str]

    @property
    def correct(self) -> bool:
        return self.outcome.failed == 0 and not self.final_errors


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    setup_repeats: int = 3,
    min_passes: int = 2,
) -> RunResult:
    """Set up ``setup_repeats`` times, then measure passes for ``seconds`` of wall time."""
    outcome = Outcome()
    tracer = Tracer()
    ledger = Ledger()
    probe = SpeedProbe()
    workload = make_workload(name, seed, outcome, tracer, ledger, probe)
    setup_s: list[float] = []
    generate_s: list[float] = []
    try:
        for repeat in range(setup_repeats):
            if repeat:
                workload.teardown()
            start = cpu()
            generate_s.append(workload.setup())
            seconds = cpu() - start
            for _ in range(SETUP_PROBES):
                probe.sample()
            setup_s.append(seconds * probe.take())
        passes: list[Pass] = []
        walls: list[float] = []
        deadline = clock() + seconds
        while True:
            began = clock()
            record = Pass(traced=trace and len(passes) % 2 == 1)
            workload.prepare()
            if record.traced:
                instrument(tracer)
                ledger.start_pass(tracer, workload.live_sessions())
            try:
                pending = workload.run_pass(record)
            finally:
                tracer.restore()
            record.scale = probe.take()
            if record.traced:
                ledger.end_pass()
            workload.check(pending)
            passes.append(record)
            walls.append(clock() - began)
            if len(passes) >= min_passes and clock() + statistics.median(walls) > deadline:
                break
        if trace:
            workload.finish_trace()
        final_errors = workload.final_checks()
        for error in final_errors:
            print(f"FAILED: {error}", file=sys.stderr)
    finally:
        workload.teardown()
    return RunResult(outcome, setup_s, generate_s, passes, tracer, ledger, final_errors)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _call_minima(passes: list[Pass], attr: str) -> list[float]:
    """Each call's least scaled CPU time over the passes that made it."""
    times: dict[str, list[float]] = {}
    for record in passes:
        for call, seconds in getattr(record, attr).items():
            times.setdefault(call, []).append(seconds * record.scale)
    return [min(values) for values in times.values()]


def end_to_end(run: RunResult) -> dict[str, float]:
    """The end-to-end metrics, from untraced passes only.

    Every call is summarised by its least scaled CPU time over the passes:
    contention that the probe does not see only ever adds time.
    ``pass_cpu_s`` is the sum of the call minima, the latency metrics are
    quantiles over them.  The upper quantile is the 75th: it is the highest
    with about ten requests beyond it on ``exact`` (38 distinct requests),
    where the 90th sat on the two or three costliest graphs of the seed.
    """
    passes = [p for p in run.passes if not p.traced]
    requests = _call_minima(passes, "requests")
    updates = _call_minima(passes, "updates")
    return {
        "setup_s": statistics.median(run.setup_s),
        "pass_cpu_s": sum(requests) + sum(updates),
        "request_cpu_p50_ms": _ms(statistics.median(requests)),
        "request_cpu_p75_ms": _ms(statistics.quantiles(requests, n=4)[2]),
        "update_cpu_p50_ms": _ms(statistics.median(updates)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: RunResult) -> dict[str, float]:
    traced = [p for p in run.passes if p.traced]
    untraced = [p for p in run.passes if not p.traced]
    overhead = (
        statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in untraced)
        - 1.0
    )
    extra = {"graph.generate_s": statistics.median(run.generate_s), "trace.overhead": overhead}
    return per_layer_metrics(run.tracer.aggregate(), run.ledger, len(traced), extra)

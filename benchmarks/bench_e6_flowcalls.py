"""E6 — number of max-flow computations / ratios examined (paper analogue:
the table explaining *why* the divide-and-conquer wins).

FlowExact performs one fixed-ratio search per candidate ratio (Theta(n^2)
searches); DCExact examines only the ratios its recursion cannot skip;
CoreExact additionally shrinks every network.  The printed table reports, per
small dataset: candidate-ratio count, ratios actually examined, total
min-cut computations, and the number of decision networks actually built
(one per fixed-ratio search, which its later guesses retune or narrow in
place).
Every search is a Dinkelbach iteration that
probes its certified lower bound, so a DC leaf whose ratio cannot beat the
incumbent costs one min-cut, and an interior probe, which starts at the best
surrogate among the pairs the run has already extracted, one to four (mostly
one or two).

Besides the pytest-benchmark entry points this module doubles as a CI smoke
check::

    PYTHONPATH=src python benchmarks/bench_e6_flowcalls.py --smoke

which fails (exit code 1) whenever the flow-call counts regress past the
recorded exact counts (a slide back to unseeded interior probes, or to
bisecting every bracket to tolerance, raises them), or a fixed-ratio
search stops building exactly one network (``networks_built ==
fixed_ratio_searches``; a search narrows that network in place for its
later guesses).

The **seeded-probe gate** pins the session's fixed-ratio probe
(:meth:`DDSSession.fixed_ratio <repro.session.DDSSession.fixed_ratio>`),
which starts at a seed bound the graph fixes and min-cuts only the
[x, y]-core that must hold the maximiser: on ``foodweb-tiny``,
``social-tiny`` and ``advogato-small`` at ratios 0.5, 1 and 2, each probe on
a fresh session must return the bit-identical ``(lower, upper)`` bracket of
``maximize_fixed_ratio`` from 0 on the whole sub-problem, in exactly the
recorded number of min-cuts (:data:`PROBE_SMOKE_FLOW_CALLS`).

The smoke additionally gates the service tier's execution order: the mixed
E6-style workload (:func:`repro.bench.workloads.service_mixed_workload`) run
in file order and in reverse order must return bit-identical per-query
answers, compared by input index.

The **incremental update gate** replays a deterministic edge-update
stream through one session's ``apply_updates``: with certification disabled
every post-delta answer must be bit-identical to a cold session on the
updated graph; with certification enabled densities must agree exactly, at
least one cached answer must survive by certificate, and the certified
session's ``flow_calls`` over the whole stream must equal the recorded
count (:data:`UPDATE_SMOKE_FLOW_CALLS`) — certification runs no min-cut,
so every one of them belongs to a query.  It also gates the
speed the incremental layer exists for: on a removal-only stream of
single-edge deltas over ``advogato-small`` (dc-exact answered after every
delta), ``apply_updates`` must take at most half the process CPU time of a
cold session rebuilt per delta, with equal densities at every step.

The **process-pool parity gate** runs the mixed workload through
``BatchExecutor(process_pool=True)`` with one and with two local shard
daemons: both runs must return per-query answers bit-identical to the
thread/serial reference, must serve every lane on a daemon (no lane inline
or degraded, no remote failure), must use two distinct daemons at two
jobs, and must leave no child process alive.

The **network-tier parity gate** serves the same mixed workload from two
loopback ``ShardDaemon``s via ``BatchExecutor(remote_hosts=[...])``: the
remote answers must be bit-identical to the local reference with every
lane actually solved remotely and zero sockets left open on either
daemon once the executor is closed, the same plan executed again on the same executor must ship no
graph (``graphs_shipped == 0``: each graph crosses the wire once), and a
run that kills one daemon mid-batch must *still*
return bit-identical answers — the client's retry ladder exhausts, the
lane falls back inline, and the failure is recorded in
``executor_stats`` (``remote_failures``/``degraded_lanes``).

The **deadline anytime gate** pins the robustness layer: a microscopic
``deadline_ms`` must expire into an anytime partial whose certified gap is
finite and whose bounds bracket the true optimum, a generous budget must
return the bit-identical subgraph of a no-deadline run (armed checkpoints
are answer-neutral), and a drained ``ShardDaemon`` must join every worker
thread (``unjoined_threads == 0`` — the shutdown hygiene counter).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import pytest
from conftest import emit

from repro.bench.baselines import SEED_FLOW_CALLS
from repro.bench.harness import format_table
from repro.bench.workloads import service_mixed_workload
from repro.core.fixed_ratio import maximize_fixed_ratio
from repro.core.ratio import all_candidate_ratios
from repro.datasets.registry import dataset_names, load_dataset
from repro.graph.generators import edge_update_stream
from repro.service import BatchExecutor, payload_answer, plan_batch
from repro.session import DDSSession

_rows: list[dict] = []

BASELINE_DATASETS = ["foodweb-tiny", "social-tiny"]

#: Flow-call upper bounds: the exact counts recorded in repro.bench.baselines;
#: the smoke run fails when an algorithm needs more min-cuts than recorded.
SMOKE_FLOW_CALL_BOUNDS = SEED_FLOW_CALLS


@pytest.mark.parametrize("dataset", BASELINE_DATASETS)
def test_e6_flow_exact_counts(benchmark, dataset):
    graph = load_dataset(dataset)
    result = benchmark.pedantic(
        lambda: DDSSession(graph).densest_subgraph("flow-exact"), rounds=1, iterations=1
    )
    _rows.append(
        {
            "dataset": dataset,
            "method": "flow-exact",
            "candidate_ratios": len(all_candidate_ratios(graph.num_nodes)),
            "ratios_examined": result.stats["ratios_examined"],
            "flow_calls": result.stats["flow_calls"],
            "networks_built": result.stats["networks_built"],
        }
    )


@pytest.mark.parametrize("dataset", dataset_names("small"))
@pytest.mark.parametrize("method", ["dc-exact", "core-exact"])
def test_e6_dc_core_counts(benchmark, dataset, method):
    graph = load_dataset(dataset)
    result = benchmark.pedantic(
        lambda: DDSSession(graph).densest_subgraph(method), rounds=1, iterations=1
    )
    _rows.append(
        {
            "dataset": dataset,
            "method": method,
            "candidate_ratios": len(all_candidate_ratios(graph.num_nodes)),
            "ratios_examined": result.stats["ratios_examined"],
            "flow_calls": result.stats["flow_calls"],
            "networks_built": result.stats["networks_built"],
            "arcs_pushed": result.stats["arcs_pushed"],
            "intervals_pruned": result.stats["intervals_pruned"],
        }
    )


def test_e6_emit_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(format_table(_rows, title="E6: ratios examined and max-flow calls per exact algorithm"))
    # The divide-and-conquer algorithms must examine far fewer ratios than the
    # candidate-ratio count on every dataset.
    for row in _rows:
        if row["method"] != "flow-exact":
            assert row["ratios_examined"] < row["candidate_ratios"]


#: Min-cuts of the session's seeded fixed-ratio probe on a fresh session, by
#: dataset and ratio.  The whole-graph search from 0 takes 4/3/4 on
#: foodweb-tiny, 5/4/5 on social-tiny and 4/4/4 on advogato-small.
PROBE_SMOKE_FLOW_CALLS = {
    ("foodweb-tiny", 0.5): 1,
    ("foodweb-tiny", 1.0): 1,
    ("foodweb-tiny", 2.0): 1,
    ("social-tiny", 0.5): 4,
    ("social-tiny", 1.0): 3,
    ("social-tiny", 2.0): 4,
    ("advogato-small", 0.5): 1,
    ("advogato-small", 1.0): 1,
    ("advogato-small", 2.0): 1,
}


#: Min-cuts of the certified session over the update gate's stream: its
#: warm dc-exact answer plus the re-searches of the entries certification
#: evicted.  Certification itself runs none.
UPDATE_SMOKE_FLOW_CALLS = 28


def run_probe_smoke(failures: list[str]) -> list[dict]:
    """Seeded-probe gate: the whole-graph bracket, in the recorded min-cuts.

    Each probe of :data:`PROBE_SMOKE_FLOW_CALLS` runs on a fresh session
    and is compared with ``maximize_fixed_ratio`` from 0 on the session's
    whole sub-problem, with the session's upper bound and tolerance: the
    brackets must be bit-identical and the probe's ``flow_calls`` must equal
    the recorded count.  Appends failure strings to ``failures`` and returns
    one table row per probe.
    """
    rows = []
    for (dataset, ratio), expected in PROBE_SMOKE_FLOW_CALLS.items():
        session = DDSSession(load_dataset(dataset))
        probe = session.fixed_ratio(ratio)
        full = maximize_fixed_ratio(
            session.subproblem(),
            ratio,
            lower=0.0,
            upper=session.density_upper_bound(),
            tolerance=session.exactness_tolerance(),
        )
        if (probe.lower, probe.upper) != (full.lower, full.upper):
            failures.append(
                f"seeded probe {dataset}@{ratio}: bracket ({probe.lower!r}, {probe.upper!r}) "
                f"!= the whole-graph search's ({full.lower!r}, {full.upper!r})"
            )
        if probe.flow_calls != expected:
            failures.append(
                f"seeded probe {dataset}@{ratio}: flow_calls {probe.flow_calls} != "
                f"recorded {expected}"
            )
        rows.append(
            {
                "dataset": dataset,
                "ratio": ratio,
                "lower": probe.lower,
                "flow_calls": probe.flow_calls,
                "recorded": expected,
                "full_search_calls": full.flow_calls,
            }
        )
    return rows


#: Dataset the planner smoke replays the mixed workload against.
PLANNER_SMOKE_DATASET = "social-tiny"


def run_planner_smoke(failures: list[str]) -> dict:
    """Batch-order gate: file order and reverse order give the same answers.

    Runs :func:`service_mixed_workload` twice through the service tier on
    fresh session pools — in file order and reversed — and asserts
    bit-identical per-query answers, matched by input index.  Appends
    failure strings to ``failures`` and returns a table row.
    """
    queries = service_mixed_workload()
    executor = BatchExecutor(lambda key: load_dataset(key))
    file_order = executor.execute(plan_batch(queries, default_graph_key=PLANNER_SMOKE_DATASET))
    reversed_order = executor.execute(
        plan_batch(queries[::-1], default_graph_key=PLANNER_SMOKE_DATASET)
    )
    file_answers = [payload_answer(p) for p in file_order.results_in_input_order()]
    reversed_answers = [payload_answer(p) for p in reversed_order.results_in_input_order()]
    if file_answers != reversed_answers[::-1]:
        failures.append(
            "batch order: file-order and reverse-order runs disagree on per-query answers"
        )
    return {
        "dataset": PLANNER_SMOKE_DATASET,
        "method": "batch-order",
        "queries": len(queries),
        "file_result_hits": file_order.aggregate_stats().get("result_cache_hits", 0),
        "reversed_result_hits": reversed_order.aggregate_stats().get("result_cache_hits", 0),
    }


#: Dataset + stream shape of the incremental update-parity gate.
UPDATE_SMOKE_DATASET = "social-tiny"
UPDATE_SMOKE_STEPS = 4
UPDATE_SMOKE_SEED = 77

#: Dataset + stream shape of the incremental speedup gate: removal-only
#: single-edge deltas, which mostly certify on density bounds alone — the
#: regime the incremental layer exists for.
SPEEDUP_SMOKE_DATASET = "advogato-small"
SPEEDUP_SMOKE_STEPS = 6
SPEEDUP_SMOKE_SEED = 2020

#: ``apply_updates`` must serve the speedup stream at least this many times
#: faster than per-delta cold rebuilds (best of 3: 4.7–6.4x measured in
#: three runs on a shared 2-CPU VM).
SPEEDUP_SMOKE_MIN_RATIO = 2.0
SPEEDUP_SMOKE_REPEATS = 3


def _incremental_speedup(failures: list[str]) -> float:
    """CPU-time ratio of per-delta cold rebuilds to ``apply_updates``.

    Both lanes answer a dc-exact query after every delta of the speedup
    stream, starting from a warm answer; the incremental lane applies each
    delta through one live session, the cold lane builds a fresh session on
    the updated graph every time.  Each lane's time is the best of
    :data:`SPEEDUP_SMOKE_REPEATS` runs.  Appends failure strings to
    ``failures``.
    """
    graph = load_dataset(SPEEDUP_SMOKE_DATASET)
    batches = edge_update_stream(
        graph, steps=SPEEDUP_SMOKE_STEPS, batch_size=1, p_add=0.0, seed=SPEEDUP_SMOKE_SEED
    )
    incremental_s = cold_s = float("inf")
    for _ in range(SPEEDUP_SMOKE_REPEATS):
        session = DDSSession(graph.copy())
        session.densest_subgraph("dc-exact")
        start = time.process_time()
        incremental = []
        for added, removed in batches:
            session.apply_updates(added, removed)
            incremental.append(session.densest_subgraph("dc-exact").density)
        incremental_s = min(incremental_s, time.process_time() - start)

        work = graph.copy()
        cold = []
        start = time.process_time()
        for added, removed in batches:
            work.apply_delta(added, removed)
            cold.append(DDSSession(work.copy()).densest_subgraph("dc-exact").density)
        cold_s = min(cold_s, time.process_time() - start)

    if any(abs(inc - ref) > 1e-9 for inc, ref in zip(incremental, cold)):
        failures.append(
            f"update speedup: apply_updates and cold-rebuild densities diverged on "
            f"{SPEEDUP_SMOKE_DATASET} ({incremental} vs {cold})"
        )
    ratio = cold_s / incremental_s if incremental_s > 0 else float("inf")
    if ratio < SPEEDUP_SMOKE_MIN_RATIO:
        failures.append(
            f"update speedup: apply_updates ({incremental_s * 1000:.0f} ms CPU) did not beat "
            f"per-delta cold rebuilds ({cold_s * 1000:.0f} ms CPU) by "
            f"{SPEEDUP_SMOKE_MIN_RATIO:g}x on {SPEEDUP_SMOKE_DATASET} (got {ratio:.2f}x)"
        )
    return ratio


def run_update_smoke(failures: list[str]) -> dict:
    """Incremental update gate: ``apply_updates`` must match and beat cold rebuilds.

    Replays a deterministic edge-update stream (removals and insertions)
    through one live session two ways — with certification disabled, where
    every post-delta dc-exact answer must be **bit-identical** to a cold
    session built on the updated graph, and with certification enabled,
    where densities must still agree exactly and at least one entry must
    survive by certificate across the stream (the subsystem's reason to
    exist), in exactly :data:`UPDATE_SMOKE_FLOW_CALLS` min-cuts on the
    certified session.  Then times the removal-only speedup stream
    (:func:`_incremental_speedup`).  Appends failure strings to
    ``failures`` and returns a table row.
    """
    graph = load_dataset(UPDATE_SMOKE_DATASET)
    batches = edge_update_stream(
        graph, steps=UPDATE_SMOKE_STEPS, batch_size=1, p_add=0.3, seed=UPDATE_SMOKE_SEED
    )
    exact = DDSSession(graph.copy())
    certified = DDSSession(graph.copy())
    exact.densest_subgraph("dc-exact")
    certified.densest_subgraph("dc-exact")
    work = graph.copy()
    for step, (added, removed) in enumerate(batches):
        exact.apply_updates(added, removed, certify=False)
        certified.apply_updates(added, removed)
        work.apply_delta(added, removed)
        cold_result = DDSSession(work.copy()).densest_subgraph("dc-exact")
        exact_result = exact.densest_subgraph("dc-exact")
        if (
            exact_result.density != cold_result.density
            or exact_result.s_nodes != cold_result.s_nodes
            or exact_result.t_nodes != cold_result.t_nodes
        ):
            failures.append(
                f"update parity: step {step} on {UPDATE_SMOKE_DATASET} — uncertified "
                f"apply_updates diverged from the cold rebuild "
                f"({exact_result.density} vs {cold_result.density})"
            )
        certified_result = certified.densest_subgraph("dc-exact")
        if certified_result.density != cold_result.density:
            failures.append(
                f"update parity: step {step} on {UPDATE_SMOKE_DATASET} — certified "
                f"apply_updates lost optimality "
                f"({certified_result.density} vs {cold_result.density})"
            )
    stats = certified.cache_stats()
    if stats["certified_stale_hits"] < 1:
        failures.append(
            f"update parity: no cached answer survived certification across "
            f"{UPDATE_SMOKE_STEPS} deltas on {UPDATE_SMOKE_DATASET} "
            "(the certification tier never fired)"
        )
    if stats["flow_calls"] != UPDATE_SMOKE_FLOW_CALLS:
        failures.append(
            f"update parity: certified session ran {stats['flow_calls']} min-cuts over "
            f"{UPDATE_SMOKE_STEPS} deltas on {UPDATE_SMOKE_DATASET}, recorded "
            f"{UPDATE_SMOKE_FLOW_CALLS}"
        )
    return {
        "dataset": UPDATE_SMOKE_DATASET,
        "steps": UPDATE_SMOKE_STEPS,
        "updates_applied": stats["updates_applied"],
        "certified_stale_hits": stats["certified_stale_hits"],
        "local_research_runs": stats["local_research_runs"],
        "flow_calls": stats["flow_calls"],
        "recorded_flow_calls": UPDATE_SMOKE_FLOW_CALLS,
        f"{SPEEDUP_SMOKE_DATASET}_speedup": round(_incremental_speedup(failures), 2),
    }


#: Default graph of the process-pool parity gate (per-query ``"dataset"``
#: fields in the mixed workload fan additional lanes out on top).
PROCPOOL_SMOKE_DATASET = "foodweb-tiny"


def run_procpool_smoke(failures: list[str]) -> dict:
    """Process-pool gate: bit-identical answers across jobs-1/jobs-2/threads.

    Runs the mixed E6 workload through ``BatchExecutor(process_pool=True)``
    with one and with two local shard daemons, plus the serial/thread
    reference, and asserts (1) bit-identical per-query answers across all
    three, (2) that every lane of the process runs was served by a daemon
    (none inline or degraded, no remote failure: no silent degradation),
    (3) that the jobs-2 run spread its lanes over two distinct daemons, and
    (4) that no child process is alive after the runs.  Appends failure
    strings to ``failures`` and returns a table row.
    """
    # The mixed workload plus a second graph's lane, so jobs-2 genuinely
    # exercises the fingerprint shard routing across two daemons.
    queries = service_mixed_workload() + [
        {"query": "densest", "method": "core-exact", "dataset": "social-tiny"},
        {"query": "fixed-ratio", "ratio": 1.0, "dataset": "social-tiny"},
        {"query": "top-k", "k": 2, "dataset": "social-tiny"},
    ]
    plan = plan_batch(queries, default_graph_key=PROCPOOL_SMOKE_DATASET)
    executor = BatchExecutor(lambda key: load_dataset(key))
    reference = executor.execute(plan)
    reports = {}
    for jobs in (1, 2):
        reports[jobs] = BatchExecutor(
            lambda key: load_dataset(key), process_pool=True, max_workers=jobs
        ).execute(plan)
    reference_answers = [payload_answer(p) for p in reference.results_in_input_order()]
    for jobs, report in reports.items():
        stats = report.executor_stats
        answers = [payload_answer(p) for p in report.results_in_input_order()]
        if answers != reference_answers:
            failures.append(
                f"process pool: jobs-{jobs} process-mode answers diverged from the "
                "thread/serial reference (cross-process bit-identity broken)"
            )
        if stats.get("mode") != "process-pool":
            failures.append(f"process pool: jobs-{jobs} run reported mode {stats.get('mode')!r}")
        if stats.get("lanes_inline", 0) or stats.get("degraded_lanes") or stats.get(
            "remote_failures", 0
        ):
            failures.append(
                f"process pool: jobs-{jobs} run degraded: {stats.get('lanes_inline', 0)} lanes "
                f"inline, {stats.get('remote_failures', 0)} remote failures, degraded lanes "
                f"{stats.get('degraded_lanes')}"
            )
    daemons_jobs2 = {execution.worker for execution in reports[2].executions}
    if None in daemons_jobs2 or len(daemons_jobs2) < 2:
        failures.append(
            "process pool: jobs-2 run served its lanes on fewer than 2 distinct daemons "
            "(fingerprint shard routing fan-out broken)"
        )
    alive = multiprocessing.active_children()
    if alive:
        failures.append(
            f"process pool: {len(alive)} child processes still alive after the runs: "
            f"{', '.join(process.name for process in alive)}"
        )
    return {
        "dataset": PROCPOOL_SMOKE_DATASET,
        "method": "process-pool",
        "queries": len(queries),
        "daemons_jobs2": len(daemons_jobs2),
        "remote_failures": reports[2].executor_stats["remote_failures"],
    }


#: Default graph of the network-tier parity gate (the workload's
#: ``"dataset"`` fields fan a second graph's lane onto the other daemon).
NET_SMOKE_DATASET = "foodweb-tiny"


def _die_on_first_solve(daemon) -> None:
    """Make ``daemon`` stop, without answering, at the first solve request it serves.

    Wraps the daemon instance's ``_serve_request``: the request's connection
    is closed unanswered and the whole daemon stops, the loopback stand-in
    for SIGKILL on a remote box mid-batch.
    """
    serve = daemon._serve_request
    lock = threading.Lock()
    armed = [True]

    def serve_or_die(sock, op, request_id, message):
        with lock:
            die = op == "solve" and armed[0]
            if die:
                armed[0] = False
        if not die:
            return serve(sock, op, request_id, message)
        daemon._close_conn(sock)
        daemon._request_stop()

    daemon._serve_request = serve_or_die


def run_net_smoke(failures: list[str]) -> dict:
    """Network-tier gate: loopback daemons serve bit-identical answers.

    Serves the mixed two-graph workload from two loopback ``ShardDaemon``s
    via ``BatchExecutor(remote_hosts=[...])`` and asserts (1) bit-identical
    per-query answers against the local thread/serial reference with every
    lane solved remotely, (2) that executing the plan again on the same
    executor and daemons gives the same answers with every lane remote and
    no graph shipped a second time, (3) zero sockets left open on either
    daemon once the executor that ran the batches is closed, and (4) that killing one daemon mid-batch
    still completes bit-identically — retry ladder, then inline fallback —
    with the failure recorded in ``executor_stats``.  Appends failure
    strings to ``failures`` and returns a table row.
    """
    from repro.net import ShardDaemon

    queries = service_mixed_workload() + [
        {"query": "densest", "method": "core-exact", "dataset": "social-tiny"},
        {"query": "fixed-ratio", "ratio": 1.0, "dataset": "social-tiny"},
        {"query": "top-k", "k": 2, "dataset": "social-tiny"},
    ]
    plan = plan_batch(queries, default_graph_key=NET_SMOKE_DATASET)
    reference = BatchExecutor(lambda key: load_dataset(key)).execute(plan)
    reference_answers = [payload_answer(p) for p in reference.results_in_input_order()]

    # Healthy pass: two daemons, every lane remote, answers bit-identical.
    with ShardDaemon() as first, ShardDaemon() as second:
        hosts = [first.address, second.address]
        executor = BatchExecutor(lambda key: load_dataset(key), remote_hosts=hosts)
        report = executor.execute(plan)
        answers = [payload_answer(p) for p in report.results_in_input_order()]
        stats = report.executor_stats
        if answers != reference_answers:
            failures.append(
                "network tier: loopback remote answers diverged from the "
                "thread/serial reference (cross-machine bit-identity broken)"
            )
        if stats.get("mode") != "remote" or stats.get("lanes_inline", 0) != 0:
            failures.append(
                "network tier: healthy two-daemon run did not solve every lane "
                f"remotely (mode={stats.get('mode')!r}, "
                f"lanes_inline={stats.get('lanes_inline')})"
            )
        if stats.get("remote_failures", 0) != 0:
            failures.append(
                "network tier: healthy two-daemon run recorded "
                f"{stats['remote_failures']} unexpected remote failures"
            )
        # The same plan again on the same executor and daemons: each graph
        # has crossed the wire once, so no lane may carry it again.
        again = executor.execute(plan)
        again_stats = again.executor_stats
        if [payload_answer(p) for p in again.results_in_input_order()] != reference_answers:
            failures.append(
                "network tier: a second run on the same executor diverged from "
                "the thread/serial reference"
            )
        if again_stats.get("lanes_inline", 0) != 0 or again_stats.get("graphs_shipped") != 0:
            failures.append(
                "network tier: a second run on the same executor shipped graphs "
                f"again or ran lanes inline (graphs_shipped="
                f"{again_stats.get('graphs_shipped')}, "
                f"lanes_inline={again_stats.get('lanes_inline')})"
            )
        # Clients close first (the executor keeps its connections open
        # across batches until then); give the selector loops a moment to
        # reap the resulting EOFs before declaring a socket leaked.
        executor.close()
        deadline = time.monotonic() + 2.0
        while True:
            sockets_open = first.open_connections() + second.open_connections()
            if not sockets_open or time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        if sockets_open:
            failures.append(
                f"network tier: {sockets_open} sockets left open on the daemons "
                "after the batch (connection leak)"
            )
    lanes_remote = stats.get("lanes_remote", 0)

    # Fault pass: one daemon dies mid-batch; retry then inline fallback must
    # preserve bit-identical answers and record the failure.
    with ShardDaemon() as healthy, ShardDaemon() as doomed:
        _die_on_first_solve(doomed)
        fault_report = BatchExecutor(
            lambda key: load_dataset(key),
            remote_hosts=[healthy.address, doomed.address],
        ).execute(plan)
        fault_answers = [
            payload_answer(p) for p in fault_report.results_in_input_order()
        ]
        fault_stats = fault_report.executor_stats
        if fault_answers != reference_answers:
            failures.append(
                "network tier: answers diverged after a daemon was killed "
                "mid-batch (inline fallback broke bit-identity)"
            )
        if fault_stats.get("remote_failures", 0) < 1 or fault_stats.get(
            "lanes_inline", 0
        ) < 1:
            failures.append(
                "network tier: killed daemon was not recorded in executor_stats "
                f"(remote_failures={fault_stats.get('remote_failures')}, "
                f"lanes_inline={fault_stats.get('lanes_inline')})"
            )
    return {
        "dataset": NET_SMOKE_DATASET,
        "method": "remote:loopback",
        "queries": len(queries),
        "daemons": 2,
        "lanes_remote": lanes_remote,
        "remote_failures_faulted": fault_stats.get("remote_failures", 0),
        "lanes_inline_faulted": fault_stats.get("lanes_inline", 0),
        "sockets_leaked": sockets_open,
    }


#: Dataset + method of the deadline gate (reuses the planner-smoke graph).
DEADLINE_SMOKE_DATASET = "foodweb-tiny"
DEADLINE_SMOKE_METHOD = "dc-exact"


def run_deadline_smoke(failures: list[str]) -> dict:
    """Deadline gate: anytime partials bracket the optimum; hygiene holds.

    Three assertions: (1) a microscopic budget raises
    ``DeadlineExceeded`` carrying an anytime partial with a **finite**
    certified gap that brackets the true optimum, counted in the
    session's ``anytime_returns``; (2) a generous budget returns the
    **bit-identical** subgraph of a no-deadline run (armed checkpoints
    must be answer-neutral); (3) the shutdown hygiene counter — a drained
    daemon must join every worker thread (``unjoined_threads == 0``).
    Appends failure strings to ``failures`` and returns a table row.
    """
    from repro.exceptions import DeadlineExceeded
    from repro.net import ShardDaemon

    graph = load_dataset(DEADLINE_SMOKE_DATASET)
    reference = DDSSession(graph).densest_subgraph(DEADLINE_SMOKE_METHOD)

    generous = DDSSession(graph).densest_subgraph(
        DEADLINE_SMOKE_METHOD, deadline_ms=1e9
    )
    if (
        generous.density != reference.density
        or sorted(map(str, generous.s_nodes)) != sorted(map(str, reference.s_nodes))
        or sorted(map(str, generous.t_nodes)) != sorted(map(str, reference.t_nodes))
    ):
        failures.append(
            "deadline gate: a generous budget changed the answer "
            f"({generous.density} vs {reference.density}) — armed checkpoints "
            "must be answer-neutral"
        )

    session = DDSSession(graph)
    partial = None
    try:
        session.densest_subgraph(DEADLINE_SMOKE_METHOD, deadline_ms=1e-6)
        failures.append("deadline gate: a microscopic budget did not expire")
    except DeadlineExceeded as error:
        partial = error.partial
    gap = float("inf")
    if partial is None:
        failures.append("deadline gate: expiry carried no anytime partial")
    else:
        gap = partial.gap
        if not gap < float("inf"):
            failures.append(
                "deadline gate: anytime partial has no finite certified gap "
                f"(upper_bound={partial.upper_bound})"
            )
        if not (
            partial.density <= reference.density <= partial.upper_bound + 1e-9
        ):
            failures.append(
                "deadline gate: anytime bounds do not bracket the true optimum "
                f"({partial.density} <= {reference.density} <= {partial.upper_bound} "
                "violated)"
            )
    anytime_returns = session.cache_stats().get("anytime_returns", 0)
    if partial is not None and anytime_returns != 1:
        failures.append(
            f"deadline gate: session counted {anytime_returns} anytime returns, "
            "expected 1"
        )

    # Shutdown hygiene: a drained daemon joins every worker thread.
    daemon = ShardDaemon()
    daemon.start()
    daemon.drain(grace_s=10.0)
    daemon.join(timeout=30)
    unjoined = daemon.daemon_stats().get("unjoined_threads", 0)
    if unjoined:
        failures.append(
            f"deadline gate: drained daemon left {unjoined} unjoined worker "
            "thread(s) (shutdown hygiene broken)"
        )

    return {
        "dataset": DEADLINE_SMOKE_DATASET,
        "method": DEADLINE_SMOKE_METHOD,
        "anytime_gap": round(gap, 4) if gap < float("inf") else "inf",
        "anytime_density": round(partial.density, 4) if partial is not None else None,
        "true_density": round(reference.density, 4),
        "anytime_returns": anytime_returns,
        "generous_identical": generous.density == reference.density,
        "unjoined_threads": unjoined,
    }


def run_smoke() -> int:
    """Fast flow-call regression gate (used by CI; no pytest required)."""
    failures: list[str] = []
    rows: list[dict] = []
    for (dataset, method), bound in SMOKE_FLOW_CALL_BOUNDS.items():
        graph = load_dataset(dataset)
        result = DDSSession(graph).densest_subgraph(method)
        stats = result.stats
        rows.append(
            {
                "dataset": dataset,
                "method": method,
                "flow_calls": stats["flow_calls"],
                "seed_bound": bound,
                "networks_built": stats["networks_built"],
                "fixed_ratio_searches": stats["fixed_ratio_searches"],
                "arcs_pushed": stats["arcs_pushed"],
            }
        )
        if stats["flow_calls"] > bound:
            failures.append(
                f"{dataset}/{method}: flow_calls {stats['flow_calls']} > seed bound {bound}"
            )
        # Every fixed-ratio search must build exactly one network.
        if stats["networks_built"] != stats["fixed_ratio_searches"]:
            failures.append(
                f"{dataset}/{method}: networks_built {stats['networks_built']} != "
                f"fixed_ratio_searches {stats['fixed_ratio_searches']}"
            )
    print(format_table(rows, title="E6 smoke: flow-call regression gate"))
    print(format_table(run_probe_smoke(failures), title="E6 smoke: seeded-probe gate"))
    planner_row = run_planner_smoke(failures)
    print(format_table([planner_row], title="E6 smoke: batch-order answer gate"))
    update_row = run_update_smoke(failures)
    print(format_table([update_row], title="E6 smoke: incremental update gate"))
    procpool_row = run_procpool_smoke(failures)
    print(format_table([procpool_row], title="E6 smoke: process-pool parity gate"))
    net_row = run_net_smoke(failures)
    print(format_table([net_row], title="E6 smoke: network-tier parity gate"))
    deadline_row = run_deadline_smoke(failures)
    print(format_table([deadline_row], title="E6 smoke: deadline anytime gate"))
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: no flow-call regressions")
    return 1 if failures else 0


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        sys.exit(run_smoke())
    print("usage: bench_e6_flowcalls.py --smoke  (or run under pytest for the full table)")
    sys.exit(2)

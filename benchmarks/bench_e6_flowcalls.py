"""E6 — number of max-flow computations / ratios examined (paper analogue:
the table explaining *why* the divide-and-conquer wins).

FlowExact performs one fixed-ratio search per candidate ratio (Theta(n^2)
searches); DCExact examines only the ratios its recursion cannot skip;
CoreExact additionally shrinks every network.  The printed table reports, per
small dataset: candidate-ratio count, ratios actually examined, total
min-cut computations, and the number of decision networks actually built
(one per fixed-ratio search, built or served by the session network cache;
the narrowed networks a search's later guesses run on are not counted).
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
bisecting every bracket to tolerance, raises them), a fixed-ratio
search stops fetching or building exactly one network (``networks_built +
networks_reused == fixed_ratio_searches``; the narrowed networks a search
solves its later guesses on are not counted).  Every solve continues from
the flow its network holds; a seeded probe narrows at its first cut, so
the pinned dc-exact and core-exact workloads rarely continue warm, and
that warm starts engage at all is gated on flow-exact, whose searches
start at 0 (the batched-solve gate below).

The smoke additionally gates the service tier's batch planner: on the mixed
E6-style workload (:func:`repro.bench.workloads.service_mixed_workload`) the
planned execution order must record **strictly more** result + network
cache hits than ``--no-plan`` file order, while both orders return
bit-identical per-query answers.

Finally, when numpy is importable the smoke gates the vectorised flow
backend: on the large E6 workload (dc-exact over ``er-medium``, whose
decision networks sit far above the ``auto`` arc threshold) the
``numpy-push-relabel`` backend must return the **bit-identical** densest
subgraph **in strictly lower wall-clock time** than ``dinic``, and the
``auto`` policy must actually select it (``backend_selections`` > 0) —
plus the batched-solve parity gate: on the small guess-sequence workload
(flow-exact over ``foodweb-tiny``, whose decision networks are each *below*
the auto threshold) the block-diagonal batched auto run must return the
bit-identical subgraph of a batching-disabled auto run with the same
``flow_calls``, while actually batching (``batched_solves`` > 0) onto the
vectorised backend; the batching-disabled run must also continue at least
one solve warm.  Without numpy the gates report themselves skipped
(registry degradation is covered by the test suite).

The **incremental update-parity gate** replays a deterministic edge-update
stream through one session's ``apply_updates``: with certification disabled
every post-delta answer must be bit-identical to a cold session on the
updated graph; with certification enabled densities must agree exactly and
at least one cached answer must survive by certificate.

The **process-pool parity gate** runs the mixed workload through
``BatchExecutor(process_pool=True)`` with one and with two workers: both
process-mode runs must return per-query answers bit-identical to the
thread/serial reference, must actually run in worker processes (no silent
degradation while shared memory is available), and must leave zero
shared-memory segments behind.  Where ``multiprocessing.shared_memory`` is
unavailable the gate reports itself skipped.

The **network-tier parity gate** serves the same mixed workload from two
loopback ``ShardDaemon``s via ``BatchExecutor(remote_hosts=[...])``: the
remote answers must be bit-identical to the local reference with every
lane actually solved remotely and zero sockets left open on either
daemon, and a second run that kills one daemon mid-batch must *still*
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

import sys
import time

import pytest
from conftest import emit

from repro.bench.baselines import SEED_FLOW_CALLS
from repro.bench.harness import format_table
from repro.bench.workloads import service_mixed_workload
from repro.core.config import FlowConfig
from repro.core.ratio import all_candidate_ratios
from repro.datasets.registry import dataset_names, load_dataset
from repro.flow.registry import VECTOR_SOLVER, has_vector_backend
from repro.graph.generators import edge_update_stream
from repro.service import BatchExecutor, payload_answer, plan_batch, process_pool_available
from repro.service import shm as service_shm
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
            "networks_reused": result.stats["networks_reused"],
            "warm_starts_used": result.stats["warm_starts_used"],
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


#: Decision-network cache capacity of the planner smoke sessions — smaller
#: than the workload's distinct-ratio count, so file-order repeats are
#: evicted before they recur while planned (grouped) repeats still hit.
PLANNER_SMOKE_CACHE_SIZE = 8

#: Dataset the planner smoke replays the mixed workload against.
PLANNER_SMOKE_DATASET = "social-tiny"


def run_planner_smoke(failures: list[str]) -> dict:
    """Batch-planner gate: planned order must beat file order on cache hits.

    Runs :func:`service_mixed_workload` twice through the service tier —
    planned and in file order — on fresh session pools with a deliberately
    small network cache, then asserts (1) bit-identical per-query answers
    and (2) strictly more realised result + network cache hits under the
    plan.  Appends failure strings to ``failures`` and returns a table row.
    """
    queries = service_mixed_workload()
    executor = BatchExecutor(
        lambda key: load_dataset(key),
        flow=FlowConfig(network_cache_size=PLANNER_SMOKE_CACHE_SIZE),
    )
    reports = {}
    for planned in (True, False):
        plan = plan_batch(queries, default_graph_key=PLANNER_SMOKE_DATASET, planned=planned)
        reports[planned] = executor.execute(plan)
    planned_hits = reports[True].realized_cache_hits()
    file_hits = reports[False].realized_cache_hits()
    planned_total = sum(planned_hits.values())
    file_total = sum(file_hits.values())
    planned_answers = [payload_answer(p) for p in reports[True].results_in_input_order()]
    file_answers = [payload_answer(p) for p in reports[False].results_in_input_order()]
    if planned_answers != file_answers:
        failures.append(
            "batch planner: planned and file-order runs disagree on per-query answers"
        )
    if planned_total <= file_total:
        failures.append(
            f"batch planner: planned order recorded {planned_total} cache hits, "
            f"not strictly more than file order's {file_total} "
            "(cache-aware reordering broken)"
        )
    return {
        "dataset": PLANNER_SMOKE_DATASET,
        "method": "batch-planner",
        "queries": len(queries),
        "planned_result_hits": planned_hits["result_cache_hits"],
        "planned_network_hits": planned_hits["network_cache_hits"],
        "file_result_hits": file_hits["result_cache_hits"],
        "file_network_hits": file_hits["network_cache_hits"],
    }


#: Dataset + method of the vector-backend smoke gate: the largest workload
#: the smoke can afford, with decision networks (~27k arcs) far above the
#: auto policy's threshold.
VECTOR_SMOKE_DATASET = "er-medium"
VECTOR_SMOKE_METHOD = "dc-exact"


def run_vector_smoke(failures: list[str]) -> dict:
    """Vector-backend gate: bit-identical answers, strictly lower wall-clock.

    Runs :data:`VECTOR_SMOKE_METHOD` on :data:`VECTOR_SMOKE_DATASET` once
    with ``dinic`` and once with ``numpy-push-relabel`` (fresh sessions),
    asserting (1) bit-identical density and vertex sets, (2) strictly lower
    numpy wall-clock on this large workload, and (3) that the ``auto``
    policy selects the vectorised backend here.  Appends failure strings to
    ``failures`` and returns a table row; when numpy is missing the gate is
    reported as skipped instead of failing.
    """
    if not has_vector_backend():
        return {
            "dataset": VECTOR_SMOKE_DATASET,
            "method": VECTOR_SMOKE_METHOD,
            "status": "skipped (numpy not importable)",
        }
    graph = load_dataset(VECTOR_SMOKE_DATASET)
    runs = {}
    for solver in ("dinic", VECTOR_SOLVER):
        # Best-of-2: the expected margin is 2-3x, so one repeat per solver
        # keeps a noisy-neighbour stall on a shared CI runner from flipping
        # the strict wall-clock comparison.
        walls = []
        for _ in range(2):
            session = DDSSession(graph.copy(), flow=FlowConfig(solver=solver))
            start = time.perf_counter()
            result = session.densest_subgraph(VECTOR_SMOKE_METHOD)
            walls.append(time.perf_counter() - start)
        runs[solver] = (min(walls), result)
    dinic_wall, dinic_result = runs["dinic"]
    numpy_wall, numpy_result = runs[VECTOR_SOLVER]
    if (
        dinic_result.density != numpy_result.density
        or sorted(map(str, dinic_result.s_nodes)) != sorted(map(str, numpy_result.s_nodes))
        or sorted(map(str, dinic_result.t_nodes)) != sorted(map(str, numpy_result.t_nodes))
    ):
        failures.append(
            f"vector backend: {VECTOR_SOLVER} and dinic disagree on the "
            f"{VECTOR_SMOKE_DATASET} subgraph "
            f"({numpy_result.density} vs {dinic_result.density})"
        )
    if numpy_wall >= dinic_wall:
        failures.append(
            f"vector backend: {VECTOR_SOLVER} wall-clock {numpy_wall:.2f}s is not "
            f"strictly below dinic's {dinic_wall:.2f}s on the large workload"
        )
    auto_session = DDSSession(graph.copy(), flow=FlowConfig(solver="auto"))
    auto_session.densest_subgraph(VECTOR_SMOKE_METHOD)
    auto_stats = auto_session.cache_stats()
    if auto_stats.get("auto_backends", {}).get(VECTOR_SOLVER, 0) < 1:
        failures.append(
            "vector backend: the auto policy never selected "
            f"{VECTOR_SOLVER} on {VECTOR_SMOKE_DATASET} "
            f"(auto_backends: {auto_stats.get('auto_backends')!r})"
        )
    return {
        "dataset": VECTOR_SMOKE_DATASET,
        "method": VECTOR_SMOKE_METHOD,
        "dinic_ms": round(dinic_wall * 1000, 1),
        "numpy_ms": round(numpy_wall * 1000, 1),
        "speedup": round(dinic_wall / numpy_wall, 2),
        "backend_selections": auto_stats.get("backend_selections", 0),
    }


#: Dataset + method of the batched-solve parity gate: a guess-sequence
#: workload whose decision networks (~300 arcs each) all sit below the auto
#: arc threshold — the regime where sequential vector solves lose to dinic
#: and the block-diagonal batch wins the vector width back.
BATCH_SMOKE_DATASET = "foodweb-tiny"
BATCH_SMOKE_METHOD = "flow-exact"


def run_batched_smoke(failures: list[str]) -> dict:
    """Batched-solve gate: bit-identical to the sequential auto run, and real.

    Runs :data:`BATCH_SMOKE_METHOD` on :data:`BATCH_SMOKE_DATASET` under the
    ``auto`` policy with batching disabled (``batch_size=1``) and enabled
    (the default), asserting (1) bit-identical density and vertex sets,
    (2) identical ``flow_calls`` (the lockstep search replays the sequential
    guess sequence exactly), (3) that batching actually engaged —
    ``batched_solves`` > 0 with the vectorised backend recorded in
    ``auto_backends`` — and (4) that warm starts engage on the
    batching-disabled run (``warm_starts_used`` >= 1): flow-exact searches
    start at 0, so each search's second guess retunes its network warm.
    Appends failure strings to ``failures`` and returns a table row; when
    numpy is missing the gate reports itself skipped.
    """
    if not has_vector_backend():
        return {
            "dataset": BATCH_SMOKE_DATASET,
            "method": BATCH_SMOKE_METHOD,
            "status": "skipped (numpy not importable)",
        }
    graph = load_dataset(BATCH_SMOKE_DATASET)
    runs = {}
    for batch_size in (1, FlowConfig().batch_size):
        session = DDSSession(
            graph.copy(), flow=FlowConfig(solver="auto", batch_size=batch_size)
        )
        start = time.perf_counter()
        result = session.densest_subgraph(BATCH_SMOKE_METHOD)
        wall = time.perf_counter() - start
        runs[batch_size] = (wall, result, session.cache_stats())
    seq_wall, seq_result, _ = runs[1]
    bat_wall, bat_result, bat_stats = runs[FlowConfig().batch_size]
    if seq_result.stats["warm_starts_used"] < 1:
        failures.append(
            f"{BATCH_SMOKE_DATASET}/{BATCH_SMOKE_METHOD}: warm_starts_used "
            f"{seq_result.stats['warm_starts_used']} < 1 (warm-start residual reuse broken)"
        )
    if (
        seq_result.density != bat_result.density
        or sorted(map(str, seq_result.s_nodes)) != sorted(map(str, bat_result.s_nodes))
        or sorted(map(str, seq_result.t_nodes)) != sorted(map(str, bat_result.t_nodes))
    ):
        failures.append(
            f"batched solve: batched and sequential auto runs disagree on the "
            f"{BATCH_SMOKE_DATASET} subgraph "
            f"({bat_result.density} vs {seq_result.density})"
        )
    if bat_result.stats["flow_calls"] != seq_result.stats["flow_calls"]:
        failures.append(
            f"batched solve: flow_calls {bat_result.stats['flow_calls']} != "
            f"sequential {seq_result.stats['flow_calls']} "
            "(the lockstep search no longer replays the guess sequence)"
        )
    if bat_stats.get("batched_solves", 0) < 1:
        failures.append(
            f"batched solve: batched_solves {bat_stats.get('batched_solves')} on "
            f"{BATCH_SMOKE_DATASET}/{BATCH_SMOKE_METHOD} — batching never engaged"
        )
    if bat_stats.get("auto_backends", {}).get(VECTOR_SOLVER, 0) < 1:
        failures.append(
            "batched solve: the auto policy never put batched members on "
            f"{VECTOR_SOLVER} (auto_backends: {bat_stats.get('auto_backends')!r})"
        )
    return {
        "dataset": BATCH_SMOKE_DATASET,
        "method": BATCH_SMOKE_METHOD,
        "sequential_ms": round(seq_wall * 1000, 1),
        "batched_ms": round(bat_wall * 1000, 1),
        "batched_solves": bat_stats.get("batched_solves", 0),
        "flow_calls": bat_result.stats["flow_calls"],
        "sequential_warm_starts": seq_result.stats["warm_starts_used"],
    }


#: Dataset + stream shape of the incremental update-parity gate.
UPDATE_SMOKE_DATASET = "social-tiny"
UPDATE_SMOKE_STEPS = 4
UPDATE_SMOKE_SEED = 77


def run_update_smoke(failures: list[str]) -> dict:
    """Update-parity gate: ``apply_updates`` must match cold rebuilds.

    Replays a deterministic edge-update stream (removals and insertions)
    through one live session two ways — with certification disabled, where
    every post-delta dc-exact answer must be **bit-identical** to a cold
    session built on the updated graph, and with certification enabled,
    where densities must still agree exactly and at least one entry must
    survive by certificate across the stream (the subsystem's reason to
    exist).  Appends failure strings to ``failures`` and returns a table
    row.
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
    return {
        "dataset": UPDATE_SMOKE_DATASET,
        "steps": UPDATE_SMOKE_STEPS,
        "updates_applied": stats["updates_applied"],
        "certified_stale_hits": stats["certified_stale_hits"],
        "local_research_runs": stats["local_research_runs"],
        "flow_calls": stats["flow_calls"],
    }


#: Default graph of the process-pool parity gate (per-query ``"dataset"``
#: fields in the mixed workload fan additional lanes out on top).
PROCPOOL_SMOKE_DATASET = "foodweb-tiny"


def run_procpool_smoke(failures: list[str]) -> dict:
    """Process-pool gate: bit-identical answers across jobs-1/jobs-2/threads.

    Runs the mixed E6 workload through ``BatchExecutor(process_pool=True)``
    with one and with two workers, plus the serial/thread reference, and
    asserts (1) bit-identical per-query answers across all three, (2) that
    the process runs actually used worker processes (no silent degradation),
    and (3) that zero shared-memory segments survive the runs.  Where
    shared memory is unavailable the gate reports itself skipped — that
    platform's degradation behaviour is covered by the test suite.  Appends
    failure strings to ``failures`` and returns a table row.
    """
    available, reason = process_pool_available()
    if not available:
        return {
            "dataset": PROCPOOL_SMOKE_DATASET,
            "method": "process-pool",
            "skipped": f"shared memory unavailable ({reason})",
        }
    # The mixed workload plus a second graph's lane, so jobs-2 genuinely
    # exercises the fingerprint shard routing across two workers
    # (foodweb-tiny and social-tiny hash to distinct shards of 2).
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
        answers = [payload_answer(p) for p in report.results_in_input_order()]
        if answers != reference_answers:
            failures.append(
                f"process pool: jobs-{jobs} process-mode answers diverged from the "
                "thread/serial reference (cross-process bit-identity broken)"
            )
        if report.executor_stats.get("mode") != "process-pool":
            failures.append(
                f"process pool: jobs-{jobs} run degraded to "
                f"{report.executor_stats.get('mode')!r} although shared memory "
                "is available"
            )
        if report.executor_stats.get("worker_crashes", 0) != 0:
            failures.append(
                f"process pool: jobs-{jobs} run recorded "
                f"{report.executor_stats['worker_crashes']} unexpected worker crashes"
            )
    if reports[2].executor_stats.get("workers_spawned", 0) < 2:
        failures.append(
            "process pool: jobs-2 run spawned fewer than 2 workers "
            "(fingerprint shard routing fan-out broken)"
        )
    leaked = service_shm.active_segment_names()
    if leaked:
        failures.append(
            f"process pool: {len(leaked)} shared-memory segments leaked after "
            f"shutdown: {', '.join(leaked)}"
        )
    return {
        "dataset": PROCPOOL_SMOKE_DATASET,
        "method": "process-pool",
        "queries": len(queries),
        "workers_jobs2": reports[2].executor_stats["workers_spawned"],
        "shm_bytes": reports[2].executor_stats["shm_bytes_mapped"],
        "crashes": reports[2].executor_stats["worker_crashes"],
        "segments_leaked": len(leaked),
    }


#: Default graph of the network-tier parity gate (the workload's
#: ``"dataset"`` fields fan a second graph's lane onto the other daemon).
NET_SMOKE_DATASET = "foodweb-tiny"


def run_net_smoke(failures: list[str]) -> dict:
    """Network-tier gate: loopback daemons serve bit-identical answers.

    Serves the mixed two-graph workload from two loopback ``ShardDaemon``s
    via ``BatchExecutor(remote_hosts=[...])`` and asserts (1) bit-identical
    per-query answers against the local thread/serial reference with every
    lane solved remotely, (2) zero sockets left open on either daemon after
    the batch, and (3) that killing one daemon mid-batch still completes
    bit-identically — retry ladder, then inline fallback — with the failure
    recorded in ``executor_stats``.  Appends failure strings to
    ``failures`` and returns a table row.
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
        report = BatchExecutor(
            lambda key: load_dataset(key), remote_hosts=hosts
        ).execute(plan)
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
        # Clients close first; give the selector loops a moment to reap the
        # resulting EOFs before declaring a socket leaked.
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
    with (
        ShardDaemon() as healthy,
        ShardDaemon(
            fault_injection={"op": "solve", "kind": "exit", "times": 1}
        ) as doomed,
    ):
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
                "networks_reused": stats["networks_reused"],
                "fixed_ratio_searches": stats["fixed_ratio_searches"],
                "warm_starts_used": stats["warm_starts_used"],
                "arcs_pushed": stats["arcs_pushed"],
            }
        )
        if stats["flow_calls"] > bound:
            failures.append(
                f"{dataset}/{method}: flow_calls {stats['flow_calls']} > seed bound {bound}"
            )
        # Every fixed-ratio search must use exactly one network — built from
        # scratch or served by the session network cache.
        if stats["networks_built"] + stats["networks_reused"] != stats["fixed_ratio_searches"]:
            failures.append(
                f"{dataset}/{method}: networks_built {stats['networks_built']} + "
                f"networks_reused {stats['networks_reused']} != "
                f"fixed_ratio_searches {stats['fixed_ratio_searches']}"
            )
    print(format_table(rows, title="E6 smoke: flow-call regression gate"))
    planner_row = run_planner_smoke(failures)
    print(format_table([planner_row], title="E6 smoke: batch-planner cache-hit gate"))
    vector_row = run_vector_smoke(failures)
    print(format_table([vector_row], title="E6 smoke: vectorised-backend gate"))
    batched_row = run_batched_smoke(failures)
    print(format_table([batched_row], title="E6 smoke: batched-solve parity gate"))
    update_row = run_update_smoke(failures)
    print(format_table([update_row], title="E6 smoke: incremental update-parity gate"))
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

"""The service tier: batch planning, concurrent execution, persistent state.

Everything above a single :class:`~repro.session.DDSSession` lives here —
the layer that turns the one-process session API into a serving system:

* :mod:`repro.service.queries` — the JSON batch-query vocabulary shared by
  the CLI and the executor, and ``run_lane``, the loop that serves one
  graph's queries on one session for every pool flavour and the shard
  daemon;
* :mod:`repro.service.planner` — groups a query batch into one lane per
  graph, each in file order, with an explain mode;
* :mod:`repro.service.executor` — a pool of graph-affine sessions (threads
  by default, or shard daemons: started in local child processes for the
  batch with ``process_pool=True``, or running elsewhere with
  ``remote_hosts``) executing a plan with per-query timing and aggregated
  cache counters;
* :mod:`repro.service.store` — a versioned, checksummed SQLite store of
  session warm state keyed by graph content fingerprint, so warm caches
  survive the process and can be shared between daemons.

Quickstart::

    from repro.service import BatchExecutor, SessionStore, plan_batch

    plan = plan_batch(queries, default_graph_key="wiki")
    report = BatchExecutor(
        {"wiki": graph}, store=SessionStore(".dds-store")
    ).execute(plan)
    payloads = report.results_in_input_order()
    print(plan.explain(), report.aggregate_stats())
"""

from repro.service.executor import BatchExecutor, BatchReport, QueryExecution
from repro.service.planner import BatchPlan, PlannedQuery, ShardMap, plan_batch
from repro.service.queries import BATCH_QUERY_KINDS, payload_answer, run_batch_query
from repro.service.store import STORE_SCHEMA_VERSION, SessionStore

__all__ = [
    "BATCH_QUERY_KINDS",
    "BatchExecutor",
    "BatchPlan",
    "BatchReport",
    "PlannedQuery",
    "QueryExecution",
    "STORE_SCHEMA_VERSION",
    "SessionStore",
    "ShardMap",
    "payload_answer",
    "plan_batch",
    "run_batch_query",
]

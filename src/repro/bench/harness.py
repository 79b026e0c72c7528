"""Result collection and plain-text reporting for the experiment suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.results import DDSResult
from repro.graph.digraph import DiGraph
from repro.session import DDSSession
from repro.utils.timer import time_call


@dataclass
class ExperimentRecord:
    """One measured cell of an experiment: dataset x method -> result + time."""

    experiment: str
    dataset: str
    method: str
    result: DDSResult
    seconds: float
    extra: dict[str, Any] = field(default_factory=dict)

    def row(self) -> dict[str, Any]:
        """Flat dictionary row used by :func:`format_table`."""
        row: dict[str, Any] = {
            "experiment": self.experiment,
            "dataset": self.dataset,
            "method": self.method,
            "seconds": round(self.seconds, 4),
            "density": round(self.result.density, 4),
            "|S|": self.result.s_size,
            "|T|": self.result.t_size,
        }
        # Flow-engine instrumentation, when the method ran min-cuts (keys
        # defined in the stats glossary of repro.flow.engine).
        for key in (
            "flow_solver",
            "flow_calls",
            "networks_built",
            "networks_reused",
            "arcs_pushed",
            "warm_starts_used",
            "cold_starts",
        ):
            if key in self.result.stats:
                row[key] = self.result.stats[key]
        row.update(self.extra)
        return row


def run_method_on_dataset(
    experiment: str,
    dataset_name: str,
    graph: DiGraph,
    method: str,
    session: DDSSession | None = None,
    **kwargs: Any,
) -> ExperimentRecord:
    """Time one algorithm on one graph and wrap the outcome.

    Queries go through a :class:`~repro.session.DDSSession`; pass an existing
    ``session`` to measure warm (cache-assisted) timings across methods, or
    omit it for a cold per-call session matching the historical behaviour.
    """
    if session is None:
        session = DDSSession(graph)
    result, seconds = time_call(lambda: session.densest_subgraph(method, **kwargs))
    return ExperimentRecord(
        experiment=experiment,
        dataset=dataset_name,
        method=method,
        result=result,
        seconds=seconds,
    )


def format_table(rows: Iterable[dict[str, Any]], title: str | None = None) -> str:
    """Render dict rows as an aligned plain-text table (paper-style)."""
    rows = list(rows)
    if not rows:
        return f"{title or 'table'}: (no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        column: max(len(str(column)), max(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_label: str,
    points: Sequence[tuple[Any, Any]],
    title: str | None = None,
) -> str:
    """Render an (x, y) series as text — the figure analogue of :func:`format_table`."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{x_label} -> {y_label}")
    for x, y in points:
        y_text = f"{y:.4f}" if isinstance(y, float) else str(y)
        lines.append(f"  {x}: {y_text}")
    return "\n".join(lines)

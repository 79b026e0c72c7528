"""Delta certification: decide staleness by proof instead of by token.

A cached :class:`~repro.core.results.DDSResult` does not become worthless
just because the graph changed — it becomes *unproven*.  This module
re-proves cached answers from the delta where a cheap argument exists, and
gives up on the rest:

**Bounds tier** (O(|pair|), no flow).  The old pair's density on the new
graph, ``rho_cand``, is a valid lower bound on the new optimum.  For the
upper bound: a removal-only delta can only lower every pair's density, so
``rho_opt_new <= rho_opt_old``; a delta with ``k`` insertions raises any
pair's edge count by at most ``k`` while ``sqrt(|S||T|) >= 1``, so
``rho_opt_new <= rho_opt_old + k`` (clipped against the new graph's global
degree bound).  When the bracket closes —
``upper - rho_cand <= tolerance`` — the old pair is still optimal and the
entry is **certified** without touching a network.

**Approx-monotone tier** (approximate results only).  A removal-only delta
only lowers the optimum, so an approximation whose pair kept its density
still meets its guarantee.

Anything else is **inconclusive**: the session evicts the entry and
remembers its key, so the next identical query re-searches the new
graph.

**What certification promises.**  A certified entry is a *correct* answer
(optimal for exact methods, guarantee-preserving for approximations) — but
when the optimum is non-unique it may name a different optimal pair than a
cold rebuild would (the old pair against an equally dense new one, or an
approximation whose core shifted).  Callers that need byte-identical
agreement with a cold session disable certification
(``apply_updates(..., certify=False)``), which routes every cached entry
through the re-search path — bit-identical because every search builds its
networks from scratch, exactly as a cold session does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.density import directed_density, global_density_upper_bound
from repro.core.results import DDSResult


@dataclass(frozen=True)
class DeltaCertificate:
    """Outcome of certifying one cached result against an applied delta.

    ``reason`` is one of ``"bounds"`` (bracket closed),
    ``"approx_monotone"`` (approximation guarantee preserved under a
    removal-only delta), or ``"inconclusive"`` (no cheap proof — the entry
    must be re-searched).
    """

    candidate_density: float
    upper_bound: float
    lower_bound: float
    certified: bool
    reason: str


def certify_result(
    graph: Any,
    result: DDSResult,
    *,
    removal_only: bool,
    insertions: int,
    tolerance: float,
) -> DeltaCertificate:
    """Certify one cached result against an (already applied) delta."""
    rho_cand = directed_density(graph, result.s_nodes, result.t_nodes)

    if not result.is_exact:
        # The 2-approximation guarantee is ``density >= rho_opt / ratio``.
        # Removal-only deltas only lower ``rho_opt``; if the pair's own
        # density is intact the inequality still holds.  (No statement is
        # possible once the pair lost edges or edges were inserted.)
        if removal_only and rho_cand >= result.density - 1e-12:
            return DeltaCertificate(
                candidate_density=rho_cand,
                upper_bound=math.inf,
                lower_bound=rho_cand,
                certified=True,
                reason="approx_monotone",
            )
        return DeltaCertificate(
            candidate_density=rho_cand,
            upper_bound=math.inf,
            lower_bound=rho_cand,
            certified=False,
            reason="inconclusive",
        )

    if removal_only:
        upper = result.density
    else:
        upper = min(
            result.density + insertions, global_density_upper_bound(graph)
        )

    certified = upper <= rho_cand + tolerance
    return DeltaCertificate(
        candidate_density=rho_cand,
        upper_bound=upper,
        lower_bound=rho_cand,
        certified=certified,
        reason="bounds" if certified else "inconclusive",
    )

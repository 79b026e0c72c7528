"""Bounded LRU cache of retunable decision networks.

PR 1 made each fixed-ratio search build **one** decision network and
re-parameterise it in place between guesses
(:meth:`~repro.core.flow_network.DecisionNetwork.retune`).  This module
extends the same idea *across* searches: networks are cached by
``(sub-problem state, ratio)`` so that repeated queries against one
:class:`~repro.session.DDSSession` (repeated probes at one ratio,
re-tolerated exact runs) reuse networks built by earlier queries instead of
rebuilding them.

Cached networks are stored **with the residual flow of their last solve**:
entries are retuned, never reset, on the way out, so a warm retune
(:meth:`DecisionNetwork.retune(..., warm_start=True)
<repro.core.flow_network.DecisionNetwork.retune>`) hands the next search
the previous search's feasible flow as its starting point.  This is how
warm residual reuse reaches across queries: via this cache a search
network carries flow from search to search.  Only the network a search
fetches or builds is cached; the narrowed networks its later guesses run
on (see :mod:`repro.core.fixed_ratio`) never enter the cache.

Correctness rests on two facts: a retuned network gives the same cut as a
freshly built one — with its flow kept or reset, pinned by
``tests/test_core_retune.py`` and ``tests/test_warm_start.py`` — and the
cache key embeds :attr:`~repro.graph.digraph.DiGraph.state_token`, which
changes on every structural graph mutation, so a cached network can never
be served for a graph state it was not built from.  A graph edit therefore
leaves nothing servable behind:
:meth:`DDSSession.apply_updates <repro.session.DDSSession.apply_updates>`
clears the cache, and each later ``top_k`` round runs on a fresh cache of
its own.

Stats-key glossary
------------------
This module is the **canonical definition** of the cache-level counters
reported by :meth:`NetworkCache.stats` (and surfaced through
:meth:`DDSSession.cache_stats() <repro.session.DDSSession.cache_stats>`);
the flow-engine counters — ``flow_calls``, ``networks_built``,
``networks_reused``, ``arcs_pushed``, ``warm_starts_used``,
``cold_starts`` ... — are defined once in :mod:`repro.flow.engine`.

``network_cache_entries``
    Number of decision networks currently held (bounded by ``max_entries``).
``network_cache_hits``
    Lookups that returned a cached network (each corresponds to a
    ``networks_reused`` tick on the engine that ran the search).
``network_cache_misses``
    Lookups that found nothing — the search then builds a network
    (``networks_built``) and deposits it.
``network_cache_evictions``
    Entries dropped because the LRU cache was full.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from repro.core.config import DEFAULT_NETWORK_CACHE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.flow_network import DecisionNetwork
    from repro.core.subproblem import STSubproblem


class NetworkCache:
    """LRU map ``(subproblem token, ratio) -> DecisionNetwork``.

    A ``max_entries`` of 0 disables the cache (both lookups and inserts
    become no-ops), which keeps the solvers' control flow uniform.
    """

    __slots__ = ("max_entries", "_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int = DEFAULT_NETWORK_CACHE_SIZE) -> None:
        self.max_entries = max(int(max_entries), 0)
        self._entries: OrderedDict[tuple[Any, float], "DecisionNetwork"] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(subproblem: "STSubproblem", ratio: float) -> tuple[Any, float]:
        return (subproblem.cache_token(), float(ratio))

    def get(self, subproblem: "STSubproblem", ratio: float) -> "DecisionNetwork | None":
        """The cached network for ``(subproblem, ratio)``, or ``None``.

        A hit marks the entry most-recently-used.  The returned network still
        carries the residual state of its last solve; callers must
        :meth:`~repro.core.flow_network.DecisionNetwork.retune` before use
        (the fixed-ratio search loop always does, with ``warm_start=True``),
        which turns that leftover state into the next solve's head start
        instead of discarding it.
        """
        if self.max_entries == 0:
            return None
        key = self._key(subproblem, ratio)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, subproblem: "STSubproblem", ratio: float, network: "DecisionNetwork") -> None:
        """Insert (or refresh) a network, evicting the LRU entry when full."""
        if self.max_entries == 0:
            return
        key = self._key(subproblem, ratio)
        self._entries[key] = network
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached network (counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters for instrumentation and the session's ``cache_stats()``."""
        return {
            "network_cache_entries": len(self._entries),
            "network_cache_hits": self.hits,
            "network_cache_misses": self.misses,
            "network_cache_evictions": self.evictions,
        }

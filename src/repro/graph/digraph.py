"""A simple, unweighted, directed graph with label/index duality.

Design notes
------------
The densest-subgraph algorithms in :mod:`repro.core` spend essentially all of
their time iterating adjacency lists of induced subgraphs, so the class keeps
two representations:

* a *label* view for users (any hashable node identifiers, insertion order
  preserved), and
* an *index* view for algorithms (nodes ``0..n-1``, adjacency as
  ``list[list[int]]``), built lazily and cached.

The graph is **simple**: parallel edges are collapsed and self-loops are kept
only if explicitly allowed (the DDS density definition permits self-loops,
because a vertex may belong to both ``S`` and ``T``; the paper's datasets are
simple graphs, so loops are dropped by default but can be retained).
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import count
from typing import Hashable, Iterable, Iterator, Sequence

from repro.exceptions import GraphError

NodeLabel = Hashable

#: Process-wide monotone counter backing :attr:`DiGraph.state_token`.  Every
#: construction and every structural mutation draws a fresh value, so a token
#: uniquely identifies one (graph instance, structural state) pair — even
#: after an instance is garbage collected and its ``id()`` recycled.
_STATE_TOKENS = count(1)


class DiGraph:
    """An unweighted simple directed graph.

    Parameters
    ----------
    allow_self_loops:
        When ``False`` (default) edges of the form ``(u, u)`` are silently
        dropped, matching the data model of the paper's datasets.

    Examples
    --------
    >>> g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    >>> g.num_nodes, g.num_edges
    (3, 3)
    >>> sorted(g.successors("a"))
    ['b', 'c']
    """

    __slots__ = (
        "_allow_self_loops",
        "_labels",
        "_index_of",
        "_out_sets",
        "_in_sets",
        "_num_edges",
        "_out_adj_cache",
        "_in_adj_cache",
        "_state_token",
        "_fingerprint_cache",
        # Lets a store remember what it verified for a graph only while the
        # graph lives (repro.service.store.SessionStore).
        "__weakref__",
    )

    def __init__(self, allow_self_loops: bool = False) -> None:
        self._allow_self_loops = bool(allow_self_loops)
        self._labels: list[NodeLabel] = []
        self._index_of: dict[NodeLabel, int] = {}
        self._out_sets: list[set[int]] = []
        self._in_sets: list[set[int]] = []
        self._num_edges = 0
        self._out_adj_cache: list[list[int]] | None = None
        self._in_adj_cache: list[list[int]] | None = None
        self._state_token = next(_STATE_TOKENS)
        self._fingerprint_cache: tuple[int, str] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeLabel, NodeLabel]],
        nodes: Iterable[NodeLabel] | None = None,
        allow_self_loops: bool = False,
    ) -> "DiGraph":
        """Build a graph from an iterable of ``(source, target)`` pairs.

        ``nodes`` may list additional isolated nodes (or fix the node order).
        """
        graph = cls(allow_self_loops=allow_self_loops)
        if nodes is not None:
            for node in nodes:
                graph.add_node(node)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_csr_arrays(
        cls,
        labels: Sequence[NodeLabel],
        starts: Sequence[int],
        targets: Sequence[int],
        *,
        allow_self_loops: bool = False,
    ) -> "DiGraph":
        """Rebuild a graph from flat CSR arrays in one pass.

        The bulk counterpart of :meth:`from_edges` for hydrating a graph
        from an already-serialised adjacency — row ``i`` of the
        out-adjacency is ``targets[starts[i]:starts[i + 1]]``, the form
        :meth:`csr_arrays` writes.  The arrays are only *read* (any int
        sequence works: the lists of a wire document or the flat int64
        arrays a pickled graph carries — see :meth:`__reduce__`), and node
        order follows ``labels``, so a graph round-tripped through its CSR
        keeps its label-to-index mapping and therefore its
        :meth:`content_fingerprint`.  Malformed input (non-monotone row
        starts, out-of-range targets, duplicate labels or edges, or a
        self-loop under ``allow_self_loops=False``) raises
        :class:`~repro.exceptions.GraphError`.
        """
        graph = cls(allow_self_loops=allow_self_loops)
        n = len(labels)
        if len(starts) != n + 1 or starts[0] != 0 or starts[n] != len(targets):
            raise GraphError(
                f"CSR starts must have {n + 1} monotone entries covering "
                f"{len(targets)} targets"
            )
        graph._labels = list(labels)
        graph._index_of = {label: index for index, label in enumerate(graph._labels)}
        if len(graph._index_of) != n:
            raise GraphError("CSR labels contain duplicates")
        out_sets: list[set[int]] = []
        in_sets: list[set[int]] = [set() for _ in range(n)]
        num_edges = 0
        for ui in range(n):
            lo, hi = starts[ui], starts[ui + 1]
            if hi < lo:
                raise GraphError(f"CSR starts decrease at row {ui}")
            row = set(targets[lo:hi])
            if len(row) != hi - lo:
                raise GraphError(f"CSR row {ui} contains duplicate targets")
            if ui in row and not allow_self_loops:
                raise GraphError(f"CSR row {ui} holds a self-loop but loops are disabled")
            out_sets.append(row)
            num_edges += len(row)
            for vi in row:
                if not 0 <= vi < n:
                    raise GraphError(f"CSR target {vi} out of range [0, {n})")
                in_sets[vi].add(ui)
        graph._out_sets = out_sets
        graph._in_sets = in_sets
        graph._num_edges = num_edges
        return graph

    def add_node(self, label: NodeLabel) -> int:
        """Add a node (no-op if present) and return its internal index."""
        index = self._index_of.get(label)
        if index is not None:
            return index
        index = len(self._labels)
        self._labels.append(label)
        self._index_of[label] = index
        self._out_sets.append(set())
        self._in_sets.append(set())
        self._invalidate_cache()
        return index

    def add_edge(self, u: NodeLabel, v: NodeLabel) -> bool:
        """Add the directed edge ``u -> v``.

        Returns ``True`` if the edge was new, ``False`` if it already existed
        or was a rejected self-loop.
        """
        ui = self.add_node(u)
        vi = self.add_node(v)
        if ui == vi and not self._allow_self_loops:
            return False
        if vi in self._out_sets[ui]:
            return False
        self._out_sets[ui].add(vi)
        self._in_sets[vi].add(ui)
        self._num_edges += 1
        self._invalidate_cache()
        return True

    def remove_edge(self, u: NodeLabel, v: NodeLabel) -> None:
        """Remove the directed edge ``u -> v`` (raises if absent)."""
        ui = self._require_index(u)
        vi = self._require_index(v)
        if vi not in self._out_sets[ui]:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist")
        self._out_sets[ui].discard(vi)
        self._in_sets[vi].discard(ui)
        self._num_edges -= 1
        self._invalidate_cache()

    def copy(self) -> "DiGraph":
        """Return a deep copy of this graph (labels shared, structure copied)."""
        clone = DiGraph(allow_self_loops=self._allow_self_loops)
        clone._labels = list(self._labels)
        clone._index_of = dict(self._index_of)
        clone._out_sets = [set(adj) for adj in self._out_sets]
        clone._in_sets = [set(adj) for adj in self._in_sets]
        clone._num_edges = self._num_edges
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == self._state_token:
            # The clone has identical content, so the digest carries over
            # (under the clone's own state token — tokens are never shared).
            clone._fingerprint_cache = (clone._state_token, cached[1])
        return clone

    def remove_node(self, label: NodeLabel) -> None:
        """Remove a node and all its incident edges (raises if absent).

        Later nodes shift down by one internal index, exactly as if the graph
        had been rebuilt without ``label``; all caches (adjacency, state
        token, fingerprint) are invalidated, matching :meth:`remove_edge`.
        """
        index = self._require_index(label)
        removed = len(self._out_sets[index]) + len(self._in_sets[index])
        if index in self._out_sets[index]:
            removed -= 1  # a self-loop sits in both sets but counts once
        self._num_edges -= removed
        for vi in self._out_sets[index]:
            self._in_sets[vi].discard(index)
        for ui in self._in_sets[index]:
            self._out_sets[ui].discard(index)
        del self._labels[index]
        del self._out_sets[index]
        del self._in_sets[index]
        self._index_of = {lab: i for i, lab in enumerate(self._labels)}
        shift = lambda s: {v - 1 if v > index else v for v in s}  # noqa: E731
        self._out_sets = [shift(s) for s in self._out_sets]
        self._in_sets = [shift(s) for s in self._in_sets]
        self._invalidate_cache()

    def apply_delta(
        self,
        added: Iterable[tuple[NodeLabel, NodeLabel]] = (),
        removed: Iterable[tuple[NodeLabel, NodeLabel]] = (),
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Apply a batch of edge updates with a *single* state-token bump.

        Removals are applied first (each must exist, like
        :meth:`remove_edge`), then additions (duplicates and rejected
        self-loops are skipped, like :meth:`add_edge`; unknown endpoint
        labels are appended as new nodes).  Unlike a loop of single-edge
        mutations, the adjacency caches are patched in place for the touched
        rows only, and the state token changes exactly once — so downstream
        caches see one delta, not one invalidation per edge.

        Returns the *effective* ``(added, removed)`` edge lists as internal
        index pairs (indices are stable: nodes are only ever appended).
        """
        removed_pairs: list[tuple[int, int]] = []
        for u, v in removed:
            ui = self._require_index(u)
            vi = self._require_index(v)
            if vi not in self._out_sets[ui]:
                raise GraphError(f"edge {u!r} -> {v!r} does not exist")
            self._out_sets[ui].discard(vi)
            self._in_sets[vi].discard(ui)
            self._num_edges -= 1
            removed_pairs.append((ui, vi))

        added_pairs: list[tuple[int, int]] = []
        nodes_before = len(self._labels)
        for u, v in added:
            ui = self._delta_node(u)
            vi = self._delta_node(v)
            if ui == vi and not self._allow_self_loops:
                continue
            if vi in self._out_sets[ui]:
                continue
            self._out_sets[ui].add(vi)
            self._in_sets[vi].add(ui)
            self._num_edges += 1
            added_pairs.append((ui, vi))

        if self._out_adj_cache is not None:
            for ui in {p[0] for p in added_pairs} | {p[0] for p in removed_pairs}:
                self._out_adj_cache[ui] = sorted(self._out_sets[ui])
        if self._in_adj_cache is not None:
            for vi in {p[1] for p in added_pairs} | {p[1] for p in removed_pairs}:
                self._in_adj_cache[vi] = sorted(self._in_sets[vi])
        if added_pairs or removed_pairs or len(self._labels) != nodes_before:
            self._fingerprint_cache = None
            self._state_token = next(_STATE_TOKENS)
        return added_pairs, removed_pairs

    def _delta_node(self, label: NodeLabel) -> int:
        """``add_node`` without the cache invalidation (``apply_delta`` only)."""
        index = self._index_of.get(label)
        if index is not None:
            return index
        index = len(self._labels)
        self._labels.append(label)
        self._index_of[label] = index
        self._out_sets.append(set())
        self._in_sets.append(set())
        if self._out_adj_cache is not None:
            self._out_adj_cache.append([])
        if self._in_adj_cache is not None:
            self._in_adj_cache.append([])
        return index

    # ------------------------------------------------------------------
    # basic queries (label view)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._num_edges

    @property
    def allow_self_loops(self) -> bool:
        """Whether self-loops are stored."""
        return self._allow_self_loops

    @property
    def state_token(self) -> int:
        """Opaque token identifying this graph's current structural state.

        The token changes on every node/edge addition or removal and is never
        shared between two distinct graph instances (or two states of the same
        instance), which makes it a safe cache key for derived state: a
        :class:`~repro.session.DDSSession` compares it to notice a graph
        mutated behind its back, and the content fingerprint is cached
        under it.
        """
        return self._state_token

    def content_fingerprint(self) -> str:
        """Stable hex digest of this graph's structural content.

        Unlike :attr:`state_token` — a process-local counter that never
        repeats across runs — the fingerprint depends only on the graph's
        content: the self-loop policy, the node labels in insertion order,
        and the edge set.  Two graphs built the same way in different
        processes share a fingerprint, which makes it the durable analogue
        of the state token and the key of the on-disk session store
        (:mod:`repro.service.store`).  Node *order* is deliberately part of
        the digest: algorithms break ties by internal index, so cached
        answers are only guaranteed to match byte-for-byte when the
        label-to-index mapping matches too.

        Computed in O(n + m log d) and cached per structural state.
        """
        cached = self._fingerprint_cache
        if cached is not None and cached[0] == self._state_token:
            return cached[1]
        hasher = hashlib.sha256()
        hasher.update(b"digraph/v1;loops=1;" if self._allow_self_loops else b"digraph/v1;loops=0;")
        for label in self._labels:
            encoded = f"{type(label).__name__}:{label!r}"
            hasher.update(b"\x00n\x00")
            hasher.update(encoded.encode("utf-8", "backslashreplace"))
        for ui, targets in enumerate(self._out_sets):
            for vi in sorted(targets):
                hasher.update(b"\x00e\x00%d>%d" % (ui, vi))
        digest = hasher.hexdigest()
        self._fingerprint_cache = (self._state_token, digest)
        return digest

    def nodes(self) -> list[NodeLabel]:
        """All node labels in insertion order."""
        return list(self._labels)

    def edges(self) -> Iterator[tuple[NodeLabel, NodeLabel]]:
        """Iterate over ``(source, target)`` label pairs."""
        for ui, targets in enumerate(self._out_sets):
            u = self._labels[ui]
            for vi in targets:
                yield (u, self._labels[vi])

    def has_node(self, label: NodeLabel) -> bool:
        """Whether ``label`` is a node of this graph."""
        return label in self._index_of

    def has_edge(self, u: NodeLabel, v: NodeLabel) -> bool:
        """Whether the directed edge ``u -> v`` exists."""
        ui = self._index_of.get(u)
        vi = self._index_of.get(v)
        if ui is None or vi is None:
            return False
        return vi in self._out_sets[ui]

    def successors(self, label: NodeLabel) -> list[NodeLabel]:
        """Out-neighbours of ``label`` (as labels)."""
        ui = self._require_index(label)
        return [self._labels[vi] for vi in self._out_sets[ui]]

    def predecessors(self, label: NodeLabel) -> list[NodeLabel]:
        """In-neighbours of ``label`` (as labels)."""
        vi = self._require_index(label)
        return [self._labels[ui] for ui in self._in_sets[vi]]

    def out_degree(self, label: NodeLabel) -> int:
        """Out-degree of ``label``."""
        return len(self._out_sets[self._require_index(label)])

    def in_degree(self, label: NodeLabel) -> int:
        """In-degree of ``label``."""
        return len(self._in_sets[self._require_index(label)])

    # ------------------------------------------------------------------
    # index view (used by algorithms)
    # ------------------------------------------------------------------
    def index_of(self, label: NodeLabel) -> int:
        """Internal index of ``label`` (raises :class:`GraphError` if absent)."""
        return self._require_index(label)

    def label_of(self, index: int) -> NodeLabel:
        """Label of internal node ``index``."""
        return self._labels[index]

    def labels_of(self, indices: Iterable[int]) -> list[NodeLabel]:
        """Labels of a sequence of internal indices, preserving order."""
        return [self._labels[i] for i in indices]

    def indices_of(self, labels: Iterable[NodeLabel]) -> list[int]:
        """Internal indices of a sequence of labels, preserving order."""
        return [self._require_index(label) for label in labels]

    @property
    def out_adj(self) -> list[list[int]]:
        """Out-adjacency lists indexed by internal node index (cached)."""
        if self._out_adj_cache is None:
            self._out_adj_cache = [sorted(adj) for adj in self._out_sets]
        return self._out_adj_cache

    @property
    def in_adj(self) -> list[list[int]]:
        """In-adjacency lists indexed by internal node index (cached)."""
        if self._in_adj_cache is None:
            self._in_adj_cache = [sorted(adj) for adj in self._in_sets]
        return self._in_adj_cache

    def out_degrees(self) -> list[int]:
        """Out-degrees indexed by internal node index."""
        return [len(adj) for adj in self._out_sets]

    def in_degrees(self) -> list[int]:
        """In-degrees indexed by internal node index."""
        return [len(adj) for adj in self._in_sets]

    def max_out_degree(self) -> int:
        """Maximum out-degree (0 for an empty graph)."""
        return max((len(adj) for adj in self._out_sets), default=0)

    def max_in_degree(self) -> int:
        """Maximum in-degree (0 for an empty graph)."""
        return max((len(adj) for adj in self._in_sets), default=0)

    def edge_indices(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(source_index, target_index)`` pairs."""
        for ui, targets in enumerate(self._out_sets):
            for vi in targets:
                yield (ui, vi)

    def csr_arrays(self) -> tuple[list[int], list[int]]:
        """The out-adjacency as flat CSR lists ``(starts, targets)``.

        Row ``i`` (node index ``i``) is ``targets[starts[i]:starts[i + 1]]``,
        in no particular order within a row; :meth:`from_csr_arrays` reads
        the pair back, with :meth:`nodes` as its labels.
        """
        starts = [0]
        targets: list[int] = []
        for row in self._out_sets:
            targets.extend(row)
            starts.append(len(targets))
        return starts, targets

    # ------------------------------------------------------------------
    # subgraph extraction
    # ------------------------------------------------------------------
    def count_edges_between(self, sources: Sequence[int], targets: Sequence[int]) -> int:
        """Number of edges from index-set ``sources`` into index-set ``targets``.

        This is ``|E(S, T)|`` in the paper's notation and is the quantity the
        Kannan–Vinay density is built from.  A source listed twice counts its
        edges twice.
        """
        target_set = set(targets)
        out_sets = self._out_sets
        return sum([len(out_sets[ui] & target_set) for ui in sources])

    def edges_between(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> list[tuple[int, int]]:
        """All edges (as index pairs) from ``sources`` into ``targets``."""
        target_set = set(targets)
        found: list[tuple[int, int]] = []
        for ui in sources:
            for vi in self._out_sets[ui]:
                if vi in target_set:
                    found.append((ui, vi))
        return found

    def subgraph(self, labels: Iterable[NodeLabel]) -> "DiGraph":
        """Node-induced subgraph on ``labels`` (keeps isolated nodes)."""
        keep = [self._require_index(label) for label in labels]
        keep_set = set(keep)
        sub = DiGraph(allow_self_loops=self._allow_self_loops)
        for index in keep:
            sub.add_node(self._labels[index])
        for ui in keep:
            for vi in self._out_sets[ui]:
                if vi in keep_set:
                    sub.add_edge(self._labels[ui], self._labels[vi])
        return sub

    def reverse(self) -> "DiGraph":
        """Graph with every edge direction flipped."""
        rev = DiGraph(allow_self_loops=self._allow_self_loops)
        for label in self._labels:
            rev.add_node(label)
        for ui, vi in self.edge_indices():
            rev.add_edge(self._labels[vi], self._labels[ui])
        return rev

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __contains__(self, label: NodeLabel) -> bool:
        return label in self._index_of

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self.num_nodes}, m={self.num_edges})"

    def __reduce__(self) -> tuple:
        """Pickle as flat CSR: labels, int64 row starts and targets, loop policy.

        Unpickling rebuilds the graph through :meth:`from_csr_arrays`, so
        it draws a fresh :attr:`state_token` from the receiving process's
        counter — a copied slot would carry the sender's token into a
        process whose own counter can hand that value to another graph —
        and computes its :meth:`content_fingerprint` anew rather than
        trusting a cached one.
        """
        starts, targets = self.csr_arrays()
        return (
            _from_pickled_csr,
            (self._labels, array("q", starts), array("q", targets), self._allow_self_loops),
        )

    def _require_index(self, label: NodeLabel) -> int:
        index = self._index_of.get(label)
        if index is None:
            raise GraphError(f"node {label!r} is not in the graph")
        return index

    def _invalidate_cache(self) -> None:
        self._out_adj_cache = None
        self._in_adj_cache = None
        self._state_token = next(_STATE_TOKENS)


def _from_pickled_csr(
    labels: list[NodeLabel], starts: array, targets: array, allow_self_loops: bool
) -> DiGraph:
    """Unpickle a :class:`DiGraph` (the reconstructor :meth:`DiGraph.__reduce__` names)."""
    return DiGraph.from_csr_arrays(labels, starts, targets, allow_self_loops=allow_self_loops)

"""Block-diagonal stacking of many small flow networks into one batched solve.

The vectorised backend (:mod:`repro.flow.numpy_backend`) pays a fixed
per-call cost for each bulk array operation; one small network cannot fill
the vector width, which is why it loses to dinic below
:data:`~repro.flow.registry.AUTO_ARC_THRESHOLD` stored arcs and the ``"auto"``
policy only picks it above.  The exact DDS
algorithms, however, never solve one small network in isolation — they solve
*families* of closely related ones (the fixed-ratio guess sequences of the
DC driver and ``flow_exact``).  This module stacks such a family
block-diagonally:

* every member network's arc buffers are copied verbatim (twins stay
  interleaved) into one big :class:`~repro.flow.network.FlowNetwork` at a
  per-member node offset, so blocks occupy disjoint node ranges and share
  no arcs;
* a supersource ``S*`` and supersink ``T*`` are appended with one terminal
  arc per member — ``S* -> s_i`` bounded by the total base capacity leaving
  ``s_i`` and ``t_i -> T*`` bounded by the total base capacity entering
  ``t_i`` (both finite, so the backend's budgeted flood keeps working);
  neither bound can constrain the block's max flow, so each block's min cut
  is unchanged;
* one solver run then drives *all* blocks through the same bulk-synchronous
  supersteps — shared height/excess/active arrays, B× the vector width —
  and each block's answer scatters back to its owner: the block's flow
  value is read off the ``t_i -> T*`` residual twin, and the block's
  canonical min-cut source side is the solver's residual-reachability mask
  restricted to the block's node range.  Blocks are independent (no arc
  crosses a block boundary, and a block is entered only through its own
  terminal arc), so the per-block cut is the same canonical cut a solo
  solve certifies — bit-identical by the usual invariance argument.

Members stay canonical throughout: :meth:`gather` copies their *current*
residual capacities into the big network before a solve (so in-place
retunes between solves are picked up, start flows included — the terminal
twins are seeded with each member's current flow value, making the stacked
state a valid flow the backend continues from), and
:meth:`scatter` copies the solved residual state back, so a member can
leave the batch at any time (e.g. its fixed-ratio search converged) and later be
solved sequentially.  Converged members are
masked by zeroing both of their terminal arcs' forward residuals: the block
keeps its flow but cannot receive or route anything, and drops out of the
residual reachability the other blocks' cuts are read from.

This module imports numpy at module scope on purpose, exactly like
:mod:`repro.flow.numpy_backend`: callers are import-guarded through
:func:`repro.flow.registry.batch_eligible`, which is ``False`` when the
vectorised backend is not registered.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork


class BatchedFlowNetwork:
    """Several ``(network, source, sink)`` members stacked block-diagonally.

    The member networks must be s-t shaped (no forward arc enters the
    source or leaves the sink — true of every DDS decision network) and
    their topology must not change for the lifetime of the batch; their
    capacities may be retuned freely between :meth:`gather` calls.
    """

    __slots__ = (
        "network",
        "source",
        "sink",
        "num_members",
        "arc_owner",
        "_members",
        "_node_offsets",
        "_arc_offsets",
        "_member_arc_counts",
        "_member_node_counts",
        "_src_terminals",
        "_sink_terminals",
        "_src_fwd",
        "_src_rev",
        "_sink_in",
    )

    def __init__(self, members: list[tuple[FlowNetwork, int, int]]) -> None:
        if len(members) < 2:
            raise FlowError("a batched network needs at least two members")
        self._members = list(members)
        self.num_members = len(self._members)
        self._node_offsets: list[int] = []
        self._arc_offsets: list[int] = []
        self._member_arc_counts: list[int] = []
        self._member_node_counts: list[int] = []
        self._src_fwd: list[np.ndarray] = []
        self._src_rev: list[np.ndarray] = []
        self._sink_in: list[np.ndarray] = []

        total_nodes = 0
        for network, source, sink in self._members:
            network._check_node(source)
            network._check_node(sink)
            if source == sink:
                raise FlowError("member source and sink must differ")
            self._node_offsets.append(total_nodes)
            self._member_node_counts.append(network.num_nodes)
            self._member_arc_counts.append(network.num_arcs)
            total_nodes += network.num_nodes

        self.source = total_nodes
        self.sink = total_nodes + 1
        big = FlowNetwork(total_nodes + 2)
        owners: list[np.ndarray] = []
        for index, (network, source, sink) in enumerate(self._members):
            _, _, targets, caps, tails, base = network.numpy_csr()
            arcs = np.arange(network.num_arcs, dtype=np.int64)
            even = arcs[(arcs & 1) == 0]
            src_fwd = even[tails[even] == source]
            sink_in = even[targets[even] == sink]
            # Residual twins whose *tail* is the source are flow on forward
            # arcs into the source — forbidden s-t shape, as is a forward
            # arc leaving the sink: either would let flow bypass the
            # terminal-arc bookkeeping below.
            if (even[targets[even] == source]).size or (even[tails[even] == sink]).size:
                raise FlowError(
                    "batched members must be s-t networks: no forward arc may "
                    "enter the source or leave the sink"
                )
            odd = arcs[(arcs & 1) == 1]
            src_rev = odd[tails[odd] == source]
            self._src_fwd.append(src_fwd)
            self._src_rev.append(src_rev)
            self._sink_in.append(sink_in)
            offset = self._node_offsets[index]
            self._arc_offsets.append(big.num_arcs)
            big.append_paired_arcs(tails + offset, targets + offset, caps, base)
            owners.append(np.full(network.num_arcs, index, dtype=np.int64))

        self._src_terminals: list[int] = []
        self._sink_terminals: list[int] = []
        for index, (network, source, sink) in enumerate(self._members):
            offset = self._node_offsets[index]
            self._src_terminals.append(big.add_edge(self.source, offset + source, 0.0))
            self._sink_terminals.append(big.add_edge(offset + sink, self.sink, 0.0))
            owners.append(np.full(4, index, dtype=np.int64))
        self.network = big
        self.arc_owner = np.concatenate(owners)

    # ------------------------------------------------------------------
    @property
    def member_arc_counts(self) -> list[int]:
        """Stored arc count of every member (the aggregate-policy input)."""
        return list(self._member_arc_counts)

    def member_flow_value(self, index: int) -> float:
        """Current flow value of member ``index`` read from its residual state."""
        network, source, _ = self._members[index]
        _, _, _, caps, _, _ = network.numpy_csr()
        forward = float(caps[self._src_fwd[index] + 1].sum())
        backward = float(caps[self._src_rev[index]].sum())
        return forward - backward

    # ------------------------------------------------------------------
    def gather(self, active: list[int]) -> None:
        """Load every active member's residual state into the big network.

        Active members get their block's capacities refreshed from the
        member buffers (picking up retunes) and their terminal arcs re-bounded
        against the member's *current* base capacities with the member's
        current flow value seeded on the twins — so the stacked state is a
        valid flow of exactly the members' total value.  Every other member
        is masked: its terminal forward residuals are zeroed (its flow, held
        on the twins, stays in place so the stacked flow remains valid).
        """
        _, _, _, big_caps, _, big_base = self.network.numpy_csr()
        is_active = [False] * self.num_members
        for index in active:
            is_active[index] = True
        for index in range(self.num_members):
            src_term = self._src_terminals[index]
            sink_term = self._sink_terminals[index]
            if not is_active[index]:
                big_caps[src_term] = 0.0
                big_caps[sink_term] = 0.0
                continue
            network, _, _ = self._members[index]
            _, _, _, caps_m, _, base_m = network.numpy_csr()
            start = self._arc_offsets[index]
            stop = start + self._member_arc_counts[index]
            big_caps[start:stop] = caps_m
            big_base[start:stop] = base_m
            flow = self.member_flow_value(index)
            src_bound = float(base_m[self._src_fwd[index]].sum())
            sink_bound = float(base_m[self._sink_in[index]].sum())
            big_base[src_term] = src_bound
            big_base[sink_term] = sink_bound
            big_caps[src_term] = max(src_bound - flow, 0.0)
            big_caps[src_term + 1] = flow
            big_caps[sink_term] = max(sink_bound - flow, 0.0)
            big_caps[sink_term + 1] = flow

    def scatter(self, active: list[int]) -> None:
        """Copy the solved residual state of every active block back to its owner."""
        _, _, _, big_caps, _, _ = self.network.numpy_csr()
        for index in active:
            network, _, _ = self._members[index]
            _, _, _, caps_m, _, _ = network.numpy_csr()
            start = self._arc_offsets[index]
            stop = start + self._member_arc_counts[index]
            caps_m[:] = big_caps[start:stop]

    # ------------------------------------------------------------------
    def block_flow_value(self, index: int) -> float:
        """Flow value of block ``index`` after a solve: the ``t_i -> T*`` twin."""
        _, _, _, big_caps, _, _ = self.network.numpy_csr()
        return float(big_caps[self._sink_terminals[index] + 1])

    def block_cut(self, source_side: list[int], index: int) -> list[int]:
        """Member-local min-cut source side of block ``index``.

        ``source_side`` is the big network's canonical cut (ascending node
        list, as returned by ``min_cut_source_side``); the block's share is
        the slice inside its node range, shifted back to member-local
        indices — ascending, exactly like a solo solve's.
        """
        seen = np.asarray(source_side, dtype=np.int64)
        offset = self._node_offsets[index]
        lo, hi = np.searchsorted(
            seen, [offset, offset + self._member_node_counts[index]]
        )
        return (seen[lo:hi] - offset).tolist()

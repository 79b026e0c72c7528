"""Workload definitions: graph families, request lists and the serve mix.

Every graph is generated from the run's ``--seed`` with
:mod:`repro.graph.generators`, using the families and parameters of the
dataset registry's tiers (``repro.datasets.registry``).  Sizes are scaled
down where the registry's would not fit a run (noted next to each family),
and the power-law families deal their weights at fixed quantiles (see
:func:`_powerlaw`).  A different seed gives fresh graphs of the same shapes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    chung_lu_digraph,
    gnm_random_digraph,
    planted_dds_digraph,
)


def _planted(n_background: int, degree: float, s: int, t: int, p: float, seed: int) -> DiGraph:
    graph, _, _ = planted_dds_digraph(n_background, degree, s, t, p, seed=seed)
    return graph


def _powerlaw(n: int, average_degree: float, exponent: float, seed: int) -> DiGraph:
    """``powerlaw_digraph``'s Chung–Lu model with the Pareto weights at fixed quantiles.

    ``powerlaw_digraph`` samples its weights, so the heaviest node's expected
    degree, and with it the cost of peeling, swings several-fold from seed
    to seed.  Here the weights are the Pareto quantiles, dealt to the nodes
    in a seeded order: the seed picks which nodes are heavy and which edges
    appear, not how heavy the tail is.
    """
    rng = random.Random(seed)
    base = [(1.0 - (i + 0.5) / n) ** (-1.0 / (exponent - 1.0)) for i in range(n)]
    scale = n * average_degree / sum(base)
    out_weights = [w * scale for w in base]
    in_weights = list(out_weights)
    rng.shuffle(out_weights)
    rng.shuffle(in_weights)
    return chung_lu_digraph(out_weights, in_weights, seed=rng)


#: Graph family name -> builder taking an integer generator seed.  Names and
#: parameters follow the registry entries they imitate; sizes that differ
#: from the registry's are noted.
FAMILIES: dict[str, Callable[[int], DiGraph]] = {
    # small tier.  foodweb has 23 nodes (39 in the registry): flow-exact's
    # quadratic ratio count makes it 1 s a request instead of 4 s.
    "foodweb-tiny": lambda seed: _planted(14, 1.5, 4, 5, 0.95, seed),
    "social-tiny": lambda seed: _powerlaw(40, 3.0, 2.3, seed),
    "flights-small": lambda seed: _powerlaw(150, 5.0, 2.3, seed),
    "advogato-small": lambda seed: _planted(200, 3.0, 8, 12, 0.8, seed),
    "er-small": lambda seed: gnm_random_digraph(150, 900, seed=seed),
    # medium tier: a sixth to a half of the registry's node counts, same
    # degrees; most solves still go to the numpy backend.
    "er-medium": lambda seed: gnm_random_digraph(250, 1500, seed=seed),
    "amazon-medium": lambda seed: _powerlaw(350, 5.0, 2.4, seed),
    "wiki-talk-medium": lambda seed: _powerlaw(400, 4.0, 2.1, seed),
    "planted-medium": lambda seed: _planted(750, 4.0, 15, 25, 0.7, seed),
    # oracle tier: small enough for brute force.
    "brute-tiny": lambda seed: _planted(4, 1.5, 2, 3, 0.95, seed),
}


def graph_seed(seed: int, *parts: object) -> int:
    """A generator seed derived from the run seed and a name (process-stable)."""
    return random.Random(":".join([str(seed), *map(str, parts)])).getrandbits(48)


def make_graph(seed: int, family: str, copy: int = 0) -> DiGraph:
    return FAMILIES[family](graph_seed(seed, family, copy))


@dataclass(frozen=True)
class Item:
    """``copies`` graphs of one family, each asked every method in turn."""

    family: str
    copies: int
    methods: tuple[str, ...]


@dataclass(frozen=True)
class InProcessSpec:
    """A workload of fresh-session requests plus a short write stream per pass."""

    name: str
    items: tuple[Item, ...]
    #: (family, methods): the family of the graphs writes are applied to and
    #: the methods re-answered after each.
    write: tuple[str, tuple[str, ...]]
    #: Write graphs, each with its own primed session; writes go to them in turn.
    write_graphs: int = 3
    #: Edges changed by one write (half added, half removed on average).
    write_batch: int = 4
    #: Writes per pass.
    writes: int = 9


EXACT = ("dc-exact", "core-exact")
APPROX = ("core-approx", "inc-approx", "peel-approx")

IN_PROCESS: dict[str, InProcessSpec] = {
    # Small and medium tiers in one workload: the auto policy sends the small
    # networks to dinic or to batched numpy solves and the medium ones to the
    # numpy backend, so moving its threshold shows up here as a net change.
    # Two graphs of every family: one graph's solve cost swings by a quarter
    # from seed to seed, and with one graph each the latency quantiles of
    # the 19 calls sat on one or two of them.
    "exact": InProcessSpec(
        name="exact",
        items=(
            Item("foodweb-tiny", 2, ("flow-exact", *EXACT)),
            Item("social-tiny", 2, EXACT),
            Item("flights-small", 2, EXACT),
            Item("advogato-small", 2, EXACT),
            Item("er-small", 2, EXACT),
            Item("er-medium", 2, EXACT),
            Item("amazon-medium", 2, EXACT),
            Item("wiki-talk-medium", 2, EXACT),
            Item("planted-medium", 2, EXACT),
        ),
        write=("advogato-small", EXACT),
    ),
}


@dataclass(frozen=True)
class ServeSpec:
    """The serving mix: Zipf reads over a graph set, periodic writes."""

    name: str = "serve-mixed"
    #: Read graph families, hottest first; each has ``copies`` graphs per daemon.
    read_families: tuple[str, ...] = ("advogato-small", "flights-small", "social-tiny")
    copies: int = 2
    zipf_exponent: float = 1.1
    write_family: str = "advogato-small"
    #: Write graphs, each with its own session; writes go to them in turn.
    write_graphs: int = 3
    write_batch: int = 6
    #: Every ``write_every``-th step is a write.
    write_every: int = 10
    #: Steps in the block every pass replays.
    pass_steps: int = 90
    daemons: int = 2
    #: Resident sessions per daemon; below the 6 graphs each daemon owns.
    max_sessions: int = 2
    daemon_workers: int = 2
    #: A lane budget that never fires, so every deadline check runs.
    deadline_ms: float = 600_000.0


SERVE = ServeSpec()

WORKLOADS = (*IN_PROCESS, SERVE.name)


#: The query kinds a read mixes, two at a time (see :func:`read_menu`).
MENU_PAIRS = tuple(itertools.combinations(range(5), 2))


def read_menu(rng: random.Random, index: int) -> list[dict]:
    """Read number ``index``: two query kinds, cycling through all ten pairs.

    The pair cycle is the same for every seed, so every seed sends the same
    mix; the seed draws the fixed-ratio probe and the [x, y]-core asked for.
    """
    menu = [
        {"query": "densest", "method": "core-approx", "show_nodes": True},
        {"query": "densest", "method": "core-exact", "flow_solver": "auto", "show_nodes": True},
        {"query": "fixed-ratio", "ratio": rng.choice((0.5, 1.0, 2.0))},
        {"query": "xy-core", "x": rng.randint(1, 3), "y": rng.randint(1, 3)},
        {"query": "top-k", "k": 2, "method": "core-approx"},
    ]
    return [menu[kind] for kind in MENU_PAIRS[index % len(MENU_PAIRS)]]


def zipf_schedule(keys: list[str], exponent: float, count: int) -> list[str]:
    """``count`` picks of ``keys`` in Zipf proportion, in a fixed interleaving.

    Stride scheduling: each pick goes to the key furthest behind its share.
    Every seed therefore sends the same traffic pattern, so cache hits and
    evictions do not swing with the draw; the seed changes the graphs.
    """
    weights = [1.0 / (rank**exponent) for rank in range(1, len(keys) + 1)]
    total = sum(weights)
    served = [0] * len(keys)
    picks = []
    for step in range(1, count + 1):
        index = max(range(len(keys)), key=lambda i: weights[i] * step / total - served[i])
        served[index] += 1
        picks.append(keys[index])
    return picks

"""A fixed CPU workload that measures how fast the machine runs right now.

Other tenants of a shared virtual machine slow the benchmark's CPU time
too, not only its wall time: they compete for caches, memory and shared
cores.  On the 2-CPU machine the benchmark was built on, one ``exact``
pass took 15 CPU seconds in one minute and 25 a few minutes later, on the
same inputs.  The probe runs the same mix of work as the program (Python
dict and set updates while peeling a graph, then a numpy sort) on inputs
fixed for every run, and none of the program's code, so a change to the
program never changes it.  Sampled between the timed calls, its mean CPU
time over a pass tells how slow the machine was while the pass ran.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

#: CPU seconds of one probe run on a quiet 2-CPU Xeon virtual machine
#: (Python 3.11, numpy 2.4).  Times scaled by ``REFERENCE_S / probe`` read as
#: CPU seconds at that speed.
REFERENCE_S = 0.02

_NODES = 10000
_EDGES = 50000


class SpeedProbe:
    """Timed runs of the probe, averaged and cleared by :meth:`take`."""

    def __init__(self) -> None:
        rng = random.Random(20161016)
        self._adjacency: list[list[int]] = [[] for _ in range(_NODES)]
        for _ in range(_EDGES):
            u, v = rng.randrange(_NODES), rng.randrange(_NODES)
            if u != v:
                self._adjacency[u].append(v)
                self._adjacency[v].append(u)
        self._order = list(range(_NODES))
        rng.shuffle(self._order)
        self._values = np.random.default_rng(20161016).random(100_000)
        self._samples: list[float] = []

    def _work(self) -> None:
        degree = {node: len(neighbours) for node, neighbours in enumerate(self._adjacency)}
        alive = set(self._order)
        for node in self._order:
            alive.discard(node)
            for neighbour in self._adjacency[node]:
                if neighbour in alive:
                    degree[neighbour] -= 1
        np.sort(self._values)

    def sample(self) -> None:
        """Run the probe once and keep its CPU time."""
        start = time.process_time()
        self._work()
        self._samples.append(time.process_time() - start)

    def take(self) -> float:
        """``REFERENCE_S`` over the mean of the samples since the last call."""
        mean = statistics.fmean(self._samples)
        self._samples = []
        return REFERENCE_S / mean

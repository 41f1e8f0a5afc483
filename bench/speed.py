"""Machine-speed reference for the benchmark's time metrics.

The benchmark runs on shared hosts where each CPU's speed drifts by up to 2x
within a minute, independently of the other CPUs, and a 30 s run sees
mostly one speed. So the benchmark keeps itself and its child processes on
one CPU, brackets every timed interval by a fixed reference task, and
rescales the interval to a machine on which the reference task takes its
nominal time:

    scaled = seconds * nominal / reference seconds at that moment

Code speeds up by different amounts when a CPU gets faster, so each
workload uses the reference task most like its own work (``REFERENCE`` in
workloads.py). Both tasks are networkx code on graphs of the benchmark's own
making and depend on nothing in eqfactor, so no change to the program can
change them.
"""

from __future__ import annotations

import os
import random
import time

import networkx as nx
from networkx.algorithms.matching import max_weight_matching


def _cycles_graph(n: int) -> nx.Graph:
    """A union of three seeded random Hamiltonian cycles on n vertices."""
    rng = random.Random(f"speed-reference-{n}")
    g = nx.Graph()
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        g.add_edges_from((perm[i], perm[(i + 1) % n]) for i in range(n))
    return g


def matching_task():
    """Blossom matching on a 240-vertex graph: pure-Python, dict-heavy code
    whose data fits in cache, like graph code at a few hundred vertices."""
    graph = _cycles_graph(240)
    return lambda: max_weight_matching(graph)


def traversal_task():
    """A traversal of a 10^4-vertex graph: memory-bound code, like per-edge
    work at that size."""
    graph = _cycles_graph(10_000)

    def task():
        for _ in nx.connected_components(graph):
            pass
        nx.degree_histogram(graph)

    return task


# name -> (task factory, the task's median seconds on the machine the
# benchmark was written on)
REFERENCES = {
    "matching": (matching_task, 0.018),
    "traversal": (traversal_task, 0.022),
}


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on one CPU, so that
    the reference task runs where the timed work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Scale:
    """Rescales intervals by a reference task timed on both sides of each."""

    def __init__(self, task, nominal: float):
        self.task = task
        self.nominal = nominal
        self.before = self._reference_seconds()
        self.references = [self.before]

    def _reference_seconds(self) -> float:
        start = time.perf_counter()
        self.task()
        return time.perf_counter() - start

    def __call__(self, seconds: float) -> float:
        """Scale an interval that ended just now; the next one starts after this."""
        after = self._reference_seconds()
        self.references.append(after)
        scaled = seconds * self.nominal / ((self.before * after) ** 0.5)
        self.before = after
        return scaled

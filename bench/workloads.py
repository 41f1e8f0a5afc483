"""Seeded inputs and request mixes for the benchmark.

The generator is the benchmark's own, so that a change to ``eqfactor.lab``
cannot change what is measured. Every graph is a union of three random
Hamiltonian cycles: 6-regular, Eulerian, and 6-edge-connected, because each
cycle crosses every proper cut at least twice.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

CYCLES = 3
# distinct seeded graphs per template; round r uses graph r mod GRAPHS[workload].
# At a few hundred vertices request times depend on the graph, so a 30 s run
# covers each of nine graphs once or twice; at 10^4 vertices they hardly do.
GRAPHS = {"advisory_checks": 9, "parity_window": 9, "scale_split": 3}
# the reference task of speed.py that each workload's times are rescaled by:
# the one whose speed moves most like the workload's requests
REFERENCE = {"advisory_checks": "matching", "parity_window": "matching", "scale_split": "traversal"}
TIME_LIMIT_S = 10.0  # per request, every workload; a failure counts twice this (PAR-2)


def cycles_graph_text(n: int, rng: random.Random) -> str:
    """Graph file text for a union of CYCLES random Hamiltonian cycles on n vertices."""
    lines = [f"n {n}"]
    for _ in range(CYCLES):
        perm = list(range(n))
        rng.shuffle(perm)
        lines += [f"e {perm[i]} {perm[(i + 1) % n]}" for i in range(n)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Template:
    """One request kind of a workload: the command, its graph size and its check."""

    name: str
    n: int
    command: str  # CLI subcommand
    check: str  # checker kind, see checker.check
    k: int = None
    mode: str = None
    odd_pair: bool = False  # pass --f a,b with two seeded vertices
    epsilon: float = None
    epsilons: tuple = None
    side: str = None  # steer a seeded vertex with --z v --side


WORKLOADS = {
    # connectivity (Stoer-Wagner, Gomory-Hu T-odd cut, matroid-union tree
    # packing) does >= 90% of the work; the solver stages stay under 5%.
    # Even-k parity uses k = 2, for which d(X) >= 3k - 2 = 4 holds on these
    # 6-edge-connected graphs; the T-odd cut check costs the same for any k.
    "advisory_checks": (
        Template("factor_equitable", 400, "factor", "equitable", k=3),
        Template("factor_parity_k2", 300, "factor", "parity", k=2, mode="parity", odd_pair=True),
        Template("analyze", 60, "analyze", "analyze"),
    ),
    # the parity matching gadget does ~99% of the work; no flow or
    # connectivity code runs.
    "parity_window": (
        Template("eps_0.5", 120, "parity-factor", "parity_factor", odd_pair=True, epsilon=0.5),
        Template("eps_0.34", 120, "parity-factor", "parity_factor", odd_pair=True, epsilon=0.34),
        Template("eps_0.5_at_most", 120, "parity-factor", "parity_factor", odd_pair=True,
                 epsilon=0.5, side="at-most"),
        Template("eps_0.34_at_least", 120, "parity-factor", "parity_factor", odd_pair=True,
                 epsilon=0.34, side="at-least"),
    ),
    # per-edge layers at the target size: orientation, maxflow (deep
    # circulation network and shallow Hakimi network), coloring in size and
    # parity mode, graphio, lab.verify and multigraph. The two factor commands
    # fail with RecursionError in the shipped program (the plan search
    # recurses once per vertex); they stay, so a fix shows as fewer failures.
    "scale_split": (
        Template("even_k3", 10_000, "even-factor", "even", k=3),
        Template("even_weighted", 10_000, "even-factor", "weighted", epsilons=(0.5, 0.25, 0.25)),
        Template("even_eps_0.5", 10_000, "even-factor", "even_eps", epsilon=0.5),
        Template("factor_parity_k3", 10_000, "factor", "parity", k=3, mode="parity"),
        Template("factor_regular_k3", 10_000, "factor", "regular", k=3, mode="regular"),
    ),
}


@dataclass
class Request:
    """A concrete request: CLI argv plus everything the checker needs."""

    name: str
    argv: list
    graph_path: Path
    check: str
    params: dict = field(default_factory=dict)


def build_requests(workload: str, seed: int, directory: Path) -> tuple:
    """Write the workload's graphs into directory; return (rounds, sha256 by file).

    rounds[g] lists one request per template, on the g-th graph of each. The
    same (workload, seed) always gives byte-identical files and argv.
    """
    rounds = [[] for _ in range(GRAPHS[workload])]
    digests = {}
    for g in range(GRAPHS[workload]):
        for i, t in enumerate(WORKLOADS[workload]):
            request = _request(t, random.Random(f"{workload}:{seed}:{i}:{g}"),
                               directory / f"{workload}-{seed}-{i}-{g}-{t.name}.txt")
            digests[request.graph_path.name] = hashlib.sha256(request.graph_path.read_bytes()).hexdigest()
            rounds[g].append(request)
    return rounds, digests


def _request(t: Template, rng: random.Random, path: Path) -> Request:
    path.write_text(cycles_graph_text(t.n, rng))
    argv = [t.command, str(path)]
    params = {"k": t.k}
    if t.k is not None:
        argv += ["--k", str(t.k)]
    if t.mode is not None:
        argv += ["--mode", t.mode]
    if t.odd_pair:
        pair = sorted(rng.sample(range(t.n), 2))
        argv += ["--f", ",".join(map(str, pair))]
        params["odd"] = pair
    if t.epsilon is not None:
        argv += ["--epsilon", str(t.epsilon)]
        params["epsilon"] = t.epsilon
    if t.epsilons is not None:
        argv += ["--epsilons", ",".join(map(str, t.epsilons))]
        params["epsilons"] = list(t.epsilons)
        params["k"] = len(t.epsilons)
    if t.side is not None:
        z = rng.randrange(t.n)
        argv += ["--z", str(z), "--side", t.side]
        params["z"] = z
        params["side"] = t.side
    return Request(t.name, argv, path, t.check, params)

"""Orientation solvers: Eulerian, prescribed out-degrees, mod-k residues, balance.

The mod-k solver is two-stage: a backtracking search over residue-compliant
out-degree plans (sum-window and partial Hakimi pruning), each leaf realized
exactly by a bipartite max-flow. Search exhaustion means infeasible; hitting
the node budget raises Undecided instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import Infeasible, InvalidInput, ResidueObstruction, Undecided
from .maxflow import FlowNetwork
from .multigraph import Multigraph, Orientation

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class ResidueMap:
    """Per-vertex out-degree residue targets in Z_k."""

    k: int
    p: tuple

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInput("modulus k must be >= 1")
        object.__setattr__(self, "p", tuple(int(x) % self.k for x in self.p))


def residue_map(g: Multigraph, k: int, z=None, Z=None) -> ResidueMap:
    """p(v) = d(v) mod k on the vertex set Z, else |E| mod k at the single
    vertex z, and 0 everywhere else (everywhere when both are None)."""
    if Z is not None:
        chosen = set(Z)
    else:
        chosen = set() if z is None else {z}
    for v in chosen:
        if not 0 <= v < g.n:
            raise InvalidInput(f"vertex {v} out of range")
    if Z is not None:
        return ResidueMap(k, tuple(g.degree(v) if v in chosen else 0 for v in range(g.n)))
    return ResidueMap(k, tuple(g.m if v == z else 0 for v in range(g.n)))


@dataclass(frozen=True)
class OutDegreePlan:
    """Prescribed out-degree per vertex."""

    o: tuple

    def validate(self, g: Multigraph):
        if len(self.o) != g.n:
            raise InvalidInput("plan must cover every vertex")
        for v, ov in enumerate(self.o):
            if not 0 <= ov <= g.degree(v):
                raise InvalidInput(f"plan value {ov} at vertex {v} outside [0, d(v)]")
        if sum(self.o) != g.m:
            raise InvalidInput("plan out-degrees must sum to |E|")


def eulerian_orientation(g: Multigraph) -> Orientation:
    """Orient every component along closed trails so that d+(v) = d-(v)."""
    for v in range(g.n):
        if g.degree(v) % 2 == 1:
            raise Infeasible(f"vertex {v} has odd degree {g.degree(v)}")
    tails = [None] * g.m
    used = [False] * g.m
    ptr = [0] * g.n
    for v0 in range(g.n):
        while True:
            inc = g.incident(v0)
            while ptr[v0] < len(inc) and used[inc[ptr[v0]]]:
                ptr[v0] += 1
            if ptr[v0] >= len(inc):
                break
            x = v0
            while True:
                inc_x = g.incident(x)
                while ptr[x] < len(inc_x) and used[inc_x[ptr[x]]]:
                    ptr[x] += 1
                if ptr[x] >= len(inc_x):
                    break  # even degrees: only possible back at the trail start
                eid = inc_x[ptr[x]]
                used[eid] = True
                tails[eid] = x
                x = g.other_end(eid, x)
    return Orientation(g, tails)


def realize_out_degrees(g: Multigraph, plan: OutDegreePlan) -> Orientation:
    """Orientation with d+(v) = o(v) exactly, via edge-to-vertex max-flow.

    Raises Infeasible with a certificate set A such that
    sum_{v in A} o(v) < |E(G[A])| (Hakimi violation) when no orientation exists.
    """
    plan.validate(g)
    loops = [g.loops_at(v) for v in range(g.n)]
    for v in range(g.n):
        if plan.o[v] < loops[v]:
            # e(G[{v}]) = loops(v) > o(v)
            raise Infeasible(
                f"vertex {v} cannot host its {loops[v]} loop(s) with out-degree {plan.o[v]}",
                certificate=frozenset({v}),
            )
        if g.degree(v) - plan.o[v] < loops[v]:
            # A = V - {v}: sum o over A = m - o(v) < m - d(v) + loops(v) = e(G[A])
            raise Infeasible(
                f"vertex {v} cannot host its {loops[v]} loop(s) with in-degree {g.degree(v) - plan.o[v]}",
                certificate=frozenset(range(g.n)) - {v},
            )
    nonloop = [eid for eid in range(g.m) if not g.is_loop(eid)]
    s = 0
    t = 1 + len(nonloop) + g.n
    net = FlowNetwork(t + 1)
    tail_arcs = {}
    for i, eid in enumerate(nonloop):
        u, v = g.edges[eid]
        net.add_edge(s, 1 + i, 1)
        arc_u = net.add_edge(1 + i, 1 + len(nonloop) + u, 1)
        net.add_edge(1 + i, 1 + len(nonloop) + v, 1)
        tail_arcs[eid] = (arc_u, u, v)
    for v in range(g.n):
        net.add_edge(1 + len(nonloop) + v, t, plan.o[v] - loops[v])
    pushed = net.max_flow(s, t)
    if pushed < len(nonloop):
        reach = net.residual_reachable(s)
        cert = frozenset(v for v in range(g.n) if 1 + len(nonloop) + v in reach)
        raise Infeasible("out-degree plan is not realizable (Hakimi violation)", certificate=cert)
    tails = [None] * g.m
    for eid in range(g.m):
        if g.is_loop(eid):
            tails[eid] = g.edges[eid][0]
    for eid, (arc, u, v) in tail_arcs.items():
        tails[eid] = u if net.flow_on(arc) == 1 else v
    return Orientation(g, tails)


def _plan_candidates(g: Multigraph, v: int, residue: int, k: int) -> list:
    """Residue-compliant out-degree values at v, nearest d(v)/2 first."""
    d = g.degree(v)
    lo, hi = g.loops_at(v), d - g.loops_at(v)
    vals = [c for c in range(residue, d + 1, k) if lo <= c <= hi]
    vals.sort(key=lambda c: (abs(2 * c - d), c))
    return vals


def mod_k_orientation(g: Multigraph, rm: ResidueMap, budget: int = DEFAULT_BUDGET) -> Orientation:
    """Orientation with d+(v) = p(v) (mod k) at every vertex.

    Raises ResidueObstruction when sum(p) != |E| (mod k), Infeasible when the
    plan search space is exhausted, and Undecided when the node budget runs out.
    """
    k = rm.k
    if len(rm.p) != g.n:
        raise InvalidInput("residue map must cover every vertex")
    if (sum(rm.p) - g.m) % k != 0:
        raise ResidueObstruction(
            f"sum of residues {sum(rm.p) % k} != |E| mod k = {g.m % k}"
        )
    if k == 1:
        return realize_out_degrees(g, _any_plan(g))
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    cand = [_plan_candidates(g, v, rm.p[v], k) for v in order]
    if any(not c for c in cand):
        raise Infeasible("some vertex admits no residue-compliant out-degree")
    n = len(order)
    min_suffix = [0] * (n + 1)
    max_suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        min_suffix[i] = min_suffix[i + 1] + min(cand[i])
        max_suffix[i] = max_suffix[i + 1] + max(cand[i])
    # adjacency counts restricted to the assigned prefix, for Hakimi pruning
    pos = {v: i for i, v in enumerate(order)}
    nodes = 0
    chosen = [0] * n

    def search(i, sum_o, sum_rev, internal):
        # internal: edges (incl. loops) with both ends among order[:i]
        nonlocal nodes
        if i == n:
            if sum_o != g.m:
                return None
            try:
                return realize_out_degrees(g, OutDegreePlan(tuple(
                    chosen[pos[v]] for v in range(g.n)
                )))
            except Infeasible:
                return None
        v = order[i]
        added = g.loops_at(v) + sum(
            1 for eid in g.incident(v)
            if not g.is_loop(eid) and pos[g.other_end(eid, v)] < i
        )
        new_internal = internal + added
        for c in cand[i]:
            nodes += 1
            if nodes > budget:
                raise Undecided(f"mod-k plan search exceeded node budget {budget}")
            so = sum_o + c
            sr = sum_rev + g.degree(v) - c
            if so + min_suffix[i + 1] > g.m or so + max_suffix[i + 1] < g.m:
                continue
            if so < new_internal or sr < new_internal:
                continue
            chosen[i] = c
            result = search(i + 1, so, sr, new_internal)
            if result is not None:
                return result
        return None

    result = search(0, 0, 0, 0)
    if result is None:
        raise Infeasible(
            "no residue-compliant orientation found; the guarantee holds only "
            "under (3k-3)-edge-connectivity or (2k-2)-tree-connectivity"
        )
    return result


def _any_plan(g: Multigraph) -> OutDegreePlan:
    o = [0] * g.n
    for u, v in g.edges:
        o[u] += 1
    return OutDegreePlan(tuple(o))


def balanced_mod_k_orientation(g: Multigraph, k: int, q=None, budget: int = DEFAULT_BUDGET) -> Orientation:
    """Balanced orientations modulo k.

    Odd k (q must be None): d+(v) = d-(v) (mod k) at every vertex, via a
    p-orientation with p(v) = d(v) * inv(2) mod k.

    Even k (even-degree graph, |q| even): d+(v) = d-(v) off q and
    |d+(v) - d-(v)| = k on q, by searching sign choices over q and realizing
    the resulting out-degree plans by flow.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k % 2 == 1:
        if q is not None:
            raise InvalidInput("Q is only meaningful for even k")
        inv2 = (k + 1) // 2
        p = tuple((g.degree(v) * inv2) % k for v in range(g.n))
        return mod_k_orientation(g, ResidueMap(k, p), budget=budget)
    q = sorted(set(q or ()))
    for v in range(g.n):
        if g.degree(v) % 2 == 1:
            raise InvalidInput(f"even-k balance needs even degrees; vertex {v} has degree {g.degree(v)}")
    if len(q) % 2 == 1:
        raise InvalidInput("|Q| must be even")
    if not q:
        return eulerian_orientation(g)
    for v in q:
        if g.degree(v) < k:
            raise Infeasible(f"vertex {v} in Q has degree {g.degree(v)} < k = {k}")
    base = [g.degree(v) // 2 for v in range(g.n)]
    tried = 0
    for plus in combinations(q, len(q) // 2):
        tried += 1
        if tried > budget:
            raise Undecided(f"sign search over Q exceeded budget {budget}")
        o = list(base)
        for v in q:
            o[v] += k // 2 if v in plus else -(k // 2)
        try:
            return realize_out_degrees(g, OutDegreePlan(tuple(o)))
        except Infeasible:
            continue
    raise Infeasible(
        "no balanced orientation found for Q; the guarantee holds only under "
        "the odd-cut bound d(X) >= 3k-2"
    )

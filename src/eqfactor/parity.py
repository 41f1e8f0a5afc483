"""Parity factors: a constructive finder and the epsilon-window pipelines
(even factors, recursive and weighted even factorizations).

The finder is exact at every size: it reduces to perfect matching through the
classical degree-gadget construction (padding loops encode the allowed parity
window) and solves that with the in-house cardinality blossom of
``matching``, warm-started from a greedy factor. It stays fully independent
of the brute-force subset oracle used for cross-checking. Both take a
ParitySpec, a plain record whose constructor enforces the window condition:
g0(v) <= f0(v), both of f(v)'s parity.
"""

from __future__ import annotations

import math

from .errors import Infeasible, InvalidInput
from .matching import maximum_matching
from .multigraph import Factorization, Multigraph


class ParitySpec:
    """Per-vertex parity targets f with degree window [g0, f0], all congruent."""

    __slots__ = ("f", "g0", "f0")

    def __init__(self, f, g0, f0):
        self.f = tuple(int(x) % 2 for x in f)
        self.g0 = tuple(int(x) for x in g0)
        self.f0 = tuple(int(x) for x in f0)
        if not len(self.f) == len(self.g0) == len(self.f0):
            raise InvalidInput("f, g0, f0 must have equal length")
        for v, (fv, lo, hi) in enumerate(zip(self.f, self.g0, self.f0)):
            if lo > hi:
                raise InvalidInput(f"g0 > f0 at vertex {v}")
            if lo % 2 != fv or hi % 2 != fv:
                raise InvalidInput(f"g0, f0, f must share parity at vertex {v}")


def _effective_window(g: Multigraph, spec: ParitySpec, v: int):
    """Clamp [g0, f0] into the realizable range [0, d(v)] keeping parity."""
    fv = spec.f[v]
    lo, hi = spec.g0[v], spec.f0[v]
    if lo < fv:
        lo = fv
    d = g.degree(v)
    if hi > d:
        hi = d if d % 2 == fv else d - 1
    return lo, hi


def find_parity_factor(g: Multigraph, spec: ParitySpec):
    """An edge set F with g0(v) <= d_F(v) <= f0(v) and d_F(v) = f(v) (mod 2)
    for every v, or None when no such factor exists.

    Exact at every size: solved through a perfect-matching gadget reduction.
    """
    if len(spec.f) != g.n:
        raise InvalidInput("spec must cover every vertex")
    windows = [_effective_window(g, spec, v) for v in range(g.n)]
    if any(lo > hi for lo, hi in windows):
        return None
    if sum(spec.f) % 2 != 0:
        return None  # handshake: sum of factor degrees is even
    return _matching_factor(g, windows)


def _matching_factor(g: Multigraph, windows):
    """Tutte gadget: demand h(v) = f0(v), with (f0-g0)/2 padding loops per
    vertex absorbing the parity window; a perfect matching <=> a factor.
    The search stops at the first node shown exposed in a maximum matching."""
    adj, mate = _gadget(g, windows)
    if maximum_matching(adj, mate, perfect=True) is None:
        return None
    return frozenset(eid for eid in range(g.m) if mate[2 * eid] == 2 * eid + 1)


def _gadget(g: Multigraph, windows):
    """Adjacency lists of the gadget and a warm-start matching in it.

    Nodes 2e and 2e + 1 are the ends of edge e (at its first and second
    endpoint); padding pairs follow, also as (2i, 2i + 1); then the cores.
    Each vertex v with window [lo, hi] owns d(v) ends, (hi - lo) / 2 padding
    pairs and d(v) - lo cores, and every core of v is joined to every end and
    padding node of v. A perfect matching matches d(v) - lo of them to cores,
    so the matched ends d_F(v) and padding pairs p(v) give d_F(v) + 2p(v) = hi.

    The warm start takes edges greedily while d_F stays at most hi at both
    ends, matches padding pairs while d_F(v) + 2 <= hi, and gives every other
    node of v a core; it leaves hi - d_F(v) - 2p(v) nodes of v free.
    """
    incidences = [[] for _ in range(g.n)]
    used = [0] * g.n  # d_F(v) + 2p(v) in the warm start
    mate = []
    for eid, (u, v) in enumerate(g.edges):
        incidences[u].append(2 * eid)
        incidences[v].append(2 * eid + 1)
        if u == v:
            take = used[u] + 2 <= windows[u][1]
        else:
            take = used[u] < windows[u][1] and used[v] < windows[v][1]
        if take:
            used[u] += 1
            used[v] += 1
            mate += (2 * eid + 1, 2 * eid)
        else:
            mate += (-1, -1)
    for v, (lo, hi) in enumerate(windows):
        for _ in range((hi - lo) // 2):
            x = len(mate)
            incidences[v] += (x, x + 1)
            if used[v] + 2 <= hi:
                used[v] += 2
                mate += (x + 1, x)
            else:
                mate += (-1, -1)
    adj = [[x ^ 1] for x in range(len(mate))]
    for v, (lo, _) in enumerate(windows):
        first = len(mate)
        cores = list(range(first, first + g.degree(v) - lo))
        for x in incidences[v]:
            adj[x] += cores
        adj += [incidences[v]] * len(cores)
        mate += [-1] * len(cores)
        free = (x for x in incidences[v] if mate[x] == -1)
        for c, x in zip(cores, free):
            mate[c] = x
            mate[x] = c
    return adj, mate


def epsilon_windows(g: Multigraph, f, eps: float):
    """Per-vertex parity windows around eps*d(v): the closest values of the
    parity f(v) to floor(eps*d) from below and ceil(eps*d) from above."""
    f = tuple(int(x) % 2 for x in f)
    if len(f) != g.n:
        raise InvalidInput("f must assign a parity to every vertex")
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie strictly between 0 and 1")
    g0 = []
    f0 = []
    for v in range(g.n):
        ed = eps * g.degree(v)
        lo = math.floor(ed)
        if lo % 2 != f[v]:
            lo -= 1
        hi = math.ceil(ed)
        if hi % 2 != f[v]:
            hi += 1
        g0.append(lo)
        f0.append(hi)
    return tuple(g0), tuple(f0)


def epsilon_parity_factor(g: Multigraph, f, eps: float, z=None):
    """An f-parity factor with floor(eps*d)-1 <= d_F(v) <= ceil(eps*d)+1.

    z = (vertex, side) with side "at_least"/"at_most" steers d_F(z) to the
    requested side of eps*d(z) by tightening its window by 2.
    """
    f = tuple(int(x) % 2 for x in f)
    if sum(f) % 2 != 0:
        raise InvalidInput("sum of f over V must be even")
    g0, f0 = epsilon_windows(g, f, eps)
    g0, f0 = list(g0), list(f0)
    if z is not None:
        zv, side = z
        if side not in ("at_least", "at_most"):
            raise InvalidInput(f"unknown steering side {side!r}")
        if not 0 <= zv < g.n:
            raise InvalidInput(f"vertex {zv} out of range")
        ed = eps * g.degree(zv)
        if side == "at_least" and g0[zv] < ed:
            g0[zv] += 2
        if side == "at_most" and f0[zv] > ed:
            f0[zv] -= 2
    spec = ParitySpec(f=f, g0=tuple(g0), f0=tuple(f0))
    factor = find_parity_factor(g, spec)
    if factor is None:
        hypothesis = _epsilon_hypothesis_report(g, f, eps)
        raise Infeasible(f"no f-parity factor in the eps window; {hypothesis}")
    return factor


def _epsilon_hypothesis_report(g: Multigraph, f, eps) -> str:
    from . import connectivity

    ok_odd, _ = connectivity.f_odd_cut_bound(g, f, math.ceil(1 / eps))
    comp = tuple((g.degree(v) - f[v]) % 2 for v in range(g.n))
    if sum(comp) % 2 == 0:
        ok_even, _ = connectivity.f_odd_cut_bound(g, comp, math.ceil(1 / (1 - eps)))
    else:
        ok_even = True
    if ok_odd and ok_even:
        return "cut hypotheses hold (unexpected)"
    return "cut hypotheses of the guarantee are not met"


def _check_even_degrees(g: Multigraph):
    for v in range(g.n):
        if g.degree(v) % 2 == 1:
            raise InvalidInput(f"vertex {v} has odd degree {g.degree(v)}")


def _eulerian_arcs(g: Multigraph) -> list:
    """(tail, head) per edge id, along one Eulerian orientation of g."""
    from .orientation import eulerian_orientation

    return [(t, u + w - t) for t, (u, w) in zip(eulerian_orientation(g).tails, g.edges)]


def _even_circulation(n: int, arcs, eps: float) -> list:
    """Flags over arcs, an Eulerian digraph given as (tail, head) pairs, that
    mark a sub-circulation of throughput in [floor(eps*d+(v)), ceil(eps*d+(v))]
    at every vertex v. Its edges form an even factor with |d_F(v) - eps*d(v)|
    < 2, and the unmarked arcs form an Eulerian digraph again.

    Greedy first: an arc u->w is taken while out(u) and in(w) are both below
    their lower bounds. When every bound is met, the taken arcs have out = in
    = lower bound everywhere and form the circulation. Otherwise the shortfall
    goes to a unit network on split vertices (v_in = v, v_out = n + v; an arc
    u->w is u_out -> w_in; lower bounds moved to s -> v_out and v_in -> t;
    capacity hi - lo on v_in -> v_out) in which the greedy flow is already
    pushed: a taken arc enters reversed, as its residual arc, and s and t keep
    only the unmet part of each bound. The max flow completes it exactly.
    Putting eps on every arc is a fractional circulation within the bounds,
    so an integral one exists and a short flow means the input was not
    Eulerian.
    """
    from .maxflow import FlowNetwork

    outdeg = [0] * n
    for u, _ in arcs:
        outdeg[u] += 1
    lo = [math.floor(eps * x) for x in outdeg]
    got_out = [0] * n
    got_in = [0] * n
    taken = []
    for u, w in arcs:
        take = got_out[u] < lo[u] and got_in[w] < lo[w]
        if take:
            got_out[u] += 1
            got_in[w] += 1
        taken.append(take)
    if got_out == lo and got_in == lo:
        return taken
    s, t = 2 * n, 2 * n + 1
    net = FlowNetwork(2 * n + 2)
    arc_ids = [net.add_edge(w, n + u, 1) if take else net.add_edge(n + u, w, 1)
               for (u, w), take in zip(arcs, taken)]
    need = 0
    for v in range(n):
        spare = math.ceil(eps * outdeg[v]) - lo[v]
        if spare:
            net.add_edge(v, n + v, spare)
        if got_out[v] < lo[v]:
            net.add_edge(s, n + v, lo[v] - got_out[v])
            need += lo[v] - got_out[v]
        if got_in[v] < lo[v]:
            net.add_edge(v, t, lo[v] - got_in[v])
    if net.max_flow(s, t) < need:
        raise Infeasible("circulation infeasible; even-degree precondition violated?")
    return [take != bool(net.flow_on(idx)) for take, idx in zip(taken, arc_ids)]


def even_factor_eps(g: Multigraph, eps: float):
    """Even factor with |d_F(v) - eps*d(v)| < 2 on an even-degree graph.

    A sub-circulation of one Eulerian orientation with per-vertex throughput
    in [floor(eps*d/2), ceil(eps*d/2)]: greedily taken arcs first, and a unit
    flow network, solved by the Dinic of ``maxflow``, only for the lower
    bounds the greedy pass leaves unmet (see ``_even_circulation``).
    The all-arcs-at-eps fractional circulation witnesses feasibility, so an
    integral one always exists.
    """
    _check_even_degrees(g)
    if not 0 <= eps <= 1:
        raise InvalidInput("eps must lie in [0, 1]")
    if eps == 0:
        return frozenset()
    if eps == 1:
        return frozenset(range(g.m))
    taken = _even_circulation(g.n, _eulerian_arcs(g), eps)
    return frozenset(eid for eid, take in enumerate(taken) if take)


def hilton_even_factorization(g: Multigraph, k: int) -> Factorization:
    """Split an even-degree graph into k even factors, peeling an eps = 1/k
    factor and recursing; every factor deviates from d(v)/k by less than 2.

    The graph is oriented once: each peeled factor is a sub-circulation of
    the arcs left (``_even_circulation``), so what remains is Eulerian again
    and the next step works on the same arcs, with no new graph or
    orientation.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    _check_even_degrees(g)
    arcs = _eulerian_arcs(g)
    assignment = [1] * g.m
    ids = list(range(g.m))
    for step in range(k, 1, -1):
        taken = _even_circulation(g.n, [arcs[eid] for eid in ids], 1.0 / step)
        rest = []
        for eid, take in zip(ids, taken):
            if take:
                assignment[eid] = step
            else:
                rest.append(eid)
        ids = rest
    return Factorization(g, k, assignment)


def weighted_even_factorization(g: Multigraph, eps_list) -> Factorization:
    """Split an even-degree graph into even factors with
    |d_{G_i}(v) - eps_i * d(v)| < 6, by recursive balanced bipartition of the
    weights with an even-factor extraction at each split.

    As in ``hilton_even_factorization``, one Eulerian orientation serves every
    split: both sides of a sub-circulation are Eulerian again.
    """
    eps_list = [float(x) for x in eps_list]
    if not eps_list or any(x <= 0 for x in eps_list):
        raise InvalidInput("weights must be positive")
    if not all(map(math.isfinite, eps_list)):
        raise InvalidInput("weights must be finite")
    if abs(sum(eps_list) - 1.0) > 1e-9:
        raise InvalidInput("weights must sum to 1")
    _check_even_degrees(g)
    arcs = _eulerian_arcs(g)
    assignment = [0] * g.m
    pending = [(list(range(g.m)), list(range(len(eps_list))))]
    while pending:
        edge_ids, indices = pending.pop()
        if len(indices) == 1:
            for eid in edge_ids:
                assignment[eid] = indices[0] + 1
            continue
        order = sorted(indices, key=lambda i: (-eps_list[i], i))
        left, right = [], []
        sl = sr = 0.0
        for i in order:
            if sl <= sr:
                left.append(i)
                sl += eps_list[i]
            else:
                right.append(i)
                sr += eps_list[i]
        taken = _even_circulation(g.n, [arcs[eid] for eid in edge_ids], sl / (sl + sr))
        pending.append(([eid for eid, take in zip(edge_ids, taken) if take], left))
        pending.append(([eid for eid, take in zip(edge_ids, taken) if not take], right))
    return Factorization(g, len(eps_list), assignment)

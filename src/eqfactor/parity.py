"""Parity factors: a constructive finder and the epsilon-window pipelines
(even factors, Hilton's and weighted even factorizations).

The finder is exact at every size. It takes edges greedily, then mends what
the greedy pass leaves outside the windows by alternating trails on G. Only
when a trail search fails does it build the classical degree gadget (padding
pairs encode the allowed parity window), warm-started from the factor so
far, and solve it with the in-house cardinality blossom of ``matching``.
Past the window and handshake checks, only the matching answers "no
factor". The finder stays fully independent of the brute-force subset
oracle used for cross-checking. Both take a ParitySpec, a plain record
whose constructor enforces the window condition: g0(v) <= f0(v), both of
f(v)'s parity. ``even_factor_eps`` and the weighted even factorization take
sub-circulations of one ``orientation.trail_walk``; Hilton's even
factorization is a parity-mode split of an Eulerian orientation
(``coloring.decompose_directed``). Each imports what it runs, so
parity-factor loads neither module. Every eps and weight is read as the
decimal it prints as (``lab.decimal_ratio``: 0.29 is 29/100), the reading
the auditor judges by, and every bound on it is taken in integers.
"""

from __future__ import annotations

import math

from .errors import Infeasible, InvalidInput
from .lab import decimal_ratio
from .matching import maximum_matching
from .multigraph import Factorization, Multigraph, parity_targets


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


def find_parity_factor(g: Multigraph, spec: ParitySpec):
    """An edge set F with g0(v) <= d_F(v) <= f0(v) and d_F(v) = f(v) (mod 2)
    for every v, or None when no such factor exists.

    Greedy first: an edge is taken while d_F stays at most f0 at both ends.
    ``_repair`` then mends the vertices this leaves outside their windows by
    alternating trails on G, and F is returned when it mends them all.
    Otherwise F warm-starts a perfect matching of ``_gadget``, which is exact
    at every size: its search stops at the first node shown exposed in a
    maximum matching, so only the gadget answers None.
    """
    if len(spec.f) != g.n:
        raise InvalidInput("spec must cover every vertex")
    # [g0, f0] clamped into the realizable [0, d(v)], keeping the parity f(v)
    lo = [g0 if g0 > fv else fv for g0, fv in zip(spec.g0, spec.f)]
    hi = [f0 if f0 <= d else d - (d - fv) % 2 for f0, d, fv in zip(spec.f0, g.degrees, spec.f)]
    if any(a > b for a, b in zip(lo, hi)):
        return None
    if sum(spec.f) % 2 != 0:
        return None  # handshake: sum of factor degrees is even
    deg = [0] * g.n  # d_F
    taken = []
    for u, v in g.edges:  # a loop adds 2 to d_F(u)
        take = deg[u] + 1 + (u == v) <= hi[u] and deg[v] < hi[v]
        deg[u] += take
        deg[v] += take
        taken.append(take)
    if not _repair(g, lo, hi, taken, deg):
        adj, mate = _gadget(g, lo, hi, taken)
        if maximum_matching(adj, mate, perfect=True) is None:
            return None
        taken = [mate[2 * eid] == 2 * eid + 1 for eid in range(g.m)]
    return frozenset(eid for eid, take in enumerate(taken) if take)


def _repair(g: Multigraph, lo, hi, taken, deg) -> bool:
    """Mend the factor taken, whose degrees deg are at most hi everywhere, on
    G itself, changing both in place; True when every vertex v ends inside
    [lo[v], hi[v]] with the parity of lo[v].

    need(v) is lo - d_F(v) below the window, else d_F(v)'s parity error. While
    a vertex s has need, a breadth-first search runs over states 2w + b,
    where b is 1 when the edge that entered w is added to F and 0 when it is
    removed. It leaves w by any edge that keeps d_F(w) plus this visit's
    change within [min(lo, d_F(w)), hi] (never by the edge it came in on),
    and stops at the first state whose edge lowers its vertex's need. The trail
    is flipped only when it repeats no edge, lowers s's need, and raises no
    vertex's need nor takes it above hi. Loops take no part. Returns False at
    the first search that fails, and the gadget decides from there.
    """
    n, edges = g.n, g.edges
    inc = [[] for _ in range(n)]
    tip = [u + v for u, v in edges]  # the far end of eid from v is tip[eid] - v
    for eid, (u, v) in enumerate(edges):
        if u != v:
            inc[u].append(eid)
            inc[v].append(eid)

    def need(v, d):
        return lo[v] - d if d < lo[v] else (d - lo[v]) & 1

    mark = [0] * (2 * n)  # id of the last search that reached each state
    via = [0] * (2 * n)  # the edge each state was reached by
    parent = [0] * (2 * n)  # the state it was reached from; -1 is s
    change = [0] * n  # the trail's net change of d_F, zero between trails
    search = 0
    for s in range(n):
        while need(s, deg[s]):
            search += 1
            queue, hit = [-1], -1
            for st in queue:
                v, d, back = (s, deg[s], -1) if st < 0 else (st >> 1, deg[st >> 1] + 2 * (st & 1) - 1, via[st])
                add, drop = d < hi[v], d > min(lo[v], deg[v])
                for eid in inc[v]:
                    x = 0 if taken[eid] else 1
                    if eid == back or not (add if x else drop):
                        continue
                    w = tip[eid] - v
                    nxt = 2 * w + x
                    if mark[nxt] == search:
                        continue
                    mark[nxt], via[nxt], parent[nxt] = search, eid, st
                    if need(w, deg[w] + 2 * x - 1) < need(w, deg[w]) and (w != s or need(s, deg[s]) > 1):
                        hit = nxt
                        break
                    queue.append(nxt)
                if hit >= 0:
                    break
            trail, ends = [], []
            while hit >= 0:
                eid, hit = via[hit], parent[hit]
                trail.append(eid)
                for v in edges[eid]:
                    change[v] += 1 - 2 * taken[eid]
                    ends.append(v)
            if not trail or len(set(trail)) < len(trail) or need(s, deg[s] + change[s]) >= need(s, deg[s]) or any(
                    deg[v] + change[v] > hi[v] or need(v, deg[v] + change[v]) > need(v, deg[v]) for v in ends):
                return False
            for v in ends:
                deg[v] += change[v]
                change[v] = 0
            for eid in trail:
                taken[eid] = not taken[eid]
    return True


def _gadget(g: Multigraph, lo, hi, taken):
    """Adjacency lists of the gadget and a warm-start matching in it.

    Nodes 2e and 2e + 1 are the ends of edge e (at its first and second
    endpoint); padding pairs follow, also as (2i, 2i + 1); then the cores.
    Each vertex v owns d(v) ends, (hi[v] - lo[v]) / 2 padding pairs and
    d(v) - lo[v] cores, and every core of v is joined to every end and padding
    node of v. A perfect matching matches d(v) - lo[v] of them to cores, so the
    matched ends d_F(v) and padding pairs p(v) give d_F(v) + 2p(v) = hi[v].

    The warm start matches the two ends of each edge that taken flags, matches
    padding pairs while d_F(v) + 2 <= hi[v], and gives every other node of v a
    core while cores last. Any flags give a matching, and the search is exact
    from any matching.
    """
    incidences = [[] for _ in range(g.n)]
    used = [0] * g.n  # d_F(v) + 2p(v) in the warm start
    mate = []
    for eid, ((u, v), take) in enumerate(zip(g.edges, taken)):
        incidences[u].append(2 * eid)
        incidences[v].append(2 * eid + 1)
        used[u] += take
        used[v] += take
        mate += (2 * eid + 1, 2 * eid) if take else (-1, -1)
    for v in range(g.n):
        for _ in range((hi[v] - lo[v]) // 2):
            x = len(mate)
            incidences[v] += (x, x + 1)
            if used[v] + 2 <= hi[v]:
                used[v] += 2
                mate += (x + 1, x)
            else:
                mate += (-1, -1)
    adj = [[x ^ 1] for x in range(len(mate))]
    for v in range(g.n):
        first = len(mate)
        cores = list(range(first, first + g.degree(v) - lo[v]))
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
    parity f(v) to floor(eps*d) from below and ceil(eps*d) from above, in
    integers for eps read as the decimal it prints as (``decimal_ratio``). f
    is a map that ``parity_targets`` has checked."""
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie strictly between 0 and 1")
    p, q = decimal_ratio(eps)
    g0 = []
    f0 = []
    for v in range(g.n):
        lo, rest = divmod(p * g.degree(v), q)
        hi = lo + 1 if rest else lo
        if lo % 2 != f[v]:
            lo -= 1
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
    f = parity_targets(g, f)
    g0, f0 = epsilon_windows(g, f, eps)
    g0, f0 = list(g0), list(f0)
    p, q = decimal_ratio(eps)
    if z is not None:
        zv, side = z
        if side not in ("at_least", "at_most"):
            raise InvalidInput(f"unknown steering side {side!r}")
        if not 0 <= zv < g.n:
            raise InvalidInput(f"vertex {zv} out of range")
        ed = p * g.degree(zv)  # eps*d(z), scaled by q
        if side == "at_least" and q * g0[zv] < ed:
            g0[zv] += 2
        if side == "at_most" and q * f0[zv] > ed:
            f0[zv] -= 2
    spec = ParitySpec(f=f, g0=tuple(g0), f0=tuple(f0))
    factor = find_parity_factor(g, spec)
    if factor is not None:
        return factor
    from . import connectivity

    ok_odd, _ = connectivity.f_odd_cut_bound(g, f, -(-q // p))  # ceil(1/eps)
    # d - f sums to 2|E| - sum(f), even as sum(f) is
    comp = tuple((g.degree(v) - f[v]) % 2 for v in range(g.n))
    ok_even, _ = connectivity.f_odd_cut_bound(g, comp, -(-q // (q - p)))  # ceil(1/(1 - eps))
    hypothesis = "hold (unexpected)" if ok_odd and ok_even else "of the guarantee are not met"
    raise Infeasible(f"no f-parity factor in the eps window; cut hypotheses {hypothesis}")


def _check_even_degrees(g: Multigraph):
    for v in range(g.n):
        if g.degree(v) % 2 == 1:
            raise InvalidInput(f"vertex {v} has odd degree {g.degree(v)}")


def _even_circulation(n: int, tails, heads, num: int, den: int) -> list:
    """Flags over arcs, an Eulerian digraph given as the tail and the head of
    each arc, that mark a sub-circulation of throughput num*d+(v) // den or
    its ceiling at every vertex v, for integers 0 <= num <= den. Its edges
    form an even factor with |d_F(v) - (num/den)*d(v)| < 2, exactly, and the
    unmarked arcs form an Eulerian digraph again.

    Greedy first: an arc u->w is taken while out(u) and in(w) are both below
    their lower bounds. When every bound is met, the taken arcs have out = in
    = lower bound everywhere and form the circulation. Otherwise the shortfall
    goes to a unit network on split vertices (v_in = v, v_out = n + v; an arc
    u->w is u_out -> w_in; capacity hi - lo on v_in -> v_out) in which the
    greedy flow is already pushed: a taken arc enters reversed, as its
    residual arc. Each lower bound's unmet part is v_out's supply (out-bound)
    and v_in's room (in-bound) in one ``max_flow``, with no source or sink
    node. The network is one ``FlowNetwork`` call on flat lists, arc i first
    for every i, so a unit of flow on arc i (cap[2i + 1]) flips its greedy
    choice. The flow completes it exactly. Putting num/den on every arc is a
    fractional circulation within the bounds, so an integral one exists, and
    a shortfall means the input was not Eulerian: a bug in the caller, so it
    raises AssertionError.
    """
    from .maxflow import FlowNetwork

    outdeg = [0] * n
    for u in tails:
        outdeg[u] += 1
    lo = [num * x // den for x in outdeg]
    got_out = [0] * n
    got_in = [0] * n
    taken = []
    for u, w in zip(tails, heads):
        take = got_out[u] < lo[u] and got_in[w] < lo[w]
        if take:
            got_out[u] += 1
            got_in[w] += 1
        taken.append(take)
    if got_out == lo and got_in == lo:
        return taken
    arc_tails = [w if take else n + u for u, w, take in zip(tails, heads, taken)]
    arc_heads = [n + u if take else w for u, w, take in zip(tails, heads, taken)]
    caps = [1] * len(taken)
    for v in range(n):
        spare = -(-num * outdeg[v] // den) - lo[v]
        if spare:
            arc_tails.append(v)
            arc_heads.append(n + v)
            caps.append(spare)
    supply = [0] * n + [a - b for a, b in zip(lo, got_out)]
    net = FlowNetwork(2 * n, arc_tails, arc_heads, caps)
    net.max_flow(supply, [a - b for a, b in zip(lo, got_in)] + [0] * n)
    if any(supply):
        raise AssertionError("circulation short of its lower bounds; the arcs were not Eulerian")
    return [take != bool(flow) for take, flow in zip(taken, net.cap[1::2])]


def even_factor_eps(g: Multigraph, eps: float):
    """Even factor with |d_F(v) - eps*d(v)| < 2 on an even-degree graph, for
    eps read as the decimal it prints as (``decimal_ratio``: 0.29 is 29/100).

    A sub-circulation of one Eulerian orientation with per-vertex throughput
    in [floor(eps*d/2), ceil(eps*d/2)]: greedily taken arcs first, and a unit
    flow network, solved by the shortest-path searches of ``maxflow``, only
    for the lower bounds the greedy pass leaves unmet (see
    ``_even_circulation``).
    The all-arcs-at-eps fractional circulation witnesses feasibility, so an
    integral one always exists. At eps = 0 or 1 the greedy pass takes no arc,
    or every arc.
    """
    from .orientation import trail_walk

    _check_even_degrees(g)
    if not 0 <= eps <= 1:
        raise InvalidInput("eps must lie in [0, 1]")
    taken = _even_circulation(g.n, *trail_walk(g), *decimal_ratio(eps))
    return frozenset(eid for eid, take in enumerate(taken) if take)


def hilton_even_factorization(g: Multigraph, k: int) -> Factorization:
    """Split an even-degree graph into k even factors with |d_i(v) - d(v)/k| < 2:
    a parity-mode ``decompose_directed`` of an Eulerian orientation into
    top = min(k, max d(v)/2) factors (at least 1). As d+(v) = d-(v), v's two
    deficient chunks get the same padding, so a factor meets v as often going
    out as coming in: d_i(v) = 2 out_i(v), out_i(v) the floor or ceil of
    d(v)/(2 top). Factors past top stay empty; every d(v)/k is below 2 there.
    """
    from .coloring import decompose_directed
    from .orientation import near_balanced_orientation

    if k < 1:
        raise InvalidInput("k must be >= 1")
    _check_even_degrees(g)
    top = max(1, min(k, max(g.degrees, default=0) // 2))
    fz = decompose_directed(near_balanced_orientation(g), top, mode="parity")
    return fz if top == k else Factorization(g, k, fz.assignment)


def weighted_even_factorization(g: Multigraph, eps_list) -> Factorization:
    """Even factors of an even-degree graph with |d_{G_i}(v) - eps_i * d(v)| < 6,
    each eps_i read as the decimal it prints as: a stack of (arc ids, factor
    indices) on one Eulerian orientation, each entry of two or more indices
    bisected greedily by weight and split by ``_even_circulation`` at the left
    side's share, both sides Eulerian again. The weights are integers over one
    power of ten, so every sum and share is exact."""
    from .orientation import trail_walk

    eps_list = [float(x) for x in eps_list]
    if not eps_list or any(x <= 0 for x in eps_list):
        raise InvalidInput("weights must be positive")
    if not all(map(math.isfinite, eps_list)):
        raise InvalidInput("weights must be finite")
    if abs(sum(eps_list) - 1.0) > 1e-9:
        raise InvalidInput("weights must sum to 1")
    _check_even_degrees(g)
    ratios = list(map(decimal_ratio, eps_list))
    scale = max(q for _, q in ratios)  # each q is a power of ten
    weights = [p * (scale // q) for p, q in ratios]
    tails, heads = trail_walk(g)
    assignment = [0] * g.m
    pending = [(range(g.m), range(len(eps_list)))]
    while pending:
        ids, indices = pending.pop()
        if len(indices) == 1:
            for eid in ids:
                assignment[eid] = indices[0] + 1
            continue
        left, right = [], []
        sl = sr = 0
        for i in sorted(indices, key=lambda i: (-weights[i], i)):
            if sl <= sr:
                left.append(i)
                sl += weights[i]
            else:
                right.append(i)
                sr += weights[i]
        taken = _even_circulation(g.n, [tails[eid] for eid in ids], [heads[eid] for eid in ids], sl, sl + sr)
        pending.append(([eid for eid, take in zip(ids, taken) if not take], right))
        pending.append(([eid for eid, take in zip(ids, taken) if take], left))
    return Factorization(g, len(eps_list), assignment)

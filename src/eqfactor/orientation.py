"""Orientation solvers: Eulerian, prescribed out-degrees, mod-k residues, balance.

A mod-2 orientation is a T-join: from the stored edge order, each edge
(u, w) oriented u -> w, the edges of one spanning forest that lie above an
odd number of wrong-parity vertices are reversed, in O(n + m) with no walk,
no flow and no search, and a component with an odd number of them proves
that none exists. No budget is spent. The T-join fixes every parity from
any start, and at k = 2 the split keeps each factor at floor or ceil of
d+-(v)/2 whatever the out-degree, so no balanced start is needed.

For k >= 3 a mod-k orientation is found by a first plan, then search. The
first plan gives every vertex its residue-compliant out-degree nearest d(v)/2
and shifts the cheapest vertices by +-k until the plan sums to |E|; one flow
realizes it. When that plan is not realizable, a plan search runs: an iterative
depth-first search over per-vertex residue-compliant out-degrees with
sum-window and partial Hakimi pruning. Each plan is realized exactly by a
flow from a near-balanced (Eulerian) start, computed once per call, that
reverses edges along shortest paths from vertices above their planned
out-degree to vertices below it on the vertex digraph, with no source or
sink node; no network is built when the start already meets the plan.
Exhaustion means infeasible; a spent node budget raises Undecided instead.
The residue map p is a plain tuple, read modulo k; residue_map builds it for
a special vertex z or a vertex set Z. Balanced orientations, for odd k and
for even k with a vertex set Q, are mod-k orientations for a residue map
read off the degrees, so they take the same route.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate, chain

from .errors import DEFAULT_BUDGET, Infeasible, InvalidInput, ResidueObstruction, Undecided
from .maxflow import FlowNetwork
from .multigraph import Multigraph, Orientation


def residue_map(g: Multigraph, z=None, Z=None) -> tuple:
    """Out-degree targets, read modulo k by their consumer: p(v) = d(v) on the
    vertex set Z, else |E| at the single vertex z, and 0 everywhere else
    (everywhere when both are None). At most one of z and Z may be given."""
    if z is not None and Z is not None:
        raise InvalidInput("at most one of z and Z may be given")
    if Z is not None:
        chosen = set(Z)
    else:
        chosen = set() if z is None else {z}
    for v in chosen:
        if not 0 <= v < g.n:
            raise InvalidInput(f"vertex {v} out of range")
    if Z is not None:
        return tuple(g.degree(v) if v in chosen else 0 for v in range(g.n))
    return tuple(g.m if v == z else 0 for v in range(g.n))


def eulerian_orientation(g: Multigraph) -> Orientation:
    """Orient every component along closed trails so that d+(v) = d-(v)."""
    for v, d in enumerate(g.degrees):
        if d % 2 == 1:
            raise Infeasible(f"vertex {v} has odd degree {d}")
    return near_balanced_orientation(g)


def near_balanced_orientation(g: Multigraph) -> Orientation:
    """Orientation with |d+(v) - d-(v)| <= 1, along the trails of trail_walk."""
    return Orientation(g, trail_walk(g)[0])


def trail_walk(g: Multigraph) -> tuple:
    """(tails, heads), one tail and one head per edge id, with |d+(v) - d-(v)|
    <= 1: trails walked from the odd-degree vertices, then from every vertex,
    each step along the least unused edge id at the current vertex. A trail
    from a vertex of odd remaining degree stops only at another one, so only
    open trail ends are unbalanced; on an even-degree graph the arcs are
    Eulerian.

    Each vertex's edge ids sit on a stack, descending, so that ``pop()``
    gives the least; an edge is on the stacks of both its ends (a loop twice
    on one), and a pop that finds it used drops it. Each id is popped at most
    twice: O(n + m).
    """
    edges = g.edges
    tails = [None] * g.m
    heads = [None] * g.m
    stacks = [[] for _ in range(g.n)]
    for eid in range(g.m - 1, -1, -1):
        u, w = edges[eid]
        stacks[u].append(eid)
        stacks[w].append(eid)
    for v0 in chain((v for v, d in enumerate(g.degrees) if d % 2 == 1), range(g.n)):
        x = v0
        stack = stacks[x]
        # an empty stack: back at the start, or at a vertex of odd remaining degree
        while stack:
            eid = stack.pop()
            if tails[eid] is None:
                tails[eid] = x
                u, w = edges[eid]
                x = heads[eid] = w if u == x else u
                stack = stacks[x]
    return tails, heads


def realize_out_degrees(g: Multigraph, o, *, start=None) -> Orientation:
    """Orientation with d+(v) = o(v) exactly, for an out-degree sequence o
    with 0 <= o(v) <= d(v) summing to |E| (InvalidInput otherwise).

    Starts from an orientation D of g, by default the near-balanced one
    (callers that realize many plans on one graph pass it as ``start``, so
    that it is computed once), and reverses edges along paths
    of D from vertices with too much out-degree to vertices with too little:
    one ``max_flow`` on the vertex digraph of D, one unit arc per edge in
    edge order (a loop's arc never carries flow), with each vertex's excess
    as its supply and its deficit as its room; flow on an arc reverses its
    edge. When D already meets the plan, D itself is returned and no
    network is built.

    Raises Infeasible with a certificate set A such that
    sum_{v in A} o(v) < |E(G[A])| (Hakimi violation) when no orientation
    exists: the residual reach of the first vertex whose excess finds no
    path to a deficit.
    """
    if len(o) != g.n:
        raise InvalidInput("plan must cover every vertex")
    for v, ov in enumerate(o):
        if not 0 <= ov <= g.degree(v):
            raise InvalidInput(f"plan value {ov} at vertex {v} outside [0, d(v)]")
    if sum(o) != g.m:
        raise InvalidInput("plan out-degrees must sum to |E|")
    if start is None:
        start = near_balanced_orientation(g)
    elif start.base is not g and start.base != g:
        raise InvalidInput("start orientation is not defined on this graph")
    excess = [out - x for out, x in zip(start.out_degrees, o)]
    if not any(excess):
        return start
    tails = start.tails
    heads = [u + v - x for (u, v), x in zip(g.edges, tails)]
    supply = [max(x, 0) for x in excess]
    net = FlowNetwork(g.n, tails, heads, [1] * g.m)
    net.max_flow(supply, [max(-x, 0) for x in excess])
    if any(supply):
        # The residual arcs are the edges as now oriented, so every edge
        # between the failed source's reach A and the rest points into A, and
        # sum_{v in A} d+(v) = e(G[A]) (a loop at v adds one to each side;
        # loops are never reversed, so a plan with o(v) < loops(v) or
        # d(v) - o(v) < loops(v) ends here too). No deficit is left in A and
        # some excess is, so sum_{v in A} o(v) < e(G[A]).
        raise Infeasible("out-degree plan is not realizable (Hakimi violation)",
                         certificate=frozenset(v for v in range(g.n) if net.mark[v] == net.search))
    # a unit of flow on an edge's arc reverses the edge
    return Orientation(g, [y if flow else x for x, y, flow in zip(tails, heads, net.cap[1::2])])


def _plan_candidates(g: Multigraph, v: int, residue: int, k: int) -> list:
    """Residue-compliant out-degree values at v in [loops(v), d(v) - loops(v)],
    nearest d(v)/2 first, ties to the smaller."""
    d, loops = g.degree(v), g.loops[v]
    first = loops + (residue - loops) % k
    return sorted(range(first, d - loops + 1, k), key=lambda x: (abs(2 * x - d), x))


def _nearest_candidate(d: int, loops: int, residue: int, k: int):
    """The first of ``_plan_candidates``, in O(1): the value = residue (mod k) in
    [loops, d - loops] nearest d/2, ties to the smaller; None if there is none."""
    half = d // 2
    c = half - (half - residue) % k  # the largest value = residue (mod k) up to d/2
    if 2 * (c + k) - d < d - 2 * c:
        c += k
    # [loops, d - loops] is symmetric about d/2: if the nearest value is out
    # of it, so is every other
    return c if loops <= c <= d - loops else None


def _first_plan(g: Multigraph, k: int, p):
    """The first plan: each vertex's nearest candidate, then (|E| - sum)/k
    shifts by +-k, each the one that adds the least to sum |2o(v) - d(v)|
    (ties to the smaller degree, then the larger vertex). An added cost only
    grows as a vertex moves away from d(v)/2, so the plan has the least total
    imbalance of all plans that sum to |E|.

    Raises Infeasible when some vertex has no candidate; returns None when
    the shifts run out of range.
    """
    # most vertices share their (degree, loops, residue): one answer per key
    nearest = cache(partial(_nearest_candidate, k=k))
    o = list(map(nearest, g.degrees, g.loops, p))
    if None in o:
        v = o.index(None)
        raise Infeasible(
            f"vertex {v} of degree {g.degree(v)} admits no out-degree = {p[v]} (mod k = {k})"
        )
    shifts = (g.m - sum(o)) // k
    if not shifts:
        return o
    import heapq  # here, so that plans that need no shift cost no import

    step = k if shifts > 0 else -k

    def entry(v):
        """Heap entry for one more shift at v, or None when out of range."""
        c, d, loops = o[v] + step, g.degrees[v], g.loops[v]
        if loops <= c <= d - loops:
            return (abs(2 * c - d) - abs(2 * o[v] - d), d, -v)
        return None

    heap = [e for e in map(entry, range(g.n)) if e is not None]
    heapq.heapify(heap)
    for _ in range(abs(shifts)):
        if not heap:
            return None
        v = -heapq.heappop(heap)[2]
        o[v] += step
        e = entry(v)
        if e is not None:
            heapq.heappush(heap, e)
    return o


def _plan_search(g: Multigraph, order, cand, budget: int, start=None) -> Orientation:
    """Realize the first plan, depth first, that gives vertex order[i] one of
    the out-degrees cand[i], each list tried in its own order.

    The search keeps its state on per-depth arrays instead of the call stack:
    the next candidate index and the running out-degree sum. Every candidate
    tried counts as one node. A prefix is cut when no completion sums to |E|,
    or when its out-degrees or its in-degrees fall short of the edges inside
    it (Hakimi's bound on the prefix set). Every leaf is realized from
    ``start``, by default the near-balanced orientation. Raises Infeasible
    when the plans run out and Undecided when the node budget does.
    """
    n, m = g.n, g.m
    # min_suffix[i], max_suffix[i]: the least and greatest candidate sums over order[i:]
    min_suffix = list(accumulate(map(min, reversed(cand)), initial=0))[::-1]
    max_suffix = list(accumulate(map(max, reversed(cand)), initial=0))[::-1]
    if start is None:
        start = near_balanced_orientation(g)  # shared by every leaf
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # for Hakimi pruning at depth i: internal[i] counts the edges (loops
    # included) with both ends among order[:i + 1], deg_sum[i] their degrees
    added = [0] * n
    for u, w in g.edges:
        a, b = pos[u], pos[w]
        added[a if a > b else b] += 1
    internal = list(accumulate(added))
    deg = g.degrees
    deg_sum = list(accumulate(deg[v] for v in order))
    sum_o = [0] * (n + 1)  # sum_o[i]: chosen out-degrees over order[:i]
    nxt = [0] * n  # nxt[i]: index of the next candidate to try at depth i
    nodes = 0
    i = 0
    while i >= 0:
        if i == n:
            o = [0] * n
            for v, c, j in zip(order, cand, nxt):
                o[v] = c[j - 1]
            try:
                return realize_out_degrees(g, o, start=start)
            except Infeasible:
                i -= 1
                continue
        j = nxt[i]
        if j == len(cand[i]):
            nxt[i] = 0
            i -= 1
            continue
        nxt[i] = j + 1
        nodes += 1
        if nodes > budget:
            raise Undecided(f"mod-k plan search exceeded node budget {budget}")
        so = sum_o[i] + cand[i][j]
        if so + min_suffix[i + 1] > m or so + max_suffix[i + 1] < m:
            continue
        if so < internal[i] or deg_sum[i] - so < internal[i]:
            continue
        sum_o[i + 1] = so
        i += 1
    raise Infeasible("no residue-compliant orientation found")


def _mod_2_orientation(g: Multigraph, p) -> Orientation:
    """Orientation with d+(v) = p(v) (mod 2), each p(v) in {0, 1}, or Infeasible.

    Reversing an edge flips the out-degree parity at both of its ends. From
    the stored tails, each edge (u, w) as u -> w, let W be the vertices of
    wrong parity; in each tree of a BFS spanning forest, walked leaves
    first, the edge above every vertex whose subtree holds an odd number of
    W vertices is reversed. That fixes every vertex but the root, which is
    fixed too exactly when its component C holds an even number of W
    vertices. An odd number means sum_C p != |E(C)| (mod 2), as
    sum_C d+ = |E(C)|: no mod-2 orientation exists, and C is the
    certificate.
    """
    edges = g.edges
    tails = [u for u, _ in edges]
    incidence = [[] for _ in range(g.n)]  # the edge ids at each vertex, ascending, a loop once
    for eid, (u, w) in enumerate(edges):
        incidence[u].append(eid)
        if u != w:
            incidence[w].append(eid)
    odd = list(p)  # 1 at the vertices of W, then summed over subtrees below
    for tail in tails:
        odd[tail] ^= 1
    up = [-1] * g.n  # the tree edge from each vertex to its parent
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        tree = [root]
        for x in tree:
            for eid in incidence[x]:
                u, w = edges[eid]
                y = u + w - x
                if not seen[y]:
                    seen[y] = True
                    up[y] = eid
                    tree.append(y)
        for x in reversed(tree[1:]):
            if odd[x]:
                eid = up[x]
                u, w = edges[eid]
                tails[eid] = u + w - tails[eid]
                odd[u + w - x] ^= 1
        if odd[root]:
            inside = set(tree)
            size = sum(1 for u, _ in edges if u in inside)
            raise Infeasible(
                f"the residues on the component of vertex {root} sum to "
                f"{sum(p[v] for v in tree) % 2} (mod 2), but it has {size} edges",
                certificate=frozenset(tree),
            )
    return Orientation(g, tails)


def mod_k_orientation(g: Multigraph, k: int, p, budget: int = DEFAULT_BUDGET) -> Orientation:
    """Orientation with d+(v) = p(v) (mod k) at every vertex. k = 2 takes one
    T-join pass from the stored tails (``_mod_2_orientation``), exact with no
    walk and no budget spent; k >= 3 a first plan, then search, each plan
    realized from the near-balanced start.

    With a budget of at least n nodes, the first plan (``_first_plan``, the
    least-imbalance plan that sums to |E|) is realized by one flow and
    returned when it is realizable. Otherwise, and with no nodes charged for
    that try, the plan search visits vertices by decreasing degree, each
    vertex's residue-compliant out-degrees nearest d(v)/2 first.

    Raises ResidueObstruction when sum(p) != |E| (mod k), Infeasible when a
    vertex has no residue-compliant out-degree, a component's residues
    cannot sum to its edge count (k = 2) or the plan search space is
    exhausted, and Undecided when the node budget runs out.
    """
    if budget < 0:
        raise InvalidInput("budget must be >= 0")
    if k < 1:
        raise InvalidInput("modulus k must be >= 1")
    p = tuple(int(x) % k for x in p)
    if len(p) != g.n:
        raise InvalidInput("residue map must cover every vertex")
    if (sum(p) - g.m) % k != 0:
        raise ResidueObstruction(
            f"sum of residues {sum(p) % k} != |E| mod k = {g.m % k}"
        )
    if k == 1:
        return Orientation(g, [u for u, _ in g.edges])
    if k == 2:
        return _mod_2_orientation(g, p)
    plan = _first_plan(g, k, p)
    start = near_balanced_orientation(g)
    if plan is not None and budget >= g.n:  # one leaf of the search costs n nodes
        try:
            return realize_out_degrees(g, plan, start=start)
        except Infeasible:
            pass
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    cand = [_plan_candidates(g, v, p[v], k) for v in order]
    return _plan_search(g, order, cand, budget, start=start)


def balanced_mod_k_orientation(g: Multigraph, k: int, q=None, budget: int = DEFAULT_BUDGET) -> Orientation:
    """Balanced orientations modulo k, each a p-orientation.

    Odd k (q must be None): d+(v) = d-(v) (mod k) at every vertex, with
    p(v) = d(v) * inv(2) mod k.

    Even k (even-degree graph, |q| even): d+(v) - d-(v) = k [v in q] (mod 2k),
    with p(v) = d(v)/2 + (k/2) [v in q] mod k. This is what parity mode of
    ``decompose_directed`` needs for the parity targets of ``parity_factorize``.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k % 2 == 1:
        if q is not None:
            raise InvalidInput("Q is only meaningful for even k")
        inv2 = (k + 1) // 2
        p = [(d * inv2) % k for d in g.degrees]
    else:
        q = set(q or ())
        for v, d in enumerate(g.degrees):
            if d % 2 == 1:
                raise InvalidInput(f"even-k balance needs even degrees; vertex {v} has degree {d}")
        if len(q) % 2 == 1:
            raise InvalidInput("|Q| must be even")
        if not q <= set(range(g.n)):
            raise InvalidInput("Q has a vertex out of range")
        p = [(d // 2 + (k // 2 if v in q else 0)) % k for v, d in enumerate(g.degrees)]
    return mod_k_orientation(g, k, p, budget=budget)

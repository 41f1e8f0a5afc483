"""Connectivity hypothesis checkers.

One exact polynomial algorithm per quantity, at every input size:

- edge connectivity: one maximum-adjacency (Nagamochi-Ibaraki) ordering of
  the vertices; a step whose attachment weight does not already certify the
  best cut so far pushes its two-edge paths into the scanned set first.
- minimum T-odd cut (odd edge connectivity, d(X) on f-odd sets): Gusfield's
  non-contracting cut construction over the terminal set T only, at most
  |T| - 1 max flows; the smallest T-odd cut among them is the answer
  (Padberg-Rao). Both push flow on one ``maxflow.FlowNetwork`` built from
  flat arc lists (``_cut_network``) with one augmenting search,
  ``_push_paths``, whose last, failed search marks the cut side.
- tree connectivity: the Nash-Williams-Tutte bounds floor(lambda/2) <= tau <=
  min(lambda, floor(m/(n-1))); matroid-union forest packing runs only when
  they leave the answer open, growing one forest at a time.

Every advisory check is one threshold question ("is every f-odd cut at
least 3k - 2, or are there 2k - 2 spanning trees?") to ``f_odd_cut_bound``:
edge connectivity and the T-odd cut take a limit, each exact below it and
some value >= limit otherwise, and the forest packing only decides whether
the trees asked fit. ``analyze`` passes none and stays exact.

Infinity is represented by math.inf, never by a sentinel integer.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import InvalidInput
from .maxflow import FlowNetwork
from .multigraph import Multigraph, parity_targets


def _cut_network(g: Multigraph) -> FlowNetwork:
    """One FlowNetwork of g, loops dropped: the edges between two vertices are
    one arc pair (a, a ^ 1) of that many units each way, first listed first."""
    weights = {}
    for u, v in g.edges:
        if u != v:
            key = (u, v) if u < v else (v, u)
            weights[key] = weights.get(key, 0) + 1
    caps = list(weights.values())
    return FlowNetwork(g.n, [u for u, _ in weights], [v for _, v in weights], caps, caps)


def _push_paths(net: FlowNetwork, full, sink, mark, parent, search: int, x: int, value: int, goal, touched):
    """Push paths from x into the sink {v : sink[v]} until value reaches
    goal or a search fails; x's arcs into the sink are counted in value,
    never searched. Each path is one stack-ordered search (pop a vertex,
    scan its arcs) under the next id, which marks what it reaches and notes
    in parent the arc it came by. Every arc in touched or pushed on is reset
    to full. Returns (value, id of the last search); below goal that search
    failed, and the vertices it marked are the residual reach of x, the
    least minimum-cut side holding x whatever paths built the flow.
    """
    out, head, cap = net.graph, net.to, net.cap
    while value < goal:
        search += 1
        mark[x] = search
        stack = [x]
        hit = -1
        while stack and hit < 0:
            y = stack.pop()
            for a in out[y]:
                z = head[a]
                if mark[z] == search or not cap[a]:
                    continue
                parent[z] = a
                if not sink[z]:
                    mark[z] = search
                    stack.append(z)
                elif y != x:
                    hit = z
                    break
        if hit < 0:
            break
        path = []
        while hit != x:
            a = parent[hit]
            path.append(a)
            hit = head[a ^ 1]
        push = min(goal - value, min(cap[a] for a in path))
        for a in path:
            cap[a] -= push
            cap[a ^ 1] += push
        touched += path
        value += push
    for a in touched:
        cap[a] = cap[a ^ 1] = full[a]
    return value, search


def edge_connectivity_witness(g: Multigraph, limit=None):
    """(lambda, witness A) with d(A) = lambda minimal over proper nonempty A.

    With a limit, the search starts from best = min(delta, limit), so the
    pair is exact when lambda < limit, and is (limit, None) or a cut of
    value limit otherwise.

    Scans the vertices in maximum-adjacency order t_1, t_2, ..., t_n (any
    order is exact; this one makes most steps free, see below). With
    S_i = {t_1, ..., t_{i-1}}, lambda is the minimum over i of
    lambda(S_i, t_i): the first t_i outside the side of a minimum cut that
    holds t_1 is separated from S_i by that cut. Each step only decides
    lambda(S_i, t_i) >= best, the smallest cut found so far (initially the
    minimum degree). The attachment weight r(t_i) of t_i to S_i certifies it
    when r >= best; otherwise at most best - r units of flow from t_i into
    S_i decide it. The paths t_i -> y -> S_i come first, one walk of each
    neighbour y's arcs into S_i; ``_push_paths`` finds those still missing,
    and a failed search leaves a smaller cut.
    """
    n = g.n
    if n < 2:
        return math.inf, None
    net = _cut_network(g)
    out, head, cap = net.graph, net.to, net.cap
    full = list(cap)  # capacities restored after each step; full[a] == full[a ^ 1]
    degree = [sum(full[a] for a in out[v]) for v in range(n)]
    best = min(degree)
    witness = [degree.index(best)]
    if limit is not None and limit < best:
        best, witness = limit, None
    in_s, r, parent, search = [False] * n, [0] * n, [0] * n, 0
    mark = [0] * n  # id of the last search that reached each vertex
    # bucket queue keyed by min(r, best); entries go stale when r grows
    buckets = [[] for _ in range(best + 1)]
    buckets[0] = list(range(n - 1, 0, -1))
    top = 0
    x = 0
    for _ in range(n - 1):
        in_s[x] = True
        for a in out[x]:
            y = head[a]
            if not in_s[y]:
                old = r[y]
                r[y] = old + full[a]
                if old < best:
                    key = min(r[y], best)
                    buckets[key].append(y)
                    top = max(top, key)
        while True:
            while not buckets[top]:
                top -= 1
            x = buckets[top].pop()
            if not in_s[x] and min(r[x], best) == top:
                break
        value = r[x]
        if value >= best:
            continue
        # two-edge paths x -> y -> S; x's own arcs into S are counted in r(x)
        touched = []
        for a in out[x]:
            if value == best:
                break
            y = head[a]
            if in_s[y] or not r[y]:
                continue
            for b in out[y]:
                if in_s[head[b]]:
                    push = min(cap[a], cap[b], best - value)
                    for c in a, b:
                        cap[c] -= push
                        cap[c ^ 1] += push
                    touched += (a, b)
                    value += push
                    if not cap[a] or value == best:
                        break
        value, search = _push_paths(net, full, in_s, mark, parent, search, x, value, best, touched)
        if value < best:
            # no key changes: every vertex outside S has r <= r(x) <= value
            best, witness = value, [v for v in range(n) if mark[v] == search]
    return best, None if witness is None else frozenset(witness)


def edge_connectivity(g: Multigraph):
    """Global edge connectivity; math.inf for a single-vertex graph."""
    return edge_connectivity_witness(g)[0]


def _min_t_odd_cut(g: Multigraph, t: set, limit=None):
    """Minimum d(A) over A with |A & t| odd, with a witness A.

    Gusfield's non-contracting cut construction over the terminals ("Very
    simple methods for all pairs network flow analysis", SIAM J. Comput.
    1990): every terminal starts with the smallest one as its parent. Each
    later terminal s, in order, takes a minimum cut between s and its parent
    in the whole graph, with s's side the residual reach of s, marked by
    the last, failed search of ``_push_paths`` from s into {parent[s]}; the
    later terminals on that side that share s's parent move under s. As
    with Padberg-Rao over a Gomory-Hu tree, the smallest of these |t| - 1
    cuts whose side holds an odd number of terminals is a minimum T-odd cut
    (the tests check this against exhaustive enumeration and networkx's
    Gomory-Hu tree). |t| must be even (it is whenever t comes from degree
    or parity sums). Returns (math.inf, None) when t is empty or no T-odd
    cut is found.

    With a limit, the answer is exact below it and some value >= limit
    otherwise (a partial cut tree, as in Hariharan, Kavitha and Panigrahi,
    SODA 2007): each flow stops at limit units, and a step whose flow
    reaches it reads no side and moves no terminal. No cut below the limit
    separates such a pair (s, parent[s]); merging every such pair gives a
    graph G* with the same cuts and T-parities below the limit. A terminal u
    that would have moved under s stays under parent[s], and in G* the
    minimum (u, s)- and (u, parent[s])-cuts are the same vertex sets, as is
    u's residual reach. A skipped s is no one's parent, so the run is the
    uncapped construction on G*, whose terminals may include merged vertices
    outside T: exact below the limit as far as that construction is (the
    open claim of ROADMAP item 2).
    """
    if not t:
        return math.inf, None
    terminals = sorted(t)
    net = _cut_network(g)
    out, head, full = net.graph, net.to, list(net.cap)
    goal = math.inf if limit is None else limit
    sink, mark, via = [False] * g.n, [0] * g.n, [0] * g.n
    parent = dict.fromkeys(terminals, terminals[0])
    best, witness, search = math.inf, None, 0
    for i, s in enumerate(terminals[1:], 1):
        p = parent[s]
        sink[p] = True
        value = sum(full[a] for a in out[s] if head[a] == p)
        value, search = _push_paths(net, full, sink, mark, via, search, s, value, goal, [])
        sink[p] = False
        if value >= goal:
            continue
        for u in terminals[i + 1 :]:
            if mark[u] == search and parent[u] == p:
                parent[u] = s
        if value < best and sum(mark[u] == search for u in terminals) % 2 == 1:
            best, witness = value, frozenset(v for v in range(g.n) if mark[v] == search)
    return best, witness


def odd_edge_connectivity(g: Multigraph):
    """min d(A) over A with d(A) odd; math.inf if none exists.

    d(A) is odd exactly when A holds an odd number of odd-degree vertices.
    """
    return _min_t_odd_cut(g, {v for v in range(g.n) if g.degree(v) % 2 == 1})[0]


class _ForestPacking:
    """Edge-disjoint forests grown by matroid-union augmenting paths.

    Each forest keeps a persistent adjacency map (vertex -> {neighbour: edge
    id}), so a path query is one BFS inside one forest. Forests are added one
    at a time; the earlier forests are reused, and only the edges left out so
    far are tried again.
    """

    def __init__(self, g: Multigraph):
        self.g = g
        self.adj = []
        self.owner = {}  # edge id -> forest index

    def grow(self, count: int) -> int:
        """Extend to count forests and pack greedily; returns the edges packed."""
        while len(self.adj) < count:
            self.adj.append([{} for _ in range(self.g.n)])
        for eid, (u, v) in enumerate(self.g.edges):
            if u != v and eid not in self.owner:
                self._insert(eid)
        return len(self.owner)

    def _path(self, i: int, a: int, b: int):
        """Edge ids on the a-b path of forest i; None if a and b are apart."""
        adj = self.adj[i]
        prev = {a: None}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for y, eid in adj[x].items():
                if y not in prev:
                    prev[y] = (eid, x)
                    if y == b:
                        path = []
                        while prev[y] is not None:
                            eid, y = prev[y]
                            path.append(eid)
                        return path
                    queue.append(y)
        return None

    def _link(self, i: int, eid: int, add: bool):
        u, v = self.g.edges[eid]
        if add:
            self.adj[i][u][v] = self.adj[i][v][u] = eid
        else:
            del self.adj[i][u][v], self.adj[i][v][u]

    def _insert(self, e0: int):
        # BFS over edges: came[y] = (x, i) when y lies on x's path in forest
        # i, so x can replace y there
        came = {e0: None}
        queue = deque([e0])
        found = None
        while queue and found is None:
            x = queue.popleft()
            xu, xv = self.g.edges[x]
            for i in range(len(self.adj)):
                if self.owner.get(x) == i:
                    continue
                path = self._path(i, xu, xv)
                if path is None:
                    found = (x, i)
                    break
                for y in path:
                    if y not in came:
                        came[y] = (x, i)
                        queue.append(y)
        if found is None:
            return
        # x moves into forest i; the edge that x displaced from its old
        # forest (came[x]) moves into that forest next
        x, i = found
        while True:
            if x in self.owner:
                self._link(self.owner[x], x, False)
            self._link(i, x, True)
            self.owner[x] = i
            if came[x] is None:
                return
            x, i = came[x]


def _tree_connectivity(g: Multigraph, lam, cap=math.inf) -> int:
    """Tree connectivity tau given lam = lambda(g); with a finite cap, only
    whether tau >= cap: cap if so, some smaller value if not.

    Nash-Williams-Tutte give floor(lam/2) <= tau <= min(lam, floor(m'/(n-1))),
    with m' the non-loop edges (k spanning trees need k(n-1) of them), and
    forests are packed only while these bounds leave the answer open: one
    more at a time for tau, and exactly cap of them, once, for the cap.
    """
    if g.n < 2:
        raise InvalidInput("tree connectivity needs at least two vertices")
    lo, hi = lam // 2, min(lam, sum(1 for u, v in g.edges if u != v) // (g.n - 1))
    if cap < math.inf:
        lo, hi = max(lo, cap - 1), min(hi, cap)
    packing = _ForestPacking(g)
    for k in range(lo + 1, hi + 1):
        if packing.grow(k) < k * (g.n - 1):
            return k - 1
    return hi


def tree_connectivity(g: Multigraph) -> int:
    """Maximum number of edge-disjoint spanning trees (Tutte/Nash-Williams)."""
    return _tree_connectivity(g, edge_connectivity(g))


def f_odd_cut_bound(g: Multigraph, f, lam: int, trees: int = 0):
    """Check "d(X) >= lam for every X with an odd sum of f over X, or else g
    has `trees` edge-disjoint spanning trees" (trees = 0: no alternative).
    f maps vertices to Z_2; f = None asks it of every proper nonempty X.

    Returns (True, None) or (False, witness X) with d(X) < lam. The answer
    is exact; the work stops at the threshold. Every f-odd set is a cut, so
    when f is None, when trees are asked or with four or more f-odd
    vertices, lambda capped at lam comes first: reaching lam settles the
    check with no T-odd flow, and below it lambda is exact, as the forest
    packing needs. Each T-odd flow is capped at lam; forests come last.
    Nothing is computed when lam <= 0, or when lam = 1 and f = d mod 2, as
    every f-odd X then has odd d(X) (k = 1 regular and parity factors).
    """
    if f is not None:
        f = parity_targets(g, f)
        t = {v for v in range(g.n) if f[v] == 1}
        if not t:
            return True, None
    if lam <= 0 or lam == 1 and f is not None and all(x == d % 2 for x, d in zip(f, g.degrees)):
        return True, None
    if f is None or trees or len(t) >= 4:
        lam_g, witness = edge_connectivity_witness(g, lam)
        if lam_g >= lam:
            return True, None
    if f is not None:
        value, witness = _min_t_odd_cut(g, t, lam)
        if value >= lam:
            return True, None
    if trees and _tree_connectivity(g, lam_g, trees) >= trees:
        return True, None
    return False, witness


def analyze(g: Multigraph) -> tuple:
    """(lambda, odd lambda, tree connectivity)."""
    lam = edge_connectivity(g)
    return lam, odd_edge_connectivity(g), _tree_connectivity(g, lam) if g.n >= 2 else 0

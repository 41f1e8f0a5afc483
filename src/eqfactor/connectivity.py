"""Connectivity hypothesis checkers.

One exact polynomial algorithm per quantity, at every input size:

- edge connectivity: one maximum-adjacency (Nagamochi-Ibaraki) ordering of
  the vertices; a step whose attachment weight does not already certify the
  best cut so far runs at most that many augmenting-path searches.
- minimum T-odd cut (odd edge connectivity, d(X) on f-odd sets): Gusfield's
  non-contracting cut construction over the terminal set T only, |T| - 1
  max flows on one ``maxflow.FlowNetwork``; the smallest T-odd cut among
  them is the answer (Padberg-Rao).
- tree connectivity: the Nash-Williams-Tutte bounds floor(lambda/2) <= tau <=
  min(lambda, floor(m/(n-1))); matroid-union forest packing runs only when
  they differ, growing one forest at a time.

Infinity is represented by math.inf, never by a sentinel integer.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import InvalidInput
from .maxflow import FlowNetwork
from .multigraph import Multigraph


def _merged_edges(g: Multigraph) -> dict:
    """{(u, v): multiplicity} over non-loop edges, u < v."""
    weights = {}
    for u, v in g.edges:
        if u != v:
            key = (u, v) if u < v else (v, u)
            weights[key] = weights.get(key, 0) + 1
    return weights


def edge_connectivity_witness(g: Multigraph):
    """(lambda, witness A) with d(A) = lambda minimal over proper nonempty A.

    Scans the vertices in maximum-adjacency order t_1, t_2, ..., t_n (any
    order is exact; this one makes most steps free, see below). With
    S_i = {t_1, ..., t_{i-1}}, lambda is the minimum over i of
    lambda(S_i, t_i): the first t_i outside the side of a minimum cut that
    holds t_1 is separated from S_i by that cut. Each step only decides
    lambda(S_i, t_i) >= best, the smallest cut found so far (initially the
    minimum degree). The attachment weight r(t_i) of t_i to S_i certifies it
    when r >= best; otherwise at most best - r augmenting paths from t_i to
    S_i decide it, and a failed search leaves the residual reach of t_i as a
    smaller cut.
    """
    n = g.n
    if n < 2:
        return math.inf, None
    # arc pairs (a, a ^ 1) of the merged graph; arc a enters head[a]
    out = [[] for _ in range(n)]
    head = []
    cap = []
    for (u, v), w in _merged_edges(g).items():
        out[u].append(len(head))
        head.append(v)
        out[v].append(len(head))
        head.append(u)
        cap += (w, w)
    degree = [sum(cap[a] for a in out[v]) for v in range(n)]
    best = min(degree)
    witness = [degree.index(best)]
    flow = [0] * len(head)
    in_s = [False] * n
    r = [0] * n
    mark = [0] * n  # id of the last search that reached each vertex
    search = 0
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
                r[y] = old + cap[a]
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
        # augment from x into S along shortest residual paths; arcs from x
        # straight into S are already counted in r(x)
        touched = []
        while value < best:
            search += 1
            mark[x] = search
            parent = {}
            reach = [x]
            hit = -1
            for y in reach:
                for a in out[y]:
                    z = head[a]
                    if mark[z] == search or cap[a] == flow[a] or (y == x and in_s[z]):
                        continue
                    parent[z] = a
                    if in_s[z]:
                        hit = z
                        break
                    mark[z] = search
                    reach.append(z)
                if hit >= 0:
                    break
            if hit < 0:
                break
            path = []
            while hit != x:
                a = parent[hit]
                path.append(a)
                hit = head[a ^ 1]
            push = min(best - value, min(cap[a] - flow[a] for a in path))
            for a in path:
                flow[a] += push
                flow[a ^ 1] -= push
            touched += path
            value += push
        for a in touched:
            flow[a] = flow[a ^ 1] = 0
        if value < best:
            # no key changes: every vertex outside S has r <= r(x) <= value
            best, witness = value, reach
    return best, frozenset(witness)


def edge_connectivity(g: Multigraph):
    """Global edge connectivity; math.inf for a single-vertex graph."""
    return edge_connectivity_witness(g)[0]


def _min_t_odd_cut(g: Multigraph, t: set):
    """Minimum d(A) over A with |A & t| odd, with a witness A.

    Gusfield's non-contracting cut construction over the terminals ("Very
    simple methods for all pairs network flow analysis", SIAM J. Comput.
    1990): every terminal starts with the smallest one as its parent. Each
    later terminal s, in order, takes a minimum cut between s and its parent
    in the whole graph, with s's side the residual reach of s; the later
    terminals on that side that share s's parent move under s. As with
    Padberg-Rao over a Gomory-Hu tree, the smallest of these |t| - 1 cuts
    whose side holds an odd number of terminals is a minimum T-odd cut
    (tests/test_connectivity.py checks this against exhaustive enumeration
    and against networkx's Gomory-Hu tree). All flows run on one network
    whose capacities are reset before each. |t| must be even (it is whenever
    t comes from degree or parity sums). Returns (math.inf, None) when t is
    empty or no T-odd cut is found.
    """
    if not t:
        return math.inf, None
    terminals = sorted(t)
    net = FlowNetwork(g.n)
    for (u, v), w in _merged_edges(g).items():
        # an undirected edge is one arc pair with capacity w each way
        net.cap[net.add_edge(u, v, w) + 1] = w
    full = list(net.cap)
    parent = dict.fromkeys(terminals, terminals[0])
    best, witness = math.inf, None
    for i, s in enumerate(terminals[1:], 1):
        net.cap[:] = full
        value = net.max_flow(s, parent[s])
        side = net.residual_reachable(s)
        for u in terminals[i + 1 :]:
            if parent[u] == parent[s] and u in side:
                parent[u] = s
        if value < best and len(side.intersection(t)) % 2 == 1:
            best, witness = value, frozenset(side)
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
            self.adj[i][u][v] = eid
            self.adj[i][v][u] = eid
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


def _forest_count_bound(g: Multigraph) -> int:
    """floor(m'/(n-1)) with m' the non-loop edges: k spanning trees need k(n-1)."""
    if g.n < 2:
        raise InvalidInput("tree connectivity needs at least two vertices")
    return sum(1 for u, v in g.edges if u != v) // (g.n - 1)


def _tree_connectivity(g: Multigraph, lam) -> int:
    """Tree connectivity tau given lam = lambda(g): Nash-Williams-Tutte give
    floor(lam/2) <= tau <= min(lam, floor(m'/(n-1))), and forests are packed
    one more at a time only while the bounds leave tau open."""
    lo, hi = lam // 2, min(lam, _forest_count_bound(g))
    packing = _ForestPacking(g)
    for k in range(lo + 1, hi + 1):
        if packing.grow(k) < k * (g.n - 1):
            return k - 1
    return hi


def tree_connectivity(g: Multigraph) -> int:
    """Maximum number of edge-disjoint spanning trees (Tutte/Nash-Williams)."""
    return _tree_connectivity(g, edge_connectivity(g))


def tree_connected(g: Multigraph, k: int, lam: int) -> bool:
    """True iff g has k edge-disjoint spanning trees, given lam = lambda(g).

    The counting bound and then the Nash-Williams-Tutte bounds decide most
    inputs; otherwise exactly k forests are packed once.
    """
    if k <= 0:
        return True
    if _forest_count_bound(g) < k:
        return False
    if lam < k or lam // 2 >= k:
        return lam >= k
    return _ForestPacking(g).grow(k) == k * (g.n - 1)


def f_odd_cut_bound(g: Multigraph, f, lam: int):
    """Check d(X) >= lam for every X with sum of f over X odd.

    Returns (True, None) or (False, witness X). f maps vertices to Z_2.
    """
    f = tuple(int(x) % 2 for x in f)
    if len(f) != g.n:
        raise InvalidInput("f must assign a parity to every vertex")
    if sum(f) % 2 == 1:
        raise InvalidInput("sum of f over V must be even")
    value, witness = _min_t_odd_cut(g, {v for v in range(g.n) if f[v] == 1})
    if value < lam:
        return False, witness
    return True, None


def analyze(g: Multigraph) -> tuple:
    """(lambda, odd lambda, tree connectivity)."""
    lam = edge_connectivity(g)
    odd_lam = odd_edge_connectivity(g)
    tree_conn = _tree_connectivity(g, lam) if g.n >= 2 else 0
    return lam, odd_lam, tree_conn

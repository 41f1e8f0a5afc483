"""Connectivity hypothesis checkers.

One exact polynomial algorithm per quantity, at every input size:

- edge connectivity: one maximum-adjacency (Nagamochi-Ibaraki) ordering of
  the vertices; a step whose attachment weight does not already certify the
  best cut so far runs at most that many augmenting-path searches.
- minimum T-odd cut (odd edge connectivity, d(X) on f-odd sets): Padberg-Rao
  over a Gomory-Hu tree for the terminal set T only, built with contraction
  by |T| - 1 max flows on ``maxflow.FlowNetwork``.
- tree connectivity: the Nash-Williams-Tutte bounds floor(lambda/2) <= tau <=
  min(lambda, floor(m/(n-1))); matroid-union forest packing runs only when
  they differ, growing one forest at a time.

Infinity is represented by math.inf, never by a sentinel integer.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

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

    Padberg-Rao: some fundamental cut of a Gomory-Hu tree for the terminal
    set t is a minimum T-odd cut. The tree is built with contraction: each of
    the |t| - 1 max flows splits a tree node holding two terminals, in the
    graph where every subtree hanging off that node is one vertex. |t| must
    be even (it is whenever t comes from degree or parity sums). Returns
    (math.inf, None) when t is empty.
    """
    if not t:
        return math.inf, None
    n = g.n
    edges = _merged_edges(g)
    node_of = [0] * n  # tree node holding each vertex
    terminals = [sorted(t)]  # terminals held by each tree node
    tree = [{}]  # tree[a][b]: cut value of tree edge a-b
    for _ in range(len(t) - 1):
        a = next(i for i, ts in enumerate(terminals) if len(ts) > 1)
        # every other tree node collapses onto the neighbour of a that
        # leads to it
        hub = {}
        for b in tree[a]:
            hub[b] = b
            stack = [b]
            while stack:
                c = stack.pop()
                for d in tree[c]:
                    if d != a and d not in hub:
                        hub[d] = b
                        stack.append(d)
        ids = {}
        ident = [ids.setdefault(v if node_of[v] == a else n + hub[node_of[v]], len(ids)) for v in range(n)]
        caps = {}
        for (u, v), w in edges.items():
            iu, iv = ident[u], ident[v]
            if iu != iv:
                key = (iu, iv) if iu < iv else (iv, iu)
                caps[key] = caps.get(key, 0) + w
        net = FlowNetwork(len(ids))
        for (iu, iv), w in caps.items():
            net.add_edge(iu, iv, w)
            net.add_edge(iv, iu, w)
        s, s2 = terminals[a][:2]
        value = net.max_flow(ident[s], ident[s2])
        reach = net.residual_reachable(ident[s])
        c = len(tree)
        tree.append({})
        terminals.append([v for v in terminals[a] if ident[v] not in reach])
        terminals[a] = [v for v in terminals[a] if ident[v] in reach]
        for v in range(n):
            if node_of[v] == a and ident[v] not in reach:
                node_of[v] = c
        for b in list(tree[a]):
            if ids[n + b] not in reach:
                tree[c][b] = tree[b][c] = tree[a].pop(b)
                del tree[b][a]
        tree[a][c] = tree[c][a] = value
    # root the tree at node 0; every node holds exactly one terminal, so the
    # fundamental cut below node c is T-odd iff c's subtree has odd size
    parent = {0: None}
    order = [0]
    for c in order:
        for d in tree[c]:
            if d not in parent:
                parent[d] = c
                order.append(d)
    size = dict.fromkeys(order, 1)
    for c in reversed(order[1:]):
        size[parent[c]] += size[c]
    best, below = math.inf, None
    for c in order[1:]:
        if size[c] % 2 == 1 and tree[c][parent[c]] < best:
            best, below = tree[c][parent[c]], c
    if below is None:
        return math.inf, None
    side = {below}
    for c in order:
        if parent[c] in side:
            side.add(c)
    return best, frozenset(v for v in range(n) if node_of[v] in side)


def odd_edge_connectivity_witness(g: Multigraph):
    """(min d(A) over A with d(A) odd, witness); (math.inf, None) if none exists.

    d(A) is odd exactly when A holds an odd number of odd-degree vertices.
    """
    return _min_t_odd_cut(g, {v for v in range(g.n) if g.degree(v) % 2 == 1})


def odd_edge_connectivity(g: Multigraph):
    return odd_edge_connectivity_witness(g)[0]


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


def tree_connected(g: Multigraph, k: int) -> bool:
    """True iff g has k edge-disjoint spanning trees.

    The counting bound and then the Nash-Williams-Tutte bounds decide most
    inputs; otherwise exactly k forests are packed once.
    """
    if k <= 0:
        return True
    if _forest_count_bound(g) < k:
        return False
    lam = edge_connectivity(g)
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


@dataclass
class CutReport:
    """Connectivity statistics with witness cuts."""

    lam: object
    odd_lam: object
    tree_conn: int
    witnesses: list = field(default_factory=list)


def analyze(g: Multigraph) -> CutReport:
    lam, wit = edge_connectivity_witness(g)
    odd_lam, odd_wit = odd_edge_connectivity_witness(g)
    tree_conn = _tree_connectivity(g, lam) if g.n >= 2 else 0
    witnesses = [w for w in (wit, odd_wit) if w is not None]
    return CutReport(lam=lam, odd_lam=odd_lam, tree_conn=tree_conn, witnesses=witnesses)

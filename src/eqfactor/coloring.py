"""Directed decomposition engine: vertex splitting, Konig coloring, rebalancing.

A directed multigraph is split into a loopless bipartite graph of maximum
degree <= k (out-chunks vs in-chunks), properly k-edge-colored by alternating
path swaps, optionally rebalanced so color-class sizes differ by at most one,
and the colors are pulled back to a factorization of the original edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput
from .multigraph import Factorization, Multigraph, Orientation
from .orientation import near_balanced_orientation


@dataclass
class BipartiteSplit:
    """Bipartite chunk graph of an orientation.

    chunk_of[b_vertex] = (original vertex, side, chunk index) with side in
    {"out", "in"}; origin_edge[b_edge] = original edge id, or None for an
    artificial parity-padding edge.
    """

    b: Multigraph
    chunk_of: tuple
    origin_edge: tuple

    def real_edges(self):
        return [i for i, o in enumerate(self.origin_edge) if o is not None]


@dataclass
class EdgeColoring:
    """Proper edge coloring of a bipartite chunk graph, colors 1..k."""

    k: int
    color: tuple


def split_to_bipartite(d: Orientation, k: int, parity_mode: bool = False) -> BipartiteSplit:
    """Split each vertex side into chunks of degree k (plus one deficient chunk).

    Edges fill chunks contiguously in edge-id order. In parity mode, for each
    vertex u with d+(u) = d-(u) != 0 (mod k), the two deficient chunks are
    padded to degree k with artificial parallel edges between them.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    g = d.base
    chunk_id = {}
    chunk_of = []
    for v in range(g.n):
        for side, deg in (("out", d.out_degree(v)), ("in", d.in_degree(v))):
            for idx in range(-(-deg // k)):
                chunk_id[(v, side, idx)] = len(chunk_of)
                chunk_of.append((v, side, idx))
    out_cnt = [0] * g.n
    in_cnt = [0] * g.n
    b_edges = []
    origin = []
    for eid in range(g.m):
        u = d.tails[eid]
        w = d.head(eid)
        b_edges.append((chunk_id[(u, "out", out_cnt[u] // k)], chunk_id[(w, "in", in_cnt[w] // k)]))
        origin.append(eid)
        out_cnt[u] += 1
        in_cnt[w] += 1
    if parity_mode:
        for u in range(g.n):
            dp, dm = d.out_degree(u), d.in_degree(u)
            if dp % k == dm % k and dp % k != 0:
                top = chunk_id[(u, "out", dp // k)]
                bot = chunk_id[(u, "in", dm // k)]
                for _ in range(k - dp % k):
                    b_edges.append((top, bot))
                    origin.append(None)
    return BipartiteSplit(b=Multigraph(len(chunk_of), b_edges), chunk_of=tuple(chunk_of), origin_edge=tuple(origin))


def _bipartition(b: Multigraph):
    """Two-color the graph; raises on odd cycles."""
    side = [None] * b.n
    for start in range(b.n):
        if side[start] is not None:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for eid in b.incident(x):
                y = b.other_end(eid, x)
                if side[y] is None:
                    side[y] = 1 - side[x]
                    stack.append(y)
                elif side[y] == side[x]:
                    raise InvalidInput("graph is not bipartite (odd cycle detected)")
    return side


def konig_edge_coloring(b: Multigraph, k: int) -> EdgeColoring:
    """Proper <=k-edge-coloring of a bipartite multigraph with max degree <= k.

    Each edge takes a color missing at both ends, or a two-color alternating
    path is swapped to free one (always possible in bipartite graphs).
    """
    if b.has_loops():
        raise InvalidInput("edge coloring requires a loopless graph")
    _bipartition(b)
    if any(d > k for d in b.degrees):
        raise InvalidInput(f"maximum degree {max(b.degrees)} exceeds k = {k}")
    color = [0] * b.m
    at = [dict() for _ in range(b.n)]  # vertex -> {color: edge id}

    def free_color(v):
        for c in range(1, k + 1):
            if c not in at[v]:
                return c
        return None

    for eid, (u, w) in enumerate(b.edges):
        a = free_color(u)
        c = free_color(w)
        if a is None or c is None:
            raise InvalidInput("degree bound violated during coloring")
        if a not in at[w]:
            chosen = a
        elif c not in at[u]:
            chosen = c
        else:
            # swap the (a, c) alternating path starting at w along color a;
            # bipartiteness keeps it away from u
            path = []
            x, cur = w, a
            while cur in at[x]:
                pe = at[x][cur]
                path.append(pe)
                x = b.other_end(pe, x)
                cur = c if cur == a else a
            # two phases: consecutive path edges share vertices, so deleting
            # and reinserting per edge would clobber neighbors' entries
            for pe in path:
                old = color[pe]
                for y in b.edges[pe]:
                    if at[y].get(old) == pe:
                        del at[y][old]
            for pe in path:
                new = c if color[pe] == a else a
                color[pe] = new
                pu, pw = b.edges[pe]
                at[pu][new] = pe
                at[pw][new] = pe
            chosen = a
        color[eid] = chosen
        at[u][chosen] = eid
        at[w][chosen] = eid
    return EdgeColoring(k=k, color=tuple(color))


def balance_color_sizes(split: BipartiteSplit, coloring: EdgeColoring, artificial_aware: bool = False) -> EdgeColoring:
    """Swap alternating paths until real color-class sizes differ by at most 1.

    Each swap moves one edge from the largest class to the smallest, strictly
    decreasing the imbalance potential, so at most m swaps occur.
    """
    b = split.b
    k = coloring.k
    real = set(split.real_edges()) if artificial_aware else set(range(b.m))
    if not artificial_aware and any(o is None for o in split.origin_edge):
        raise InvalidInput("balancing with artificial edges requires artificial_aware")
    color = list(coloring.color)
    for _ in range(b.m + k + 1):
        sizes = [0] * (k + 1)
        for eid in real:
            sizes[color[eid]] += 1
        hi = max(range(1, k + 1), key=lambda c: (sizes[c], -c))
        lo = min(range(1, k + 1), key=lambda c: (sizes[c], c))
        if sizes[hi] - sizes[lo] <= 1:
            return EdgeColoring(k=k, color=tuple(color))
        # components of the (hi, lo) subgraph are paths and even cycles;
        # some path carries one more hi than lo and has hi-colored ends
        sub_adj = [[] for _ in range(b.n)]
        for eid in range(b.m):
            if color[eid] in (hi, lo):
                u, w = b.edges[eid]
                sub_adj[u].append(eid)
                sub_adj[w].append(eid)
        swapped = False
        seen_edge = [False] * b.m
        for start in range(b.n):
            if len(sub_adj[start]) != 1:
                continue
            eid0 = sub_adj[start][0]
            if seen_edge[eid0]:
                continue
            path = []
            x, eid = start, eid0
            while True:
                seen_edge[eid] = True
                path.append(eid)
                x = b.other_end(eid, x)
                nxt = [e for e in sub_adj[x] if not seen_edge[e]]
                if not nxt:
                    break
                eid = nxt[0]
            gain = sum(1 if color[e] == hi else -1 for e in path if e in real)
            if gain >= 1:
                for e in path:
                    color[e] = lo if color[e] == hi else hi
                swapped = True
                break
        if not swapped:
            raise AssertionError("no rebalancing path found; coloring not proper?")
    raise AssertionError("rebalancing failed to terminate")


def decompose_directed(d: Orientation, k: int, mode: str = "size") -> Factorization:
    """Split a directed multigraph into k factors with per-vertex windows
    floor(d+-/k) <= per-factor out/in degrees <= ceil(d+-/k).

    mode "size" additionally balances ||E(G_i)| - |E|/k| < 1; mode "parity"
    instead forces d_{G_i}(u) = (d+(u) - d-(u))/k (mod 2) at every vertex u
    with d+(u) = d-(u) (mod k). Artificial padding edges are discarded after
    coloring.
    """
    if mode not in ("size", "parity"):
        raise InvalidInput(f"unknown mode {mode!r}")
    g = d.base
    if k == 1:
        return Factorization(g, 1, [1] * g.m)
    split = split_to_bipartite(d, k, parity_mode=(mode == "parity"))
    coloring = konig_edge_coloring(split.b, k)
    if mode == "size":
        coloring = balance_color_sizes(split, coloring)
    assignment = [0] * g.m
    for beid, orig in enumerate(split.origin_edge):
        if orig is not None:
            assignment[orig] = coloring.color[beid]
    return Factorization(g, k, assignment)


def anstee_decomposition(g: Multigraph, k: int) -> Factorization:
    """Near-balanced orientation (|d+ - d-| <= 1) followed by a size-mode split.

    Odd-degree vertices are paired through a temporary auxiliary vertex so an
    Eulerian orientation exists; auxiliary arcs are dropped afterwards.
    """
    return decompose_directed(near_balanced_orientation(g), k, mode="size")

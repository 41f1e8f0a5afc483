"""Directed decomposition engine: vertex splitting, Konig coloring, rebalancing.

A directed multigraph is split into a loopless bipartite graph of maximum
degree <= k (out-chunks vs in-chunks), properly k-edge-colored by alternating
path swaps, optionally rebalanced so color-class sizes differ by at most one,
and the colors are pulled back to a factorization of the original edges.
The split holds only its chunk graph, a plain Multigraph, and a coloring is
a plain tuple of colors 1..k, one per chunk-graph edge. The chunk graph is
bipartite by construction, so no odd-cycle test runs.
"""

from __future__ import annotations

from .errors import InvalidInput
from .multigraph import Factorization, Multigraph, Orientation
from .orientation import near_balanced_orientation


class BipartiteSplit:
    """The chunk graph b of an orientation. bench/tracer.py reads the result
    of split_to_bipartite as .b, so the chunk graph keeps this holder."""

    __slots__ = ("b",)

    def __init__(self, b: Multigraph):
        self.b = b


def split_to_bipartite(d: Orientation, k: int, parity_mode: bool = False) -> BipartiteSplit:
    """Split each vertex side into chunks of degree k (plus one deficient chunk).

    Chunks are numbered vertex by vertex: the ceil(d+(v)/k) out-chunks of v,
    then its ceil(d-(v)/k) in-chunks, then those of v + 1. Edges fill chunks
    contiguously in edge-id order, so edge i of b is edge i of the
    orientation for i < m. In parity mode, for each vertex u with d+(u) =
    d-(u) != 0 (mod k), the two deficient chunks are padded to degree k with
    artificial parallel edges between them, numbered after the m edges.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    g = d.base
    outd, ind = d.out_degrees, d.in_degrees
    out_first = [0] * g.n
    in_first = [0] * g.n
    chunks = 0
    for v in range(g.n):
        out_first[v] = chunks
        chunks += -(-outd[v] // k)
        in_first[v] = chunks
        chunks += -(-ind[v] // k)
    # slot counters: the next edge at v's out side goes to chunk out_slot[v] // k
    out_slot = [c * k for c in out_first]
    in_slot = [c * k for c in in_first]
    b_edges = []
    for (u, v), t in zip(g.edges, d.tails):
        h = u + v - t
        b_edges.append((out_slot[t] // k, in_slot[h] // k))
        out_slot[t] += 1
        in_slot[h] += 1
    if parity_mode:
        for u in range(g.n):
            r = outd[u] % k
            if r and r == ind[u] % k:
                pad = k - r
                b_edges += [(out_first[u] + outd[u] // k, in_first[u] + ind[u] // k)] * pad
    return BipartiteSplit(Multigraph(chunks, b_edges))


def konig_edge_coloring(b: Multigraph, k: int) -> tuple:
    """Proper <=k-edge-coloring of a bipartite multigraph with max degree <= k:
    the color of each edge, in 1..k.

    Each edge takes a color missing at both ends, or a two-color alternating
    path is swapped to free one (always possible in bipartite graphs). The
    color slots of all vertices live in one flat list: at[v * (k + 1) + c] is
    the edge of color c at v, or -1. The caller vouches that b is bipartite,
    as split_to_bipartite's chunk graph is by construction.
    """
    if b.has_loops():
        raise InvalidInput("edge coloring requires a loopless graph")
    if any(d > k for d in b.degrees):
        raise InvalidInput(f"maximum degree {max(b.degrees)} exceeds k = {k}")
    edges = b.edges
    stride = k + 1
    at = [-1] * (b.n * stride)
    color = [0] * b.m
    for eid, (u, w) in enumerate(edges):
        bu, bw = u * stride, w * stride
        # a free color exists at both ends: fewer than d <= k of their edges
        # are colored so far
        a = at.index(-1, bu + 1, bu + stride) - bu
        c = at.index(-1, bw + 1, bw + stride) - bw
        if at[bw + a] < 0:
            chosen = a
        elif at[bu + c] < 0:
            chosen = c
        else:
            # swap the (a, c) alternating path starting at w along color a;
            # bipartiteness keeps it away from u
            path = []
            x, cur = w, a
            while at[x * stride + cur] >= 0:
                pe = at[x * stride + cur]
                path.append(pe)
                pu, pw = edges[pe]
                x = pw if pu == x else pu
                cur = c if cur == a else a
            # two phases: consecutive path edges share vertices, so clearing
            # and refilling per edge would clobber neighbors' slots
            for pe in path:
                old = color[pe]
                for y in edges[pe]:
                    if at[y * stride + old] == pe:
                        at[y * stride + old] = -1
            for pe in path:
                new = c if color[pe] == a else a
                color[pe] = new
                pu, pw = edges[pe]
                at[pu * stride + new] = pe
                at[pw * stride + new] = pe
            chosen = a
        color[eid] = chosen
        at[bu + chosen] = eid
        at[bw + chosen] = eid
    return tuple(color)


def balance_color_sizes(b: Multigraph, color, k: int) -> tuple:
    """Swap alternating paths until color-class sizes differ by at most 1.

    Each round takes the largest class hi and the smallest lo, builds their
    subgraph once (paths and even cycles, as the coloring is proper), and
    swaps every path with one more hi than lo edge until the pair is within
    one. Each swap moves one edge from a class to one at least two smaller,
    so the sum of squared sizes drops and the rounds end.
    """
    edges = b.edges
    color = list(color)
    sizes = [0] * (k + 1)
    for c in color:
        sizes[c] += 1
    while True:
        hi = max(range(1, k + 1), key=lambda c: (sizes[c], -c))
        lo = min(range(1, k + 1), key=lambda c: (sizes[c], c))
        if sizes[hi] - sizes[lo] <= 1:
            return tuple(color)
        sub_adj = [[] for _ in range(b.n)]
        for eid, c in enumerate(color):
            if c == hi or c == lo:
                u, w = edges[eid]
                sub_adj[u].append(eid)
                sub_adj[w].append(eid)
        seen_edge = [False] * b.m
        for start in range(b.n):
            if len(sub_adj[start]) != 1 or seen_edge[sub_adj[start][0]]:
                continue
            path = []
            x, eid = start, sub_adj[start][0]
            while eid is not None:
                seen_edge[eid] = True
                path.append(eid)
                u, w = edges[eid]
                x = w if u == x else u
                eid = next((e for e in sub_adj[x] if not seen_edge[e]), None)
            gain = sum(1 if color[e] == hi else -1 for e in path)
            if gain >= 1:
                for e in path:
                    color[e] = lo if color[e] == hi else hi
                sizes[hi] -= gain
                sizes[lo] += gain
                if sizes[hi] - sizes[lo] <= 1:
                    break
        else:
            raise AssertionError("no rebalancing path found; coloring not proper?")


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
    # every chunk-graph edge, padding included, runs from an out-chunk to an
    # in-chunk, so the split is bipartite
    color = konig_edge_coloring(split.b, k)
    if mode == "size":  # no padding: only parity mode pads
        color = balance_color_sizes(split.b, color, k)
    # chunk-graph edge i is edge i of g for i < m; padding edges come after
    return Factorization(g, k, color[: g.m])


def anstee_decomposition(g: Multigraph, k: int) -> Factorization:
    """Near-balanced orientation (|d+ - d-| <= 1) followed by a size-mode split.

    Odd-degree vertices are paired through a temporary auxiliary vertex so an
    Eulerian orientation exists; auxiliary arcs are dropped afterwards.
    """
    return decompose_directed(near_balanced_orientation(g), k, mode="size")

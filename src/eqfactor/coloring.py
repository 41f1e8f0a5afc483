"""Directed decomposition engine: vertex splitting, edge coloring, rebalancing.

A directed multigraph is split into a loopless bipartite graph of maximum
degree <= k (out-chunks vs in-chunks) and properly k-edge-colored, optionally
rebalanced so color-class sizes differ by at most one, and the colors are
pulled back to a factorization of the original edges. Even k is halved by
Euler partitions, each half taking k/2 colors, and at k = 2 the halves are
the colors: k = 2^j takes j linear walks and no swap. Odd k, and the odd
part of k, is colored by Konig's method: greedily on free-color bitmasks,
with an alternating path swap where greedy is stuck.
The chunk graph is a chunk count and two flat int lists, the out-chunk and
the in-chunk of each chunk edge; the coloring and the rebalancing read those
lists, and no Multigraph is built for them. A coloring is a plain tuple of
colors 1..k, one per chunk-graph edge. The chunk graph is bipartite by
construction, so no odd-cycle test runs.
"""

from __future__ import annotations

from itertools import compress
from operator import eq

from .errors import InvalidInput
from .multigraph import Factorization, Multigraph, Orientation
from .orientation import near_balanced_orientation


class BipartiteSplit:
    """The chunk graph of an orientation: ``chunks`` vertices, and chunk edge
    i from out-chunk ``out_chunk[i]`` to in-chunk ``in_chunk[i]``. ``b`` is
    the same graph as a Multigraph, built on each read (bench/tracer.py
    reads ``b.m``); the decomposition never reads it."""

    __slots__ = ("chunks", "out_chunk", "in_chunk")

    def __init__(self, chunks: int, out_chunk: list, in_chunk: list):
        self.chunks = chunks
        self.out_chunk = out_chunk
        self.in_chunk = in_chunk

    @property
    def b(self) -> Multigraph:
        return Multigraph(self.chunks, zip(self.out_chunk, self.in_chunk))


def split_to_bipartite(d: Orientation, k: int, parity_mode: bool = False) -> BipartiteSplit:
    """Split each vertex side into chunks of degree k (plus one deficient chunk).

    Chunks are numbered vertex by vertex: the ceil(d+(v)/k) out-chunks of v,
    then its ceil(d-(v)/k) in-chunks, then those of v + 1. Edges fill chunks
    contiguously in edge-id order, so edge i of the chunk graph is edge i of
    the orientation for i < m. In parity mode, for each vertex u with d+(u) =
    d-(u) != 0 (mod k), the two deficient chunks are padded to degree k with
    artificial parallel edges between them, numbered after the m edges:
    k - (d+(u) mod k) at u, at most n(k - 1) in all. The slot counters live
    only in this call, so they are freed before coloring.
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
    # slot counters: the next edge at v's out side goes to chunk slot[v] // k
    out_chunk = []
    add = out_chunk.append
    slot = [c * k for c in out_first]
    for t in d.tails:
        s = slot[t]
        add(s // k)
        slot[t] = s + 1
    in_chunk = []
    add = in_chunk.append
    slot = [c * k for c in in_first]
    for (u, v), t in zip(g.edges, d.tails):
        h = u + v - t
        s = slot[h]
        add(s // k)
        slot[h] = s + 1
    if parity_mode:
        for u in range(g.n):
            r = outd[u] % k
            if r and r == ind[u] % k:
                pad = k - r
                out_chunk += [out_first[u] + outd[u] // k] * pad
                in_chunk += [in_first[u] + ind[u] // k] * pad
    return BipartiteSplit(chunks, out_chunk, in_chunk)


def konig_edge_coloring(n: int, us: list, ws: list, k: int) -> tuple:
    """Proper <=k-edge-coloring of a bipartite multigraph with max degree <= k,
    given as its vertex count n and the ends us[i], ws[i] of each edge i:
    the color of each edge, in 1..k.

    Edges are colored in id order. Each vertex keeps its free colors as one
    int bitmask, bit c - 1 for color c, so a color is picked by bit tests:
    the lowest color free at u if it is free at w, else the lowest free at w
    if it is free at u. When neither is, the two-color alternating path from
    w is swapped to free the first at w (always possible in bipartite graphs).
    The swap reads a flat slot table, at[v * (k + 1) + c] the edge of color
    c at v or -1, built from the colors so far at the first swap and kept up
    to date from then on. The caller vouches that the graph is bipartite
    with every end in range(n), as split_to_bipartite's chunk graph is by
    construction.
    """
    if any(map(eq, us, ws)):
        raise InvalidInput("edge coloring requires a loopless graph")
    free = [(1 << k) - 1] * n
    color = [0] * len(us)
    stride = k + 1
    at = None  # the slot table, from the first swap on
    for eid, u, w in zip(range(len(us)), us, ws):
        fu, fw = free[u], free[w]
        # a free color exists at both ends while fewer than k of their edges
        # are colored: only a degree above k finds none
        if not (fu and fw):
            deg = [0] * n
            for x in us + ws:
                deg[x] += 1
            raise InvalidInput(f"maximum degree {max(deg)} exceeds k = {k}")
        chosen = fu & -fu
        if not fw & chosen:
            c = fw & -fw
            if fu & c:
                chosen = c
            else:
                if at is None:
                    at = [-1] * (n * stride)
                    for e, x, y, cx in zip(range(eid), us, ws, color):
                        at[x * stride + cx] = at[y * stride + cx] = e
                # swap the (a, c) alternating path starting at w along color
                # a (bipartiteness keeps it away from u): each edge on it takes
                # the other color, and each vertex on it swaps its two slots
                a, c, both = chosen.bit_length(), c.bit_length(), chosen | c
                x, cur, new = w, a, c
                while True:
                    i, j = x * stride + cur, x * stride + new
                    pe = at[i]
                    at[i], at[j] = at[j], pe
                    if pe < 0:
                        break
                    color[pe] = new
                    x = us[pe] + ws[pe] - x
                    cur, new = new, cur
                # inner path vertices keep both colors; the two ends trade them
                fw ^= both
                free[x] ^= both
        free[u] = fu ^ chosen
        free[w] = fw ^ chosen
        col = color[eid] = chosen.bit_length()
        if at is not None:
            at[u * stride + col] = at[w * stride + col] = eid
    return tuple(color)


def _halves(n: int, us: list, ws: list) -> list:
    """The half, 1 or 2, of each edge of a graph as edge_coloring takes it,
    such that a vertex of degree d meets each half at most ceil(d/2) times:
    an Euler partition (Gabow 1976). The edges at each vertex are paired in
    id order (first with second, third with fourth, ...): pu[e] is e's
    partner at its us end, pw[e] at its ws end, or -1. Partners chain the
    edges into trails that step by pu and pw in turn, so the closed ones are
    even, and each trail alternates halves. A walk from an edge not yet
    placed that stops at an unpaired end walks the rest of its trail from
    the start's other end with the halves swapped; it keeps no stack. At max
    degree 2 the trails are the paths and cycles, and the halves a proper
    coloring."""
    m = len(us)
    pu, pw = [-1] * m, [-1] * m
    for partner, ends in ((pu, us), (pw, ws)):
        last = [-1] * n  # the edge at each vertex that waits for its partner
        for e, x in enumerate(ends):
            p = last[x]
            if p < 0:
                last[x] = e
            else:
                partner[e] = p
                partner[p] = e
                last[x] = -1
    half = [0] * m
    for e0 in range(m):
        if half[e0]:
            continue
        for e, a, b in ((e0, 1, 2), (pu[e0], 2, 1)):
            while e >= 0 and not half[e]:
                half[e] = a
                e = pw[e]
                if e < 0 or half[e]:
                    break
                half[e] = b
                e = pu[e]
    return half


def edge_coloring(n: int, us: list, ws: list, k: int) -> tuple:
    """Proper k-edge-coloring of a bipartite multigraph with max degree <= k,
    given as konig_edge_coloring takes it, with every us end on one side and
    every ws end on the other (split_to_bipartite's chunk graph, by
    construction): the color of each edge, in 1..k.

    Odd k is konig_edge_coloring. Even k colors each half of ``_halves``
    (Alon 2003), of max degree <= k/2, with k/2 colors, the second half from
    k/2 + 1 on: k = 2^j takes j linear passes and no swap, O(m log k), and
    any other even k ends in Konig on the parts of its odd factor.
    """
    if k % 2:
        return konig_edge_coloring(n, us, ws, k)
    halves = _halves(n, us, ws)
    if k == 2:
        return tuple(halves)
    k //= 2
    color = [0] * len(us)
    for h in (1, 2):
        keep = [x == h for x in halves]
        part = edge_coloring(n, list(compress(us, keep)), list(compress(ws, keep)), k)
        for e, c in zip(compress(range(len(us)), keep), part):
            color[e] = c + (h - 1) * k
    return tuple(color)


def balance_color_sizes(n: int, us: list, ws: list, color, k: int) -> tuple:
    """Swap alternating paths until color-class sizes differ by at most 1, on
    the graph of edge_coloring (n vertices, edge i from us[i] to ws[i]).

    Each round takes the largest class hi and the smallest lo, builds their
    subgraph once (paths and even cycles, as the coloring is proper), and
    swaps every path with one more hi than lo edge until the pair is within
    one. Each swap moves one edge from a class to one at least two smaller,
    so the sum of squared sizes drops and the rounds end.
    """
    color = list(color)
    sizes = [0] * (k + 1)
    for c in color:
        sizes[c] += 1
    while True:
        hi = max(range(1, k + 1), key=lambda c: (sizes[c], -c))
        lo = min(range(1, k + 1), key=lambda c: (sizes[c], c))
        if sizes[hi] - sizes[lo] <= 1:
            return tuple(color)
        sub_adj = [[] for _ in range(n)]
        for eid, c in enumerate(color):
            if c == hi or c == lo:
                sub_adj[us[eid]].append(eid)
                sub_adj[ws[eid]].append(eid)
        seen_edge = [False] * len(color)
        for start in range(n):
            if len(sub_adj[start]) != 1 or seen_edge[sub_adj[start][0]]:
                continue
            path = []
            x, eid = start, sub_adj[start][0]
            while eid is not None:
                seen_edge[eid] = True
                path.append(eid)
                x = us[eid] + ws[eid] - x
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

    The chunk graph is colored by edge_coloring: Euler-partition halving at
    even k, Konig at odd k. mode "size" additionally balances
    ||E(G_i)| - |E|/k| < 1; mode "parity" instead forces
    d_{G_i}(u) = (d+(u) - d-(u))/k (mod 2) at every vertex u with
    d+(u) = d-(u) (mod k). Artificial padding edges are discarded after
    coloring.
    """
    if mode not in ("size", "parity"):
        raise InvalidInput(f"unknown mode {mode!r}")
    g = d.base
    split = split_to_bipartite(d, k, parity_mode=(mode == "parity"))
    # every chunk-graph edge, padding included, runs from an out-chunk to an
    # in-chunk, so the split is bipartite
    ends = split.chunks, split.out_chunk, split.in_chunk
    color = edge_coloring(*ends, k)
    if mode == "size":  # no padding: only parity mode pads
        color = balance_color_sizes(*ends, color, k)
    # chunk-graph edge i is edge i of g for i < m; padding edges come after
    return Factorization(g, k, color[: g.m])


def anstee_decomposition(g: Multigraph, k: int) -> Factorization:
    """Near-balanced orientation (|d+ - d-| <= 1, trails walked from the
    odd-degree vertices first) followed by a size-mode split."""
    return decompose_directed(near_balanced_orientation(g), k, mode="size")

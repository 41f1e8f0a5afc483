import random

import networkx as nx

from conftest import random_multigraph
from eqfactor.matching import maximum_matching
from eqfactor.parity import _gadget


def random_graph_with_odd_cycles(rng, max_n=30):
    """Random simple graph plus a few odd cycles, so that blossoms nest."""
    n = rng.randint(1, max_n)
    p = rng.random() * 0.25
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    for _ in range(rng.randint(0, 4)):
        size = rng.choice((3, 5, 7, 9))
        if size <= n:
            cycle = rng.sample(range(n), size)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                edges.add((min(a, b), max(a, b)))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        rng.shuffle(nbrs)
    return n, edges, adj


def reference_size(n, edges):
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return len(nx.max_weight_matching(h, maxcardinality=True))


def matching_edges(mate, edges):
    """The matched pairs of mate, after checking that they form a matching of edges."""
    pairs = set()
    for x, y in enumerate(mate):
        if y != -1:
            assert mate[y] == x
            assert (min(x, y), max(x, y)) in edges
            pairs.add((min(x, y), max(x, y)))
    return pairs


def test_matches_networkx_on_random_graphs():
    rng = random.Random(71)
    for _ in range(300):
        n, edges, adj = random_graph_with_odd_cycles(rng)
        mate = maximum_matching(adj)
        assert len(matching_edges(mate, edges)) == reference_size(n, edges)


def test_warm_start_from_partial_matching_reaches_maximum():
    rng = random.Random(73)
    for _ in range(300):
        n, edges, adj = random_graph_with_odd_cycles(rng)
        mate = [-1] * n
        for u, v in rng.sample(sorted(edges), len(edges)):
            if mate[u] == mate[v] == -1 and rng.random() < 0.6:
                mate[u], mate[v] = v, u
        start = matching_edges(mate, edges)
        result = maximum_matching(adj, mate)
        assert result is mate
        assert len(matching_edges(mate, edges)) == reference_size(n, edges)
        assert len(start) <= len(matching_edges(mate, edges))


# (adjacency lists, starting matching) on which contracting a blossom from
# only one side of the edge that closes it loses an augmenting path
ONE_SIDED_CONTRACTION_TRAPS = [
    (
        [[11, 1, 6, 5, 8], [2, 0], [13, 18, 3, 1], [4, 2], [5, 3], [15, 6, 4, 19, 0], [0, 5], [],
         [0, 9], [8, 10], [9, 11], [0, 10], [], [2, 14], [13, 15], [5, 14, 16], [15, 17], [18, 16],
         [2, 17], [5]],
        [8, -1, 18, -1, 5, 4, -1, -1, 0, -1, 11, 10, -1, 14, 13, -1, 17, 16, 2, -1],
    ),
    (
        [[13, 1, 6], [2, 0], [1, 3, 23], [2, 4], [5, 3, 17], [4, 6], [0, 5], [8, 13], [20, 9, 15, 7],
         [10, 8], [11, 9], [10, 12], [11, 13], [12, 7, 0], [], [8, 16], [15, 17], [16, 18, 4],
         [27, 17, 22, 19], [20, 18], [19, 8], [], [29, 34, 23, 18], [24, 22, 2], [25, 23],
         [26, 32, 24, 29], [25, 27], [18, 26], [], [25, 30, 22], [31, 29, 33], [32, 30], [25, 31],
         [30], [22]],
        [1, 0, -1, 4, 3, 6, 5, 13, 15, 10, 9, 12, 11, 7, -1, 8, -1, 18, 17, 20, 19, -1, 34, 24, 23,
         -1, -1, -1, -1, 30, 29, 32, 31, -1, 22],
    ),
]


def test_blossoms_are_contracted_from_both_sides():
    for adj, mate in ONE_SIDED_CONTRACTION_TRAPS:
        edges = {(min(x, y), max(x, y)) for x, nbrs in enumerate(adj) for y in nbrs}
        mate = maximum_matching(adj, list(mate))
        assert len(matching_edges(mate, edges)) == reference_size(len(adj), edges)


def test_perfect_mode_returns_none_exactly_without_perfect_matching():
    rng = random.Random(79)
    for _ in range(200):
        n, edges, adj = random_graph_with_odd_cycles(rng, max_n=16)
        perfect = 2 * reference_size(n, edges) == n
        assert (maximum_matching(adj, perfect=True) is not None) == perfect


def test_gadget_perfect_verdict_agrees_with_networkx():
    # the graph and window sizes of the Lovasz/finder/oracle triple agreement
    rng = random.Random(47)
    for _ in range(150):
        g = random_multigraph(rng, max_n=5, max_m=8, min_m=1)
        # windows [lo, hi] of one parity inside [0, d(v)], as find_parity_factor clamps them
        lo, hi = [], []
        for v in range(g.n):
            lo.append(rng.randint(0, g.degree(v)))
            hi.append(lo[v] + 2 * rng.randint(0, (g.degree(v) - lo[v]) // 2))
        # a warm-start factor of every other edge, above some windows: still a matching
        adj, mate = _gadget(g, lo, hi, [eid % 2 == 0 for eid in range(g.m)])
        edges = {(min(x, y), max(x, y)) for x, nbrs in enumerate(adj) for y in nbrs}
        matching_edges(mate, edges)  # the warm start is a matching of the gadget
        perfect = 2 * reference_size(len(adj), edges) == len(adj)
        assert (maximum_matching(adj, mate, perfect=True) is not None) == perfect

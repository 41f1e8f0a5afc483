import random

import pytest

from conftest import audit_passes, eulerian_union, proper_coloring, random_multigraph, random_orientation
from eqfactor.coloring import (
    BipartiteSplit,
    anstee_decomposition,
    balance_color_sizes,
    decompose_directed,
    konig_edge_coloring,
    split_to_bipartite,
)
from eqfactor.errors import InvalidInput
from eqfactor.lab import verify
from eqfactor.multigraph import Multigraph, Orientation, complete_graph, cycle_graph
from eqfactor.orientation import eulerian_orientation


def chunk_of(split: BipartiteSplit) -> list:
    """chunk_of(split)[b_vertex] = (original vertex, side, chunk index), side in {"out", "in"}."""
    ends = split.out_first[1:] + [split.b.n]  # v's in-chunks end where v + 1's begin
    return [
        (v, side, c - first)
        for v, (o, i, end) in enumerate(zip(split.out_first, split.in_first, ends))
        for side, first, stop in (("out", o, i), ("in", i, end))
        for c in range(first, stop)
    ]


def directed_triangle():
    g = cycle_graph(3)
    return Orientation(g, (0, 1, 2))


def test_split_triangle_perfect_matching():
    split = split_to_bipartite(directed_triangle(), 2)
    assert split.b.n == 6
    assert split.b.m == 3
    assert all(d == 1 for d in split.b.degrees)


def test_split_chunk_degrees():
    # one vertex with out-degree 5 toward 5 sinks, k=2 -> chunks (2,2,1)
    g = Multigraph(6, [(0, i) for i in range(1, 6)])
    d = Orientation(g, (0,) * 5)
    split = split_to_bipartite(d, 2)
    chunks = chunk_of(split)
    out_chunk_degs = sorted(split.b.degree(b) for b in range(split.b.n) if chunks[b][:2] == (0, "out"))
    assert out_chunk_degs == [1, 2, 2]


def test_split_loop_becomes_cross_edge():
    g = Multigraph(1, [(0, 0)])
    split = split_to_bipartite(Orientation(g, (0,)), 3)
    (u, w) = split.b.edges[0]
    chunks = chunk_of(split)
    assert {chunks[u][1], chunks[w][1]} == {"out", "in"}


def test_split_parity_padding():
    # d+(0) = d-(0) = 1, k = 3: two artificial padding edges expected
    g = Multigraph(2, [(0, 1), (1, 0)])
    d = Orientation(g, (0, 1))
    split = split_to_bipartite(d, 3, parity_mode=True)
    assert split.b.m - g.m == 4  # both vertices qualify; padding follows the m edges
    assert all(d <= 3 for d in split.b.degrees)


def test_konig_parallel_edges():
    b = Multigraph(2, [(0, 1)] * 3)
    col = konig_edge_coloring(b, 3)
    assert sorted(col) == [1, 2, 3]


def test_konig_rejects_bad_input():
    with pytest.raises(InvalidInput):
        konig_edge_coloring(Multigraph(1, [(0, 0)]), 2)  # loop
    with pytest.raises(InvalidInput):
        konig_edge_coloring(Multigraph(2, [(0, 1)] * 3), 2)  # degree > k


def test_konig_random_properness():
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randint(1, 6)
        left = rng.randint(1, 4)
        right = rng.randint(1, 4)
        edges = []
        for _ in range(rng.randint(0, 12)):
            edges.append((rng.randrange(left), left + rng.randrange(right)))
        b = Multigraph(left + right, edges)
        if any(d > k for d in b.degrees):
            continue
        col = konig_edge_coloring(b, k)
        assert proper_coloring(b, col)
        assert all(1 <= c <= k for c in col)


def test_balance_two_disjoint_edges():
    g = Multigraph(4, [(0, 1), (2, 3)])
    d = Orientation(g, (0, 2))
    fz = decompose_directed(d, 2, mode="size")
    assert sorted(fz.factor_sizes()) == [1, 1]


def test_balance_evens_out_one_pair_per_subgraph_build():
    # twelve disjoint edges colored 1 x 6, 2 x 6, 3 x 0: the pair (1, 3)
    # takes three swaps in its pass, then (2, 1) one and (2, 3) one, each
    # swapping the first gain-1 paths in vertex order
    b = Multigraph(24, [(2 * i, 2 * i + 1) for i in range(12)])
    col = balance_color_sizes(b, (1,) * 6 + (2,) * 6, 3)
    assert col == (3, 3, 3, 1, 1, 1, 1, 3, 2, 2, 2, 2)


def test_decompose_windows_random():
    rng = random.Random(37)
    for _ in range(120):
        g = random_multigraph(rng, max_n=8, max_m=20)
        d = random_orientation(rng, g)
        k = rng.choice((2, 3, 4))
        for mode in ("size", "parity"):
            fz = decompose_directed(d, k, mode=mode)
            outs = [[0] * g.n for _ in range(k)]
            ins = [[0] * g.n for _ in range(k)]
            for eid in range(g.m):
                i = fz.assignment[eid] - 1
                outs[i][d.tails[eid]] += 1
                ins[i][d.head(eid)] += 1
            for v in range(g.n):
                for i in range(k):
                    assert d.out_degrees[v] // k <= outs[i][v] <= -(-d.out_degrees[v] // k)
                    assert d.in_degrees[v] // k <= ins[i][v] <= -(-d.in_degrees[v] // k)
            if mode == "size":
                assert all(abs(s - g.m / k) < 1 for s in fz.factor_sizes())
            else:
                for v in range(g.n):
                    dp, dm = d.out_degrees[v], d.in_degrees[v]
                    if dp % k != dm % k:
                        continue
                    target = ((dp - dm) // k) % 2
                    for degs in fz.all_factor_degrees():
                        assert degs[v] % 2 == target


def test_decompose_colors_the_split_without_the_odd_cycle_test():
    """Every chunk-graph edge, padding included, joins an out-chunk to an
    in-chunk, so the split is bipartite and Konig's coloring of it is proper
    with no odd-cycle test."""
    rng = random.Random(43)
    for _ in range(60):
        g = random_multigraph(rng, max_n=8, max_m=20)
        d, k = random_orientation(rng, g), rng.choice((2, 3, 4))
        for mode in ("size", "parity"):
            split = split_to_bipartite(d, k, parity_mode=mode == "parity")
            chunks = chunk_of(split)
            assert all({chunks[u][1], chunks[w][1]} == {"out", "in"} for u, w in split.b.edges)
            assert proper_coloring(split.b, konig_edge_coloring(split.b, k))


def test_decompose_k1_identity():
    g = cycle_graph(4)
    d = Orientation(g, (0, 1, 2, 3))
    fz = decompose_directed(d, 1)
    assert fz.factor_sizes() == [4]


def test_anstee_k5():
    fz = anstee_decomposition(complete_graph(5), 2)
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)
    assert sorted(fz.factor_sizes()) == [5, 5]


def test_anstee_single_edge_and_c5():
    fz = anstee_decomposition(Multigraph(2, [(0, 1)]), 2)
    assert sorted(fz.factor_sizes()) == [0, 1]
    fz = anstee_decomposition(cycle_graph(5), 2)
    assert sorted(fz.factor_sizes()) == [2, 3]
    for degs in fz.all_factor_degrees():
        assert all(0 <= x <= 2 for x in degs)


def test_anstee_window_random():
    rng = random.Random(41)
    for _ in range(60):
        g = random_multigraph(rng, max_n=7, max_m=16)
        k = rng.choice((2, 3))
        fz = anstee_decomposition(g, k)
        for degs in fz.all_factor_degrees():
            for v in range(g.n):
                dv = g.degree(v)
                lo = dv // 2 // k + (dv + 1) // 2 // k
                hi = -(-(dv // 2) // k) + -(-((dv + 1) // 2) // k)
                assert lo <= degs[v] <= hi
        assert all(abs(s - g.m / k) < 1 for s in fz.factor_sizes())


def _first_fit_fails(b, k):
    """Whether coloring b's edges in id order, each with a color free at both
    ends and no path swaps, gets stuck."""
    used = [set() for _ in range(b.n)]
    for u, w in b.edges:
        free = [c for c in range(1, k + 1) if c not in used[u] and c not in used[w]]
        if not free:
            return True
        used[u].add(free[0])
        used[w].add(free[0])
    return False


def test_konig_swaps_alternating_paths_where_first_fit_fails():
    # u=0, y=1 | x=2, z=3, w=4: after (0,2)->1, (1,3)->1, (1,4)->2 the edge
    # (0,4) finds color 2 taken at w and color 1 taken at u; swapping the
    # path w-y-z frees color 2 at w
    b = Multigraph(5, [(0, 2), (1, 3), (1, 4), (0, 4)])
    assert _first_fit_fails(b, 2)
    col = konig_edge_coloring(b, 2)
    assert proper_coloring(b, col)
    assert col == (1, 2, 1, 2)
    rng = random.Random(43)
    swapped = 0
    for _ in range(300):
        k = rng.randint(2, 5)
        left, right = rng.randint(2, 6), rng.randint(2, 6)
        edges = []
        deg = [0] * (left + right)
        for _ in range(rng.randint(4, 30)):
            u, w = rng.randrange(left), left + rng.randrange(right)
            if deg[u] < k and deg[w] < k:
                deg[u] += 1
                deg[w] += 1
                edges.append((u, w))
        b = Multigraph(left + right, edges)
        swapped += _first_fit_fails(b, k)
        col = konig_edge_coloring(b, k)
        assert proper_coloring(b, col)
        assert all(1 <= c <= k for c in col)
    assert swapped >= 50  # the path-swap branch is what these instances test


def test_chunk_graph_never_builds_incidence_lists():
    split = split_to_bipartite(eulerian_orientation(complete_graph(7)), 2)
    balance_color_sizes(split.b, konig_edge_coloring(split.b, 2), 2)
    assert split.b._incidence is None


def _irregular(rng, n):
    """Three random Hamiltonian cycles plus n/2 random non-loop edges."""
    edges = list(eulerian_union(rng, n, 3).edges)
    for _ in range(n // 2):
        edges.append(tuple(rng.sample(range(n), 2)))
    return Multigraph(n, edges)


def test_anstee_size_balancing_on_irregular_10k():
    # about 40% odd degrees: the first coloring's classes differ by about
    # 4000 edges, so balancing has to swap over two thousand paths
    g = _irregular(random.Random(47), 10_000)
    assert sum(d % 2 for d in g.degrees) > 2000
    fz = anstee_decomposition(g, 3)
    entries = verify(g, fz, ["deviation<2", "size±1"])
    assert audit_passes(entries), entries

import math
import random

import networkx as nx
import pytest

import cut_oracles
from conftest import eulerian_union, random_multigraph
from eqfactor import connectivity
from eqfactor.errors import InvalidInput
from eqfactor.multigraph import Multigraph, complete_graph, cut_size, cycle_graph


def doubled(g):
    return Multigraph(g.n, [e for e in g.edges for _ in range(2)])


def test_edge_connectivity_frozen_values():
    assert connectivity.edge_connectivity(complete_graph(4)) == 3
    assert connectivity.edge_connectivity(cycle_graph(5)) == 2
    assert connectivity.edge_connectivity(doubled(cycle_graph(4))) == 4
    assert connectivity.edge_connectivity(Multigraph(1, [])) == math.inf
    assert connectivity.edge_connectivity(Multigraph(3, [(0, 1)])) == 0


def test_edge_connectivity_witness_is_minimal():
    lam, a = connectivity.edge_connectivity_witness(cycle_graph(5))
    assert lam == 2
    assert cut_size(cycle_graph(5), a) == 2


def test_odd_edge_connectivity_frozen_values():
    assert connectivity.odd_edge_connectivity(Multigraph(2, [(0, 1)])) == 1
    assert connectivity.odd_edge_connectivity(complete_graph(4)) == 3
    # K7: d(A) = |A| * (7 - |A|) is even for every A
    assert connectivity.odd_edge_connectivity(complete_graph(7)) == math.inf


def test_tree_connectivity_frozen_values():
    path = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    assert connectivity.tree_connectivity(path) == 1
    assert connectivity.tree_connectivity(complete_graph(4)) == 2
    assert connectivity.tree_connectivity(doubled(cycle_graph(5))) == 2
    assert connectivity.tree_connectivity(Multigraph(3, [(0, 1)])) == 0


def test_f_odd_cut_bound():
    g = complete_graph(4)
    ok, wit = connectivity.f_odd_cut_bound(g, (1, 1, 1, 1), 3)
    assert ok and wit is None
    ok, wit = connectivity.f_odd_cut_bound(g, (1, 1, 1, 1), 4)
    assert not ok and len(wit) % 2 == 1
    ok, _ = connectivity.f_odd_cut_bound(g, (0, 0, 0, 0), 10)
    assert ok
    with pytest.raises(InvalidInput):
        connectivity.f_odd_cut_bound(g, (1, 0, 0, 0), 2)


def test_odd_lambda_at_least_lambda():
    rng = random.Random(7)
    for _ in range(40):
        g = random_multigraph(rng, max_n=7, max_m=14)
        lam = connectivity.edge_connectivity(g)
        odd = connectivity.odd_edge_connectivity(g)
        if odd != math.inf and lam != math.inf:
            assert odd >= lam


def test_tree_conn_implies_edge_conn():
    rng = random.Random(11)
    for _ in range(30):
        g = random_multigraph(rng, max_n=6, max_m=14, min_m=4)
        k = connectivity.tree_connectivity(g)
        if k > 0:
            assert connectivity.edge_connectivity(g) >= k


def test_f_odd_matches_odd_lambda():
    rng = random.Random(13)
    for _ in range(25):
        g = random_multigraph(rng, max_n=6, max_m=12)
        f = tuple(d % 2 for d in g.degrees)
        odd = connectivity.odd_edge_connectivity(g)
        for lam in (1, 2, 3):
            ok, _ = connectivity.f_odd_cut_bound(g, f, lam)
            assert ok == (odd >= lam)


def test_exact_algorithms_match_oracles():
    """Every connectivity value and witness agrees with exhaustive enumeration
    on seeded random multigraphs with loops, parallel edges and several
    components."""
    rng = random.Random(17)
    seen = {"loops": 0, "parallel": 0, "disconnected": 0}
    for trial in range(240):
        g = random_multigraph(rng, min_n=1, max_n=8, min_m=0, max_m=3 * (trial % 7) + 2)
        seen["loops"] += g.has_loops()
        seen["parallel"] += len(set(map(frozenset, g.edges))) < g.m
        seen["disconnected"] += len(cut_oracles.components(g)) > 1

        lam, a = connectivity.edge_connectivity_witness(g)
        assert lam == cut_oracles.min_cut(g)
        if g.n >= 2:
            assert 0 < len(a) < g.n and cut_size(g, a) == lam

        odd = cut_oracles.odd_degree_set(g)
        odd_lam, a = connectivity._min_t_odd_cut(g, odd)
        assert odd_lam == cut_oracles.min_t_odd_cut(g, odd)
        if odd_lam != math.inf:
            assert cut_size(g, a) == odd_lam and cut_size(g, a) % 2 == 1 and len(a & odd) % 2 == 1

        f = [rng.randrange(2) for _ in range(g.n)]
        f[0] ^= sum(f) % 2
        t = frozenset(v for v in range(g.n) if f[v])
        exact = cut_oracles.min_t_odd_cut(g, t)
        for bound in range(5):
            ok, x = connectivity.f_odd_cut_bound(g, f, bound)
            assert ok == (exact >= bound)
            if not ok:
                assert len(x & t) % 2 == 1 and cut_size(g, x) == exact

        if g.n < 2:
            with pytest.raises(InvalidInput):
                connectivity.tree_connectivity(g)
            continue
        tau = cut_oracles.tree_connectivity(g)
        assert connectivity.tree_connectivity(g) == tau
        for k in range(tau + 3):
            assert connectivity.tree_connected(g, k, lam) == (k <= tau)
    assert min(seen.values()) >= 20, seen


def test_analyze_k4():
    assert connectivity.analyze(complete_graph(4)) == (3, 3, 2)


def test_eulerian_union_connectivity():
    g = eulerian_union(random.Random(3), 7, 3)
    assert connectivity.edge_connectivity(g) >= 2
    assert all(d == 6 for d in g.degrees)


def test_scale_six_regular_10k():
    g = eulerian_union(random.Random(5), 10_000, 3)
    assert connectivity.tree_connectivity(g) == 3
    f = [0] * g.n
    f[17] = f[5017] = 1
    ok, x = connectivity.f_odd_cut_bound(g, f, 7)
    assert not ok and len(x & {17, 5017}) == 1 and cut_size(g, x) == 6


def test_scale_six_regular_1000_edge_connectivity():
    assert connectivity.edge_connectivity(eulerian_union(random.Random(6), 1000, 3)) == 6


def test_scale_doubled_cycle_t_odd_cut():
    """Antipodal terminals on a 3000-vertex doubled cycle: the flow's level
    graph is 1500 deep."""
    g = doubled(cycle_graph(3000))
    f = [0] * g.n
    f[0] = f[1500] = 1
    ok, x = connectivity.f_odd_cut_bound(g, f, 5)
    assert not ok and len(x & {0, 1500}) == 1 and cut_size(g, x) == 4


def gomory_hu_t_odd_cut(g, t):
    """Padberg-Rao over networkx's Gomory-Hu tree of the whole vertex set:
    the smallest fundamental cut whose side holds an odd number of t."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for v in range(1, g.n):  # zero-capacity path: gomory_hu_tree needs a connected graph
        h.add_edge(v - 1, v, capacity=0)
    for (u, v), w in connectivity._merged_edges(g).items():
        h.add_edge(u, v, capacity=w)
    tree = nx.gomory_hu_tree(h)
    best = math.inf
    for u, v, w in list(tree.edges(data="weight")):
        tree.remove_edge(u, v)
        if len(nx.node_connected_component(tree, u) & t) % 2 == 1:
            best = min(best, w)
        tree.add_edge(u, v, weight=w)
    return best


def test_t_odd_cuts_match_gomory_hu_padberg_rao():
    """Mid-size cross-check, where the exhaustive oracle cannot go: odd edge
    connectivity and f-odd cuts against Padberg-Rao over networkx's
    Gomory-Hu tree, on multigraphs with loops and parallel edges."""
    rng = random.Random(23)
    found = 0
    for trial in range(100):
        n = rng.randint(10, 60)
        g = random_multigraph(rng, min_n=n, max_n=n, min_m=n, max_m=3 * n)
        if trial % 2:
            # dense clusters joined by a few edges, so that the minimum
            # T-odd cut is seldom a single vertex
            cluster = [rng.randrange(4) for _ in range(n)]
            edges = [(u, v) for u, v in g.edges if cluster[u] == cluster[v]]
            edges += [e for e in g.edges if cluster[e[0]] != cluster[e[1]]][: rng.randint(1, 6)]
            g = Multigraph(n, edges * 3)
        f = [rng.randrange(2) for _ in range(g.n)]
        f[0] ^= sum(f) % 2
        t = frozenset(v for v in range(g.n) if f[v])
        expected = gomory_hu_t_odd_cut(g, cut_oracles.odd_degree_set(g))
        value, x = connectivity._min_t_odd_cut(g, cut_oracles.odd_degree_set(g))
        assert value == expected
        if value != math.inf:
            assert cut_size(g, x) == value and cut_size(g, x) % 2 == 1
        expected = gomory_hu_t_odd_cut(g, t)
        for bound in (expected, expected + 1):
            ok, x = connectivity.f_odd_cut_bound(g, f, bound)
            assert ok == (expected >= bound)
            if not ok:
                found += 1
                assert cut_size(g, x) == expected and len(x & t) % 2 == 1
    assert found >= 90


def test_scale_t_odd_cut_many_terminals():
    """|T| = 200 on a 2000-vertex union of three Hamiltonian cycles: each
    terminal alone is a T-odd cut of 6 = lambda."""
    g = eulerian_union(random.Random(8), 2000, 3)
    t = set(random.Random(9).sample(range(g.n), 200))
    value, x = connectivity._min_t_odd_cut(g, t)
    assert value == 6 and cut_size(g, x) == 6 and len(x & t) % 2 == 1


def test_t_odd_cut_builds_one_network_and_runs_t_minus_one_flows(monkeypatch):
    counts = {"networks": 0, "flows": 0}

    class CountingNetwork(connectivity.FlowNetwork):
        def __init__(self, n):
            counts["networks"] += 1
            super().__init__(n)

        def max_flow(self, s, t):
            counts["flows"] += 1
            return super().max_flow(s, t)

    monkeypatch.setattr(connectivity, "FlowNetwork", CountingNetwork)
    rng = random.Random(29)
    for _ in range(20):
        g = random_multigraph(rng, min_n=4, max_n=12, max_m=30)
        t = set(rng.sample(range(g.n), 2 * rng.randint(1, g.n // 2)))
        counts.update(networks=0, flows=0)
        connectivity._min_t_odd_cut(g, t)
        assert counts == {"networks": 1, "flows": len(t) - 1}

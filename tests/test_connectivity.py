import math
import random

import networkx as nx
import pytest

import cut_oracles
import dinic
from conftest import cycle_graph, eulerian_union, irregular_union, random_multigraph
from eqfactor import connectivity
from eqfactor.errors import InvalidInput
from eqfactor.multigraph import Multigraph, complete_graph, cut_size


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
        seen["loops"] += any(u == v for u, v in g.edges)
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
        for cap in range(1, tau + 3):
            assert (connectivity._tree_connectivity(g, lam, cap) >= cap) == (tau >= cap)
    assert min(seen.values()) >= 20, seen


def test_cut_or_tree_hypothesis_matches_the_oracles():
    """f = None asks lambda >= bound, and trees > 0 accepts that many
    edge-disjoint spanning trees instead; a witness is a cut below the bound."""
    rng = random.Random(53)
    outcomes = set()
    for _ in range(150):
        g = random_multigraph(rng, min_n=1, max_n=8, min_m=0, max_m=20)
        lam = cut_oracles.min_cut(g)
        tau = cut_oracles.tree_connectivity(g) if g.n >= 2 else math.inf
        for bound in range(1, 8):
            for trees in range(4):
                ok, x = connectivity.f_odd_cut_bound(g, None, bound, trees)
                assert ok == (lam >= bound or (trees > 0 and tau >= trees))
                if not ok:
                    assert 0 < len(x) < g.n and cut_size(g, x) < bound
                outcomes.add((ok, lam >= bound))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_checks_that_always_hold_answer_at_once(monkeypatch):
    """Below 1 nothing is asked, and at 1 with f = d mod 2 every f-odd set
    has an odd cut: both answer True with no flow, as the oracles agree."""
    rng = random.Random(83)
    monkeypatch.setattr(connectivity, "FlowNetwork", lambda *args: pytest.fail("a flow network was built"))
    for _ in range(150):
        g = random_multigraph(rng, min_n=1, max_n=8, min_m=0, max_m=16)
        parity = tuple(d % 2 for d in g.degrees)
        assert cut_oracles.min_t_odd_cut(g, {v for v in range(g.n) if parity[v]}) >= 1
        assert connectivity.f_odd_cut_bound(g, parity, 1) == (True, None)
        f = [rng.randrange(2) for _ in range(g.n)]
        f[0] ^= sum(f) % 2
        for lam in (0, -1):
            assert connectivity.f_odd_cut_bound(g, f, lam) == (True, None)
            assert connectivity.f_odd_cut_bound(g, None, lam, rng.randrange(3)) == (True, None)
    with pytest.raises(InvalidInput):
        connectivity.f_odd_cut_bound(Multigraph(2, []), (1, 0), 0)  # an odd sum of f is still refused


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


def clustered(rng, g):
    """g's edges inside four random clusters, three times each, with a few
    edges between clusters: the minimum T-odd cut is seldom a single vertex."""
    cluster = [rng.randrange(4) for _ in range(g.n)]
    edges = [(u, v) for u, v in g.edges if cluster[u] == cluster[v]]
    edges += [e for e in g.edges if cluster[e[0]] != cluster[e[1]]][: rng.randint(1, 6)]
    return Multigraph(g.n, edges * 3)


def gomory_hu_t_odd_cut(g, t):
    """Padberg-Rao over networkx's Gomory-Hu tree of the whole vertex set:
    the smallest fundamental cut whose side holds an odd number of t."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for v in range(1, g.n):  # zero-capacity path: gomory_hu_tree needs a connected graph
        h.add_edge(v - 1, v, capacity=0)
    for u, v in g.edges:
        if u != v:
            if h.has_edge(u, v):
                h[u][v]["capacity"] += 1
            else:
                h.add_edge(u, v, capacity=1)
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
            g = clustered(rng, g)
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
    """Uncapped and capped: one network, no max_flow call, and |T| - 1 flows,
    one _push_paths call each, with the same (value, witness) as before the
    doubles. Uncapped, every flow runs to a failed search, with no goal;
    capped at 4 on a union of three Hamiltonian cycles (lambda >= 6 > 4),
    every flow reaches the cap."""
    counts = {}
    flows = []

    class CountingNetwork(connectivity.FlowNetwork):
        def __init__(self, *args):
            counts["networks"] += 1
            super().__init__(*args)

        def max_flow(self, *args):
            raise AssertionError("the T-odd cut runs its own augmenting searches")

    push_paths = connectivity._push_paths

    def counted(*args):
        value, search = push_paths(*args)
        flows.append((value, args[-2]))  # the value reached, and the goal
        return value, search

    rng = random.Random(29)
    cases = []
    for trial in range(40):
        if trial % 2:
            g = random_multigraph(rng, min_n=4, max_n=12, max_m=30)
        else:
            g = eulerian_union(rng, rng.randint(4, 12), 3)
        t = set(rng.sample(range(g.n), 2 * rng.randint(1, g.n // 2)))
        cases.append((trial, g, t, connectivity._min_t_odd_cut(g, t), connectivity._min_t_odd_cut(g, t, 4)))
    monkeypatch.setattr(connectivity, "FlowNetwork", CountingNetwork)
    monkeypatch.setattr(connectivity, "_push_paths", counted)
    for trial, g, t, exact, capped in cases:
        counts.update(networks=0)
        flows.clear()
        assert connectivity._min_t_odd_cut(g, t) == exact
        assert counts == {"networks": 1} and len(flows) == len(t) - 1
        assert all(goal == math.inf for _, goal in flows)
        counts.update(networks=0)
        flows.clear()
        assert connectivity._min_t_odd_cut(g, t, 4) == capped
        assert counts == {"networks": 1} and len(flows) == len(t) - 1
        if trial % 2 == 0:
            assert flows == [(4, 4)] * (len(t) - 1)


def reference_min_t_odd_cut(g, t, limit=None):
    """Gusfield's construction on Dinic (``dinic.max_flow``): one uncapped
    flow per step on the reset cut network, the side read off its level
    list, and a step skipped when its value reaches the limit: the reference
    for the augmenting searches of _min_t_odd_cut."""
    if not t:
        return math.inf, None
    terminals = sorted(t)
    net = connectivity._cut_network(g)
    full = list(net.cap)
    parent = dict.fromkeys(terminals, terminals[0])
    best, witness = math.inf, None
    for i, s in enumerate(terminals[1:], 1):
        net.cap[:] = full
        value = dinic.max_flow(net, s, parent[s])
        if limit is not None and value >= limit:
            continue
        level = net.level
        for u in terminals[i + 1 :]:
            if level[u] >= 0 and parent[u] == parent[s]:
                parent[u] = s
        if value < best and sum(level[u] >= 0 for u in terminals) % 2 == 1:
            best, witness = value, frozenset(v for v in range(g.n) if level[v] >= 0)
    return best, witness


def test_t_odd_cut_matches_the_dinic_reference():
    """The same (value, witness) as the reference, uncapped and at every
    limit 1..7: on the 1500 graphs of the capped oracle test below, and on
    unions of three Hamiltonian cycles with |T| <= 40. A step's side is the
    least minimum-cut side holding s, whatever paths built the flow."""
    rng = random.Random(31)
    for trial in range(1500):
        g = random_multigraph(rng, min_n=2, max_n=9, min_m=0, max_m=30)
        if trial >= 1000:
            g = clustered(rng, g)
        t = set(rng.sample(range(g.n), 2 * rng.randint(1, g.n // 2)))
        for limit in (None, *range(1, 8)):
            assert connectivity._min_t_odd_cut(g, t, limit) == reference_min_t_odd_cut(g, t, limit)
    rng = random.Random(33)
    for n in (20, 60, 150, 400):
        g = eulerian_union(rng, n, 3)
        for size in (2, 4, 10, 40):
            t = set(rng.sample(range(n), min(size, n)))
            for limit in (None, *range(1, 8)):
                pair = connectivity._min_t_odd_cut(g, t, limit)
                assert pair == reference_min_t_odd_cut(g, t, limit)
                assert (pair[0] == 6) == (limit in (None, 7))


def test_capped_t_odd_cut_matches_the_oracle():
    """With a limit, the T-odd cut is exact below it, with a T-odd witness of
    that cut size, and some value >= limit otherwise; on random multigraphs
    with loops, parallel edges and several components, every limit 1..7, and
    on clustered multigraphs, whose cuts are multiples of 3, every limit 1..9."""
    rng = random.Random(31)
    below = above = 0
    for trial in range(1500):
        g = random_multigraph(rng, min_n=2, max_n=9, min_m=0, max_m=30)
        limits = range(1, 8)
        if trial >= 1000:
            g, limits = clustered(rng, g), range(1, 10)
        t = set(rng.sample(range(g.n), 2 * rng.randint(1, g.n // 2)))
        exact = cut_oracles.min_t_odd_cut(g, t)
        for limit in limits:
            value, x = connectivity._min_t_odd_cut(g, t, limit)
            if exact < limit:
                assert value == exact and cut_size(g, x) == exact and len(x & t) % 2 == 1
                below += 1
            else:
                assert value >= limit
                above += 1
    assert below >= 1500 and above >= 1500


def test_capped_edge_connectivity_matches_the_oracle():
    """edge_connectivity_witness(g, limit) gives min(lambda, limit), with a
    witness of that cut size below the limit."""
    rng = random.Random(37)
    for _ in range(200):
        g = random_multigraph(rng, min_n=2, max_n=8, min_m=0, max_m=24)
        lam = cut_oracles.min_cut(g)
        for limit in range(8):
            value, a = connectivity.edge_connectivity_witness(g, limit)
            assert value == min(lam, limit)
            if lam < limit:
                assert 0 < len(a) < g.n and cut_size(g, a) == lam


def test_edge_connectivity_builds_one_network(monkeypatch):
    """lambda's augmenting searches run on the residual capacities of one
    FlowNetwork, which no max_flow call touches, and give the same values."""
    built = []

    class CountingNetwork(connectivity.FlowNetwork):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

        def max_flow(self, *args):
            raise AssertionError("lambda runs its own augmenting searches")

    rng = random.Random(43)
    graphs = [doubled(cycle_graph(9)), eulerian_union(rng, 40, 3)]
    graphs += [random_multigraph(rng, min_n=2, max_n=12, max_m=40) for _ in range(20)]
    expected = [connectivity.edge_connectivity_witness(g) for g in graphs]
    monkeypatch.setattr(connectivity, "FlowNetwork", CountingNetwork)
    for g, pair in zip(graphs, expected):
        built.clear()
        assert connectivity.edge_connectivity_witness(g) == pair
        assert built == [g.n]


def reference_edge_connectivity_witness(g, limit=None):
    """The maximum-adjacency scan with one breadth-first augmenting search,
    on a fresh parent dict, per path: the reference for the two-edge pushes
    and stack-ordered searches of edge_connectivity_witness."""
    n = g.n
    if n < 2:
        return math.inf, None
    net = connectivity._cut_network(g)
    out, head, cap = net.graph, net.to, net.cap
    full = list(cap)
    degree = [sum(full[a] for a in out[v]) for v in range(n)]
    best = min(degree)
    witness = [degree.index(best)]
    if limit is not None and limit < best:
        best, witness = limit, None
    in_s = [False] * n
    r = [0] * n
    mark = [0] * n
    search = 0
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
                    if mark[z] == search or not cap[a] or (y == x and in_s[z]):
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
            push = min(best - value, min(cap[a] for a in path))
            for a in path:
                cap[a] -= push
                cap[a ^ 1] += push
            touched += path
            value += push
        for a in touched:
            cap[a] = cap[a ^ 1] = full[a]
        if value < best:
            best, witness = value, reach
    return best, None if witness is None else frozenset(witness)


def test_edge_connectivity_matches_the_breadth_first_reference():
    """The same (value, witness) as the reference, uncapped and at every
    limit 0..8, on seeded multigraphs with loops, parallel edges and several
    components: the witness is the least minimum-cut side holding the step's
    vertex, whatever augmenting paths built the flow."""
    rng = random.Random(47)
    seen = {"loops": 0, "parallel": 0, "disconnected": 0, "witness below the limit": 0}
    for trial in range(400):
        g = random_multigraph(rng, min_n=1, max_n=12, min_m=0, max_m=4 * (trial % 10) + 2)
        seen["loops"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(map(frozenset, g.edges))) < g.m
        seen["disconnected"] += len(cut_oracles.components(g)) > 1
        for limit in (None, *range(9)):
            pair = connectivity.edge_connectivity_witness(g, limit)
            assert pair == reference_edge_connectivity_witness(g, limit), (g.edges, limit)
            seen["witness below the limit"] += pair[1] is not None and pair[0] > 0
    assert min(seen.values()) >= 40, seen


def test_edge_connectivity_restores_every_capacity(monkeypatch):
    """Each step's pushes, two-edge paths and searched paths alike, are
    undone before the next step: the network ends at its full capacities,
    for lambda and for the T-odd cut, whose flows share no reset.
    On the four-vertex multigraph below, the step of vertex 2 pushes a unit
    along 2 -> 1 -> 0, then one along the searched path 2 -> 1 -> 3 -> 0.
    Restoring only the searched arcs resets 1 -> 2 but leaves 1 -> 0 empty,
    so vertex 1 loses a unit into S and lambda would read 5, not 6."""
    networks = []

    class RecordingNetwork(connectivity.FlowNetwork):
        def __init__(self, *args):
            super().__init__(*args)
            networks.append(self)

    monkeypatch.setattr(connectivity, "FlowNetwork", RecordingNetwork)
    g = Multigraph(4, [(0, 1), (0, 3), (1, 2), (1, 2), (1, 3), (1, 3), (1, 3), (2, 0), (2, 0), (2, 0), (2, 3), (3, 0)])
    assert connectivity.edge_connectivity_witness(g) == (6, frozenset({0}))
    rng = random.Random(61)
    graphs = [g, complete_graph(12), eulerian_union(rng, 300, 3)]
    graphs += [random_multigraph(rng, min_n=3, max_n=12, min_m=10, max_m=60) for _ in range(60)]
    for g in graphs:
        t = set(rng.sample(range(g.n), 2 * rng.randint(1, min(g.n // 2, 20))))
        for limit in (None, 4, 6):
            for run in (lambda: connectivity.edge_connectivity_witness(g, limit),
                        lambda: connectivity._min_t_odd_cut(g, t, limit)):
                networks.clear()
                run()
                (net,) = networks
                assert net.cap == connectivity._cut_network(g).cap


def two_halves(rng, n, swaps):
    """Two 8-regular halves, each four random Hamiltonian cycles on n/2
    vertices, with `swaps` pairs of edges swapped across: 2 * swaps edges
    cross, and every degree stays 8."""
    h = n // 2
    left, right = list(eulerian_union(rng, h, 4).edges), list(eulerian_union(rng, h, 4).edges)
    right = [(u + h, v + h) for u, v in right]
    for i in rng.sample(range(len(left)), swaps):
        (a, b), (c, d) = left[i], right[i]
        left[i], right[i] = (a, d), (c, b)
    return Multigraph(n, left + right)


@pytest.mark.parametrize("n", [400, 2000])
def test_edge_connectivity_matches_the_reference_at_scale(n):
    """Unions of Hamiltonian cycles, regular and irregular, capped at 6 and
    exact; two halves joined by fewer crossing edges than the limit, so that
    the witness comes from a failed search at scale."""
    rng = random.Random(n)
    for g in (eulerian_union(rng, n, 3), irregular_union(rng, n, 3)):
        for limit in (6, None):
            pair = connectivity.edge_connectivity_witness(g, limit)
            assert pair == reference_edge_connectivity_witness(g, limit)
            assert pair[0] >= 6
    for swaps in (1, 2, 3):
        g = two_halves(rng, n, swaps)
        for limit in (6, 9, None):
            pair = connectivity.edge_connectivity_witness(g, limit)
            assert pair == reference_edge_connectivity_witness(g, limit)
            if limit is not None and limit <= 2 * swaps:
                assert pair == (limit, None)
                continue
            assert pair[0] == 2 * swaps and cut_size(g, pair[1]) == 2 * swaps
            assert pair[1] in (frozenset(range(n // 2)), frozenset(range(n // 2, n)))


def test_complete_graph_edge_connectivity_matches_the_reference():
    """On K_n every neighbour of a step's vertex reaches the scanned set in
    one more edge, so the two-edge paths settle almost every step."""
    for n in range(2, 61):
        g = complete_graph(n)
        for limit in (None, n // 2, n - 1, n):
            pair = connectivity.edge_connectivity_witness(g, limit)
            assert pair == reference_edge_connectivity_witness(g, limit)
            assert pair[0] == (n - 1 if limit is None else min(limit, n - 1))


def test_f_odd_cut_bound_tries_lambda_first(monkeypatch):
    """With four or more f-odd vertices and lambda at the threshold, no
    T-odd flow runs; with two, one capped flow does; below lambda the
    T-odd cut still gives the witness."""
    calls = []
    min_t_odd_cut = connectivity._min_t_odd_cut
    monkeypatch.setattr(connectivity, "_min_t_odd_cut", lambda *a: calls.append(a[2]) or min_t_odd_cut(*a))
    g = eulerian_union(random.Random(41), 300, 3)  # lambda = 6
    four = [int(v in (3, 50, 120, 299)) for v in range(g.n)]
    assert connectivity.f_odd_cut_bound(g, four, 6) == (True, None) and calls == []
    two = [int(v in (3, 50)) for v in range(g.n)]
    assert connectivity.f_odd_cut_bound(g, two, 4) == (True, None) and calls == [4]
    ok, x = connectivity.f_odd_cut_bound(g, four, 7)
    assert not ok and cut_size(g, x) == 6 and len(x & {3, 50, 120, 299}) % 2 == 1 and calls == [4, 7]

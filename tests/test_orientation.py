import random
from itertools import product

import pytest

from conftest import (
    audit_passes,
    cycle_graph,
    eulerian_union,
    random_even_multigraph,
    random_multigraph,
    random_orientation,
)
from cut_oracles import components, hakimi_violation, internal_edges
from eqfactor import orientation
from eqfactor.errors import Infeasible, InvalidInput, ResidueObstruction, Undecided
from eqfactor.coloring import decompose_directed
from eqfactor.lab import ORIENTATION_EDGE_BUDGET, oracle_orientation, parity_claim, verify
from eqfactor.maxflow import FlowNetwork
from eqfactor.multigraph import Multigraph, Orientation, complete_graph
from eqfactor.orientation import (
    DEFAULT_BUDGET,
    balanced_mod_k_orientation,
    eulerian_orientation,
    mod_k_orientation,
    realize_out_degrees,
    residue_map,
)


def test_eulerian_c4():
    d = eulerian_orientation(cycle_graph(4))
    assert d.out_degrees == (1, 1, 1, 1)
    assert d.in_degrees == (1, 1, 1, 1)


def test_eulerian_loops_balance():
    d = eulerian_orientation(Multigraph(1, [(0, 0), (0, 0)]))
    assert d.out_degrees[0] == 2
    assert d.in_degrees[0] == 2


def test_eulerian_k5():
    d = eulerian_orientation(complete_graph(5))
    assert d.out_degrees == (2, 2, 2, 2, 2)


def test_eulerian_rejects_odd_degree():
    with pytest.raises(Infeasible):
        eulerian_orientation(Multigraph(2, [(0, 1)]))


def walked_tails(g):
    """Tails of the trails walked from the odd-degree vertices, then from
    each vertex in turn, each step along the lowest-numbered unused edge at
    the current vertex: the near-balanced orientation, and on an
    even-degree graph the Eulerian one."""
    tails = [None] * g.m
    at = [[eid for eid, e in enumerate(g.edges) if x in e] for x in range(g.n)]
    for x in [v for v, d in enumerate(g.degrees) if d % 2 == 1] + list(range(g.n)):
        while True:
            free = [eid for eid in at[x] if tails[eid] is None]
            if not free:
                break
            tails[free[0]] = x
            u, w = g.edges[free[0]]
            x = u + w - x
    return tuple(tails)


def test_near_balanced_orientation_unbalances_only_odd_degrees():
    """One trail walk: on multigraphs with loops, parallel edges and odd
    degrees, |d+(v) - d-(v)| is d(v) mod 2 at every vertex; on even degrees
    both entry points give the walked Eulerian orientation."""
    rng = random.Random(47)
    for _ in range(400):
        g = random_multigraph(rng, max_n=12, max_m=40)
        d = orientation.near_balanced_orientation(g)
        assert [abs(o - i) for o, i in zip(d.out_degrees, d.in_degrees)] == [x % 2 for x in g.degrees]
    graphs = [random_even_multigraph(rng, rng.randint(1, 12), 8, 40) for _ in range(200)]
    for g in graphs + [eulerian_union(rng, 1000, 3)]:
        tails = walked_tails(g)
        assert eulerian_orientation(g).tails == orientation.near_balanced_orientation(g).tails == tails


def test_trail_walk_writes_the_near_balanced_arcs():
    """The walk writes a tail and a head per edge: the tails are the
    near-balanced orientation's, each head is the other endpoint (the same
    vertex for a loop), and the arcs alone give |d+(v) - d-(v)| = d(v) mod 2."""
    rng = random.Random(79)
    for _ in range(300):
        g = random_multigraph(rng, max_n=12, max_m=40)
        tails, heads = orientation.trail_walk(g)
        assert tails == list(orientation.near_balanced_orientation(g).tails)
        out, into = [0] * g.n, [0] * g.n
        for t, h, (u, w) in zip(tails, heads, g.edges):
            assert (t, h) in ((u, w), (w, u))
            out[t] += 1
            into[h] += 1
        assert [abs(o - i) for o, i in zip(out, into)] == [d % 2 for d in g.degrees]


def test_trail_walk_takes_the_least_unused_edge_on_odd_degrees():
    """On the 400 multigraphs of the test above (loops, parallel edges, odd
    degrees), the walk's tails are the reference walk's exactly, and each
    head is the other endpoint of its edge."""
    rng = random.Random(47)
    odd = 0
    for _ in range(400):
        g = random_multigraph(rng, max_n=12, max_m=40)
        odd += any(d % 2 for d in g.degrees)
        tails, heads = orientation.trail_walk(g)
        assert tuple(tails) == walked_tails(g)
        assert heads == [u + w - t for (u, w), t in zip(g.edges, tails)]
    assert odd >= 300


def test_realize_triangle_cyclic():
    g = cycle_graph(3)
    d = realize_out_degrees(g, (1, 1, 1))
    assert d.out_degrees == (1, 1, 1)


def test_realize_triangle_forced():
    g = cycle_graph(3)
    d = realize_out_degrees(g, (2, 1, 0))
    assert d.out_degrees == (2, 1, 0)


def test_realize_triangle_infeasible_certificate():
    g = cycle_graph(3)
    with pytest.raises(InvalidInput):
        realize_out_degrees(g, (3, 0, 0))  # o > d at v0
    g4 = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    # o(1)=o(2)=2 demands 4 tails among vertices of joint incident count 3
    with pytest.raises(Infeasible) as exc:
        realize_out_degrees(g4, (0, 2, 2, 0))
    cert = exc.value.certificate
    assert sum((0, 2, 2, 0)[v] for v in cert) < internal_edges(g4, cert)


def test_hakimi_certificate_violates_bound():
    rng = random.Random(5)
    found = 0
    for _ in range(200):
        g = random_multigraph(rng, max_n=6, max_m=10, min_m=2)
        o = [0] * g.n
        budget = g.m
        for v in range(g.n):
            o[v] = rng.randint(0, min(g.degree(v), budget))
            budget -= o[v]
        if sum(o) != g.m:
            continue
        try:
            d = realize_out_degrees(g, o)
            assert d.out_degrees == tuple(o)
        except Infeasible as exc:
            found += 1
            a = exc.certificate
            internal = sum(1 for u, v in g.edges if u in a and v in a)
            assert sum(o[v] for v in a) < internal
    assert found > 0


def test_realize_agrees_with_hakimi_subset_oracle():
    """realize_out_degrees succeeds exactly when no vertex subset violates
    Hakimi's bound, and every certificate it raises violates that bound."""
    rng = random.Random(31)
    outcomes = set()
    shapes = set()
    for _ in range(300):
        g = random_multigraph(rng, max_n=7, max_m=12)
        shapes.add((any(u == v for u, v in g.edges), len(set(map(frozenset, g.edges))) < g.m))
        # an orientation's out-degrees, then a few unit moves that keep
        # sum(o) = |E| and 0 <= o(v) <= d(v)
        o = list(random_orientation(rng, g).out_degrees)
        for _ in range(rng.randint(0, 3)):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            if o[u] > 0 and o[v] < g.degree(v):
                o[u] -= 1
                o[v] += 1
        violation = hakimi_violation(g, o)
        try:
            d = realize_out_degrees(g, tuple(o))
        except Infeasible as exc:
            assert violation is not None
            a = exc.certificate
            assert sum(o[v] for v in a) < internal_edges(g, a)
            outcomes.add(False)
        else:
            assert violation is None
            assert d.out_degrees == tuple(o)
            outcomes.add(True)
    assert outcomes == {True, False}
    assert (True, True) in shapes


def test_realize_plans_that_cannot_host_their_loops():
    """A plan with o(v) < loops(v) or d(v) - o(v) < loops(v) fails in the flow
    itself, with a certificate that violates Hakimi's bound."""
    g = Multigraph(2, [(0, 0), (0, 1), (1, 1)])
    for o in ((0, 3), (3, 0)):
        with pytest.raises(Infeasible) as info:
            realize_out_degrees(g, o)
        a = info.value.certificate
        assert sum(o[v] for v in a) < internal_edges(g, a)
    rng = random.Random(37)
    tried = 0
    while tried < 200:
        g = random_multigraph(rng, max_n=6, max_m=10)
        looped = [v for v in range(g.n) if g.loops[v]]
        if not looped:
            continue
        v = rng.choice(looped)
        o = list(random_orientation(rng, g).out_degrees)
        # set o(v) below loops(v), or above d(v) - loops(v), and move the
        # difference to the other vertices
        target = rng.randrange(g.loops[v])
        if rng.random() < 0.5:
            target = g.degree(v) - target
        shift = o[v] - target
        others = [u for u in range(g.n) if u != v]
        rng.shuffle(others)
        for u in others:
            step = max(-o[u], min(g.degree(u) - o[u], shift))
            o[u] += step
            shift -= step
        if shift:
            continue
        o[v] = target
        tried += 1
        assert hakimi_violation(g, o) is not None
        with pytest.raises(Infeasible) as info:
            realize_out_degrees(g, tuple(o))
        a = info.value.certificate
        assert sum(o[x] for x in a) < internal_edges(g, a)


def test_realize_from_any_start_orientation():
    """The realization is exact from whatever orientation it starts: the
    verdict matches Hakimi's condition and certificates violate it."""
    rng = random.Random(43)
    outcomes = set()
    for _ in range(200):
        g = random_multigraph(rng, max_n=7, max_m=12)
        o = list(random_orientation(rng, g).out_degrees)
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if o[u] > 0 and o[v] < g.degree(v):
            o[u] -= 1
            o[v] += 1
        violation = hakimi_violation(g, o)
        try:
            d = realize_out_degrees(g, tuple(o), start=random_orientation(rng, g))
        except Infeasible as exc:
            assert violation is not None
            assert sum(o[v] for v in exc.certificate) < internal_edges(g, exc.certificate)
            outcomes.add(False)
        else:
            assert violation is None
            assert d.out_degrees == tuple(o)
            outcomes.add(True)
    assert outcomes == {True, False}
    g = cycle_graph(3)
    with pytest.raises(InvalidInput):
        realize_out_degrees(g, (1, 1, 1), start=eulerian_orientation(cycle_graph(4)))


def test_a_start_that_meets_the_plan_is_returned_itself(monkeypatch):
    """realize_out_degrees returns ``start`` itself, with no FlowNetwork
    built, when the start already meets the plan. So on a 6-regular
    10^4-vertex graph with k = 3, whose first plan the Eulerian start meets,
    mod_k_orientation builds one Orientation, the start's, in the balanced
    (parity) and the zero-residue (regular) route alike."""
    built = []
    monkeypatch.setattr(orientation, "FlowNetwork", lambda *args: built.append(args[0]) or FlowNetwork(*args))
    rng = random.Random(67)
    for _ in range(100):
        g = random_multigraph(rng, max_n=7, max_m=12)
        start = random_orientation(rng, g)
        assert realize_out_degrees(g, start.out_degrees, start=start) is start
    oriented = []
    init = Orientation.__init__

    def counted(self, base, tails):
        oriented.append(base)
        init(self, base, tails)

    monkeypatch.setattr(Orientation, "__init__", counted)
    g = eulerian_union(random.Random(89), 10_000, 3)
    for d in (balanced_mod_k_orientation(g, 3), mod_k_orientation(g, 3, (0,) * g.n)):
        assert d.out_degrees == (3,) * g.n
    assert oriented == [g, g] and built == []


def assert_parity_orientation(g, k, q, d):
    """d meets the even-k contract d+(v) - d-(v) = k [v in Q] (mod 2k), and
    parity mode of decompose_directed splits it into k factors that pass the
    deviation<2 and parity:Q audit."""
    on_q = set(q)
    assert all((d.out_degrees[v] - d.in_degrees[v] - k * (v in on_q)) % (2 * k) == 0 for v in range(g.n))
    fz = decompose_directed(d, k, mode="parity")
    assert audit_passes(verify(g, fz, ["deviation<2", parity_claim([int(v in on_q) for v in range(g.n)])]))


def test_balanced_even_k_agrees_with_orientation_oracle():
    """An orientation for Q exists exactly when a p-orientation with
    p(v) = d(v)/2 + [v in Q] k/2 (mod k) does, with degrees up to 3k; the
    oracle is skipped above its edge budget. Every orientation found meets
    the mod-2k contract and passes the parity-mode audit."""
    rng = random.Random(37)
    outcomes, checked, wide, loops = [], 0, 0, 0
    while len(outcomes) < 240:
        k = rng.choice((2, 4, 6))
        n = rng.randint(2, 8)
        g = random_even_multigraph(rng, n, 3 * k, 24)
        big = [v for v in range(n) if g.degree(v) >= k]
        if len(big) < 2:
            continue
        q = set(rng.sample(big, 2 * rng.randint(1, len(big) // 2)))
        try:
            d = balanced_mod_k_orientation(g, k, q)
        except Infeasible:
            d = None
        else:
            assert_parity_orientation(g, k, q, d)
        if g.m <= ORIENTATION_EDGE_BUDGET:
            p = [(g.degree(v) // 2 + (k // 2 if v in q else 0)) % k for v in range(n)]
            assert oracle_orientation(g, p, k) == (d is not None)
            checked += 1
        wide += max(g.degrees) >= 2 * k
        loops += any(u == v for u, v in g.edges)
        outcomes.append(d is not None)
    assert 100 <= sum(outcomes) <= 200
    assert checked >= 150 and wide >= 150 and loops >= 150


def test_mod_k_residue_obstruction():
    with pytest.raises(ResidueObstruction):
        mod_k_orientation(cycle_graph(3), 2, (0, 0, 0))


def test_mod_k_validations():
    g = complete_graph(4)
    with pytest.raises(InvalidInput, match="modulus k must be >= 1"):
        mod_k_orientation(g, 0, (0,) * 4)
    with pytest.raises(InvalidInput, match="cover every vertex"):
        mod_k_orientation(g, 2, (0,) * 3)
    # targets are read mod k: |E| = 21 at z is 0 mod 3
    k7 = complete_graph(7)
    assert mod_k_orientation(k7, 3, residue_map(k7, z=0)).tails == mod_k_orientation(k7, 3, (0,) * 7).tails


def test_mod_k_k4():
    g = complete_graph(4)
    d = mod_k_orientation(g, 2, (0, 0, 0, 0))
    assert all(o % 2 == 0 for o in d.out_degrees)


def test_mod_k_k7():
    g = complete_graph(7)
    d = mod_k_orientation(g, 3, (0,) * 7)
    assert all(o % 3 == 0 for o in d.out_degrees)


def test_mod_k_budget_undecided():
    g = complete_graph(7)
    with pytest.raises(Undecided):
        mod_k_orientation(g, 3, (1, 2, 0, 0, 0, 0, 0), budget=1)


def circulant(n, steps, offset=0):
    return [(offset + i, offset + (i + s) % n) for s in steps for i in range(n)]


# (graph, (k, residue map), smallest node budget with which the plan search
# succeeds); recorded with the earlier recursive search, so a change to the
# order in which plans are visited shows here
SEARCH_ORDER_CASES = [
    (complete_graph(7), (3, (1, 2, 0, 0, 0, 0, 0)), 7),
    (Multigraph(12, circulant(12, (1, 3))), (3, (0,) * 12), 166),
    (Multigraph(8, [(5, 6), (2, 3), (6, 5), (4, 6), (5, 7), (7, 0), (7, 3), (0, 2), (0, 5), (4, 1),
                    (3, 3), (7, 4), (7, 6), (1, 0)]),
     (3, (1, 2, 0, 2, 0, 1, 0, 2)), 49),
]


@pytest.mark.parametrize("g, rm, budget", SEARCH_ORDER_CASES)
def test_plan_search_order_is_pinned(g, rm, budget):
    k, p = rm
    d = mod_k_orientation(g, k, p, budget=budget)
    assert all(d.out_degrees[v] % k == p[v] for v in range(g.n))
    with pytest.raises(Undecided):
        mod_k_orientation(g, k, p, budget=budget - 1)


def test_plan_search_backtracks_deep_at_default_recursion_limit():
    """A 2000-vertex 4-regular circulant whose plan is forced (out-degree 2 is
    the only value = 2 mod 3) comes first in the search order; the 12-vertex
    circulant after it needs 166 nodes on its own, so the search backtracks
    below depth 2000."""
    bulk = 2000
    g = Multigraph(bulk + 12, circulant(bulk, (1, 3)) + circulant(12, (1, 3), offset=bulk))
    p = (2,) * bulk + (0,) * 12
    d = mod_k_orientation(g, 3, p, budget=bulk + 166)
    assert all(d.out_degrees[v] % 3 == p[v] for v in range(g.n))
    with pytest.raises(Undecided):
        mod_k_orientation(g, 3, p, budget=bulk + 165)


def test_mod_k_with_k_1_keeps_the_stored_tails():
    g = Multigraph(3, [(0, 1), (2, 1), (1, 1)])
    assert mod_k_orientation(g, 1, (0, 0, 0)).tails == (0, 2, 1)


def test_start_orientation_is_computed_once_per_call(monkeypatch):
    """The plan search computes the near-balanced start once per call and
    hands it to every leaf it realizes, for a residue map and for even-k
    balance alike."""
    starts, leaves = [], []
    near_balanced, realize = orientation.near_balanced_orientation, orientation.realize_out_degrees
    monkeypatch.setattr(orientation, "near_balanced_orientation", lambda g: starts.append(g) or near_balanced(g))
    monkeypatch.setattr(orientation, "realize_out_degrees",
                        lambda g, plan, **kw: leaves.append(plan) or realize(g, plan, **kw))
    g, (k, p), budget = SEARCH_ORDER_CASES[1]
    mod_k_orientation(g, k, p, budget=budget)
    assert len(starts) == 1 and len(leaves) >= 2
    starts.clear()
    leaves.clear()
    g = Multigraph(5, [(0, 2), (2, 4), (4, 0), (0, 2), (2, 4), (4, 3), (3, 1), (1, 0), (4, 2), (2, 1),
                       (1, 4), (3, 3)])
    balanced_mod_k_orientation(g, 4, [0, 1, 2, 4])
    assert len(starts) == 1 and len(leaves) >= 2


def test_mod_k_agrees_with_enumeration():
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        g = random_multigraph(rng, max_n=6, max_m=9, min_m=1)
        k = rng.choice((2, 3, 4))
        p = tuple(rng.randrange(k) for _ in range(g.n))
        truth = oracle_orientation(g, p, k)
        try:
            d = mod_k_orientation(g, k, p)
            assert truth
            assert all(d.out_degrees[v] % k == p[v] % k for v in range(g.n))
        except (Infeasible, ResidueObstruction):
            assert not truth
        checked += 1
    assert checked == 60


def test_balanced_odd_k():
    g = complete_graph(7)
    d = balanced_mod_k_orientation(g, 3)
    assert all((d.out_degrees[v] - d.in_degrees[v]) % 3 == 0 for v in range(7))
    with pytest.raises(InvalidInput):
        balanced_mod_k_orientation(g, 3, q={0, 1})


def test_balanced_even_k_q_empty_is_eulerian():
    g = cycle_graph(4)
    d = balanced_mod_k_orientation(g, 2, q=set())
    assert d.out_degrees == d.in_degrees


def test_balanced_even_k_q_pair():
    g = cycle_graph(4)
    d = balanced_mod_k_orientation(g, 2, q={0, 1})
    for v in range(4):
        diff = d.out_degrees[v] - d.in_degrees[v]
        assert abs(diff) == (2 if v in (0, 1) else 0)


def test_balanced_even_k_validations():
    with pytest.raises(InvalidInput):
        balanced_mod_k_orientation(Multigraph(2, [(0, 1)]), 2, q=set())
    with pytest.raises(InvalidInput):
        balanced_mod_k_orientation(cycle_graph(4), 2, q={0})
    with pytest.raises(InvalidInput, match="out of range"):
        balanced_mod_k_orientation(cycle_graph(4), 2, q={0, 4})
    with pytest.raises(Infeasible, match=r"^vertex 0 of degree 2 .*k = 4\)$"):
        balanced_mod_k_orientation(cycle_graph(4), 4, q={0, 1})  # degree 2 < k


def count_leaves(monkeypatch):
    """A list that grows by one plan each time the plan search realizes a leaf."""
    leaves, realize = [], orientation.realize_out_degrees
    monkeypatch.setattr(orientation, "realize_out_degrees",
                        lambda g, o, **kw: leaves.append(o) or realize(g, o, **kw))
    return leaves


def test_scale_balanced_even_k_10k_builds_no_network(monkeypatch):
    """k = 2 at n = 10^4 with |Q| = 2000 takes the T-join pass: no flow
    network, no plan realized, and the result meets the mod-4 contract and
    passes the deviation<2 and parity:Q audit."""
    g = eulerian_union(random.Random(59), 10_000, 3)
    q = random.Random(61).sample(range(g.n), 2000)
    leaves = count_leaves(monkeypatch)
    built = []
    monkeypatch.setattr(orientation, "FlowNetwork", lambda *args: built.append(args[0]) or FlowNetwork(*args))
    d = balanced_mod_k_orientation(g, 2, q, budget=0)
    assert leaves == [] and built == []
    assert_parity_orientation(g, 2, q, d)


def k4_probe(seed):
    """n = 200: two shuffled Hamiltonian cycles, then 20 cycles through 3-20
    random vertices; Q is 40 random vertices."""
    rng = random.Random(seed)
    n = 200
    edges = list(eulerian_union(rng, n, 2).edges)
    for _ in range(20):
        cycle = rng.sample(range(n), rng.randint(3, 20))
        edges += zip(cycle, cycle[1:] + cycle[:1])
    return Multigraph(n, edges), rng.sample(range(n), 40)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_balanced_even_k_finds_the_k4_probes(seed):
    """Probes on which the former search over sign choices on Q gave up
    after 2 * 10^5 nodes; the residue route finds each with the default
    budget."""
    g, q = k4_probe(seed)
    assert_parity_orientation(g, 4, q, balanced_mod_k_orientation(g, 4, q))


def consistent_residues(rng, g, k):
    """Random residues mod k whose sum is |E| (mod k)."""
    p = [rng.randrange(k) for _ in range(g.n)]
    p[0] = (p[0] + g.m - sum(p)) % k
    return p


def test_nearest_candidate_is_the_first_plan_candidate():
    """_plan_candidates, stepping outward from the nearest value, lists the
    residue-compliant out-degrees in [loops, d - loops] sorted nearest d/2
    first, ties to the smaller; the O(1) nearest candidate is its first, or
    both are empty, for every vertex and residue."""
    rng = random.Random(71)
    shapes, empty = set(), set()
    for _ in range(500):
        g = random_multigraph(rng, max_n=8, max_m=24)
        shapes.add((any(u == v for u, v in g.edges), len(set(map(frozenset, g.edges))) < g.m))
        k = rng.randint(2, 6)
        for v in range(g.n):
            d, loops = g.degree(v), g.loops[v]
            for r in range(k):
                cand = orientation._plan_candidates(g, v, r, k)
                assert cand == sorted((c for c in range(r, d + 1, k) if loops <= c <= d - loops),
                                      key=lambda c: (abs(2 * c - d), c))
                c = orientation._nearest_candidate(d, loops, r, k)
                assert c == (cand[0] if cand else None)
                empty.add(c is None)
    assert empty == {True, False}
    assert (True, True) in shapes


def test_first_plan_has_least_imbalance():
    """The first plan sums to |E| with the least sum |2o(v) - d(v)| over all
    residue-compliant plans, and is None exactly when no such plan exists."""
    rng = random.Random(73)
    checked, shifted, none = 0, 0, 0
    while checked < 300:
        g = random_multigraph(rng, max_n=6, max_m=10)
        k = rng.choice((2, 3, 4))
        p = consistent_residues(rng, g, k)
        cand = [orientation._plan_candidates(g, v, p[v], k) for v in range(g.n)]
        if not all(cand):
            with pytest.raises(Infeasible):
                orientation._first_plan(g, k, p)
            continue
        size = 1
        for c in cand:
            size *= len(c)
        if size > 20_000:
            continue
        checked += 1
        deg = g.degrees
        costs = [sum(abs(2 * c - d) for c, d in zip(plan, deg)) for plan in product(*cand) if sum(plan) == g.m]
        plan = orientation._first_plan(g, k, p)
        if plan is None:
            assert not costs
            none += 1
            continue
        assert sum(plan) == g.m and all(plan[v] in cand[v] for v in range(g.n))
        assert sum(abs(2 * c - d) for c, d in zip(plan, deg)) == min(costs)
        shifted += any(plan[v] != cand[v][0] for v in range(g.n))
    assert shifted >= 50 and none >= 5


def test_first_plan_then_search_matches_the_plan_search(monkeypatch):
    """mod_k_orientation agrees with the enumeration oracle. For k >= 3, when
    its first plan is not realized (forced here) or the budget is below n,
    it returns the tails, or raises the exception, of the plan search alone
    with the same order, candidates and budget. k = 2 takes the T-join pass
    instead: the same outcome at every budget, and d+ = p (mod 2)."""
    realize = orientation.realize_out_degrees
    fail_next = []

    def failing_first(g, o, **kw):
        if fail_next:
            fail_next.pop()
            raise Infeasible("first plan forced infeasible")
        return realize(g, o, **kw)

    def outcome(solve, *args):
        try:
            return solve(*args).tails
        except (Infeasible, Undecided) as exc:
            return type(exc).__name__

    rng = random.Random(79)
    checked, forced, below, undecided, mod_2 = 0, 0, 0, 0, 0
    while checked < 300:
        g = random_multigraph(rng, max_n=8, max_m=12)
        k = rng.choice((2, 3, 4))
        p = consistent_residues(rng, g, k)
        got = outcome(mod_k_orientation, g, k, p)
        assert (got != "Infeasible") == oracle_orientation(g, p, k)
        if k == 2:
            mod_2 += 1
            assert all(outcome(mod_k_orientation, g, k, p, budget) == got for budget in (0, g.n))
            if got != "Infeasible":
                assert all((got.count(v) - p[v]) % 2 == 0 for v in range(g.n))
            continue
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        cand = [orientation._plan_candidates(g, v, p[v], k) for v in order]
        if not all(cand):
            continue
        checked += 1
        for budget in (rng.randrange(g.n), rng.choice((g.n, 3 * g.n, 30 * g.n, DEFAULT_BUDGET))):
            ref = outcome(orientation._plan_search, g, order, cand, budget)
            fail = budget >= g.n and orientation._first_plan(g, k, p) is not None
            fail_next[:] = [True] if fail else []
            monkeypatch.setattr(orientation, "realize_out_degrees", failing_first)
            got = outcome(mod_k_orientation, g, k, p, budget)
            monkeypatch.setattr(orientation, "realize_out_degrees", realize)
            assert not fail_next and got == ref
            forced += fail
            below += budget < g.n
            undecided += ref == "Undecided"
    assert forced >= 250 and below == 300 and undecided >= 100 and mod_2 >= 100


def test_mod_2_orientation_matches_the_oracle():
    """k = 2 with budget 0 on random multigraphs (loops, parallel edges, and
    a second component whose residues are parity-inconsistent in about half
    of the draws): found exactly when the oracle says so, every orientation
    has d+ = p (mod 2), and every certificate is a component C with
    sum_C p != |E(C)| (mod 2)."""
    rng = random.Random(83)
    found = infeasible = 0
    for _ in range(3000):
        a = random_multigraph(rng, max_n=5, max_m=8, min_n=1, min_m=0)
        b = random_multigraph(rng, max_n=4, max_m=6, min_n=1, min_m=0)
        g = Multigraph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])
        p = consistent_residues(rng, g, 2)
        try:
            d = mod_k_orientation(g, 2, p, budget=0)
        except Infeasible as exc:
            assert not isinstance(exc, ResidueObstruction)
            c = exc.certificate
            assert c in components(g)
            assert (sum(p[v] for v in c) - internal_edges(g, c)) % 2 == 1
            assert not oracle_orientation(g, p, 2)
            infeasible += 1
            continue
        assert all((d.out_degrees[v] - p[v]) % 2 == 0 for v in range(g.n))
        assert oracle_orientation(g, p, 2)
        found += 1
    assert found >= 750 and infeasible >= 750


def test_mod_2_orientation_walks_no_trail(monkeypatch):
    """The k = 2 T-join starts from the stored tails, so it runs no trail
    walk: trail_walk is never called on a 6-regular graph, whose answer has
    d+ = p (mod 2), nor on two triangles, whose residues admit none."""
    def walk(*args):
        raise AssertionError("trail_walk called")

    monkeypatch.setattr(orientation, "trail_walk", walk)
    g = eulerian_union(random.Random(5), 300, 3)
    p = [v % 2 for v in range(g.n)]
    d = mod_k_orientation(g, 2, p)
    assert all((x - y) % 2 == 0 for x, y in zip(d.out_degrees, p))
    with pytest.raises(Infeasible):
        mod_k_orientation(Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), 2, (0,) * 6)


def test_scale_six_regular_10k_k3_first_plan_is_the_first_leaf(monkeypatch):
    """On a 6-regular 10^4-vertex graph with k = 3 the first plan is the plan
    search's first leaf: same tails, and no candidate list is built."""
    g = eulerian_union(random.Random(89), 10_000, 3)
    built = []
    plan_candidates = orientation._plan_candidates
    monkeypatch.setattr(orientation, "_plan_candidates", lambda *a: built.append(a) or plan_candidates(*a))
    d = mod_k_orientation(g, 3, (0,) * g.n)
    assert built == []
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    cand = [plan_candidates(g, v, 0, 3) for v in order]
    assert d.tails == orientation._plan_search(g, order, cand, DEFAULT_BUDGET).tails

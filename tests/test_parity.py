import hashlib
import math
import random

import pytest

from conftest import (
    audit_passes,
    cycle_graph,
    eulerian_union,
    random_even_multigraph,
    random_multigraph,
    random_two_edge_connected,
    subgraph,
)
from cut_oracles import ConditionCertificate, check_lovasz, omega_f
from eqfactor import connectivity, maxflow, parity
from eqfactor.errors import Infeasible, InvalidInput, Undecided
from eqfactor.lab import generate, measure, oracle_parity_gf, verify
from eqfactor.multigraph import Multigraph, complete_graph
from eqfactor.parity import (
    ParitySpec,
    _even_circulation,
    epsilon_parity_factor,
    epsilon_windows,
    even_factor_eps,
    find_parity_factor,
    hilton_even_factorization,
    weighted_even_factorization,
)


def test_omega_f_cases():
    g = complete_graph(4)
    assert omega_f(g, set(range(4)), set(), (1,) * 4) == 0  # no components left
    assert omega_f(g, {0}, set(), (1, 1, 1, 1)) == 1  # triangle, sum f = 3 odd
    assert omega_f(g, set(), set(), (1, 1, 1, 1)) == 0  # even total
    with pytest.raises(InvalidInput):
        omega_f(g, {0}, {0}, (1,) * 4)


def test_check_lovasz_perfect_matchings():
    tri = cycle_graph(3)
    cert = check_lovasz(tri, ParitySpec(f=(1, 1, 1), g0=(1, 1, 1), f0=(1, 1, 1)))
    assert isinstance(cert, ConditionCertificate)
    assert cert.slack <= 1  # odd parity total: the gap can close to 1
    k2 = Multigraph(2, [(0, 1)])
    assert check_lovasz(k2, ParitySpec(f=(1, 1), g0=(1, 1), f0=(1, 1))) is True


def test_check_lovasz_empty_factor_always_ok():
    g = complete_graph(4)
    spec = ParitySpec(f=(0,) * 4, g0=(0,) * 4, f0=tuple(2 * (d // 2) for d in g.degrees))
    assert check_lovasz(g, spec) is True


def test_check_lovasz_budget():
    g = Multigraph(13, [(i, (i + 1) % 13) for i in range(13)])
    with pytest.raises(Undecided):
        check_lovasz(g, ParitySpec(f=(0,) * 13, g0=(0,) * 13, f0=(0,) * 13))


def test_find_parity_factor_path():
    g = Multigraph(3, [(0, 1), (1, 2)])
    f = find_parity_factor(g, ParitySpec(f=(1, 0, 1), g0=(1, 0, 1), f0=(1, 2, 1)))
    assert f == frozenset({0, 1})


def test_find_parity_factor_trivial_and_absent():
    g = cycle_graph(3)
    assert find_parity_factor(g, ParitySpec(f=(0,) * 3, g0=(0,) * 3, f0=(0,) * 3)) == frozenset()
    assert find_parity_factor(g, ParitySpec(f=(1,) * 3, g0=(1,) * 3, f0=(1,) * 3)) is None


def test_parity_spec_validation():
    with pytest.raises(InvalidInput):
        ParitySpec(f=(1,), g0=(0,), f0=(1,))  # g0 parity mismatch
    with pytest.raises(InvalidInput):
        ParitySpec(f=(0,), g0=(2,), f0=(0,))  # g0 > f0


def count_gadgets(monkeypatch):
    """A list that gains the graph of each ``parity._gadget`` call."""
    calls = []
    gadget = parity._gadget
    monkeypatch.setattr(parity, "_gadget", lambda *args: calls.append(args[0]) or gadget(*args))
    return calls


def test_lovasz_finder_oracle_triple_agreement(monkeypatch):
    """Both branches of the finder answer here: the repair on G returns some
    factors, and the gadget decides every other instance that passes the
    window and handshake checks, each infeasible one among them."""
    gadgets = count_gadgets(monkeypatch)
    repaired = 0
    rng = random.Random(47)
    for _ in range(150):
        g = random_multigraph(rng, max_n=5, max_m=8, min_m=1)
        f, g0, f0 = [], [], []
        for v in range(g.n):
            lo = rng.randint(0, g.degree(v))
            hi = lo + 2 * rng.randint(0, (g.degree(v) - lo) // 2)
            f.append(lo % 2)
            g0.append(lo)
            f0.append(hi)
        spec = ParitySpec(f=tuple(f), g0=tuple(g0), f0=tuple(f0))
        truth = oracle_parity_gf(g, spec)
        assert (check_lovasz(g, spec) is True) == truth
        before = len(gadgets)
        found = find_parity_factor(g, spec)
        repaired += found is not None and len(gadgets) == before
        assert (found is not None) == truth
        if found is not None:
            degs = subgraph(g, found).degrees
            for v in range(g.n):
                assert g0[v] <= degs[v] <= f0[v]
                assert degs[v] % 2 == f[v]
    assert repaired > 0 and len(gadgets) > 0


def test_a_failed_repair_hands_its_factor_to_the_gadget(monkeypatch):
    """Vertex 1 needs its two edges to vertex 0, which the greedy pass has
    filled with the two edges to vertex 2. The one trail that mends vertex 1
    adds 0-1, removes both 0-2 and adds the other 0-1; the search reaches
    vertex 0 by the first 0-1 edge, so the trail it finds repeats that edge,
    and the repair hands over. The gadget finds the factor {2, 3}."""
    gadgets = count_gadgets(monkeypatch)
    g = Multigraph(3, [(0, 2), (0, 2), (0, 1), (0, 1)])
    assert find_parity_factor(g, ParitySpec(f=(0, 0, 0), g0=(2, 2, 0), f0=(2, 2, 2))) == frozenset({2, 3})
    assert gadgets == [g]


def test_scale_epsilon_parity_factor_10k(monkeypatch):
    """The eps-window parity factor of a 10^4-vertex union of three
    Hamiltonian cycles (m = 3 * 10^4), at eps = 0.5 and 0.34 and steered at
    vertex 3, runs at the default recursion limit, passes its audits and is
    mended on G: no request builds the matching gadget."""
    gadgets = count_gadgets(monkeypatch)
    g = generate("eulerian_cycles", {"n": 10_000, "c": 3}, seed=1)
    f = [0] * g.n
    f[17] = f[5017] = 1
    for eps, z in ((0.5, None), (0.34, None), (0.5, (3, "at_most"))):
        factor = epsilon_parity_factor(g, f, eps, z=z)
        degs = subgraph(g, factor).degrees
        assert audit_passes(measure(g, [degs], ["parity:17;5017", f"eps-window:{eps!r}"]))
        if z is not None:
            assert degs[3] < eps * g.degree(3)
    assert gadgets == []


def test_epsilon_windows_shape():
    g = complete_graph(4)
    g0, f0 = epsilon_windows(g, (1, 1, 1, 1), 0.5)
    assert g0 == (1, 1, 1, 1)
    assert f0 == (3, 3, 3, 3)


def test_epsilon_windows_are_exact():
    """The windows take floor and ceil of eps*d(v) in integers: 0.07 * 100 is
    7 exactly, not the float 7.000000000000001, so the odd window is [7, 7]
    (it was [7, 9]) and steering at least eps*d keeps it. On the benchmark's
    6-regular graphs (eps 0.5 and 0.34) the windows are the float ones."""
    g = Multigraph(2, [(0, 1)] * 100)
    assert epsilon_windows(g, (1, 1), 0.07) == ((7, 7), (7, 7))
    assert len(epsilon_parity_factor(g, (1, 1), 0.07, z=(0, "at_least"))) == 7
    six = eulerian_union(random.Random(89), 12, 3)
    for eps in (0.5, 0.34):
        for f in ((0,) * 12, (1,) * 12):
            float_windows = ([math.floor(eps * 6) - (math.floor(eps * 6) % 2 != x) for x in f],
                             [math.ceil(eps * 6) + (math.ceil(eps * 6) % 2 != x) for x in f])
            assert epsilon_windows(six, f, eps) == tuple(map(tuple, float_windows))


def test_epsilon_parity_factor_k4():
    g = complete_graph(4)
    factor = epsilon_parity_factor(g, (1, 1, 1, 1), 0.5)
    degs = subgraph(g, factor).degrees
    assert all(d % 2 == 1 and 0 <= d <= 3 for d in degs)


def test_epsilon_parity_factor_r0_factor():
    # 3-regular bipartite K_{3,3}, eps = 1/3 -> a 1-factor
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    g = Multigraph(6, edges)
    factor = epsilon_parity_factor(g, (1,) * 6, 1 / 3)
    assert subgraph(g, factor).degrees == (1,) * 6


def test_epsilon_parity_factor_z_steering():
    rng = random.Random(53)
    for _ in range(20):
        g = random_two_edge_connected(rng, max_n=7)
        f = tuple(d % 2 for d in g.degrees)  # sum even by handshake
        for side in ("at_least", "at_most"):
            z = rng.randrange(g.n)
            try:
                factor = epsilon_parity_factor(g, f, 0.5, z=(z, side))
            except Infeasible:
                continue
            dz = subgraph(g, factor).degrees[z]
            if side == "at_least":
                assert dz >= 0.5 * g.degree(z)
            else:
                assert dz <= 0.5 * g.degree(z)


def test_epsilon_parity_factor_validations():
    g = complete_graph(4)
    with pytest.raises(InvalidInput):
        epsilon_parity_factor(g, (1, 0, 0, 0), 0.5)  # odd sum
    with pytest.raises(InvalidInput):
        epsilon_parity_factor(g, (0,) * 4, 0.0)


def test_the_hypothesis_check_reads_eps_as_its_decimal(monkeypatch):
    """An Infeasible answer names the cut hypotheses for eps read as the
    decimal it prints as, as the windows read it: at a float 1/3, f-odd cuts
    of at least ceil(1/0.3333333333333333) = 4, and complementary ones of at
    least 2."""
    thresholds = []
    monkeypatch.setattr(connectivity, "f_odd_cut_bound", lambda g, f, c: thresholds.append(c) or (False, None))
    with pytest.raises(Infeasible, match="cut hypotheses of the guarantee are not met"):
        epsilon_parity_factor(Multigraph(3, [(0, 1)]), (0, 1, 1), 1 / 3)
    assert thresholds == [4, 2]


def test_even_factor_eps_extremes_and_k5():
    """eps = 0 and 1 take the general path: the greedy pass takes no arc, or every arc."""
    rng = random.Random(5)
    for g in [complete_graph(5)] + [random_even_multigraph(rng, rng.randint(1, 8), 12, 24) for _ in range(50)]:
        assert even_factor_eps(g, 0) == frozenset()
        assert even_factor_eps(g, 1) == frozenset(range(g.m))
    g = complete_graph(5)
    factor = even_factor_eps(g, 0.5)
    assert subgraph(g, factor).degrees == (2,) * 5
    with pytest.raises(InvalidInput):
        even_factor_eps(Multigraph(2, [(0, 1)]), 0.5)


def test_even_factor_eps_window_random():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.choice((5, 6, 7, 8))
        g = eulerian_union(rng, n, rng.randint(1, 4))
        eps = rng.choice((0.25, 1 / 3, 0.5, 0.7))
        factor = even_factor_eps(g, eps)
        # the exact window of the decimal that eps prints as
        assert audit_passes(measure(g, [subgraph(g, factor).degrees], ["even", f"eps-window:{eps!r}"]))


def test_hilton_k5_and_doubled_c6():
    fz = hilton_even_factorization(complete_graph(5), 2)
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)
    c6x2 = Multigraph(6, [(i, (i + 1) % 6) for i in range(6)] * 2)
    fz = hilton_even_factorization(c6x2, 2)
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)
    fz = hilton_even_factorization(complete_graph(5), 1)
    assert list(map(len, fz.all_factor_edges())) == [10]


def test_hilton_peels_one_over_k_exactly():
    """49 Hamiltonian cycles on 7 vertices, k = 49 = d(v)/2: each factor
    must be a 2-factor."""
    g = generate("eulerian_cycles", {"n": 7, "c": 49}, seed=1)
    fz = hilton_even_factorization(g, 49)
    assert audit_passes(verify(g, fz, ["even", "deviation<2"]))
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)


def test_a_circulation_shortfall_is_an_internal_error():
    """Two arcs 0 -> 1 are not Eulerian: vertex 0 must send one unit at
    throughput 1/2, but vertex 1, with out-degree 0, takes none in. No
    caller passes such arcs, so the shortfall is a bug (AssertionError,
    exit 4 in the CLI), not a proof of infeasibility."""
    with pytest.raises(AssertionError):
        _even_circulation(2, [0, 0], [1, 1], 1, 2)


def test_weighted_k5_half_half():
    fz = weighted_even_factorization(complete_graph(5), (0.5, 0.5))
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)


def test_weighted_bound_and_validation():
    rng = random.Random(61)
    g = eulerian_union(rng, 9, 4)  # 8-regular
    fz = weighted_even_factorization(g, (0.5, 0.25, 0.25))
    eps = (0.5, 0.25, 0.25)
    for i, degs in enumerate(fz.all_factor_degrees()):
        for v in range(g.n):
            assert degs[v] % 2 == 0
            assert abs(degs[v] - eps[i] * g.degree(v)) < 6
    with pytest.raises(InvalidInput):
        weighted_even_factorization(g, (0.5, 0.4))


@pytest.fixture
def network_builds(monkeypatch):
    """A one-item list counting the FlowNetwork objects built while it is active."""
    count = [0]

    class Counted(maxflow.FlowNetwork):
        def __init__(self, *args):
            count[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(maxflow, "FlowNetwork", Counted)
    return count


WEIGHTS = ((0.5, 0.5), (0.7, 0.3), (0.5, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1))


def audit_factorizations(g, k, weights):
    """Hilton's k even factors and the weighted split of g, each audited on its window."""
    assert audit_passes(verify(g, hilton_even_factorization(g, k), ["even", "deviation<2"]))
    claim = "deviation<6:" + ";".join(map(repr, weights))
    assert audit_passes(verify(g, weighted_even_factorization(g, weights), ["even", claim]))


def test_even_factors_audited_on_small_multigraphs(network_builds):
    """Both ways of finding the sub-circulation run: the greedy pass alone
    when it meets every lower bound, and the network for the shortfall when
    it does not; every result passes its audit. Hilton's k reaches past
    max d(v)/2, where the factors past top stay empty."""
    rng = random.Random(67)
    calls_by_builds = [0, 0]  # even_factor_eps calls that built no network, one
    shapes = set()
    for _ in range(300):
        g = random_even_multigraph(rng, rng.randint(1, 8), 12, 24)
        shapes.add((any(u == v for u, v in g.edges), len(set(g.edges)) < g.m))
        eps = rng.choice((0.25, 1 / 3, 0.5, 0.7))
        before = network_builds[0]
        factor = even_factor_eps(g, eps)
        calls_by_builds[network_builds[0] - before] += 1
        assert audit_passes(measure(g, [subgraph(g, factor).degrees], ["even", f"eps-window:{eps!r}"]))
        audit_factorizations(g, rng.choice((*range(1, 9), 49, 10**5)), rng.choice(WEIGHTS))
    assert min(calls_by_builds) >= 30, calls_by_builds
    assert (True, True) in shapes


def test_scale_even_factors_shuffled_edges_10k(network_builds):
    """Three Hamiltonian cycles on 10^4 vertices with the edges in random
    order: the greedy pass falls short, and the network built for the
    shortfall completes every factor. At eps = 0.34 the window at d+ = 3 is
    [1, 2], which the greedy pass does not always meet."""
    rng = random.Random(73)
    edges = list(eulerian_union(rng, 10_000, 3).edges)
    rng.shuffle(edges)
    g = Multigraph(10_000, edges)
    for eps in (0.5, 0.34):
        factor = even_factor_eps(g, eps)
        assert audit_passes(measure(g, [subgraph(g, factor).degrees], ["even", f"eps-window:{eps!r}"]))
    assert network_builds[0] == 2
    audit_factorizations(g, 3, (0.5, 0.25, 0.25))


def even_cases():
    """Eight seeded even multigraphs (seven with loops and parallel edges),
    then a 300-vertex three-cycle union with its edges shuffled (seed 7)."""
    rng = random.Random(103)
    graphs = [random_even_multigraph(rng, rng.randint(2, 8), 12, 24) for _ in range(8)]
    rng = random.Random(7)
    edges = list(eulerian_union(rng, 300, 3).edges)
    rng.shuffle(edges)
    return graphs + [Multigraph(300, edges)]


EVEN_DIGESTS = {
    "hilton 1": "2af3027165de24c1", "hilton 2": "b1be91fc6faf29b6", "hilton 3": "95008ae29cdd6185",
    "hilton 5": "3fa871ed6a8ddaf4", "hilton 49": "5881926125eaf729",
    "weighted (0.5, 0.25, 0.25)": "e32370485fae5b76", "weighted (0.4, 0.3, 0.2, 0.1)": "d95c1fe9b548fe17",
    "eps 0": "06d11f21b0e236e6", "eps 0.3333333333333333": "e02df58ad0d17f94",
    "eps 0.5": "a90cb74b38bc7d5c", "eps 1": "2af3027165de24c1",
}


def test_even_outputs_match_their_recorded_digests(network_builds):
    """Hilton's, the weighted and the eps even factors of even_cases() hash
    to recorded digests: the weighted and eps ones from before the two
    factorizations shared one split driver (eps 1/3 since it is read as the
    decimal it prints as), Hilton's k >= 2 from its parity-mode split; the
    shuffled union builds the shortfall network."""
    runs = {f"hilton {k}": lambda g, k=k: hilton_even_factorization(g, k).assignment for k in (1, 2, 3, 5, 49)}
    for w in ((0.5, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1)):
        runs[f"weighted {w}"] = lambda g, w=w: weighted_even_factorization(g, w).assignment
    for eps in (0, 1 / 3, 0.5, 1):
        runs[f"eps {eps}"] = lambda g, eps=eps: [eid in even_factor_eps(g, eps) for eid in range(g.m)]
    graphs = even_cases()
    assert sum(any(u == v for u, v in g.edges) and len(set(g.edges)) < g.m for g in graphs) == 7
    got = {}
    for name, run in runs.items():
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(bytes(run(g)))
        got[name] = digest.hexdigest()[:16]
    assert got == EVEN_DIGESTS
    assert network_builds[0] > 0


def test_hilton_runs_no_circulation_and_no_network(monkeypatch):
    """Hilton's factors come from the parity-mode split alone: no
    _even_circulation call and no FlowNetwork, for any k from 3 to 10^5, and
    the factors past top = min(k, max d(v)/2) are empty."""
    monkeypatch.setattr(parity, "_even_circulation", lambda *args: pytest.fail("a circulation ran"))
    monkeypatch.setattr(maxflow.FlowNetwork, "__init__", lambda *args: pytest.fail("a flow network was built"))
    for g, top in ((complete_graph(5), 2), (eulerian_union(random.Random(11), 12, 3), 3)):
        for k in (3, 50, 10**5):
            fz = hilton_even_factorization(g, k)
            assert fz.k == k
            assert audit_passes(verify(g, fz, ["even", "deviation<2"]))
            assert set(fz.assignment) == set(range(1, top + 1))

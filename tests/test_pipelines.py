import random

import pytest

import cut_oracles
from conftest import audit_passes, cycle_graph, eulerian_union, irregular_union, random_multigraph
from eqfactor import connectivity, orientation, parity, pipelines
from eqfactor.errors import DEFAULT_BUDGET, Infeasible, InvalidInput, Undecided
from eqfactor.lab import oracle_equitable
from eqfactor.maxflow import FlowNetwork
from eqfactor.multigraph import Multigraph, complete_graph
from eqfactor.pipelines import (
    equitable_factorize,
    find_Z_set,
    parity_factorize,
    regular_factorize,
    regular_split,
    three_factor_criterion,
)


def doubled(g):
    return Multigraph(g.n, [e for e in g.edges for _ in range(2)])


def measured(audit, claim):
    """The measured value of one claim in a pipeline's audit."""
    return {c: m for c, _, m, _ in audit}[claim]


def test_k1_factors_of_a_matching_build_no_network(monkeypatch):
    """k = 1 on a perfect matching, where lambda = 0: every check holds, and
    neither the checks nor the orientation build a flow network. The
    regular check alone took 0.2 s at n = 4000 when it ran its T flows."""
    g = Multigraph(4000, [(2 * i, 2 * i + 1) for i in range(2000)])
    built = []
    monkeypatch.setattr(connectivity, "FlowNetwork", lambda *args: built.append(args[0]) or FlowNetwork(*args))
    monkeypatch.setattr(orientation, "FlowNetwork", lambda *args: built.append(args[0]) or FlowNetwork(*args))
    for solve in (regular_factorize, equitable_factorize, parity_factorize):
        fz, audit, warnings = solve(g, 1)
        assert fz.assignment == (1,) * g.m and audit_passes(audit) and warnings == []
    assert built == []


def test_find_z_set_frozen():
    assert find_Z_set(complete_graph(7), 3) == frozenset()
    g = Multigraph(4, [(0, 1)] * 2 + [(0, 2), (1, 3), (2, 3), (2, 3), (3, 2)])
    assert g.degrees == (3, 3, 4, 4) and g.m == 7
    z = find_Z_set(g, 2)
    assert z == frozenset({0})  # smallest, lexicographically first odd vertex
    loopy = Multigraph(7, list(complete_graph(7).edges) + [(0, 0)])
    assert find_Z_set(loopy, 3) is None


def test_equitable_k7():
    fz, audit, _ = equitable_factorize(complete_graph(7), 3, Z=frozenset())
    assert measured(audit, "deviation<1") == 0
    assert list(map(len, fz.all_factor_edges())) == [7, 7, 7]
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)


def test_equitable_k4():
    fz, audit, _ = equitable_factorize(complete_graph(4), 2, Z=frozenset())
    assert measured(audit, "deviation<1") < 1
    assert sorted(map(len, fz.all_factor_edges())) == [3, 3]
    for degs in fz.all_factor_degrees():
        assert all(1 <= d <= 2 for d in degs)


def test_equitable_z_variant():
    g = complete_graph(4)
    fz, audit, _ = equitable_factorize(g, 2, z=0)
    assert [c for c, *_ in audit] == ["deviation<2", "size±1"] and audit_passes(audit)
    for degs in fz.all_factor_degrees():
        assert abs(degs[0] - 1.5) < 2
        assert all(abs(degs[v] - 1.5) < 1 for v in range(1, 4))


def test_equitable_z_residue_mismatch():
    g = complete_graph(4)
    with pytest.raises(InvalidInput):
        equitable_factorize(g, 4, Z=frozenset({0}))
    with pytest.raises(InvalidInput, match="^k must be >= 1$"):
        equitable_factorize(g, 0, z=0)
    with pytest.raises(InvalidInput, match="at most one of z and Z"):
        equitable_factorize(g, 2, z=0, Z=frozenset())


def test_equitable_auto_matches_oracle():
    """The construction is only sufficient, so the pipeline never raises
    Infeasible: it returns a factorization, equitable and confirmed by the
    oracle unless it fell back to a special vertex, or it is Undecided, as on
    C5 and K4 with k = 3, which the oracle does split equitably."""
    rng = random.Random(43)
    undecided = 0
    for _ in range(15):
        g = eulerian_union(rng, rng.choice((5, 7)), rng.randint(1, 2))
        k = rng.choice((2, 3))
        try:
            _, audit, warnings = equitable_factorize(g, k)
        except Undecided:
            assert oracle_equitable(g, k)
            undecided += 1
            continue
        assert audit_passes(audit)
        if not any("fell back" in w for w in warnings):
            assert measured(audit, "deviation<1") < 1 and oracle_equitable(g, k)
    assert undecided == 5
    with pytest.raises(Undecided, match="hypothesis not met"):
        equitable_factorize(complete_graph(4), 3)
    assert oracle_equitable(complete_graph(4), 3)


def test_three_factor_k7():
    assert measured(three_factor_criterion(complete_graph(7))[1], "deviation<1") < 1


def test_three_factor_report_equals_the_explicit_z_request():
    """The criterion's auto path finds the same Z as find_Z_set, so its triple
    is that of the explicit-Z request (4-regular graphs: every vertex has
    degree 1 mod 3, and |E| = 2n mod 3 needs a nonempty Z)."""
    rng = random.Random(67)
    for g in (complete_graph(7), eulerian_union(rng, 10, 2), eulerian_union(rng, 11, 2)):
        fz, audit, warnings = three_factor_criterion(g)
        zset = find_Z_set(g, 3)
        assert (g.m % 3 == 0) == (zset == frozenset())
        z_fz, z_audit, z_warnings = equitable_factorize(g, 3, Z=zset)
        assert fz.assignment == z_fz.assignment
        assert (audit, warnings) == (z_audit, z_warnings)


def test_three_factor_impossible():
    g = Multigraph(7, list(complete_graph(7).edges) + [(0, 0)])
    with pytest.raises(Infeasible, match="exactly one vertex"):
        three_factor_criterion(g)


def test_three_factor_impossible_matches_oracle():
    # small analogue: K4 + loop, degrees (5, 3, 3, 3): one vertex != 0 mod 3
    g = Multigraph(4, list(complete_graph(4).edges) + [(0, 0)])
    with pytest.raises(Infeasible):
        three_factor_criterion(g)
    assert not oracle_equitable(g, 3)


def test_parity_odd_k_k7():
    fz, audit, _ = parity_factorize(complete_graph(7), 3)
    assert measured(audit, "parity") == 0
    assert measured(audit, "deviation<2") < 2
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)


def test_parity_odd_k_rejects_f():
    with pytest.raises(InvalidInput):
        parity_factorize(complete_graph(7), 3, f=(1,) * 7)


def test_parity_even_k():
    g = eulerian_union(random.Random(5), 6, 3)  # 6-regular on 6 vertices
    f = (1, 1, 1, 1, 0, 0)
    fz, audit, _ = parity_factorize(g, 2, f=f)
    assert measured(audit, "parity") == 0
    for degs in fz.all_factor_degrees():
        for v in range(6):
            assert degs[v] % 2 == f[v]
            assert abs(degs[v] - 3) < 2
    with pytest.raises(InvalidInput):
        parity_factorize(g, 2)  # even k needs f
    with pytest.raises(InvalidInput):
        parity_factorize(g, 2, f=(1, 0, 0, 0, 0, 0))  # odd sum


def test_regular_factorize():
    _, audit, _ = regular_factorize(complete_graph(7), 3)
    assert measured(audit, "regular") == 0
    fz, _, _ = regular_factorize(doubled(cycle_graph(4)), 2)
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)
    with pytest.raises(InvalidInput):
        regular_factorize(complete_graph(4), 2)  # degrees 3 not divisible


def test_regular_split_exact():
    fz, audit, _ = regular_split(complete_graph(7), (2, 2, 2), 3)
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)
    assert [c for c, *_ in audit] == ["deviation<1"] and audit_passes(audit)
    fz, audit, _ = regular_split(complete_graph(7), (4, 2), 3)
    four, two = fz.all_factor_degrees()
    assert all(d == 4 for d in four) and all(d == 2 for d in two)
    assert measured(audit, "deviation<1") == 0


def test_regular_split_infeasible_grouping():
    with pytest.raises(InvalidInput, match="grouping whole"):
        regular_split(complete_graph(7), (3, 3), 3)  # 3 not a multiple of 2


def test_regular_split_bounded():
    g = Multigraph(7, list(complete_graph(7).edges)[:-1])  # K7 minus one edge
    fz, audit, _ = regular_split(g, (2, 2, 2), 3, bounded_mode=True)
    degs = fz.all_factor_degrees()
    assert all(max(row) <= 2 for row in degs)
    assert tuple(map(sum, zip(*degs))) == g.degrees
    assert audit == []  # no claim states d_i(v) <= r_i


def test_regular_split_validations():
    with pytest.raises(InvalidInput):
        regular_split(complete_graph(7), (), 3)
    with pytest.raises(InvalidInput):
        regular_split(complete_graph(7), (2, 2, 3), 3)  # k does not divide r
    with pytest.raises(InvalidInput):
        regular_split(complete_graph(6), (2, 2, 2), 3)  # not 6-regular


def test_scale_parity_and_regular_factorize_10k():
    """The parity and regular factorizations of a 10^4-vertex union of three
    Hamiltonian cycles run at the default recursion limit and pass their
    audits."""
    g = eulerian_union(random.Random(3), 10_000, 3)
    for _, audit, _ in (parity_factorize(g, 3), regular_factorize(g, 3)):
        assert audit_passes(audit)


def test_scale_equitable_k3_irregular_10k_runs_one_flow(monkeypatch):
    """On an irregular 10^4-vertex graph inside the k = 3 hypothesis, the
    equitable factorization realizes its first plan with one call of
    realize_out_degrees and runs no plan search."""
    g = irregular_union(random.Random(83), 10_000, 3)
    assert len({d % 2 for d in g.degrees}) == 2
    calls = []
    realize, search = orientation.realize_out_degrees, orientation._plan_search
    monkeypatch.setattr(orientation, "realize_out_degrees",
                        lambda *a, **kw: calls.append("realize") or realize(*a, **kw))
    monkeypatch.setattr(orientation, "_plan_search", lambda *a, **kw: calls.append("search") or search(*a, **kw))
    _, audit, warnings = equitable_factorize(g, 3)
    assert calls == ["realize"]
    assert audit_passes(audit) and not warnings


K44 = Multigraph(8, [(i, 4 + j) for i in range(4) for j in range(4)])


def test_a_success_checks_no_hypothesis(monkeypatch):
    """No pipeline calls f_odd_cut_bound when its construction succeeds, also
    outside its hypothesis (lambda(K5) = 4 < 6; K4,4 has d(X) = 4 < 10 at a
    Q-odd set), and a failing one calls it once."""
    calls = []
    bound = connectivity.f_odd_cut_bound
    monkeypatch.setattr(connectivity, "f_odd_cut_bound", lambda *a: calls.append(a) or bound(*a))
    k5 = complete_graph(5)
    for fz, audit, warnings in (
        equitable_factorize(k5, 3),
        parity_factorize(k5, 3),
        parity_factorize(k5, 2, f=(0, 1, 1, 0, 0)),
        regular_factorize(K44, 4),
        regular_split(K44, [1, 3], 4),
    ):
        assert audit_passes(audit) and warnings == []
    assert calls == []
    with pytest.raises(Undecided, match="hypothesis not met"):
        regular_factorize(complete_graph(4), 3)
    assert len(calls) == 1


@pytest.mark.parametrize("f, error", [((0, 1, 1), "f must assign a parity to every vertex"),
                                      ((0, 1, 0, 0, 0), "sum of f over V must be even")])
def test_even_k_parity_map_is_rejected_before_any_solver_work(monkeypatch, f, error):
    """parity_factorize (even k) and epsilon_parity_factor reject a parity map
    of the wrong length or with an odd sum, in the same words, before their
    solvers start."""
    def unreached(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(pipelines, "balanced_mod_k_orientation", unreached)
    monkeypatch.setattr(parity, "epsilon_windows", unreached)
    for solve in (lambda: parity_factorize(complete_graph(5), 2, f=f),
                  lambda: parity.epsilon_parity_factor(complete_graph(5), f, 0.5)):
        with pytest.raises(InvalidInput, match=error):
            solve()


def test_odd_k_parity_check_computes_lambda_at_most_once(monkeypatch):
    """The odd-k hypothesis is checked only when the construction fails. A
    success computes lambda never and warns of nothing. An Undecided names the
    hypothesis exactly when odd lambda < 3k - 2 and the graph is not
    (2k - 2)-tree-connected, and computes lambda once when some degree is odd
    and never when none is (no T-odd cut exists then)."""
    rng = random.Random(47)
    calls = []
    witness = connectivity.edge_connectivity_witness
    monkeypatch.setattr(connectivity, "edge_connectivity_witness", lambda *a: calls.append(a) or witness(*a))
    undecided = warned = 0
    for trial in range(80):
        if trial % 4 == 0:
            g = eulerian_union(rng, rng.randint(3, 9), rng.randint(1, 3))
        else:
            g = random_multigraph(rng, min_n=2, max_n=8, max_m=24)
        k = rng.choice((3, 5))
        calls.clear()
        try:  # a spent budget, every other trial, is Undecided whatever the hypothesis
            assert parity_factorize(g, k, budget=trial % 2 * DEFAULT_BUDGET)[2] == [] and calls == []
            continue
        except Undecided as exc:
            got = "hypothesis not met" in str(exc)
        expected = (connectivity.odd_edge_connectivity(g) < 3 * k - 2
                    and cut_oracles.tree_connectivity(g) < 2 * k - 2)
        assert got == expected
        assert len(calls) == any(d % 2 for d in g.degrees)
        undecided += 1
        warned += got
    # some successes, and Undecided both with and without the warning
    assert undecided <= 70 and 10 <= warned <= undecided - 10

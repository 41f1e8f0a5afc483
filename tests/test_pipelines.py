import random

import pytest

from conftest import audit_passes, eulerian_union, irregular_union, random_multigraph
from eqfactor import orientation
from eqfactor.errors import Infeasible, InvalidInput, Undecided
from eqfactor.lab import oracle_equitable
from eqfactor.multigraph import Multigraph, complete_graph, cycle_graph
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
    assert fz.factor_sizes() == [7, 7, 7]
    assert all(d == 2 for degs in fz.all_factor_degrees() for d in degs)


def test_equitable_k4():
    fz, audit, _ = equitable_factorize(complete_graph(4), 2, Z=frozenset())
    assert measured(audit, "deviation<1") < 1
    assert sorted(fz.factor_sizes()) == [3, 3]
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
    """ROADMAP item 3 at n = 10^4, at the default recursion limit."""
    g = eulerian_union(random.Random(3), 10_000, 3)
    for _, audit, _ in (parity_factorize(g, 3), regular_factorize(g, 3)):
        assert audit_passes(audit)


def test_scale_equitable_k3_irregular_10k_runs_one_flow(monkeypatch):
    """ROADMAP item 2: on an irregular 10^4-vertex graph inside the k = 3
    hypothesis, the first plan is realized by one flow and no search runs."""
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

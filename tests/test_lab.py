import random

import pytest

from eqfactor.errors import InvalidInput, Undecided
from conftest import audit_passes, random_multigraph
from eqfactor.lab import (
    generate,
    oracle_equitable,
    oracle_orientation,
    oracle_parity_gf,
    verify,
)
from eqfactor.multigraph import Factorization, Multigraph, complete_graph, cycle_graph, subgraph
from eqfactor.parity import ParitySpec
from eqfactor.pipelines import equitable_factorize


def test_verify_k7_three_factors():
    fz, _, _ = equitable_factorize(complete_graph(7), 3)
    entries = verify(complete_graph(7), fz, ["deviation<1", "size±1"])
    assert audit_passes(entries)


def test_verify_c5_split_fails_deviation():
    g = cycle_graph(5)
    fz = Factorization(g, 2, [1, 1, 1, 2, 2])
    assert verify(g, fz, ["deviation<1"]) == [("deviation<1", 1, 1.0, False)]


def test_verify_empty_claims_vacuous():
    g = cycle_graph(3)
    fz = Factorization(g, 2, [1, 1, 2])
    assert verify(g, fz, []) == []


def test_verify_unknown_claim():
    g = cycle_graph(3)
    fz = Factorization(g, 1, [1, 1, 1])
    for claim in ("bogus", "deviation<3", "size±1:1", "even:0", "parity:9", "parity:x",
                  "deviation<2:0.5;0.5", "eps-window", "eps-window:a"):
        with pytest.raises(InvalidInput):
            verify(g, fz, [claim])


def test_verify_parity_even_regular_claims():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
    fz = Factorization(g, 2, [1, 1, 1, 1, 2, 2, 2, 2])
    claims = ["even", "regular", "parity", "deviation<2",
              "parity:", "deviation<1:0.5;0.5", "deviation<6:0.25;0.75", "eps-window:0.5"]
    entries = verify(g, fz, claims)
    assert audit_passes(entries)
    assert [c for c, _, _, _ in entries] == [c.partition(":")[0] for c in claims]
    entries = verify(g, fz, ["parity:0;1", "deviation<1:0.25;0.75"])
    assert [(m, passed) for _, _, m, passed in entries] == [(4, False), (1.0, False)]


def test_generate_observation_c5():
    g = generate("observation", {"k": 2, "r": 1, "n": 5})
    assert g.n == 5 and g.m == 5
    assert all(d == 2 for d in g.degrees)  # isomorphic to C5


def test_generate_observation_even_k():
    g = generate("observation", {"k": 4, "r": 1, "n": 5})
    assert sorted(g.degrees) == [4, 4, 4, 5, 5]  # k-2 vertices of degree kr+1


def test_generate_observation_odd_k():
    g = generate("observation", {"k": 3, "r": 1, "n": 5})
    assert sorted(g.degrees) == [3, 3, 3, 3, 4]


def test_generate_observation_validation():
    with pytest.raises(InvalidInput):
        generate("observation", {"k": 2, "r": 2, "n": 5})  # even r
    with pytest.raises(InvalidInput):
        generate("observation", {"k": 2, "r": 1, "n": 6})  # even order


def test_generate_families_deterministic():
    a = generate("regular", {"n": 6, "d": 3}, seed=9)
    b = generate("regular", {"n": 6, "d": 3}, seed=9)
    assert a.edges == b.edges
    c = generate("regular", {"n": 6, "d": 3}, seed=10)
    assert all(d == 3 for d in c.degrees)


def test_generate_multiplied_and_eulerian():
    g = generate("multiplied", {"base": complete_graph(4), "t": 3})
    assert all(d == 9 for d in g.degrees)
    g = generate("eulerian_cycles", {"n": 7, "c": 3}, seed=2)
    assert all(d == 6 for d in g.degrees)
    with pytest.raises(InvalidInput):
        generate("regular", {"n": 5, "d": 3})  # n*d odd
    with pytest.raises(InvalidInput):
        generate("nonsense", {})


def test_oracle_equitable_frozen():
    assert oracle_equitable(cycle_graph(5), 2) is False
    assert oracle_equitable(complete_graph(5), 2) is True
    assert oracle_equitable(cycle_graph(4), 2) is True
    assert oracle_equitable(cycle_graph(3), 1) is True


def test_oracle_budgets():
    big = complete_graph(7)  # 21 edges
    with pytest.raises(Undecided):
        oracle_equitable(big, 3)
    with pytest.raises(Undecided):
        oracle_orientation(big, (0,) * 7, 3)
    wide = Multigraph(2, [(0, 1)] * 25)
    with pytest.raises(Undecided):
        oracle_parity_gf(wide, ParitySpec(f=(0, 0), g0=(0, 0), f0=(2, 2)))


def test_oracle_orientation_frozen():
    assert oracle_orientation(cycle_graph(3), (0, 0, 0), 2) is False
    assert oracle_orientation(complete_graph(4), (0, 0, 0, 0), 2) is True


def test_oracle_jobs():
    g = complete_graph(5)
    assert oracle_equitable(g, 2) is True
    assert oracle_equitable(g, 2, jobs=3) is True
    assert oracle_equitable(cycle_graph(5), 2, jobs=3) is False


def test_sharded_orientation_and_parity_oracles_agree():
    rng = random.Random(83)
    answers = {"orientation": set(), "parity_gf": set()}
    for _ in range(10):
        g = random_multigraph(rng, max_n=6, max_m=10)
        k = rng.choice((2, 3))
        p = tuple(rng.randrange(k) for _ in range(g.n))
        single = oracle_orientation(g, p, k)
        assert oracle_orientation(g, p, k, jobs=2) is single
        answers["orientation"].add(single)
        # windows around the degrees of a random edge set, one of them
        # sometimes shifted up past it
        degs = subgraph(g, [e for e in range(g.m) if rng.random() < 0.5]).degrees
        shift = [2 * (v == 0 and rng.random() < 0.5) for v in range(g.n)]
        spec = ParitySpec(
            f=tuple(d % 2 for d in degs),
            g0=tuple(max(d % 2, d - 2) + s for d, s in zip(degs, shift)),
            f0=tuple(d + s for d, s in zip(degs, shift)),
        )
        single = oracle_parity_gf(g, spec)
        assert oracle_parity_gf(g, spec, jobs=2) is single
        answers["parity_gf"].add(single)
    assert all(seen == {True, False} for seen in answers.values())


def test_oracle_loops_handled():
    g = Multigraph(2, [(0, 0), (0, 1), (1, 1)])
    # loop forces 1 out at each endpoint: out degrees (loop + tail choices)
    assert oracle_orientation(g, (2, 1), 3) is True
    assert oracle_equitable(g, 2) in (True, False)  # smoke: loops do not crash

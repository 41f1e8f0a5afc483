import multiprocessing
import os
import random
import tracemalloc

import pytest

from eqfactor.errors import InvalidInput, Undecided
from conftest import audit_passes, cycle_graph, eulerian_union, random_multigraph, subgraph
from eqfactor.lab import (
    decimal_ratio,
    generate,
    measure,
    oracle_equitable,
    oracle_orientation,
    oracle_parity_gf,
    verify,
)
from eqfactor.multigraph import Factorization, Multigraph, complete_graph
from eqfactor.parity import ParitySpec, hilton_even_factorization
from eqfactor.pipelines import equitable_factorize, regular_split


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


def test_weighted_deviation_is_judged_exactly():
    """Weights p/q and decimals are judged in integers: on 43 parallel edges,
    degrees (5, 8, 30) fail the claim that an exact --r-list 5,7,31 split
    makes, and the split itself measures exactly 0. A decimal weight is
    exact too: 0.07 * 100 is 7, so a degree of 8 is off by 1, where the
    float product 7.000000000000001 would let it pass."""
    g = Multigraph(2, [(0, 1)] * 43)
    claim = "deviation<1:5/43;7/43;31/43"
    assert measure(g, [[5, 5], [8, 8], [30, 30]], [claim]) == [("deviation<1", 1, 1.0, False)]
    assert measure(g, [[5, 5], [7, 7], [31, 31]], [claim]) == [("deviation<1", 1, 0.0, True)]
    _, audit, _ = regular_split(g, [5, 7, 31], 43)
    assert audit == [("deviation<1", 1, 0.0, True)]
    g = Multigraph(2, [(0, 1)] * 100)
    assert measure(g, [[8, 8], [93, 93]], ["deviation<1:0.07;0.93"]) == [("deviation<1", 1, 1.0, False)]
    assert measure(g, [[7, 7], [93, 93]], ["deviation<1:0.070;93/100"]) == [("deviation<1", 1, 0.0, True)]
    assert measure(g, [[7, 7], [93, 93]], ["deviation<2:0.075;0.925"]) == [("deviation<2", 2, 0.5, True)]
    for claim in ("deviation<1:1/0;1", "deviation<1:1/-2;1", "deviation<1:0.5;x", "deviation<1:7e-2;0.93",
                  "deviation<1:0.5", "deviation<1:1/2/3;1"):
        with pytest.raises(InvalidInput):
            measure(g, [[7, 7], [93, 93]], [claim])


def test_eps_window_is_judged_exactly():
    """0.07 is 7/100: on 100 parallel edges eps*d = 7 exactly, so a degree of
    9 is 2 away and fails, as deviation<2 says; in floats 0.07 * 100 is
    7.000000000000001 and the window used to pass it."""
    g = Multigraph(2, [(0, 1)] * 100)
    assert measure(g, [[9, 9]], ["eps-window:0.07"]) == [("eps-window", 2, 2.0, False)]
    assert measure(g, [[9, 9]], ["deviation<2:0.07"]) == [("deviation<2", 2, 2.0, False)]
    assert measure(g, [[8, 8]], ["eps-window:7/100"]) == [("eps-window", 2, 1.0, True)]
    assert decimal_ratio(0.07) == (7, 100) and decimal_ratio(1.5e-05) == (15, 10**6)
    assert decimal_ratio(1.0) == (10, 10) and decimal_ratio(1e22) == (10**22, 1)
    for claim in ("eps-window:1e-05", "eps-window:nan", "eps-window:0.5;0.5"):
        with pytest.raises(InvalidInput):
            measure(g, [[9, 9]], [claim])


def test_audit_cost_does_not_grow_with_k():
    """Hilton's factorization of a three-cycle union at k = 1000 uses three
    factors. The other 997 share one zero list, which the audit judges once:
    at n = 10^4 it peaks below 5 MB, where a list per factor holds 80 MB. On
    a smaller union every claim measures what it measures with no list
    shared."""
    g = eulerian_union(random.Random(1), 10_000, 3)
    fz = hilton_even_factorization(g, 1000)
    tracemalloc.start()
    try:
        audit = verify(g, fz, ["even", "deviation<2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit_passes(audit)
    assert peak < 5 * 10**6
    g = eulerian_union(random.Random(2), 30, 3)
    degs = hilton_even_factorization(g, 1000).all_factor_degrees()
    assert len({id(d) for d in degs}) == 4
    # the zero list is judged once per weight it meets: factor 4's gives 3
    claims = ["even", "deviation<2", "size±1", "parity", "parity:0;1", "regular", "eps-window:1/1000",
              "deviation<6:" + ";".join(["1/3"] * 3 + ["1/2"] + ["0"] * 996)]
    assert measure(g, degs, claims) == measure(g, [list(d) for d in degs], claims)
    assert measure(g, degs, claims)[-1] == ("deviation<6", 6, 3.0, True)


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


def test_oracle_pool_has_at_most_one_process_per_cpu(monkeypatch):
    """jobs = 10^6 opens a pool of at most cpu_count processes, with the
    jobs = 1 answer; the pool is a fake that maps in process."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks):
            return list(map(worker, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    for g in (complete_graph(5), cycle_graph(5)):
        assert oracle_equitable(g, 2, jobs=10**6) is oracle_equitable(g, 2)
    assert all(size <= (os.cpu_count() or 1) for size in sizes)


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

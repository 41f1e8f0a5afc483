import pickle
import random

import pytest
from hypothesis import given, strategies as st

from conftest import cycle_graph, random_multigraph
from cut_oracles import components
from eqfactor.errors import InvalidInput
from eqfactor.multigraph import (
    Factorization,
    Multigraph,
    Orientation,
    complete_graph,
    cut_size,
)


def test_loop_degree_vs_cut():
    g = Multigraph(1, [(0, 0)])
    assert g.degree(0) == 2
    assert cut_size(g, {0}) == 0


def test_k4_pair_cut():
    g = complete_graph(4)
    assert cut_size(g, {0, 1}) == 4


def test_components_path_removal():
    g = Multigraph(3, [(0, 1), (1, 2)])
    assert components(g, removed={1}) == [{0}, {2}]
    assert components(complete_graph(4)) == [{0, 1, 2, 3}]
    two_tri = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert components(two_tri) == [{0, 1, 2}, {3, 4, 5}]


def test_orientation_loop_counts_once_each_way():
    g = Multigraph(1, [(0, 0)])
    d = Orientation(g, (0,))
    assert d.out_degrees[0] == 1
    assert d.in_degrees[0] == 1


def test_factorization_bounds_checked():
    g = cycle_graph(3)
    with pytest.raises(InvalidInput):
        Factorization(g, 2, [1, 2, 3])
    fz = Factorization(g, 2, [1, 2, 1])
    assert list(map(len, fz.all_factor_edges())) == [2, 1]
    assert fz.all_factor_edges() == [[0, 2], [1]]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_handshake(seed):
    g = random_multigraph(random.Random(seed))
    assert sum(g.degrees) == 2 * g.m


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cut_symmetry(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=7, max_m=15)
    a = {v for v in range(g.n) if rng.random() < 0.5}
    assert cut_size(g, a) == cut_size(g, set(range(g.n)) - a)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_factor_degrees_sum(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=7, max_m=15)
    k = rng.randint(1, 4)
    fz = Factorization(g, k, [rng.randint(1, k) for _ in range(g.m)])
    totals = [0] * g.n
    for degs in fz.all_factor_degrees():
        for v in range(g.n):
            totals[v] += degs[v]
    assert tuple(totals) == g.degrees


def test_equality_hash_and_pickling():
    rng = random.Random(53)
    for _ in range(30):
        g = random_multigraph(rng, max_n=8, max_m=20)
        twin = Multigraph(g.n, [list(e) for e in g.edges])  # lists become int tuples
        fresh = pickle.loads(pickle.dumps(g))
        assert pickle.dumps(g) == pickle.dumps(twin)
        for copy in (twin, fresh):
            assert copy == g and hash(copy) == hash(g) and copy.edges == g.edges
            assert copy.degrees == g.degrees
            assert copy.loops == g.loops
            assert {g: 1}[copy] == 1
    assert Multigraph(2, [(0, 1)]) != Multigraph(3, [(0, 1)])
    assert Multigraph(2, [(0, 1)]) != Multigraph(2, [(1, 0)])


def test_build_checks_and_converts_edges():
    g = Multigraph(3, [(0.0, 1), ("2", 2), (True, 0)])
    assert g.edges == ((0, 1), (2, 2), (1, 0))
    assert all(type(x) is int for e in g.edges for x in e)
    assert g.degrees == (2, 2, 2) and g.loops == (0, 0, 1)
    for bad, eid in (([(0, 1), (0, 3)], 1), ([(-1, 0)], 0), ([(1, 0), (0, -2)], 1), ([(1, 0), (0, 1), (2, 5)], 2)):
        with pytest.raises(InvalidInput, match=f"edge {eid} endpoint out of range"):
            Multigraph(3, bad)
    with pytest.raises(InvalidInput):
        Multigraph(-1, [])


def test_orientation_rejects_foreign_tails_and_counts_in_degrees():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 2)])
    with pytest.raises(InvalidInput, match="tail 0 is not an endpoint of edge 1"):
        Orientation(g, (0, 0, 2))
    d = Orientation(g, (1, 2, 2))
    assert d.out_degrees == (0, 1, 2) and d.in_degrees == (1, 1, 1)

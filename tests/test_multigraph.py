import random

import pytest
from hypothesis import given, strategies as st

from conftest import random_multigraph
from eqfactor.errors import InvalidInput
from eqfactor.multigraph import (
    Factorization,
    Multigraph,
    Orientation,
    complete_graph,
    components,
    cut_size,
    cycle_graph,
    subgraph,
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
    assert d.out_degree(0) == 1
    assert d.in_degree(0) == 1


def test_factorization_bounds_checked():
    g = cycle_graph(3)
    with pytest.raises(InvalidInput):
        Factorization(g, 2, [1, 2, 3])
    fz = Factorization(g, 2, [1, 2, 1])
    assert fz.factor_sizes() == [2, 1]
    assert fz.factor_edges(2) == [1]


def test_subgraph_redensifies():
    g = complete_graph(4)
    h = subgraph(g, [5, 0])
    assert h.m == 2
    assert h.edges == (g.edges[0], g.edges[5])


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

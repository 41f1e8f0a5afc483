"""Exhaustive cut oracles for small graphs (n <= 8 or so).

Subset enumeration (2^n) for minimum cuts, minimum T-odd cuts and Hakimi's
out-degree condition, and partition enumeration (Bell(n)) for tree
connectivity through the Tutte/Nash-Williams formula. They share no code with
eqfactor.connectivity or eqfactor.orientation.
"""

import math

from eqfactor.multigraph import cut_size


def proper_subsets(n):
    """Every nonempty proper vertex subset, as a frozenset."""
    for mask in range(1, 2**n - 1):
        yield frozenset(v for v in range(n) if mask >> v & 1)


def min_cut(g):
    """Minimum d(A) over nonempty proper A; math.inf when n < 2."""
    return min((cut_size(g, a) for a in proper_subsets(g.n)), default=math.inf)


def min_t_odd_cut(g, t):
    """Minimum d(A) over A with |A & t| odd; math.inf when there is none."""
    return min((cut_size(g, a) for a in proper_subsets(g.n) if len(a & t) % 2 == 1), default=math.inf)


def internal_edges(g, a):
    """e(G[A]): edges, loops included, with both ends in A."""
    return sum(1 for u, v in g.edges if u in a and v in a)


def hakimi_violation(g, o):
    """Some nonempty A with sum_{v in A} o(v) < e(G[A]), or None. For a plan
    with sum(o) = |E|, an orientation with d+ = o exists exactly when there is
    none (Hakimi 1965)."""
    for mask in range(1, 2**g.n):
        a = frozenset(v for v in range(g.n) if mask >> v & 1)
        if sum(o[v] for v in a) < internal_edges(g, a):
            return a
    return None


def odd_degree_set(g):
    return frozenset(v for v in range(g.n) if g.degree(v) % 2 == 1)


def set_partitions(items):
    """All partitions of items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]
        yield part + [{first}]


def tree_connectivity(g):
    """min over partitions P with |P| >= 2 of floor(e(P) / (|P| - 1)), where
    e(P) counts the non-loop edges between blocks (Tutte/Nash-Williams)."""
    best = math.inf
    for part in set_partitions(list(range(g.n))):
        if len(part) < 2:
            continue
        block = {v: i for i, b in enumerate(part) for v in b}
        cross = sum(1 for u, v in g.edges if block[u] != block[v])
        best = min(best, cross // (len(part) - 1))
    return best

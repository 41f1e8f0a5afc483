"""Exhaustive cut oracles for small graphs (n <= 8 or so).

Subset enumeration (2^n) for minimum cuts, minimum T-odd cuts and Hakimi's
out-degree condition, partition enumeration (Bell(n)) for tree connectivity
through the Tutte/Nash-Williams formula, and pair enumeration (3^n) for
Lovasz's parity (g, f)-factor condition, with the component finder it
uses. They share no code with eqfactor.connectivity, eqfactor.orientation
or eqfactor.parity.
"""

import math
from dataclasses import dataclass
from itertools import product

from eqfactor.errors import InvalidInput, Undecided
from eqfactor.multigraph import Multigraph, cut_size
from eqfactor.parity import ParitySpec

CONDITION_VERTEX_BUDGET = 12


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


def components(g: Multigraph, removed=()) -> list:
    """Connected components of G - removed, ordered by minimum vertex id."""
    removed = set(removed)
    for v in removed:
        if not 0 <= v < g.n:
            raise InvalidInput(f"vertex {v} out of range")
    neighbours = [[] for _ in range(g.n)]
    for u, w in g.edges:
        neighbours[u].append(w)
        neighbours[w].append(u)
    seen = set(removed)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in neighbours[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class ConditionCertificate:
    """A violating pair (A, B) of the parity-factor condition (slack <= 0)."""

    A: frozenset
    B: frozenset
    omega: int
    slack: int


def omega_f(g: Multigraph, a, b, f) -> int:
    """Number of components X of G - (A u B) with sum_X f(v) != d(X, B) (mod 2)."""
    a, b = set(a), set(b)
    if a & b:
        raise InvalidInput("A and B must be disjoint")
    f = tuple(int(x) % 2 for x in f)
    comps = components(g, a | b)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    surplus = [sum(f[v] for v in comp) for comp in comps]  # sum_X f(v) - d(X, B)
    for u, v in g.edges:
        if u in comp_of and v in b:
            surplus[comp_of[u]] -= 1
        if v in comp_of and u in b:
            surplus[comp_of[v]] -= 1
    return sum(1 for s in surplus if s % 2 != 0)


def check_lovasz(g: Multigraph, spec: ParitySpec):
    """Exhaustive parity (g,f)-factor condition over all disjoint (A, B) pairs.

    Returns True, or the lexicographically first violating certificate.
    Raises Undecided above the 3^|V| enumeration budget.
    """
    if len(spec.f) != g.n:
        raise InvalidInput("spec must cover every vertex")
    if g.n > CONDITION_VERTEX_BUDGET:
        raise Undecided(f"condition enumeration above budget ({g.n} > {CONDITION_VERTEX_BUDGET})")
    for assign in product((0, 1, 2), repeat=g.n):
        a = frozenset(v for v in range(g.n) if assign[v] == 1)
        b = frozenset(v for v in range(g.n) if assign[v] == 2)
        d_ab = sum(
            1
            for u, v in g.edges
            if u != v and {assign[u], assign[v]} == {1, 2}
        )
        omega = omega_f(g, a, b, spec.f)
        rhs = (
            sum(spec.f0[v] for v in a)
            + sum(g.degree(v) - spec.g0[v] for v in b)
            - d_ab
        )
        # violation iff omega > rhs; when the total parity demand is even the
        # gap omega - rhs has even parity, so this coincides with omega >= rhs + 2
        if omega > rhs:
            return ConditionCertificate(A=a, B=b, omega=omega, slack=2 + rhs - omega)
    return True

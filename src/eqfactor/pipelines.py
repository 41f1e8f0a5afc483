"""Theorem pipelines: equitable, parity, and regular factorizations.

Each pipeline is one sufficient construction: a residue orientation, a
bipartite split, a Konig coloring. Each returns one plain triple
(factorization, audit, warnings): the audit is ``lab.verify``'s list of
(claim, bound, measured, passed) entries for the pipeline's claims, and the
warnings are the messages the CLI prints to stderr. Connectivity hypotheses
are advisory: they are checked and reported as warnings, never used as
gates, since the solvers may succeed below the published thresholds. As the
construction is only sufficient, an orientation step that finds nothing
proves nothing: the pipeline raises Undecided, with the warnings that name
the unmet hypothesis.
"""

from __future__ import annotations

from . import connectivity
from .coloring import decompose_directed
from .errors import DEFAULT_BUDGET, Infeasible, InvalidInput, Undecided
from .lab import parity_claim, verify
from .multigraph import Factorization, Multigraph
from .orientation import balanced_mod_k_orientation, mod_k_orientation, residue_map


def _orient(warnings, solve, *args, **kwargs):
    """solve(*args, **kwargs), the pipeline's orientation step. The
    construction is only sufficient, so its Infeasible is no proof: it becomes
    Undecided, with the warnings, which name the hypothesis that is not met."""
    try:
        return solve(*args, **kwargs)
    except Infeasible as exc:
        raise Undecided(
            f"the residue construction does not apply: {exc}" + "".join(f"; {w}" for w in warnings)
        ) from None


def _equitable_hypothesis_warnings(g: Multigraph, k: int) -> list:
    warnings = []
    if g.n >= 2 and k >= 2:
        lam = connectivity.edge_connectivity(g)
        if lam < 3 * k - 3 and not connectivity.tree_connected(g, 2 * k - 2, lam):
            warnings.append(
                f"hypothesis not met: graph is neither ({3 * k - 3})-edge-connected "
                f"nor ({2 * k - 2})-tree-connected (lambda = {lam})"
            )
    return warnings


def find_Z_set(g: Multigraph, k: int):
    """Smallest vertex set Z with sum of degrees over Z = |E| (mod k), or None.

    Subset-sum dynamic programming over degree residues, tracking the
    minimal-cardinality (then lexicographically smallest) witness.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    dp = {0: ()}
    for v in range(g.n):
        r = g.degree(v) % k
        for cur, zs in sorted(dp.items()):
            nr = (cur + r) % k
            cand = zs + (v,)
            if nr not in dp or (len(cand), cand) < (len(dp[nr]), dp[nr]):
                dp[nr] = cand
    target = g.m % k
    return frozenset(dp[target]) if target in dp else None


def equitable_factorize(g: Multigraph, k: int, z=None, Z=None, budget: int = DEFAULT_BUDGET) -> tuple:
    """Equitable factorization via a residue orientation plus size-mode split.

    At most one of z (special vertex) and Z (residue vertex set). Z variant:
    deviation < 1 everywhere. z variant: deviation < 2 at z, < 1 elsewhere;
    its audit claims deviation < 2. Auto (neither): find a Z set, falling
    back to z = max-degree vertex.
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    warnings = _equitable_hypothesis_warnings(g, k)
    if z is None and Z is None:
        Z = find_Z_set(g, k)
        if Z is None:
            z = max(range(g.n), key=lambda v: (g.degree(v), -v))
            warnings.append(f"no Z set attains |E| mod k; fell back to special vertex z = {z}")
    p = residue_map(g, z=z, Z=Z)
    if Z is not None and (g.m - sum(g.degree(v) for v in Z)) % k != 0:
        raise InvalidInput("Z does not satisfy |E| = sum of Z degrees (mod k)")
    orientation = _orient(warnings, mod_k_orientation, g, k, p, budget=budget)
    fz = decompose_directed(orientation, k, mode="size")
    claims = ["deviation<1" if z is None else "deviation<2", "size±1"]
    return fz, verify(g, fz, claims), warnings


def three_factor_criterion(g: Multigraph, budget: int = DEFAULT_BUDGET) -> tuple:
    """Equitable 3-factorization criterion: Infeasible with its proof, or
    else the auto equitable triple (Undecided where that construction does
    not apply).

    Impossible exactly when one single vertex has degree not divisible by 3:
    the two factors that differ at z would have to agree everywhere else, so
    their degree sums force equal parity at z, contradicting floor/ceil.
    """
    z0 = [v for v in range(g.n) if g.degree(v) % 3 != 0]
    if len(z0) == 1:
        raise Infeasible(
            f"exactly one vertex ({z0[0]}) has degree not divisible by 3: two of "
            "the three factors would match everywhere else, so by the handshake "
            "argument their degrees at that vertex share a parity, contradicting "
            "the floor/ceil split"
        )
    # the auto path's find_Z_set always succeeds here: two nonzero residues
    # mod 3 reach every residue, and with no such vertex the empty Z works
    return equitable_factorize(g, 3, budget=budget)


def parity_factorize(g: Multigraph, k: int, f=None, budget: int = DEFAULT_BUDGET) -> tuple:
    """Parity factorization: every factor degree matches a parity target and
    deviates from d(v)/k by less than 2.

    Odd k: targets are d(v) mod 2 (f must be absent). Even k: f given with
    even total, graph degrees even; Q = {v : f(v) = 1}, and the orientation
    has d+(v) - d-(v) = k [v in Q] (mod 2k).
    """
    if k < 1:
        raise InvalidInput("k must be >= 1")
    warnings = []
    if k % 2 == 1:
        if f is not None:
            raise InvalidInput("odd k takes no parity map; targets are d(v) mod 2")
        parity = "parity"
        if k >= 3 and g.n >= 2:
            odd_lam = connectivity.odd_edge_connectivity(g)
            if odd_lam < 3 * k - 2 and not connectivity.tree_connected(
                g, 2 * k - 2, connectivity.edge_connectivity(g)
            ):
                warnings.append(
                    f"hypothesis not met: graph is neither odd-({3 * k - 2})-edge-connected "
                    f"nor ({2 * k - 2})-tree-connected"
                )
        orientation = _orient(warnings, balanced_mod_k_orientation, g, k, budget=budget)
    else:
        if f is None:
            raise InvalidInput("even k requires a parity map f")
        targets = tuple(int(x) % 2 for x in f)
        if len(targets) != g.n:
            raise InvalidInput("f must assign a parity to every vertex")
        if sum(targets) % 2 == 1:
            raise InvalidInput("sum of f over V must be even")
        q = {v for v in range(g.n) if targets[v] == 1}
        parity = parity_claim(targets)
        if g.n >= 2:
            ok, witness = connectivity.f_odd_cut_bound(g, targets, 3 * k - 2)
            if not ok:
                warnings.append(f"hypothesis not met: d(X) < {3 * k - 2} at f-odd set {sorted(witness)}")
        orientation = _orient(warnings, balanced_mod_k_orientation, g, k, q, budget=budget)
    fz = decompose_directed(orientation, k, mode="parity")
    return fz, verify(g, fz, ["deviation<2", parity]), warnings


def regular_factorize(g: Multigraph, k: int, budget: int = DEFAULT_BUDGET) -> tuple:
    """Split a graph with size and degrees divisible by k into k factors that
    are exactly d(v)/k-regular at every vertex."""
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if g.m % k != 0:
        raise InvalidInput(f"|E| = {g.m} is not divisible by k = {k}")
    for v in range(g.n):
        if g.degree(v) % k != 0:
            raise InvalidInput(f"degree {g.degree(v)} of vertex {v} is not divisible by k = {k}")
    warnings = []
    q_parity = tuple((g.degree(v) // k) % 2 for v in range(g.n))
    if g.n >= 2 and any(q_parity):
        ok, witness = connectivity.f_odd_cut_bound(g, q_parity, 3 * k - 2)
        if not ok:
            warnings.append(f"hypothesis not met: d(X) < {3 * k - 2} at Q-odd set {sorted(witness)}")
    orientation = _orient(warnings, mod_k_orientation, g, k, (0,) * g.n, budget=budget)
    fz = decompose_directed(orientation, k, mode="size")
    audit = verify(g, fz, ["regular"])
    if not all(passed for *_, passed in audit):
        raise AssertionError("regular factorization produced a non-regular factor")
    return fz, audit, warnings


def regular_split(g: Multigraph, r_list, k: int, bounded_mode: bool = False, budget: int = DEFAULT_BUDGET) -> tuple:
    """Regroup a k-fold regular factorization into factors of degrees r_i,
    with the base split's warnings.

    Exact mode: G is r-regular (r = sum r_i) and each r_i is a multiple of
    r/k; the base factors are grouped greedily by descending r_i. The audit
    claims deviation < 1 from (r_i / r) * d(v) = r_i: factor i is exactly
    r_i-regular, up to the float rounding of r_i / r. Bounded mode: G is completed to an r-regular
    supergraph (loops first, then parallel edges), split exactly, and
    restricted, giving max degree <= r_i. No audit claim states that bound,
    so the bounded audit is empty.
    """
    r_list = [int(r) for r in r_list]
    if not r_list or any(r <= 0 for r in r_list):
        raise InvalidInput("r_list must be positive")
    r = sum(r_list)
    if k < 1 or r % k != 0:
        raise InvalidInput(f"k = {k} must divide r = {r}")
    qq = r // k
    if bounded_mode:
        if any(d > r for d in g.degrees):
            raise InvalidInput(f"maximum degree exceeds r = {r}")
        if (r * g.n) % 2 != 0:
            raise InvalidInput("r * |V| must be even for supergraph completion")
        extra = []
        deficits = [r - g.degree(v) for v in range(g.n)]
        for v in range(g.n):
            while deficits[v] >= 2:
                extra.append((v, v))
                deficits[v] -= 2
        ones = [v for v in range(g.n) if deficits[v] == 1]
        for a, b in zip(ones[::2], ones[1::2]):
            extra.append((a, b))
        sup = Multigraph(g.n, list(g.edges) + extra)
        split, _, warnings = regular_split(sup, r_list, k, budget=budget)
        return Factorization(g, split.k, split.assignment[: g.m]), [], warnings
    if any(d != r for d in g.degrees):
        raise InvalidInput(f"graph is not {r}-regular")
    if any(ri % qq != 0 for ri in r_list):
        raise InvalidInput(
            f"grouping whole {qq}-regular base factors cannot realize r_list {r_list}"
        )
    base, _, warnings = regular_factorize(g, k, budget=budget)
    order = sorted(range(len(r_list)), key=lambda i: (-r_list[i], i))
    group_of_base = {}
    nxt = 1
    for i in order:
        for _ in range(r_list[i] // qq):
            group_of_base[nxt] = i + 1
            nxt += 1
    fz = Factorization(g, len(r_list), [group_of_base[a] for a in base.assignment])
    return fz, verify(g, fz, ["deviation<1:" + ";".join(repr(ri / r) for ri in r_list)]), warnings

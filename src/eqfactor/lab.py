"""Verifiers, graph generators, and brute-force oracles.

Every verifier recomputes its statistics from raw edges; no solver-reported
numbers are trusted. A verdict is a list of (claim, bound, measured, passed)
entries. Oracles answer existence questions by exhaustive enumeration within
hard budgets and are used as ground truth in tests; enumeration can be
sharded across processes (pure exists-reduction).
"""

from __future__ import annotations

import os
import random
from itertools import product

from .errors import InvalidInput, Undecided
from .multigraph import Factorization, Multigraph, complete_graph

EQUITABLE_BUDGET = 10**8
PARITY_EDGE_BUDGET = 24
ORIENTATION_EDGE_BUDGET = 20

# claim name -> bound: a deviation passes below its bound, a count of
# vertex degrees that miss their target (bound 0) when it is 0
CLAIM_BOUNDS = {"deviation<1": 1, "deviation<2": 2, "deviation<6": 6, "eps-window": 2,
                "size±1": 1, "parity": 0, "even": 0, "regular": 0}


def verify(g: Multigraph, fz: Factorization, claims) -> list:
    """Judge each claim against degrees and sizes recomputed from the edges."""
    if fz.base is not g and fz.base != g:
        raise InvalidInput("factorization is not defined on this graph")
    return measure(g, fz.all_factor_degrees(), claims)


def parity_claim(f) -> str:
    """The ``parity`` claim whose targets are the 0/1 parity map f."""
    return "parity:" + ";".join(str(v) for v, bit in enumerate(f) if bit % 2)


def measure(g: Multigraph, degree_vectors, claims) -> list:
    """Judge each claim against per-vertex degree vectors, one per factor:
    one (claim, bound, measured, passed) entry per claim.

    With k vectors, a claim is ``name`` or ``name:args``; the args are
    separated by ';', so that a claim survives the ',' split of a claim list,
    and the entry is keyed by ``name``:

    - ``deviation<B`` (B in 1, 2, 6): max |d_i(v) - c_i(v)| < B, centred at
      c_i(v) = d(v)/k, or exactly at w_i * d(v) given ``:w_1;...;w_k``;
    - ``eps-window:eps``: max |d_i(v) - eps * d(v)| < 2;
    - ``parity``: number of d_i(v) whose parity differs from d(v), or, given
      ``:v;w;...``, from the map that is odd exactly at v, w, ...;
    - ``size±1``: max |sum_v d_i(v) / 2 - |E|/k| < 1;
    - ``even``: number of odd d_i(v); ``regular``: number of d_i(v) != d(v)/k.

    The weights and eps are decimals or p/q, judged exactly (0.07 is 7/100).
    Factors that share one vector object, as every empty factor of
    ``Factorization.all_factor_degrees`` does, are judged once, and a count
    is multiplied by the number of factors that share the vector.
    """
    k = len(degree_vectors)
    shared = {}  # id of a vector -> [the vector, the number of factors sharing it]
    for degs in degree_vectors:
        shared.setdefault(id(degs), [degs, 0])[1] += 1
    distinct = list(shared.values())
    entries = []
    for claim in claims:
        name, has_args, text = claim.partition(":")
        if name not in CLAIM_BOUNDS:
            raise InvalidInput(f"unknown claim {claim!r}")
        if has_args and name in ("size±1", "even", "regular"):
            raise InvalidInput(f"claim {name!r} takes no arguments, got {claim!r}")
        args = text.split(";") if text else []
        bound = CLAIM_BOUNDS[name]
        if name == "eps-window" or name.startswith("deviation<") and has_args:
            # |d_i(v) - (p/q) d(v)| < B, judged in integers: |q d_i(v) - p d(v)| < B q
            if name == "eps-window":  # one eps for every factor
                weights = _claim_values(claim, args, _ratio, 1) * k
            else:
                weights = _claim_values(claim, args, _ratio, k)
            pairs = {(id(degs), w): (degs, w) for degs, w in zip(degree_vectors, weights)}
            worst = [(max((abs(q * x - p * d) for x, d in zip(degs, g.degrees)), default=0), q)
                     for degs, (p, q) in pairs.values()]
            measured = max((w / q for w, q in worst), default=0.0)
            entries.append((name, bound, measured, all(w < bound * q for w, q in worst)))
            continue
        elif name.startswith("deviation<"):  # max |d_i(v) - d(v)/k|
            centre = [d / k for d in g.degrees]
            measured = max((abs(x - c) for degs, _ in distinct for x, c in zip(degs, centre)), default=0.0)
        elif name == "size±1":
            measured = max((abs(sum(degs) // 2 - g.m / k) for degs, _ in distinct), default=0.0)
        elif name == "regular":
            measured = sum(c * sum(x * k != d for x, d in zip(degs, g.degrees)) for degs, c in distinct)
        else:
            if name == "even":
                targets = [0] * g.n
            elif has_args:
                odd = set(_claim_values(claim, args, int, None))
                if not odd <= set(range(g.n)):
                    raise InvalidInput(f"claim {claim!r} names a vertex outside 0..{g.n - 1}")
                targets = [int(v in odd) for v in range(g.n)]
            else:
                targets = [d % 2 for d in g.degrees]
            measured = sum(c * sum(x % 2 != t for x, t in zip(degs, targets)) for degs, c in distinct)
        entries.append((name, bound, measured, measured < bound if bound else measured == 0))
    return entries


def _claim_values(claim: str, args, kind, count) -> list:
    """Parse a claim's args with kind, count of them when count is given."""
    try:
        values = [kind(a) for a in args]
    except ValueError:
        noun = kind.__name__.lstrip("_")  # int or ratio
        raise InvalidInput(f"claim {claim!r}: arguments must be {noun}s separated by ';'") from None
    if count is not None and len(values) != count:
        raise InvalidInput(f"claim {claim!r} needs {count} arguments, got {len(values)}")
    return values


def _ratio(text: str) -> tuple:
    """(p, q), q > 0, with p/q exactly ``p/q`` or a decimal such as ``0.25``."""
    p, slash, q = text.partition("/")
    if not slash:
        whole, _, fraction = text.partition(".")
        p, q = whole + fraction, 10 ** len(fraction)
    if int(q) <= 0:
        raise ValueError(text)
    return int(p), int(q)


def decimal_ratio(x: float) -> tuple:
    """(p, q) of the decimal that repr prints for the float x: 0.07 is 7/100."""
    digits, _, exponent = repr(float(x)).partition("e")
    p, q = _ratio(digits)
    shift = int(exponent or 0)
    return (p * 10 ** shift, q) if shift >= 0 else (p, q * 10 ** -shift)


def _random_hamiltonian_cycle(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[(i + 1) % n]) for i in range(n)]


def _random_perfect_matching(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]


def generate(family: str, params: dict, seed: int = 0) -> Multigraph:
    """Seed-deterministic graph families.

    observation(k, r, n): the counterexample family — odd order, degrees k*r
    except k-2 vertices of degree k*r + 1. regular(n, d): matching/cycle
    unions. eulerian_cycles(n, c): c Hamiltonian cycles. multiplied(base, t):
    every edge copied t times. complete(n): K_n.
    """
    rng = random.Random(seed)
    if family == "complete":
        n, = _params(family, params, "n")
        return complete_graph(n)
    if family == "regular":
        n, d = _params(family, params, "n", "d")
        if n < 1:
            raise InvalidInput("regular family needs n >= 1")
        if d < 0:
            raise InvalidInput("regular family needs d >= 0")
        if (n * d) % 2 != 0:
            raise InvalidInput("regular family needs n*d even")
        edges = []
        if n % 2 == 0:
            for _ in range(d):
                edges += _random_perfect_matching(n, rng)
        else:
            if n < 3:
                raise InvalidInput("odd-order regular family needs n >= 3")
            for _ in range(d // 2):
                edges += _random_hamiltonian_cycle(n, rng)
        return Multigraph(n, edges)
    if family == "eulerian_cycles":
        n, c = _params(family, params, "n", "c")
        if n < 3 or c < 1:
            raise InvalidInput("eulerian_cycles needs n >= 3 and c >= 1")
        edges = []
        for _ in range(c):
            edges += _random_hamiltonian_cycle(n, rng)
        return Multigraph(n, edges)
    if family == "multiplied":
        base, t = _params(family, params, "base", "t")
        if t < 1:
            raise InvalidInput("multiplier must be >= 1")
        return Multigraph(base.n, [e for e in base.edges for _ in range(t)])
    if family == "observation":
        return _observation_family(params, rng)
    raise InvalidInput(f"unknown family {family!r}")


def _params(family: str, params: dict, *keys) -> list:
    """The named parameters of family, as ints (but a base graph as given)."""
    missing = [key for key in keys if key not in params]
    if missing:
        raise InvalidInput(f"{family} family needs " + " and ".join(f"--{key}" for key in missing))
    return [params[key] if key == "base" else int(params[key]) for key in keys]


def _observation_family(params: dict, rng: random.Random) -> Multigraph:
    """Odd-order graphs with degrees k*r except k-2 vertices of degree k*r+1;
    no equitable k-factorization exists (an r-regular factor would be forced,
    impossible on odd order with r odd)."""
    k, r = _params("observation", params, "k", "r")
    n = int(params.get("n", 5))
    if k < 2 or r < 1 or r % 2 == 0:
        raise InvalidInput("observation family needs k >= 2 and odd r")
    if n % 2 == 0 or n < 3 or n < k - 1:
        raise InvalidInput("observation family needs odd n >= max(3, k-1)")
    edges = []
    if k % 2 == 0:
        for _ in range(k * r // 2):
            edges += _random_hamiltonian_cycle(n, rng)
        for i in range(k // 2 - 1):
            edges.append((2 * i, 2 * i + 1))
    else:
        for _ in range((k * r - 1) // 2):
            edges += _random_hamiltonian_cycle(n, rng)
        special = list(range(k - 2))
        ordinary = list(range(k - 2, n))
        edges += [(ordinary[2 * i], ordinary[2 * i + 1]) for i in range(len(ordinary) // 2)]
        if len(special) == 1:
            edges.append((special[0], special[0]))
        elif len(special) == 2:
            edges += [(special[0], special[1]), (special[0], special[1])]
        else:
            edges += [(special[i], special[(i + 1) % len(special)]) for i in range(len(special))]
    return Multigraph(n, edges)


# --- oracles -----------------------------------------------------------------


def _equitable_dfs(g, k, lower, upper, assign, start):
    """Exhaustive search over factor assignments of edges[start:]."""
    deg = [[0] * g.n for _ in range(k + 1)]
    rem = [0] * g.n
    for eid in range(start, g.m):
        u, v = g.edges[eid]
        rem[u] += 1 if u != v else 2
        rem[v] += 1 if u != v else 0
    for eid in range(start):
        u, v = g.edges[eid]
        c = assign[eid]
        deg[c][u] += 2 if u == v else 1
        if u != v:
            deg[c][v] += 1
        if deg[c][u] > upper[u] or deg[c][v] > upper[v]:
            return False

    def ok_lower(w):
        return all(deg[i][w] + rem[w] >= lower[w] for i in range(1, k + 1))

    def search(eid):
        if eid == g.m:
            return all(
                deg[i][v] >= lower[v] for i in range(1, k + 1) for v in range(g.n)
            )
        u, v = g.edges[eid]
        # prune with rem still counting the current edge: deg + rem >= lower
        # is necessary for every color regardless of where this edge goes
        if not (ok_lower(u) and ok_lower(v)):
            return False
        step_u = 2 if u == v else 1
        rem[u] -= step_u
        if u != v:
            rem[v] -= 1
        for c in range(1, k + 1):
            if deg[c][u] + step_u > upper[u]:
                continue
            deg[c][u] += step_u
            if u != v:
                if deg[c][v] + 1 > upper[v]:
                    deg[c][u] -= step_u
                    continue
                deg[c][v] += 1
            if search(eid + 1):
                return True
            deg[c][u] -= step_u
            if u != v:
                deg[c][v] -= 1
        rem[u] += step_u
        if u != v:
            rem[v] += 1
        return False

    return search(start)


def _equitable_worker(args):
    n, edges, k, prefix = args
    g = Multigraph(n, edges)
    lower = [g.degree(v) // k for v in range(g.n)]
    upper = [-(-g.degree(v) // k) for v in range(g.n)]
    return _equitable_dfs(g, k, lower, upper, list(prefix) + [0] * (g.m - len(prefix)), len(prefix))


def oracle_equitable(g: Multigraph, k: int, jobs: int = 1) -> bool:
    """Does an equitable k-factorization exist? Exhaustive with the first
    edge's factor fixed (symmetry)."""
    _check_jobs(jobs)
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k == 1 or g.m == 0:
        return True
    if k ** max(g.m - 1, 0) > EQUITABLE_BUDGET:
        raise Undecided(f"equitable oracle above budget: {k}^{g.m - 1} assignments")
    # the first edge's factor is fixed to 1 by symmetry
    return _sharded(_equitable_worker, lambda tail: (g.n, g.edges, k, (1, *tail)),
                    range(1, k + 1), g.m - 1, jobs)


def _orientation_worker(args):
    n, edges, p, k, fixed_bits, free_positions, base_out = args
    g = Multigraph(n, edges)
    out0 = list(base_out)
    for eid, bit in fixed_bits:
        u, v = g.edges[eid]
        out0[u if bit == 0 else v] += 1
    for mask in range(2 ** len(free_positions)):
        out = list(out0)
        for i, eid in enumerate(free_positions):
            u, v = g.edges[eid]
            out[u if not (mask >> i & 1) else v] += 1
        if all(out[v] % k == p[v] for v in range(g.n)):
            return True
    return False


def oracle_orientation(g: Multigraph, p, k: int, jobs: int = 1) -> bool:
    """Does a p-orientation modulo k exist? Exhaustive over 2^(non-loop edges)."""
    _check_jobs(jobs)
    if k < 1:
        raise InvalidInput("k must be >= 1")
    p = tuple(int(x) % k for x in p)
    if len(p) != g.n:
        raise InvalidInput("p must cover every vertex")
    if (sum(p) - g.m) % k != 0:
        return False
    if g.m > ORIENTATION_EDGE_BUDGET:
        raise Undecided(f"orientation oracle above budget ({g.m} > {ORIENTATION_EDGE_BUDGET})")
    nonloop = [eid for eid, (u, v) in enumerate(g.edges) if u != v]

    def task(bits):
        return (g.n, g.edges, p, k, tuple(zip(nonloop, bits)), tuple(nonloop[len(bits):]), g.loops)

    return _sharded(_orientation_worker, task, (0, 1), len(nonloop), jobs)


def _parity_worker(args):
    n, edges, f, g0, f0, fixed, free = args
    g = Multigraph(n, edges)
    deg0 = [0] * n
    for eid, bit in fixed:
        if bit:
            u, v = g.edges[eid]
            deg0[u] += 1
            deg0[v] += 1
    for mask in range(2 ** len(free)):
        deg = list(deg0)
        for i, eid in enumerate(free):
            if mask >> i & 1:
                u, v = g.edges[eid]
                deg[u] += 1
                deg[v] += 1
        if all(g0[v] <= deg[v] <= f0[v] and deg[v] % 2 == f[v] for v in range(n)):
            return True
    return False


def oracle_parity_gf(g: Multigraph, spec, jobs: int = 1) -> bool:
    """Does a parity (g0,f0)-factor exist? Exhaustive over all 2^|E| subsets."""
    _check_jobs(jobs)
    if len(spec.f) != g.n:
        raise InvalidInput("spec must cover every vertex")
    if g.m > PARITY_EDGE_BUDGET:
        raise Undecided(f"parity oracle above budget ({g.m} > {PARITY_EDGE_BUDGET})")

    def task(bits):
        return (g.n, g.edges, spec.f, spec.g0, spec.f0, tuple(enumerate(bits)),
                tuple(range(len(bits), g.m)))

    return _sharded(_parity_worker, task, (0, 1), g.m, jobs)


def _check_jobs(jobs) -> None:
    if jobs < 1:
        raise InvalidInput(f"jobs must be >= 1, got {jobs}")


def _sharded(worker, task, choices, limit, jobs):
    """Is worker(task(prefix)) true for some prefix? The prefixes are every
    choice of the first d search decisions, with d the least giving 4 tasks
    per process (at most limit), shared out over a pool of jobs processes, one
    per CPU at most; with one job the empty prefix runs the search in process."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1:
        return worker(task(()))
    from multiprocessing import Pool  # loads pickle, socket and more: only here

    depth = 0
    while len(choices) ** depth < 4 * jobs and depth < limit:
        depth += 1
    tasks = [task(prefix) for prefix in product(choices, repeat=depth)]
    with Pool(jobs) as pool:
        return any(pool.map(worker, tasks))

import random

from eqfactor.multigraph import Multigraph, Orientation


def cycle_graph(n):
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def subgraph(g, edge_ids):
    """Spanning subgraph of g keeping the given edges (edge ids are re-densified)."""
    return Multigraph(g.n, [g.edges[eid] for eid in sorted(edge_ids)])


def random_multigraph(rng, max_n=10, max_m=30, min_n=2, min_m=1, allow_loops=True):
    n = rng.randint(min_n, max_n)
    m = rng.randint(min_m, max_m)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if not allow_loops and u == v:
            v = (v + 1) % n
        edges.append((u, v))
    return Multigraph(n, edges)


def random_orientation(rng, g):
    tails = [u if (u == v or rng.random() < 0.5) else v for u, v in g.edges]
    return Orientation(g, tails)


def random_two_edge_connected(rng, max_n=8, max_extra=8):
    """Hamiltonian cycle plus extra non-loop edges: always 2-edge-connected."""
    n = rng.randint(3, max_n)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(0, max_extra)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Multigraph(n, edges)


def eulerian_union(rng, n, cycles):
    """Union of random Hamiltonian cycles: 2*cycles-regular, Eulerian."""
    edges = []
    for _ in range(cycles):
        perm = list(range(n))
        rng.shuffle(perm)
        edges += [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    return Multigraph(n, edges)


def irregular_union(rng, n, cycles):
    """Union of random Hamiltonian cycles plus n/2 random non-loop edges:
    2*cycles-edge-connected, with about 40% odd-degree vertices."""
    edges = list(eulerian_union(rng, n, cycles).edges)
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return Multigraph(n, edges)


def random_even_multigraph(rng, n, max_degree, max_m):
    """Union of random closed walks (loops and parallel edges allowed), kept
    to degrees <= max_degree and at most max_m edges."""
    edges, deg = [], [0] * n
    for _ in range(rng.randint(1, 12)):
        walk = [rng.randrange(n) for _ in range(rng.randint(1, n))]
        if len(edges) + len(walk) > max_m:
            continue
        new = list(deg)
        for v in walk:
            new[v] += 2
        if max(new) <= max_degree:
            edges += list(zip(walk, walk[1:] + walk[:1]))
            deg = new
    return Multigraph(n, edges)


def proper_coloring(b, color):
    seen = [set() for _ in range(b.n)]
    for eid, (u, w) in enumerate(b.edges):
        c = color[eid]
        if c in seen[u] or c in seen[w]:
            return False
        seen[u].add(c)
        seen[w].add(c)
    return True


def audit_passes(entries):
    """Whether every (claim, bound, measured, passed) entry of an audit passed."""
    return all(passed for *_, passed in entries)

"""Core data model: undirected multigraphs with loops, orientations, factorizations.

Conventions:
  - vertices are dense 0-based integers;
  - edge ids are positional (insertion order), dense 0..m-1;
  - a loop at v contributes 2 to d(v) but 0 to any cut d(A);
  - an oriented loop contributes 1 to the out-degree and 1 to the in-degree.

All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

from .errors import InvalidInput


class Multigraph:
    """An undirected multigraph. Loops and parallel edges are first-class."""

    __slots__ = ("vertex_count", "edges", "_degrees", "_incidence", "_loops")

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 0:
            raise InvalidInput("vertex_count must be nonnegative")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidInput(f"edge {eid} endpoint out of range: ({u}, {v})")
        self.vertex_count = vertex_count
        self.edges = edges
        degrees = [0] * vertex_count
        loops = {}  # vertex -> loop count, only vertices with loops
        incidence = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(edges):
            degrees[u] += 1
            degrees[v] += 1
            incidence[u].append(eid)
            if u != v:
                incidence[v].append(eid)
            else:
                loops[u] = loops.get(u, 0) + 1
        self._degrees = tuple(degrees)
        self._incidence = tuple(tuple(ids) for ids in incidence)
        self._loops = loops

    @property
    def n(self) -> int:
        return self.vertex_count

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    @property
    def degrees(self) -> tuple:
        return self._degrees

    def incident(self, v: int) -> tuple:
        """Edge ids incident with v; a loop appears once."""
        return self._incidence[v]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        return w if u == v else u

    def is_loop(self, eid: int) -> bool:
        u, v = self.edges[eid]
        return u == v

    def loops_at(self, v: int) -> int:
        return self._loops.get(v, 0)

    def has_loops(self) -> bool:
        return bool(self._loops)

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.m})"


def cut_size(g: Multigraph, a) -> int:
    """d(A): number of non-loop edges with exactly one end in A."""
    a = set(a)
    return sum(1 for u, v in g.edges if u != v and (u in a) != (v in a))


def components(g: Multigraph, removed=()) -> list:
    """Connected components of G - removed, ordered by minimum vertex id."""
    removed = set(removed)
    for v in removed:
        if not 0 <= v < g.n:
            raise InvalidInput(f"vertex {v} out of range")
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
            for eid in g.incident(x):
                y = g.other_end(eid, x)
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


class Orientation:
    """A direction per edge of a base multigraph, stored as the tail vertex."""

    __slots__ = ("base", "tails", "_out", "_in")

    def __init__(self, base: Multigraph, tails):
        tails = tuple(tails)
        if len(tails) != base.m:
            raise InvalidInput("one tail per edge required")
        out = [0] * base.n
        indeg = [0] * base.n
        for eid, t in enumerate(tails):
            u, v = base.edges[eid]
            if t not in (u, v):
                raise InvalidInput(f"tail {t} is not an endpoint of edge {eid}")
            head = v if t == u else u
            out[t] += 1
            indeg[head] += 1
        self.base = base
        self.tails = tails
        self._out = tuple(out)
        self._in = tuple(indeg)

    def head(self, eid: int) -> int:
        u, v = self.base.edges[eid]
        return v if self.tails[eid] == u else u

    @property
    def out_degrees(self) -> tuple:
        return self._out

    @property
    def in_degrees(self) -> tuple:
        return self._in

    def out_degree(self, v: int) -> int:
        return self._out[v]

    def in_degree(self, v: int) -> int:
        return self._in[v]

    def __repr__(self):
        return f"Orientation(m={self.base.m})"


class Factorization:
    """A total assignment edge id -> factor index in 1..k."""

    __slots__ = ("base", "k", "assignment")

    def __init__(self, base: Multigraph, k: int, assignment):
        if k < 1:
            raise InvalidInput("k must be >= 1")
        assignment = tuple(int(a) for a in assignment)
        if len(assignment) != base.m:
            raise InvalidInput("assignment must cover every edge")
        for eid, a in enumerate(assignment):
            if not 1 <= a <= k:
                raise InvalidInput(f"edge {eid} has factor index {a} outside 1..{k}")
        self.base = base
        self.k = k
        self.assignment = assignment

    def factor_edges(self, i: int) -> list:
        return [eid for eid, a in enumerate(self.assignment) if a == i]

    def factor_sizes(self) -> list:
        sizes = [0] * self.k
        for a in self.assignment:
            sizes[a - 1] += 1
        return sizes

    def factor_degrees(self, i: int) -> list:
        deg = [0] * self.base.n
        for eid, a in enumerate(self.assignment):
            if a == i:
                u, v = self.base.edges[eid]
                deg[u] += 1
                deg[v] += 1
        return deg

    def all_factor_degrees(self) -> list:
        """List of per-vertex degree lists, one per factor."""
        return [self.factor_degrees(i) for i in range(1, self.k + 1)]

    def __repr__(self):
        return f"Factorization(k={self.k}, m={self.base.m})"


def subgraph(g: Multigraph, edge_ids) -> Multigraph:
    """Spanning subgraph of g keeping the given edges (edge ids are re-densified)."""
    return Multigraph(g.n, [g.edges[eid] for eid in sorted(edge_ids)])


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Multigraph:
    if n < 1:
        raise InvalidInput("cycle needs at least one vertex")
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])

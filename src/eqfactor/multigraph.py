"""Core data model: undirected multigraphs with loops, orientations, factorizations.

Conventions:
  - vertices are dense 0-based integers;
  - edge ids are positional (insertion order), dense 0..m-1;
  - a loop at v contributes 2 to d(v) but 0 to any cut d(A);
  - an oriented loop contributes 1 to the out-degree and 1 to the in-degree.

All objects are immutable after construction and safe to share. The one
exception is a multigraph's incidence lists: they are built on the first read
of ``incidence`` and cached, so a graph that is only counted and coloured (the
chunk graph of ``coloring``) never pays for them. The cache is derived from
the edges and takes no part in equality, hashing or pickling.
"""

from __future__ import annotations

from .errors import InvalidInput


class Multigraph:
    """An undirected multigraph. Loops and parallel edges are first-class."""

    __slots__ = ("vertex_count", "edges", "_degrees", "_incidence", "_loops")

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 0:
            raise InvalidInput("vertex_count must be nonnegative")
        n = vertex_count
        degrees = [0] * n
        loops = {}  # vertex -> loop count, only vertices with loops
        kept = []
        keep = kept.append
        for e in edges:
            u, v = e
            # an (int, int) tuple is kept as it is, shared with the caller
            if type(e) is not tuple or type(u) is not int or type(v) is not int:
                u, v = int(u), int(v)
                e = (u, v)
            if u < 0 or v < 0 or u >= n or v >= n:
                raise InvalidInput(f"edge {len(kept)} endpoint out of range: ({u}, {v})")
            degrees[u] += 1
            degrees[v] += 1
            if u == v:
                loops[u] = loops.get(u, 0) + 1
            keep(e)
        self.vertex_count = n
        self.edges = tuple(kept)
        self._degrees = tuple(degrees)
        self._loops = loops
        self._incidence = None  # see the incidence property

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

    @property
    def incidence(self) -> tuple:
        """incidence[v]: the ids of the edges at v, ascending; a loop appears
        once. Built on first use and cached."""
        if self._incidence is None:
            lists = [[] for _ in range(self.vertex_count)]
            for eid, (u, w) in enumerate(self.edges):
                lists[u].append(eid)
                if u != w:
                    lists[w].append(eid)
            self._incidence = tuple(map(tuple, lists))
        return self._incidence

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

    def __reduce__(self):
        return Multigraph, (self.vertex_count, self.edges)

    def __repr__(self):
        return f"Multigraph(n={self.n}, m={self.m})"


def cut_size(g: Multigraph, a) -> int:
    """d(A): number of non-loop edges with exactly one end in A."""
    a = set(a)
    return sum(1 for u, v in g.edges if u != v and (u in a) != (v in a))


class Orientation:
    """A direction per edge of a base multigraph, stored as the tail vertex."""

    __slots__ = ("base", "tails", "_out", "_in")

    def __init__(self, base: Multigraph, tails):
        tails = tuple(tails)
        if len(tails) != base.m:
            raise InvalidInput("one tail per edge required")
        out = [0] * base.n
        for eid, ((u, v), t) in enumerate(zip(base.edges, tails)):
            if t != u and t != v:
                raise InvalidInput(f"tail {t} is not an endpoint of edge {eid}")
            out[t] += 1
        self.base = base
        self.tails = tails
        self._out = tuple(out)
        # d(v) = d+(v) + d-(v): an oriented loop adds one to each
        self._in = tuple(d - o for d, o in zip(base.degrees, out))

    def head(self, eid: int) -> int:
        u, v = self.base.edges[eid]
        return v if self.tails[eid] == u else u

    @property
    def out_degrees(self) -> tuple:
        return self._out

    @property
    def in_degrees(self) -> tuple:
        return self._in

    def __repr__(self):
        return f"Orientation(m={self.base.m})"


class Factorization:
    """A total assignment edge id -> factor index in 1..k."""

    __slots__ = ("base", "k", "assignment")

    def __init__(self, base: Multigraph, k: int, assignment):
        if k < 1:
            raise InvalidInput("k must be >= 1")
        assignment = tuple(map(int, assignment))
        if len(assignment) != base.m:
            raise InvalidInput("assignment must cover every edge")
        if assignment and (min(assignment) < 1 or max(assignment) > k):
            eid, a = next((eid, a) for eid, a in enumerate(assignment) if not 1 <= a <= k)
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
        # bench/tracer.py wraps this method by name; callers read all_factor_degrees
        return self.all_factor_degrees()[i - 1]

    def all_factor_degrees(self) -> list:
        """List of per-vertex degree lists, one per factor, in one pass."""
        degs = [[0] * self.base.n for _ in range(self.k)]
        for a, (u, v) in zip(self.assignment, self.base.edges):
            deg = degs[a - 1]
            deg[u] += 1
            deg[v] += 1
        return degs

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

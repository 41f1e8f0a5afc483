"""Small integer-capacity flow network built from flat arc lists.

Its one flow routine routes each node's supply by breadth-first shortest
augmenting paths (Edmonds-Karp) into nodes with room, one source at a time,
with no source or sink node. A source whose search fails leaves its residual
reach marked, the certificate of the shortfall."""

from __future__ import annotations


class FlowNetwork:
    def __init__(self, n: int, tails, heads, caps, back=None):
        """Arc i runs tails[i] -> heads[i] with capacity caps[i], and its
        reverse with back[i] (0 when back is None): the pair (2i, 2i + 1),
        listed at each end in the order of i. With back None, the flow on
        arc i is cap[2i + 1]."""
        self.n = n
        self.to = to = [0] * (2 * len(caps))
        to[::2] = heads
        to[1::2] = tails
        self.cap = cap = [0] * len(to)
        cap[::2] = caps
        if back is not None:
            cap[1::2] = back
        self.graph = graph = [[] for _ in range(n)]  # per node: its arc indices
        a = 0
        for u, v in zip(tails, heads):
            graph[u].append(a)
            graph[v].append(a + 1)
            a += 2
        self.mark = [0] * n  # id of the last search that reached each node
        self.search = 0

    def max_flow(self, supply, room) -> int:
        """Route supply[x] units out of each node x in turn, one breadth-first
        search of the residual network per path, into the first node v with
        room[v] > 0 that the search reaches; a path carries at most room[v]
        units. supply and room are lowered in place, and no node may have
        both. Returns the units routed.

        Stops at the first source x whose search fails. Then mark[v] ==
        search exactly on x's residual reach R: no arc with cap > 0 leaves R,
        and R holds no room. So the flow already moves as much out of R as
        its arcs allow, with all of R's room filled and x's supply not yet
        routed: no flow routes every unit. Arcs come in pairs (a, a ^ 1), so
        the tail of arc a is to[a ^ 1].
        """
        graph, to, cap, mark = self.graph, self.to, self.cap, self.mark
        via = [0] * self.n  # the arc each node was last reached by
        total = 0
        for x in range(self.n):
            while supply[x]:
                self.search = search = self.search + 1
                mark[x] = search
                queue = [x]
                hit = -1
                for y in queue:
                    for a in graph[y]:
                        z = to[a]
                        if cap[a] and mark[z] != search:
                            mark[z] = search
                            via[z] = a
                            if room[z]:
                                hit = z
                                break
                            queue.append(z)
                    if hit >= 0:
                        break
                if hit < 0:
                    return total
                path = []
                z = hit
                while z != x:
                    a = via[z]
                    path.append(a)
                    z = to[a ^ 1]
                push = min(supply[x], room[hit], min(cap[a] for a in path))
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                supply[x] -= push
                room[hit] -= push
                total += push
        return total

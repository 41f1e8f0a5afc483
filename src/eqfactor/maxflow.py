"""Small integer-capacity Dinic max-flow on a network built from flat arc lists.

A flow's last level list marks the side of a minimum cut."""

from __future__ import annotations

from collections import deque


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
        self.level = None

    def max_flow(self, s: int, t: int) -> int:
        """Dinic: BFS levels, then blocking flows found by an iterative DFS.

        The flow leaves the level list of its last BFS, which did not reach
        t, as ``level``: level[v] >= 0 exactly for the nodes s reaches in the
        residual network, the side of a minimum s-t cut.

        The DFS keeps its path on an explicit stack, so the depth of the
        level graph is not limited by the interpreter's recursion limit.
        Arcs come in pairs (idx, idx ^ 1), so the tail of arc idx is
        to[idx ^ 1].
        """
        graph, to, cap = self.graph, self.to, self.cap
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for idx in graph[x]:
                    y = to[idx]
                    if cap[idx] > 0 and level[y] < 0:
                        level[y] = level[x] + 1
                        queue.append(y)
            if level[t] < 0:
                self.level = level
                return total
            it = [0] * self.n
            path = []  # arc indices from s to x
            x = s
            while True:
                if x == t:
                    pushed = min(cap[idx] for idx in path)
                    first_saturated = None
                    for i, idx in enumerate(path):
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                        if first_saturated is None and cap[idx] == 0:
                            first_saturated = i
                    total += pushed
                    # resume from the tail of the first saturated arc, which
                    # is where the search would be after restarting at s
                    del path[first_saturated:]
                    x = to[path[-1]] if path else s
                    continue
                arcs = graph[x]
                i = it[x]
                nxt = level[x] + 1
                while i < len(arcs):
                    idx = arcs[i]
                    if cap[idx] > 0 and level[to[idx]] == nxt:
                        break
                    i += 1
                it[x] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    x = to[arcs[i]]
                elif path:
                    # dead end: retreat and skip the arc that led here
                    idx = path.pop()
                    x = to[idx ^ 1]
                    it[x] += 1
                else:
                    break

"""Small integer-capacity Dinic max-flow, with residual reachability access.

A flow may stop at a limit: it then answers "is the cut at least limit?"."""

from __future__ import annotations

from collections import deque


class FlowNetwork:
    def __init__(self, n: int):
        self.n = n
        self.graph = [[] for _ in range(n)]  # per node: list of arc indices
        self.to = []
        self.cap = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Add arc u->v with capacity cap; returns its index (reverse at idx+1)."""
        idx = len(self.to)
        self.graph[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.graph[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def flow_on(self, idx: int) -> int:
        return self.cap[idx + 1]

    def max_flow(self, s: int, t: int, limit=None) -> int:
        """Dinic: BFS levels, then blocking flows found by an iterative DFS.

        With a limit, pushing stops once limit units are pushed, so the value
        is min(max flow, limit); the residual network then holds that flow.

        The DFS keeps its path on an explicit stack, so the depth of the
        level graph is not limited by the interpreter's recursion limit.
        Arcs come in pairs (idx, idx ^ 1), so the tail of arc idx is
        to[idx ^ 1].
        """
        graph, to, cap = self.graph, self.to, self.cap
        total = 0
        while limit is None or total < limit:
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
                return total
            it = [0] * self.n
            path = []  # arc indices from s to x
            x = s
            while True:
                if x == t:
                    pushed = min(cap[idx] for idx in path)
                    if limit is not None:
                        pushed = min(pushed, limit - total)
                    first_saturated = None
                    for i, idx in enumerate(path):
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                        if first_saturated is None and cap[idx] == 0:
                            first_saturated = i
                    total += pushed
                    if total == limit:
                        return total
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
        return total

    def residual_reachable(self, s: int) -> set:
        seen = {s}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for idx in self.graph[x]:
                y = self.to[idx]
                if self.cap[idx] > 0 and y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

"""Dinic's max-flow on an ``eqfactor.maxflow.FlowNetwork``: BFS levels, then
blocking flows found by an iterative DFS. The reference that Gusfield's
T-odd cut construction runs in tests/test_connectivity.py, apart from the
augmenting searches of ``connectivity._push_paths``."""

from collections import deque


def max_flow(net, s: int, t: int) -> int:
    """The maximum s-t flow, pushed into net.cap.

    The flow leaves the level list of its last BFS, which did not reach
    t, as ``net.level``: level[v] >= 0 exactly for the nodes s reaches in the
    residual network, the side of a minimum s-t cut.

    The DFS keeps its path on an explicit stack, so the depth of the
    level graph is not limited by the interpreter's recursion limit.
    Arcs come in pairs (idx, idx ^ 1), so the tail of arc idx is
    to[idx ^ 1].
    """
    graph, to, cap = net.graph, net.to, net.cap
    total = 0
    while True:
        level = [-1] * net.n
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
            net.level = level
            return total
        it = [0] * net.n
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

"""Maximum cardinality matching in general graphs: Edmonds' blossom algorithm.

One augmenting-path search per free node, grown from any partial matching
(Edmonds, "Paths, trees, and flowers", 1965; the search keeps blossoms as
union-find classes in the manner of Gabow, JACM 1976). A search that fails
leaves its root exposed in some maximum matching, and no later augmentation
gives that root an augmenting path, so one pass over the free nodes reaches a
maximum matching. Everything is iterative; a search resets only the nodes it
labelled, and contracting a blossom walks only that blossom's members.
"""

from __future__ import annotations

FREE, OUTER, INNER = 0, 1, 2


def maximum_matching(adj, mate=None, perfect=False):
    """Grow mate (mate[x] is x's partner or -1; changed in place) into a
    maximum matching of the graph with adjacency lists adj, and return it.

    With perfect=True, return None at the first free node whose search fails:
    that node is exposed in some maximum matching, so no perfect matching
    exists.
    """
    n = len(adj)
    if mate is None:
        mate = [-1] * n
    label = [FREE] * n
    # For an inner node: the outer node it was reached from. For an outer
    # node inside a blossom: the next node on its path around the blossom.
    # Either way, x, mate[x], pred[mate[x]], ... is an even alternating path
    # from an outer node x to the root.
    pred = [-1] * n
    base = list(range(n))  # union-find forest; a class root is its blossom's base
    mark = [0] * n
    stamp = 0

    def find(x):
        while base[x] != x:
            base[x] = base[base[x]]
            x = base[x]
        return x

    def common_base(x, y):
        """Base of the smallest blossom holding outer nodes x and y: walk both
        tree paths in turn until one meets a base the other has marked."""
        nonlocal stamp
        stamp += 1
        x, y = find(x), find(y)
        while mark[x] != stamp:
            mark[x] = stamp
            if mate[x] == -1:  # x is the root; walk y alone from now on
                x, y = y, -1
                continue
            x = find(pred[mate[x]])
            if y != -1:
                x, y = y, x
        return x

    def contract(x, y, b, queue):
        """Fold the tree path from outer node x up to base b into b's blossom,
        routing the paths of its nodes through the edge x-y."""
        while find(x) != b:
            pred[x] = y
            y = mate[x]
            if label[y] == INNER:
                label[y] = OUTER
                queue.append(y)
            if base[x] == x:
                base[x] = b
            if base[y] == y:
                base[y] = b
            x = pred[y]

    def search(root):
        """One augmenting-path search from root; True when it augmented."""
        label[root] = OUTER
        queue = [root]  # outer nodes, in the order they are scanned
        inner = []
        i = 0
        found = -1
        while i < len(queue) and found < 0:
            x = queue[i]
            i += 1
            for y in adj[x]:
                ly = label[y]
                if ly == FREE:
                    label[y] = INNER
                    pred[y] = x
                    inner.append(y)
                    m = mate[y]
                    if m == -1:
                        found = y
                        break
                    label[m] = OUTER
                    queue.append(m)
                elif ly == OUTER and find(x) != find(y):
                    b = common_base(x, y)
                    contract(x, y, b, queue)
                    contract(y, x, b, queue)
        y = found
        while y != -1:  # flip the path found, y, pred[y], mate[pred[y]], ...
            x = pred[y]
            nxt = mate[x]
            mate[y] = x
            mate[x] = y
            y = nxt
        for nodes in (queue, inner):
            for x in nodes:
                label[x] = FREE
                pred[x] = -1
                base[x] = x
        return found >= 0

    for root in range(n):
        if mate[root] == -1 and not search(root) and perfect:
            return None
    return mate

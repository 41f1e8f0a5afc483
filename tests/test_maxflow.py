import math
import random
from collections import deque

import networkx as nx

from eqfactor.maxflow import FlowNetwork


def network(n, arcs):
    """The FlowNetwork of (u, v, c) triples, arc i the i-th triple; the flow
    on arc i is then net.cap[2i + 1], what its reverse has gained."""
    return FlowNetwork(n, [u for u, _, _ in arcs], [v for _, v, _ in arcs], [c for _, _, c in arcs])


def residual_reach(net, s):
    """The nodes that s reaches over arcs with cap > 0, by a BFS of its own."""
    seen = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for idx in net.graph[x]:
            y = net.to[idx]
            if net.cap[idx] > 0 and y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def level_side(net):
    return {v for v, lv in enumerate(net.level) if lv >= 0}


def test_max_flow_deep_path_networks():
    """The level graph of a path is as deep as the path; no recursion limit applies."""
    for n in (1500, 10_000):
        net = network(n, [(v, v + 1, 1) for v in range(n - 1)])
        assert net.max_flow(0, n - 1) == 1
        assert level_side(net) == residual_reach(net, 0) == {0}


def test_arcs_pair_up_in_list_order():
    """Arc i is the pair (2i, 2i + 1), listed at each end in the order of i;
    its reverse starts at back[i], or at 0 with no back."""
    tails, heads, caps = [0, 1, 0, 2], [1, 2, 2, 0], [3, 4, 5, 6]
    net = FlowNetwork(3, tails, heads, caps)
    assert net.to == [1, 0, 2, 1, 2, 0, 0, 2]
    assert net.cap == [3, 0, 4, 0, 5, 0, 6, 0]
    assert net.graph == [[0, 4, 7], [1, 2], [3, 5, 6]]
    assert net.level is None
    assert FlowNetwork(3, tails, heads, caps, [7, 8, 9, 10]).cap == [3, 7, 4, 8, 5, 9, 6, 10]
    empty = FlowNetwork(2, [], [], [], [])
    assert empty.to == empty.cap == [] and empty.graph == [[], []]
    assert empty.max_flow(0, 1) == 0 and empty.level == [0, -1]


def test_max_flow_matches_networkx():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 12)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        arcs = []
        for _ in range(rng.randint(0, 40)):
            u, v, c = rng.randrange(n), rng.randrange(n), rng.randint(0, 5)
            if u == v:
                continue
            arcs.append((u, v, c))
            if ref.has_edge(u, v):
                ref[u][v]["capacity"] += c
            else:
                ref.add_edge(u, v, capacity=c)
        net = network(n, arcs)
        value = net.max_flow(0, n - 1)
        assert value == nx.maximum_flow_value(ref, 0, n - 1)
        # the residual reach of the source is a minimum cut's source side
        reach = level_side(net)
        assert n - 1 not in reach
        assert sum(c for u, v, c in arcs if u in reach and v not in reach) == value
        assert all(0 <= f <= c for f, (_, _, c) in zip(net.cap[1::2], arcs))


def layered_network(rng):
    """Node 0 alone in layer 0, then layers 1..depth + 3 of 2-6 nodes each,
    with t in layer depth >= 6. Arcs go forward by exactly one layer, or stay
    in a layer, or go back any number of layers, so every s-t path has at
    least depth arcs; the three layers past t's, and the rest of t's own
    layer, are reached from s but lie at or beyond t's level."""
    depth = rng.randint(6, 9)
    layers = [[0]]
    for _ in range(depth + 3):
        first = layers[-1][-1] + 1
        layers.append(list(range(first, first + rng.randint(2, 6))))
    t = rng.choice(layers[depth])
    arcs = []
    for i, layer in enumerate(layers):
        for u in layer:
            if i + 1 < len(layers):
                for v in rng.sample(layers[i + 1], min(len(layers[i + 1]), rng.randint(1, 3))):
                    arcs.append((u, v, rng.randint(1, 4)))
            for _ in range(rng.randint(0, 2)):
                v = rng.choice(rng.choice(layers[max(0, i - 3):i + 1]))
                if v != u:
                    arcs.append((u, v, rng.randint(0, 4)))
    return layers[-1][-1] + 1, t, arcs


def assert_conserved(n, t, arcs, flow, value):
    """Each arc's flow lies within its capacity, and value units go from node 0 to t."""
    balance = [0] * n
    for f, (u, v, c) in zip(flow, arcs):
        assert 0 <= f <= c
        balance[u] -= f
        balance[v] += f
    assert balance[t] == value and balance[0] == -value
    assert not any(balance[v] for v in range(1, n) if v != t)


def test_max_flow_on_layered_networks_past_the_sink_level():
    """Deep sinks with many nodes at or beyond their level: the value matches
    networkx, flow is conserved, and the residual reach of s is a cut of that
    value."""
    rng = random.Random(71)
    beyond = positive_flows = 0
    for _ in range(60):
        n, t, arcs = layered_network(rng)
        net = network(n, arcs)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        for u, v, c in arcs:
            if ref.has_edge(u, v):
                ref[u][v]["capacity"] += c
            else:
                ref.add_edge(u, v, capacity=c)
        positive = nx.DiGraph((u, v) for u, v, c in arcs if c > 0)
        dist = nx.single_source_shortest_path_length(positive, 0)
        assert dist.get(t, math.inf) >= 6
        beyond += sum(d >= dist.get(t, math.inf) for d in dist.values()) - (t in dist)
        value = net.max_flow(0, t)
        assert value == nx.maximum_flow_value(ref, 0, t)
        positive_flows += value > 0
        assert_conserved(n, t, arcs, net.cap[1::2], value)
        reach = level_side(net)
        assert t not in reach
        assert sum(c for u, v, c in arcs if u in reach and v not in reach) == value
    assert beyond >= 60 * 8 and positive_flows >= 50


def test_last_level_list_is_the_residual_reach():
    """After every flow, the nodes with level >= 0 are those a separate BFS
    over cap > 0 reaches from s. A second flow, to another sink, on the same
    network reset to its full capacities replaces the first flow's list."""
    rng = random.Random(73)
    for trial in range(120):
        if trial % 2:
            n, t, arcs = layered_network(rng)
        else:
            n = rng.randint(2, 12)
            arcs = [(u, v, rng.randint(0, 5)) for u, v in
                    ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 40))) if u != v]
            t = n - 1
        net = network(n, arcs)
        full = list(net.cap)
        net.max_flow(0, t)
        assert level_side(net) == residual_reach(net, 0)
        net.cap[:] = full
        other = rng.randrange(1, n)
        value = net.max_flow(0, other)
        assert level_side(net) == residual_reach(net, 0)
        assert value == network(n, arcs).max_flow(0, other)

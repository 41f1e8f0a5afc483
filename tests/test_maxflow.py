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


def marked(net):
    """The nodes the last search reached."""
    return {v for v, mark in enumerate(net.mark) if mark == net.search}


def random_arcs(rng, n):
    """Up to 40 random non-loop arcs of capacity 0..5, parallel ones included."""
    pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 40)))
    return [(u, v, rng.randint(0, 5)) for u, v in pairs if u != v]


def supplies_and_rooms(rng, n):
    """Each node a source (supply 1..6), a sink (room 1..6) or neither."""
    supply, room = [0] * n, [0] * n
    for v in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            supply[v] = rng.randint(1, 6)
        elif kind == 1:
            room[v] = rng.randint(1, 6)
    return supply, room


def super_network_value(n, arcs, supply, room):
    """networkx's max flow on the same arcs, plus a super source n with an
    arc of capacity supply[x] to each x and a super sink n + 1 with an arc
    of capacity room[v] from each v."""
    ref = nx.DiGraph()
    ref.add_nodes_from(range(n + 2))
    arcs = arcs + [(n, x, c) for x, c in enumerate(supply)] + [(v, n + 1, c) for v, c in enumerate(room)]
    for u, v, c in arcs:
        if ref.has_edge(u, v):
            ref[u][v]["capacity"] += c
        else:
            ref.add_edge(u, v, capacity=c)
    return nx.maximum_flow_value(ref, n, n + 1)


def assert_conserved(n, arcs, flow, supply, room, supply_left, room_left, value):
    """Each arc's flow lies within its capacity; each node sends what its
    supply dropped by and takes in what its room dropped by, and the drops
    sum to value."""
    balance = [0] * n
    for f, (u, v, c) in zip(flow, arcs):
        assert 0 <= f <= c
        balance[u] -= f
        balance[v] += f
    for v in range(n):
        assert 0 <= supply_left[v] <= supply[v] and 0 <= room_left[v] <= room[v]
        assert balance[v] == (room[v] - room_left[v]) - (supply[v] - supply_left[v])
    assert sum(supply) - sum(supply_left) == sum(room) - sum(room_left) == value


def test_max_flow_deep_path_networks():
    """The search along a path is as deep as the path; no recursion limit
    applies. A second unit finds the first path's arc full, and the failed
    source's reach is itself alone."""
    for n in (1500, 10_000):
        net = network(n, [(v, v + 1, 1) for v in range(n - 1)])
        supply, room = [2] + [0] * (n - 1), [0] * (n - 1) + [5]
        assert net.max_flow(supply, room) == 1
        assert supply[0] == 1 and room[-1] == 4
        assert marked(net) == residual_reach(net, 0) == {0}


def test_arcs_pair_up_in_list_order():
    """Arc i is the pair (2i, 2i + 1), listed at each end in the order of i;
    its reverse starts at back[i], or at 0 with no back."""
    tails, heads, caps = [0, 1, 0, 2], [1, 2, 2, 0], [3, 4, 5, 6]
    net = FlowNetwork(3, tails, heads, caps)
    assert net.to == [1, 0, 2, 1, 2, 0, 0, 2]
    assert net.cap == [3, 0, 4, 0, 5, 0, 6, 0]
    assert net.graph == [[0, 4, 7], [1, 2], [3, 5, 6]]
    assert net.mark == [0, 0, 0] and net.search == 0
    assert FlowNetwork(3, tails, heads, caps, [7, 8, 9, 10]).cap == [3, 7, 4, 8, 5, 9, 6, 10]
    empty = FlowNetwork(2, [], [], [], [])
    assert empty.to == empty.cap == [] and empty.graph == [[], []]
    assert empty.max_flow([0, 0], [0, 0]) == 0 and empty.search == 0
    assert empty.max_flow([1, 0], [0, 1]) == 0 and marked(empty) == {0}


def test_max_flow_matches_networkx():
    """Every unit is routed exactly when networkx routes every unit through a
    super source and a super sink; the flow stays within capacity and is
    conserved, and each room drops by its inflow."""
    rng = random.Random(23)
    full = short = 0
    for _ in range(300):
        n = rng.randint(2, 12)
        arcs = random_arcs(rng, n)
        supply, room = supplies_and_rooms(rng, n)
        supply_left, room_left = list(supply), list(room)
        net = network(n, arcs)
        value = net.max_flow(supply_left, room_left)
        routed = value == sum(supply)
        assert routed == (super_network_value(n, arcs, supply, room) == sum(supply))
        assert_conserved(n, arcs, net.cap[1::2], supply, room, supply_left, room_left, value)
        full += routed
        short += not routed
    assert full >= 60 and short >= 60


def layered_network(rng):
    """Node 0 alone in layer 0, then layers 1..depth + 3 of 2-6 nodes each,
    with t in layer depth >= 6. Arcs go forward by exactly one layer, or stay
    in a layer, or go back any number of layers, so every path from 0 to t
    has at least depth arcs; the three layers past t's, and the rest of t's
    own layer, are reached from 0 but lie at or beyond t's distance."""
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


def test_max_flow_on_layered_networks_past_the_sink_level():
    """Deep sinks with many nodes at or beyond their distance from node 0:
    with node 0's supply at networkx's 0-t max flow every unit is routed, and
    with one unit more the routed value is that max flow and the failed
    search's reach is a cut of that value. The flow is conserved either way."""
    rng = random.Random(71)
    beyond = positive_flows = 0
    for trial in range(120):
        n, t, arcs = layered_network(rng)
        positive = nx.DiGraph((u, v) for u, v, c in arcs if c > 0)
        dist = nx.single_source_shortest_path_length(positive, 0)
        assert dist.get(t, math.inf) >= 6
        beyond += sum(d >= dist.get(t, math.inf) for d in dist.values()) - (t in dist)
        room = [0] * n
        room[t] = 10**6
        best = super_network_value(n, arcs, [10**6] + [0] * (n - 1), room)  # the 0-t max flow
        supply = [best + trial % 2] + [0] * (n - 1)
        supply_left, room_left = list(supply), list(room)
        net = network(n, arcs)
        value = net.max_flow(supply_left, room_left)
        assert value == best
        positive_flows += value > 0
        assert_conserved(n, arcs, net.cap[1::2], supply, room, supply_left, room_left, value)
        if trial % 2:
            reach = marked(net)
            assert t not in reach and 0 in reach
            assert sum(c for u, v, c in arcs if u in reach and v not in reach) == value
    assert beyond >= 120 * 8 and positive_flows >= 100


def test_shortfall_marks_the_failed_source_residual_reach():
    """After a shortfall the marked nodes are the residual reach of the first
    source with supply left, by a separate BFS; they hold no room, no arc
    with cap > 0 leaves them, and no later source has routed a unit."""
    rng = random.Random(73)
    shortfalls = 0
    for trial in range(300):
        if trial % 2:
            n, t, arcs = layered_network(rng)
            supply, room = supplies_and_rooms(rng, n)
        else:
            n = rng.randint(2, 12)
            arcs = random_arcs(rng, n)
            supply, room = supplies_and_rooms(rng, n)
        supply_left, room_left = list(supply), list(room)
        net = network(n, arcs)
        value = net.max_flow(supply_left, room_left)
        if value == sum(supply):
            continue
        shortfalls += 1
        x = next(v for v in range(n) if supply_left[v])
        reach = marked(net)
        assert reach == residual_reach(net, x)
        assert not any(room_left[v] for v in reach)
        assert not any(net.cap[a] for v in reach for a in net.graph[v] if net.to[a] not in reach)
        assert supply_left[x + 1:] == supply[x + 1:]
    assert shortfalls >= 100

import math
import random

import networkx as nx

from eqfactor.maxflow import FlowNetwork


def path_network(n):
    net = FlowNetwork(n)
    for v in range(n - 1):
        net.add_edge(v, v + 1, 1)
    return net


def test_max_flow_deep_path_networks():
    """The level graph of a path is as deep as the path; no recursion limit applies."""
    for n in (1500, 10_000):
        net = path_network(n)
        assert net.max_flow(0, n - 1) == 1
        assert net.residual_reachable(0) == {0}


def test_max_flow_matches_networkx():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 12)
        net = FlowNetwork(n)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        arcs = []
        for _ in range(rng.randint(0, 40)):
            u, v, c = rng.randrange(n), rng.randrange(n), rng.randint(0, 5)
            if u == v:
                continue
            arcs.append((net.add_edge(u, v, c), u, v, c))
            if ref.has_edge(u, v):
                ref[u][v]["capacity"] += c
            else:
                ref.add_edge(u, v, capacity=c)
        value = net.max_flow(0, n - 1)
        assert value == nx.maximum_flow_value(ref, 0, n - 1)
        # the residual reach of the source is a minimum cut's source side
        reach = net.residual_reachable(0)
        assert n - 1 not in reach
        assert sum(c for _, u, v, c in arcs if u in reach and v not in reach) == value
        assert all(0 <= net.flow_on(idx) <= c for idx, _, _, c in arcs)


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


def test_max_flow_on_layered_networks_past_the_sink_level():
    """Deep sinks with many nodes at or beyond their level: the value matches
    networkx, flow is conserved, and the residual reach of s is a cut of that
    value."""
    rng = random.Random(71)
    beyond = positive_flows = 0
    for _ in range(60):
        n, t, arcs = layered_network(rng)
        net = FlowNetwork(n)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ids = []
        for u, v, c in arcs:
            ids.append(net.add_edge(u, v, c))
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
        balance = [0] * n
        for idx, (u, v, c) in zip(ids, arcs):
            assert 0 <= net.flow_on(idx) <= c
            balance[u] -= net.flow_on(idx)
            balance[v] += net.flow_on(idx)
        assert balance[t] == value and balance[0] == -value
        assert not any(balance[v] for v in range(1, n) if v != t)
        reach = net.residual_reachable(0)
        assert t not in reach
        assert sum(c for u, v, c in arcs if u in reach and v not in reach) == value
    assert beyond >= 60 * 8 and positive_flows >= 50


def test_capped_max_flow_on_layered_networks():
    """On the 60 layered networks above, a flow capped at limit has value
    min(max flow, limit), is conserved and within capacities, and resuming
    it uncapped on the same residual network reaches the max flow."""
    rng = random.Random(71)
    capped = 0
    for _ in range(60):
        n, t, arcs = layered_network(rng)
        value = None
        for limit in (None, 0, 1, 2, 3, 5, 8, 13):
            net = FlowNetwork(n)
            ids = [net.add_edge(u, v, c) for u, v, c in arcs]
            got = net.max_flow(0, t, limit)
            if limit is None:
                value = got
                continue
            assert got == min(value, limit)
            capped += value > limit
            balance = [0] * n
            for idx, (u, v, c) in zip(ids, arcs):
                assert 0 <= net.flow_on(idx) <= c
                balance[u] -= net.flow_on(idx)
                balance[v] += net.flow_on(idx)
            assert balance[t] == got and balance[0] == -got
            assert not any(balance[v] for v in range(1, n) if v != t)
            assert got + net.max_flow(0, t) == value
    assert capped >= 100

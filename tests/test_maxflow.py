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

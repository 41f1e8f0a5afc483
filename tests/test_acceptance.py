"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings. Every bound is recomputed from raw edges.
"""

import json
import random
import time

import jsonschema
import pytest

from conftest import audit_passes, eulerian_union, random_multigraph, random_orientation, random_two_edge_connected
from cut_oracles import check_lovasz
from eqfactor import lab, parity, pipelines
from eqfactor.cli import main as cli_main
from eqfactor.coloring import decompose_directed
from eqfactor.errors import Infeasible, ResidueObstruction
from eqfactor.graphio import REPORT_SCHEMA, parse_graph, serialize_graph
from eqfactor.multigraph import Multigraph, complete_graph, cycle_graph, subgraph
from eqfactor.orientation import mod_k_orientation


class Criterion:
    def __init__(self, number, label, limit):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"ACCEPTANCE {self.number}: {self.label} ... {status} ({elapsed:.1f}s / {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        return False


def doubled(g):
    return Multigraph(g.n, [e for e in g.edges for _ in range(2)])


def tripled(g):
    return Multigraph(g.n, [e for e in g.edges for _ in range(3)])


def test_acceptance_01_directed_decomposition():
    with Criterion(1, "directed decomposition windows, both modes", 30):
        rng = random.Random(101)
        for _ in range(200):
            g = random_multigraph(rng, max_n=10, max_m=30)
            d = random_orientation(rng, g)
            k = rng.choice((2, 3, 4, 5))
            for mode in ("size", "parity"):
                fz = decompose_directed(d, k, mode=mode)
                outs = [[0] * g.n for _ in range(k)]
                ins = [[0] * g.n for _ in range(k)]
                for eid in range(g.m):
                    i = fz.assignment[eid] - 1
                    outs[i][d.tails[eid]] += 1
                    ins[i][d.head(eid)] += 1
                for v in range(g.n):
                    for i in range(k):
                        assert d.out_degrees[v] // k <= outs[i][v] <= -(-d.out_degrees[v] // k)
                        assert d.in_degrees[v] // k <= ins[i][v] <= -(-d.in_degrees[v] // k)
                if mode == "size":
                    assert all(abs(s - g.m / k) < 1 for s in fz.factor_sizes())
                else:
                    for v in range(g.n):
                        dp, dm = d.out_degrees[v], d.in_degrees[v]
                        if dp % k != dm % k:
                            continue
                        target = ((dp - dm) // k) % 2
                        for degs in fz.all_factor_degrees():
                            assert degs[v] % 2 == target


def test_acceptance_02_equitable_z_pipeline():
    with Criterion(2, "equitable Z pipeline, deviation<1 and size±1", 60):
        cases = [
            (complete_graph(7), 3),
            (complete_graph(4), 2),
            (doubled(cycle_graph(4)), 2),
            (tripled(complete_graph(4)), 3),
        ]
        rng = random.Random(102)
        for _ in range(20):
            k = rng.choice((2, 3))
            n = rng.choice((6, 9)) if k == 3 else rng.choice((6, 8))
            c = 3 if k == 3 else rng.choice((2, 3))
            cases.append((eulerian_union(rng, n, c), k))
        for g, k in cases:
            fz, _, _ = pipelines.equitable_factorize(g, k)
            entries = lab.verify(g, fz, ["deviation<1", "size±1"])
            assert audit_passes(entries), (g, k, entries)


def test_acceptance_03_three_factor_criterion():
    with Criterion(3, "3-factor criterion with oracle agreement", 30):
        fz, _, _ = pipelines.three_factor_criterion(complete_graph(7))
        degs = fz.all_factor_degrees()
        assert all(d == 2 for row in degs for d in row)
        loopy = Multigraph(7, list(complete_graph(7).edges) + [(0, 0)])
        with pytest.raises(Infeasible):
            pipelines.three_factor_criterion(loopy)
        # <= 12 edge analogue: K4 + loop has exactly one vertex != 0 (mod 3)
        analogue = Multigraph(4, list(complete_graph(4).edges) + [(0, 0)])
        with pytest.raises(Infeasible):
            pipelines.three_factor_criterion(analogue)
        assert lab.oracle_equitable(analogue, 3) is False


def test_acceptance_04_observation_family():
    with Criterion(4, "observation family defeats the oracle", 60):
        c5 = lab.generate("observation", {"k": 2, "r": 1, "n": 5})
        assert c5.n == 5 and c5.m == 5 and all(d == 2 for d in c5.degrees)
        assert lab.oracle_equitable(c5, 2) is False
        obs4 = lab.generate("observation", {"k": 4, "r": 1, "n": 5})
        assert lab.oracle_equitable(obs4, 4) is False


def test_acceptance_05_parity_odd_k():
    with Criterion(5, "odd-k parity factorization", 60):
        fz, _, _ = pipelines.parity_factorize(complete_graph(7), 3)
        degs = fz.all_factor_degrees()
        assert all(d == 2 for row in degs for d in row)  # three 2-factors
        rng = random.Random(105)
        for _ in range(20):
            n = rng.choice((5, 7, 9))
            g = eulerian_union(rng, n, 3)  # 6-regular, odd order
            fz, _, _ = pipelines.parity_factorize(g, 3)
            entries = lab.verify(g, fz, ["parity", "deviation<2"])
            assert audit_passes(entries), entries


def test_acceptance_06_lovasz_oracle_equivalence():
    with Criterion(6, "Lovasz condition vs 2^|E| brute force, 500 graphs", 120):
        rng = random.Random(106)
        for _ in range(500):
            g = random_multigraph(rng, max_n=6, max_m=10, min_m=1)
            f, g0, f0 = [], [], []
            for v in range(g.n):
                lo = rng.randint(0, g.degree(v))
                hi = lo + 2 * rng.randint(0, (g.degree(v) - lo) // 2)
                f.append(lo % 2)
                g0.append(lo)
                f0.append(hi)
            spec = parity.ParitySpec(f=tuple(f), g0=tuple(g0), f0=tuple(f0))
            truth = lab.oracle_parity_gf(g, spec)
            assert (check_lovasz(g, spec) is True) == truth


def test_acceptance_07_epsilon_parity_factor():
    with Criterion(7, "eps-parity factor on 2-edge-connected graphs", 60):
        rng = random.Random(107)
        for i in range(100):
            g = random_two_edge_connected(rng, max_n=8)
            bits = [rng.randint(0, 1) for _ in range(g.n)]
            if sum(bits) % 2 == 1:
                bits[-1] ^= 1
            f = tuple(bits)
            z = None
            if i % 2 == 0:
                z = (rng.randrange(g.n), rng.choice(("at_least", "at_most")))
            factor = parity.epsilon_parity_factor(g, f, 0.5, z=z)
            degs = subgraph(g, factor).degrees
            for v in range(g.n):
                d = g.degree(v)
                assert degs[v] % 2 == f[v]
                assert d // 2 - 1 <= degs[v] <= -(-d // 2) + 1
            if z is not None:
                zv, side = z
                if side == "at_least":
                    assert degs[zv] >= 0.5 * g.degree(zv)
                else:
                    assert degs[zv] <= 0.5 * g.degree(zv)


def test_acceptance_08_hilton_factorization():
    with Criterion(8, "Hilton even factorization, deviation<2", 60):
        rng = random.Random(108)
        for _ in range(100):
            n = rng.randint(4, 9)
            g = eulerian_union(rng, n, rng.randint(1, 4))
            k = rng.choice((2, 3, 4))
            fz = parity.hilton_even_factorization(g, k)
            for degs in fz.all_factor_degrees():
                for v in range(g.n):
                    assert degs[v] % 2 == 0
                    assert abs(degs[v] - g.degree(v) / k) < 2


def test_acceptance_09_weighted_even_factorization():
    with Criterion(9, "weighted even factorization, deviation<6", 60):
        rng = random.Random(109)
        worst = 0.0
        for _ in range(50):
            n = rng.randint(5, 9)
            g = eulerian_union(rng, n, rng.randint(2, 4))
            count = rng.randint(1, 4)
            raw = [rng.uniform(0.2, 1.0) for _ in range(count)]
            eps = [x / sum(raw) for x in raw]
            fz = parity.weighted_even_factorization(g, eps)
            for i, degs in enumerate(fz.all_factor_degrees()):
                for v in range(g.n):
                    assert degs[v] % 2 == 0
                    dev = abs(degs[v] - eps[i] * g.degree(v))
                    worst = max(worst, dev)
                    assert dev < 6
        print(f"  (empirical max weighted deviation: {worst:.3f})")


def test_acceptance_10_mod_k_solver_vs_enumeration():
    with Criterion(10, "mod-k solver vs exhaustive orientations", 120):
        rng = random.Random(110)
        pool = [random_multigraph(rng, max_n=6, max_m=12) for _ in range(80)]
        pool = [g for g in pool if g.m <= 12]
        checked = 0
        for g in pool:
            for k in (2, 3, 4):
                p = tuple(rng.randrange(k) for _ in range(g.n))
                truth = lab.oracle_orientation(g, p, k)
                try:
                    d = mod_k_orientation(g, k, p)
                    assert truth
                    assert all(d.out_degrees[v] % k == p[v] for v in range(g.n))
                except (Infeasible, ResidueObstruction):
                    assert not truth
                checked += 1
        assert checked >= 3 * len(pool) and len(pool) >= 50


def test_acceptance_11_cli_round_trip_and_schema(tmp_path, capsys):
    with Criterion(11, "CLI round trip and JSON schema", 10):
        rng = random.Random(111)
        fixtures = [complete_graph(7), complete_graph(4), cycle_graph(5),
                    doubled(cycle_graph(4))]
        fixtures += [random_multigraph(rng, max_n=8, max_m=16) for _ in range(10)]
        for g in fixtures:
            assert parse_graph(serialize_graph(g)) == g
        runs = [
            (complete_graph(7), ["--k", "3", "--mode", "equitable"]),
            (complete_graph(4), ["--k", "2", "--mode", "equitable"]),
            (complete_graph(7), ["--k", "3", "--mode", "parity"]),
            (doubled(cycle_graph(4)), ["--k", "2", "--mode", "regular"]),
            (complete_graph(5), ["--k", "2", "--mode", "anstee"]),
        ]
        for g, flags in runs:
            path = tmp_path / "fixture.txt"
            path.write_text(serialize_graph(g))
            assert cli_main(["factor", str(path)] + flags) == 0
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, REPORT_SCHEMA)
            ids = sorted(eid for fac in report["factors"] for eid in fac["edges"])
            assert ids == list(range(g.m))
            assert all(entry["pass"] for entry in report["audit"].values())

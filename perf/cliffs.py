"""Cliff suite: the solver calls that the benchmark's requests do not reach,
each timed on a seeded input in its own subprocess.

    python3 perf/cliffs.py LABEL [NAME=SRC ...]

Each NAME=SRC pair names a source tree, the directory that holds the
eqfactor package (default: change=src of this checkout). Every row runs three
times per tree, the trees taking turns, and records the median and the spread
(max - min) of the call's process time and of the process's peak RSS, with a
sha256 of the input and of the output. It prints each row with its input's
and its output's digests, and writes BENCH_LABEL.json at the repository root.

The generators are copied here, not imported from the package or its tests,
so that a change there cannot move these inputs.
"""

import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
SIZES = (10_000, 100_000)


def hilton_k100_audited(lab, g):
    """Hilton's factorization at k = 100, then its even and deviation<2 audit:
    top = 3 factors hold edges, and the audit must not pay for the other 97."""
    fz = importlib.import_module("eqfactor.parity").hilton_even_factorization(g, 100)
    assert all(entry[3] for entry in lab.verify(g, fz, ["even", "deviation<2"]))
    return fz.assignment


# row name -> (module of eqfactor, the call it times on the shuffled
# three-cycle union as (module, graph) -> one small int per edge)
CALLS = {
    "hilton_k3": ("parity", lambda parity, g: parity.hilton_even_factorization(g, 3).assignment),
    "weighted_0.5_0.25_0.25": ("parity", lambda parity, g: parity.weighted_even_factorization(
        g, (0.5, 0.25, 0.25)).assignment),
    "even_eps_0.5": ("parity", lambda parity, g: [eid in factor for factor in [parity.even_factor_eps(g, 0.5)]
                                                  for eid in range(g.m)]),
    # even k with f odd at vertices 0 and 1, as the benchmark's factor_parity_k2
    "parity_k2": ("pipelines", lambda pipelines, g: pipelines.parity_factorize(
        g, 2, f=[1, 1] + [0] * (g.n - 2))[0].assignment),
    "parity_k3": ("pipelines", lambda pipelines, g: pipelines.parity_factorize(g, 3)[0].assignment),
    "parity_k4": ("pipelines", lambda pipelines, g: pipelines.parity_factorize(
        g, 4, f=[1, 1] + [0] * (g.n - 2))[0].assignment),
    "hilton_k100_audited": ("lab", hilton_k100_audited),
}


def shuffled_union(n: int, seed: int = 7) -> list:
    """Three random Hamiltonian cycles on n vertices, their edges then put in
    a random order: 6-regular, and the greedy circulation pass falls short."""
    rng = random.Random(seed)
    edges = []
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        edges += [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    rng.shuffle(edges)
    return edges


def run_row(row: str, n: int) -> dict:
    """Build the input, time the row's call in process time, and report digests and peak RSS."""
    from eqfactor.multigraph import Multigraph

    name, call = CALLS[row]
    module = importlib.import_module(f"eqfactor.{name}")
    edges = shuffled_union(n)
    g = Multigraph(n, edges)
    start = time.process_time()
    out = call(module, g)
    seconds = time.process_time() - start
    return {
        "input_sha256": hashlib.sha256("".join(f"{u} {v}\n" for u, v in edges).encode()).hexdigest(),
        "output_sha256": hashlib.sha256(bytes(out)).hexdigest(),
        "process_s": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(trees: dict) -> dict:
    samples = {(name, row, n): [] for name in trees for row in CALLS for n in SIZES}
    for _ in range(REPEATS):
        for row in CALLS:
            for n in SIZES:
                for name, src in trees.items():
                    env = dict(os.environ, PYTHONPATH=str(src))
                    out = subprocess.run([sys.executable, __file__, "--row", row, str(n)], env=env,
                                         capture_output=True, text=True, check=True).stdout
                    samples[name, row, n].append(json.loads(out))
    rows = {name: [] for name in trees}
    for (name, row, n), runs in samples.items():
        entry = {"row": row, "n": n, "input_sha256": runs[0]["input_sha256"],
                 "output_sha256": sorted({r["output_sha256"] for r in runs})}
        for key in ("process_s", "peak_rss_mb"):
            values = [r[key] for r in runs]
            entry[key] = {"median": statistics.median(values), "spread": max(values) - min(values)}
        rows[name].append(entry)
        print(f"{name:8} {row:24} n={n:<7} input {entry['input_sha256'][:16]}  "
              f"output {','.join(digest[:16] for digest in entry['output_sha256'])}  "
              f"{entry['process_s']['median']:.3f} s  {entry['peak_rss_mb']['median']:.0f} MB", flush=True)
    return rows


def main(argv) -> int:
    if argv[:1] == ["--row"]:
        print(json.dumps(run_row(argv[1], int(argv[2]))))
        return 0
    if not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    label, pairs = argv[0], argv[1:] or [f"change={ROOT / 'src'}"]
    trees = dict(pair.split("=", 1) for pair in pairs)
    result = {
        "label": label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "timer": "time.process_time around the call; peak RSS of the whole process (ru_maxrss)",
        "repeats": REPEATS,
        "rows": measure(trees),
    }
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

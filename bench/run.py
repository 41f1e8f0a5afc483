"""End-to-end benchmark of the eqfactor CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout. It generates seeded graph files,
measures how long a fresh interpreter takes to import ``eqfactor.cli``, then
calls ``eqfactor.cli.main(argv)`` in-process in a closed loop (one client,
each request issued when the previous one has returned) for S seconds of
whole rounds, and checks every report with an independent checker. The
program runs as shipped: the recursion limit and stack size are left alone,
and a crash counts as a failed request.

The benchmark keeps to one CPU, and rescales every end-to-end time by a
reference task timed before and after it, to the speed of a nominal machine
(see speed.py): on a shared host the same request can take 1x or 2x its time
from one minute to the next, and the rescaled times stay put.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every request
twice, plain and wrapped by the outside-in tracer, requires byte-identical
stdout from both, and prints the per-layer metrics. The last stdout line is
the result object; the line before it holds details (sample count, tail
percentile, failures by exception type, input sha256 digests).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from checker import CheckError, ClaimFailed, analyze_reference, check
from speed import REFERENCES, Scale, pin_to_one_cpu
from tracer import Tracer, summarize
from workloads import REFERENCE, TIME_LIMIT_S, WORKLOADS, build_requests

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import eqfactor.cli; "
    "print(time.perf_counter() - t)"
)


class RequestTimeout(BaseException):
    """Raised in the main thread when a request outlives its time limit.

    A BaseException, so no ``except Exception`` in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise RequestTimeout()


def measure_setup(repeats: int, scale: Scale) -> tuple:
    """(scaled, raw): seconds each of `repeats` fresh interpreters spends
    importing eqfactor.cli, rescaled to reference speed, and as measured.

    One unmeasured import first writes the bytecode cache, which every later
    CLI invocation reuses.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", IMPORT_SNIPPET]
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, timeout=60, check=True)
    scaled, raw = [], []
    for _ in range(repeats):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        raw.append(float(proc.stdout))
        scaled.append(scale(raw[-1]))
    return scaled, raw


def load_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import eqfactor.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "eqfactor":
        raise ImportError(f"eqfactor.cli imported from {cli.__file__}, not from this checkout")
    return cli


def execute(cli, argv: list, limit: float) -> tuple:
    """(seconds, stdout, error): error is None, an exception name, 'exit N' or 'Timeout'.

    The garbage of earlier requests is collected first, as a CLI invocation
    starts with a fresh heap, so that no request pays for another's.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            error = f"exit {code}"
    except RequestTimeout:
        error = "Timeout"
    except Exception as exc:  # a crash of the program under test is a failed request
        error = type(exc).__name__
    return time.perf_counter() - start, out.getvalue(), error


def tail(values: list) -> tuple:
    """(value, percentile): the largest sample with at least TAIL_BEYOND samples
    strictly above it, or the maximum when no sample has that many. Tied
    failures at the PAR-2 penalty have none above them."""
    ordered = sorted(values)
    for x in reversed(ordered):
        above = sum(1 for y in ordered if y > x)
        if above >= TAIL_BEYOND:
            return x, 100.0 * (len(ordered) - above) / len(ordered)
    return ordered[-1], 100.0


def keep_going(start: float, seconds: float, samples: int) -> bool:
    """Start another round until `seconds` have passed, then until the tail has
    enough samples, but never past twice `seconds` (so a run of stalled
    requests still ends)."""
    elapsed = time.perf_counter() - start
    return elapsed < seconds or (samples <= TAIL_BEYOND and elapsed < 2 * seconds)


class Bench:
    """One benchmark run: the requests, their checks and the samples taken."""

    def __init__(self, cli, rounds, limit):
        self.cli = cli
        self.requests = [r for requests in rounds for r in requests]
        width = len(rounds[0])
        self.rounds = [range(g * width, (g + 1) * width) for g in range(len(rounds))]
        self.limit = limit
        self.texts = [r.graph_path.read_text() for r in self.requests]
        self.references = [analyze_reference(text) if r.check == "analyze" else None
                           for r, text in zip(self.requests, self.texts)]
        self.accepted = set()  # (request index, stdout digest) already checked
        self.correct = True
        self.failures = Counter()

    def judge(self, i: int, stdout: str, error):
        """Check one output; return the request's error, or None when accepted."""
        if error is not None:
            self._fail(i, error)
            return error
        key = (i, hashlib.sha256(stdout.encode()).digest())
        if key not in self.accepted:
            r = self.requests[i]
            try:
                check(r.check, r.params, self.texts[i], stdout, self.references[i])
            except CheckError as exc:
                error = type(exc).__name__
                if not isinstance(exc, ClaimFailed):
                    self.correct = False  # a silently wrong answer
                if not self.failures[error]:
                    print(f"check failed: {r.name}: {exc}", file=sys.stderr)
                self._fail(i, error)
                return error
            self.accepted.add(key)
        return None

    def _fail(self, i: int, error: str):
        if not self.failures[error]:
            print(f"request failed: {self.requests[i].name}: {error}", file=sys.stderr)
        self.failures[error] += 1

    def penalized(self, seconds: float, error) -> float:
        return seconds if error is None else 2 * self.limit


def run_plain(bench: Bench, seconds: float, scale: Scale) -> tuple:
    """[(template name, scaled seconds, error)] for each request, the round
    count, and the reference task's times (see speed.py)."""
    results = []
    start = time.perf_counter()
    rounds = 0
    while keep_going(start, seconds, len(results)):
        for i in bench.rounds[rounds % len(bench.rounds)]:
            r = bench.requests[i]
            t, stdout, error = execute(bench.cli, r.argv, bench.limit)
            results.append((r.name, scale(t), bench.judge(i, stdout, error)))
        rounds += 1
    return results, rounds, scale.references


def run_traced(bench: Bench, seconds: float, tracer: Tracer) -> tuple:
    """Each request runs plain and traced, in alternating order per round."""
    plain, traced = [], []
    traced_total = 0.0
    start = time.perf_counter()
    rounds = 0
    while keep_going(start, seconds, len(traced)):
        for i in bench.rounds[rounds % len(bench.rounds)]:
            r = bench.requests[i]
            outputs = {}
            for mode in (("plain", "traced") if rounds % 2 == 0 else ("traced", "plain")):
                if mode == "traced":
                    tracer.install()
                    tracer.begin_request(len(traced))
                    try:
                        outputs[mode] = execute(bench.cli, r.argv, bench.limit)
                    finally:
                        tracer.end_request()
                        tracer.uninstall()
                else:
                    outputs[mode] = execute(bench.cli, r.argv, bench.limit)
            (tp, out_p, err_p), (tt, out_t, err_t) = outputs["plain"], outputs["traced"]
            if out_p != out_t or err_p != err_t:
                bench.correct = False
                print(f"traced and plain runs differ: {r.name}", file=sys.stderr)
            err_p = bench.judge(i, out_p, err_p)
            err_t = bench.judge(i, out_t, err_t)
            plain.append(bench.penalized(tp, err_p))
            traced.append(bench.penalized(tt, err_t))
            traced_total += tt
        rounds += 1
    return plain, traced, traced_total, rounds


def declared_metrics(kind: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def emit(metrics: dict, declared: list) -> dict:
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eqfactor" / "cli.py").is_file():
        print(f"error: no eqfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    if not args.trace:
        factory, nominal = REFERENCES[REFERENCE[args.workload]]
        task = factory()
        setup, setup_raw = measure_setup(SETUP_REPEATS, Scale(task, nominal))
    cli = load_cli()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        graph_rounds, digests = build_requests(args.workload, args.seed, Path(tmp))
        bench = Bench(cli, graph_rounds, TIME_LIMIT_S)
        if args.trace:
            tracer = Tracer()
            plain, traced, traced_total, rounds = run_traced(bench, args.seconds, tracer)
            samples = traced
            layers = summarize(tracer.spans)
            layers["trace.solve_s"] = traced_total
            layers["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
            layers["connectivity.share"] = layers["connectivity.self_s"] / traced_total
            layers["parity.matching_share"] = layers["parity.matching_s"] / traced_total
            metrics = emit(layers, declared_metrics("per_layer"))
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps([
                dict(zip(("name", "start", "end", "parent", "request", "error", "attrs"), s))
                for s in tracer.spans
            ]))
        else:
            results, rounds, references = run_plain(bench, args.seconds, Scale(task, nominal))
            samples = [bench.penalized(t, error) for _, t, error in results]
            tail_value, tail_pct = tail(samples)
            metrics = emit({
                "setup_s": statistics.median(setup),
                "solve_s.p50": statistics.median(samples),
                "solve_s.tail": tail_value,
                "par2_s": statistics.fmean(samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }, declared_metrics("end_to_end"))
    failed = sum(bench.failures.values())
    attempted = len(samples) * (2 if args.trace else 1)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "samples": len(samples),
        "time_limit_s": TIME_LIMIT_S,
        "fail_share": failed / attempted,
        "failures": dict(bench.failures),
        "inputs_sha256": digests,
    }
    if args.trace:
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        per_name = {}
        for (name, _, _), x in zip(results, samples):
            per_name.setdefault(name, []).append(x)
        detail["setup_runs_s"] = setup
        detail["setup_raw_s"] = setup_raw
        detail["reference"] = REFERENCE[args.workload]
        detail["reference_nominal_s"] = nominal
        detail["reference_s"] = statistics.quantiles(references, n=4)
        detail["tail_percentile"] = tail_pct
        detail["per_request_median_s"] = {k: statistics.median(v) for k, v in per_name.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bench.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

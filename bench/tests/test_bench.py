"""Tests of the benchmark itself: checker, generator and tracer.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import speed  # noqa: E402
from checker import CheckError, ClaimFailed, analyze_reference, check  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, build_requests, cycles_graph_text  # noqa: E402

TRIANGLE = "n 3\ne 0 1\ne 1 2\ne 2 0\n"


def _report(factors, audit=None) -> str:
    return json.dumps({"k": len(factors), "factors": [{"edges": f} for f in factors], "audit": audit or {}})


def test_checker_accepts_a_valid_report():
    check("regular", {"k": 1}, TRIANGLE, _report([[0, 1, 2]]))


@pytest.mark.parametrize("factors, reason", [
    ([[0, 1, -1]], "negative edge id"),
    ([[0, 1]], "missing edge"),
    ([[0, 1, 2], []], "too many factors"),
    ([[0, 1, 2, 3]], "edge id past the end"),
    ([[0, 1, 1, 2]], "repeated edge"),
])
def test_checker_rejects_malformed_partition(factors, reason):
    with pytest.raises(CheckError):
        check("regular", {"k": 1}, TRIANGLE, _report(factors))


def test_checker_rejects_a_window_violation():
    # a 4-cycle: alternate edges give a 1-regular split; consecutive edges
    # give vertex 1 degree 2 in factor 1, which is not d(v)/k = 1
    square = "n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
    check("equitable", {"k": 2}, square, _report([[0, 2], [1, 3]]))
    with pytest.raises(CheckError) as silent:
        check("regular", {"k": 2}, square, _report([[0, 1], [2, 3]]))
    assert not isinstance(silent.value, ClaimFailed)
    admitted = {"regular": {"bound": 0.0, "measured": 2.0, "pass": False}}
    with pytest.raises(ClaimFailed):
        check("regular", {"k": 2}, square, _report([[0, 1], [2, 3]], admitted))


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for d in (a, b, c):
        d.mkdir()
    rounds_a, digests_a = build_requests("parity_window", 7, a)
    rounds_b, digests_b = build_requests("parity_window", 7, b)
    _, digests_c = build_requests("parity_window", 8, c)
    assert digests_a == digests_b
    assert [[r.argv[2:] for r in rnd] for rnd in rounds_a] == [[r.argv[2:] for r in rnd] for rnd in rounds_b]
    assert len(set(digests_a.values())) == len(digests_a)  # every graph differs
    assert set(digests_a.values()).isdisjoint(digests_c.values())
    text = (a / next(iter(digests_a))).read_text()
    assert text == (b / next(iter(digests_b))).read_text()


def test_generated_graphs_are_six_regular():
    text = cycles_graph_text(50, random.Random(3))
    ref = analyze_reference(text)
    assert ref == {"n": 50, "m": 150, "lambda": 6, "odd_lambda": "inf", "tree_connectivity": 3}


def test_every_workload_template_has_a_check():
    kinds = {t.check for templates in WORKLOADS.values() for t in templates}
    assert kinds <= {"analyze", "parity_factor", "even_eps", "equitable", "parity", "regular",
                     "even", "weighted"}


SMALL = [
    (["factor", "--k", "3"], "equitable", {"k": 3}),
    (["factor", "--k", "4", "--mode", "parity", "--f", "0,1"], "parity", {"k": 4, "odd": [0, 1]}),
    (["factor", "--k", "3", "--mode", "regular"], "regular", {"k": 3}),
    (["even-factor", "--k", "3"], "even", {"k": 3}),
    (["even-factor", "--epsilons", "0.5,0.25,0.25"], "weighted", {"k": 3, "epsilons": [0.5, 0.25, 0.25]}),
    (["even-factor", "--epsilon", "0.5"], "even_eps", {"epsilon": 0.5}),
    (["parity-factor", "--f", "0,1", "--epsilon", "0.34", "--z", "2", "--side", "at-least"],
     "parity_factor", {"epsilon": 0.34, "odd": [0, 1], "z": 2, "side": "at-least"}),
    (["analyze"], "analyze", {}),
]


def test_traced_and_plain_reports_are_identical(tmp_path):
    cli = run.load_cli()
    text = cycles_graph_text(24, random.Random(5))
    path = tmp_path / "g.txt"
    path.write_text(text)
    reference = analyze_reference(text)
    tracer = Tracer()
    main_before = cli.main
    for extra, kind, params in SMALL:
        argv = [extra[0], str(path), *extra[1:]]
        _, plain, error = run.execute(cli, argv, 60)
        assert error is None, (argv, error)
        check(kind, params, text, plain, reference)
        tracer.install()
        try:
            _, traced, error = run.execute(cli, argv, 60)
        finally:
            tracer.uninstall()
        assert error is None
        assert traced == plain, argv
    assert cli.main is main_before
    layers = summarize(tracer.spans)
    assert layers["cli.calls"] == 3 * len(SMALL)  # main, build_parser, cmd_*
    assert layers["orientation.leaf_flows"] >= 1
    assert layers["coloring.b_edges"] > 0


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 31)]
    assert run.tail(values) == (20.0, 100.0 * 20 / 30)
    # ties at the PAR-2 penalty have nothing beyond them
    assert run.tail([1.0] * 5 + [2.0] * 5 + [60.0] * 12)[0] == 2.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_a_request_past_its_time_limit_is_stopped(tmp_path):
    cli = run.load_cli()
    path = tmp_path / "g.txt"
    path.write_text(cycles_graph_text(60, random.Random(1)))
    seconds, stdout, error = run.execute(cli, ["analyze", str(path)], 0.01)
    assert error == "Timeout" and stdout == "" and seconds < 5
    assert run.execute(cli, ["analyze", str(path)], 60)[2] is None


def test_scale_rescales_each_interval_by_the_references_around_it(monkeypatch):
    nominal = 0.5
    references = iter([1.0, 1.0, 4.0])
    monkeypatch.setattr(speed.Scale, "_reference_seconds", lambda self: next(references))
    scale = speed.Scale(lambda: None, nominal)
    assert scale(1.0) == pytest.approx(0.5)  # the machine ran at half the nominal speed
    assert scale(1.0) == pytest.approx(0.25)  # geometric mean of 2x and 8x slower
    assert scale.references == [1.0, 1.0, 4.0]


def test_every_workload_has_a_reference_task():
    assert set(speed.REFERENCES) >= set(run.REFERENCE.values())
    assert set(run.REFERENCE) == set(WORKLOADS)

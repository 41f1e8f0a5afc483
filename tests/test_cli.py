import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest

from conftest import eulerian_union, random_multigraph
from eqfactor import cli, lab, orientation, pipelines
from eqfactor.cli import build_parser, main
from eqfactor.graphio import (
    REPORT_SCHEMA,
    check_report,
    dump_report,
    factorization_report,
    parse_graph,
    serialize_graph,
)
from eqfactor.errors import InvalidInput
from eqfactor.multigraph import Factorization, Multigraph, complete_graph, cycle_graph


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def test_parse_round_trip_random():
    rng = random.Random(67)
    for _ in range(50):
        g = random_multigraph(rng, max_n=8, max_m=20)
        assert parse_graph(serialize_graph(g)) == g


def test_parse_comments_and_errors():
    g = parse_graph("# a comment\nn 3\n\ne 0 1\ne 1 1\ne 0 1\n")
    assert g.n == 3 and g.m == 3
    assert g.is_loop(1)
    for bad, lineno in [
        ("e 0 1\nn 2\n", 1),
        ("n 2\ne 0 5\n", 2),
        ("n 2\nx 0 1\n", 2),
        ("n 2\nn 3\n", 2),
        ("n two\n", 1),
    ]:
        with pytest.raises(InvalidInput) as exc:
            parse_graph(bad)
        assert f"line {lineno}" in str(exc.value)
    with pytest.raises(InvalidInput):
        parse_graph("# nothing\n")


def test_report_schema_validates():
    g = complete_graph(4)
    fz = Factorization(g, 2, [1, 2, 1, 2, 1, 2])
    report = factorization_report(fz, [("deviation<1", 1, 0.5, True)])
    jsonschema.validate(report, REPORT_SCHEMA)
    assert json.loads(dump_report(report)) == report


def test_cli_factor_k7(tmp_path, capsys):
    path = write_graph(tmp_path, complete_graph(7))
    assert main(["factor", path, "--k", "3", "--mode", "equitable"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["k"] == 3
    assert sorted(len(f["edges"]) for f in report["factors"]) == [7, 7, 7]
    all_ids = sorted(eid for f in report["factors"] for eid in f["edges"])
    assert all_ids == list(range(21))
    assert all(entry["pass"] for entry in report["audit"].values())


def test_cli_oracle_c5(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(5))
    assert main(["oracle", path, "--question", "equitable", "--k", "2"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_cli_analyze_k4(tmp_path, capsys):
    path = write_graph(tmp_path, complete_graph(4))
    assert main(["analyze", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == 3
    assert data["odd_lambda"] == 3
    assert data["tree_connectivity"] == 2


def test_cli_orient_k3_10k(tmp_path, capsys):
    g = eulerian_union(random.Random(4), 10_000, 3)
    assert main(["orient", write_graph(tmp_path, g), "--k", "3", "--format", "json"]) == 0
    tails = json.loads(capsys.readouterr().out)["tails"]
    out = [0] * g.n
    for t in tails:
        out[t] += 1
    assert all(x % 3 == 0 for x in out)


def test_cli_exit_codes(tmp_path, capsys):
    tri = write_graph(tmp_path, cycle_graph(3), "tri.txt")
    # residue obstruction -> infeasible -> 1
    assert main(["orient", tri, "--k", "2"]) == 1
    # invalid input -> 2
    bad = tmp_path / "bad.txt"
    bad.write_text("e 0 1\n")
    assert main(["analyze", str(bad)]) == 2
    assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
    # undecided -> 3
    k7 = write_graph(tmp_path, complete_graph(7), "k7.txt")
    assert main(["oracle", k7, "--question", "equitable", "--k", "3"]) == 3
    # a special vertex or Z set outside the graph -> 2, not a silently ignored z
    assert main(["orient", k7, "--k", "3", "--z", "99"]) == 2
    assert main(["orient", k7, "--k", "3", "--Z", "0,99"]) == 2
    # argparse rejection -> 2
    assert main(["factor", tri, "--k", "2", "--mode", "sideways"]) == 2
    assert main(["oracle", tri, "--question", "whatever"]) == 2
    capsys.readouterr()


# K4 splits into three perfect matchings, so exit 1 would be a false proof:
# the residue construction does not apply there (no out-degree plan = 0 mod 3
# is realizable), and each mode names its unmet hypothesis
K4_K3_UNDECIDED = [
    (["factor", "K4", "--k", "3"], "graph is neither (6)-edge-connected nor (4)-tree-connected"),
    (["factor", "K4", "--k", "3", "--mode", "parity"], "graph is neither odd-(7)-edge-connected"),
    (["factor", "K4", "--k", "3", "--mode", "regular"], "d(X) < 7 at Q-odd set"),
]


@pytest.mark.parametrize("argv, hypothesis", K4_K3_UNDECIDED, ids=[" ".join(a) for a, _ in K4_K3_UNDECIDED])
def test_cli_k4_k3_is_undecided_not_infeasible(tmp_path, capsys, argv, hypothesis):
    k4 = write_graph(tmp_path, complete_graph(4))
    assert lab.oracle_equitable(complete_graph(4), 3)
    assert main([k4 if a == "K4" else a for a in argv]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("undecided: the residue construction does not apply: ")
    assert f"; hypothesis not met: {hypothesis}" in err


K44 = Multigraph(8, [(i, 4 + j) for i in range(4) for j in range(4)])


def test_cli_regular_split_grouping_is_invalid_input(tmp_path, capsys):
    """On K4,4 (4-regular) r_list 1,3 needs base factors of degree dividing
    1 and 3: k = 2 gives 2-regular ones, an invalid request (exit 2), and
    k = 4 gives perfect matchings, which group into the split."""
    k44 = write_graph(tmp_path, K44)
    argv = ["factor", k44, "--mode", "regular", "--r-list", "1,3", "--k"]
    assert main(argv + ["2"]) == 2
    assert capsys.readouterr() == ("", "error: grouping whole 2-regular base factors cannot realize r_list [1, 3]\n")
    assert main(argv + ["4"]) == 0
    assert sorted(len(f["edges"]) for f in json.loads(capsys.readouterr().out)["factors"]) == [4, 12]


# an exact --r-list split, the claim its audit makes, and its base split's warnings
R_LISTS = [
    (complete_graph(5), ["--k", "2", "--r-list", "2,2"], "deviation<1:0.5;0.5", ""),
    (K44, ["--k", "4", "--r-list", "1,3"], "deviation<1:0.25;0.75",
     "warning: hypothesis not met: d(X) < 10 at Q-odd set [1]\n"),
]


@pytest.mark.parametrize("g, flags, claim, warnings", R_LISTS, ids=["K5 2,2", "K4,4 1,3"])
def test_cli_r_list_reports_are_audited(tmp_path, capsys, g, flags, claim, warnings):
    """An exact split claims that factor i is r_i-regular, as deviation < 1
    from (r_i / r) * d(v) on the r-regular graph; the report carries that
    audit, verify accepts the same claim, and the base split's warnings are
    printed."""
    path = write_graph(tmp_path, g)
    assert main(["factor", path, "--mode", "regular", *flags]) == 0
    out, err = capsys.readouterr()
    assert err == warnings
    assert json.loads(out)["audit"] == {"deviation<1": {"bound": 1.0, "measured": 0.0, "pass": True}}
    report = tmp_path / "rep.json"
    report.write_text(out)
    assert main(["verify", path, str(report), "--claims", claim]) == 0
    assert capsys.readouterr().out == "deviation<1: bound 1, measured 0.0, pass\n"


# a flag that the chosen --mode or --question does not read, and its error
UNREAD_FLAGS = [
    (["factor", "K5", "--k", "2", "--mode", "anstee", "--z", "0"], "--z does not apply to --mode anstee"),
    (["factor", "K5", "--k", "3", "--mode", "parity", "--Z", "0,1"], "--Z does not apply to --mode parity"),
    (["factor", "K5", "--k", "2", "--mode", "anstee", "--f", "0,1"], "--f does not apply to --mode anstee"),
    (["factor", "K5", "--k", "2", "--r-list", "2,2"], "--r-list does not apply to --mode equitable"),
    (["factor", "K5", "--k", "2", "--mode", "anstee", "--bounded"], "--bounded does not apply to --mode anstee"),
    (["factor", "K5", "--k", "2", "--mode", "regular", "--bounded"], "--bounded needs --r-list"),
    (["oracle", "K5", "--question", "equitable", "--k", "2", "--z", "0"],
     "--z does not apply to --question equitable"),
    (["oracle", "K5", "--question", "parity_gf", "--f", "0,1", "--epsilon", "0.5", "--Z", "0,1"],
     "--Z does not apply to --question parity_gf"),
    (["oracle", "K5", "--question", "orientation", "--k", "2", "--f", "0,1"],
     "--f does not apply to --question orientation"),
    (["oracle", "K5", "--question", "equitable", "--k", "2", "--epsilon", "0.5"],
     "--epsilon does not apply to --question equitable"),
    (["oracle", "K5", "--question", "parity_gf", "--f", "0,1", "--epsilon", "0.5", "--k", "2"],
     "--k does not apply to --question parity_gf"),
]


@pytest.mark.parametrize("argv, error", UNREAD_FLAGS, ids=[" ".join(a) for a, _ in UNREAD_FLAGS])
def test_cli_rejects_flags_the_choice_does_not_read(tmp_path, capsys, argv, error):
    """Each of these exited 0 with the flag ignored, so a user who meant to
    steer the result was not told that nothing was steered."""
    k5 = write_graph(tmp_path, complete_graph(5))
    assert main([k5 if a == "K5" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


Z_ARGVS = [
    ["orient", "K4", "--k", "3", "--z", "0", "--Z", "1,2"],
    ["oracle", "K4", "--question", "orientation", "--k", "3", "--z", "0", "--Z", "1,2"],
    ["factor", "K4", "--k", "3", "--z", "0", "--Z", "1,2"],
]


@pytest.mark.parametrize("argv", Z_ARGVS, ids=[" ".join(a) for a in Z_ARGVS])
def test_cli_z_and_big_z_together_are_invalid_input(tmp_path, capsys, argv):
    k4 = write_graph(tmp_path, complete_graph(4))
    assert main([k4 if a == "K4" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: at most one of z and Z may be given\n")


@pytest.mark.parametrize("flag", [["--z", "0"], ["--Z", "0,1"]])
def test_cli_orient_z_without_k_is_invalid_input(tmp_path, capsys, flag):
    """An Eulerian orientation takes no residue targets: K4's odd degrees
    made `orient --z 0` exit 1 as if the flag were absent."""
    k4 = write_graph(tmp_path, complete_graph(4))
    assert main(["orient", k4, *flag]) == 2
    assert capsys.readouterr() == ("", "error: --z and --Z need --k\n")


def test_cli_z_fallback_audits_deviation_below_two(tmp_path, capsys):
    """A triangle has no Z set for k = 2, so the pipeline falls back to a
    special vertex, whose guarantee is deviation < 2 there: the audit claims
    that and passes."""
    tri = write_graph(tmp_path, cycle_graph(3))
    assert main(["factor", tri, "--k", "2"]) == 0
    out, err = capsys.readouterr()
    assert "fell back to special vertex z = 0" in err
    audit = json.loads(out)["audit"]
    assert sorted(audit) == ["deviation<2", "size±1"] and all(e["pass"] for e in audit.values())


# the shared flags, with the subcommands that read each
SHARED_FLAGS = {
    "--format": ("text", {"analyze", "orient", "factor", "parity-factor", "even-factor"}),
    "--seed": ("3", {"gen"}),
    "--budget": ("5", {"orient", "factor"}),
    "--jobs": ("2", {"oracle"}),
}


# a valid argv of each subcommand, without its shared flags
SUBCOMMAND_ARGVS = {
    "analyze": ["analyze", "g.txt"],
    "orient": ["orient", "g.txt"],
    "factor": ["factor", "g.txt", "--k", "3"],
    "parity-factor": ["parity-factor", "g.txt", "--f", "0,1", "--epsilon", "0.5"],
    "even-factor": ["even-factor", "g.txt", "--k", "2"],
    "verify": ["verify", "g.txt", "r.json"],
    "gen": ["gen", "--family", "regular"],
    "oracle": ["oracle", "g.txt", "--question", "equitable"],
}


def test_cli_subcommands_take_only_the_shared_flags_they_read(capsys):
    assert main(["analyze", "g.txt", "--budget", "5"]) == 2
    base = SUBCOMMAND_ARGVS
    parser = build_parser()
    for name, argv in base.items():
        for flag, (value, readers) in SHARED_FLAGS.items():
            if name in readers:
                args = parser.parse_args(argv + [flag, value])
                assert str(getattr(args, flag[2:])) == value
            else:
                assert main(argv + [flag, value]) == 2, (name, flag)
    capsys.readouterr()


def test_one_subparser_parses_as_the_full_parser_does():
    full = build_parser()
    for name, argv in SUBCOMMAND_ARGVS.items():
        one = build_parser(name)
        assert list(one._subparsers._group_actions[0].choices) == [name]
        for extra in [[], *([flag, value] for flag, (value, readers) in SHARED_FLAGS.items() if name in readers)]:
            assert one.parse_args(argv + extra) == full.parse_args(argv + extra), (name, extra)


def test_main_prints_what_the_full_parser_prints(tmp_path, capsys, monkeypatch):
    """Every argv that reaches argparse's help or errors gives the same
    stdout, stderr and exit code whether main builds one subparser or all."""
    k5 = write_graph(tmp_path, complete_graph(5))
    runs = [["analyze", k5], ["even-factor", k5, "--k", "2", "--format", "text"],
            ["-h"], ["--help"], *([name, "-h"] for name in cli.COMMANDS)]
    errors = [
        [], ["frobnicate"], ["factr"], ["--bogus"], ["factor", k5, "--k", "x"],
        ["factor", k5, "--k", "3", "--bogus"], ["analyze", k5, "extra"],
        ["parity-factor", k5, "--f", "0,1", "--epsilon", "0.5", "--side", "up"],
        ["analyze", k5, "--budget", "5"], ["gen", "--family", "regular", "--jobs", "2"],
        *([name] for name in cli.COMMANDS),
    ]
    for argv, code in [(argv, 0) for argv in runs] + [(argv, 2) for argv in errors]:
        one = (main(argv), *capsys.readouterr())
        monkeypatch.setattr(cli, "build_parser", lambda *names: build_parser())
        assert one == (main(argv), *capsys.readouterr()), argv
        monkeypatch.undo()
        assert one[0] == code, argv


def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch):
    k5 = write_graph(tmp_path, complete_graph(5))
    assert main(["analyze", k5, "--format", "text"]) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["eqfactor", "analyze", k5, "--format", "text"])
    assert main() == 0
    assert capsys.readouterr() == expected
    monkeypatch.setattr(sys, "argv", ["eqfactor", "factr"])
    assert main() == 2
    assert "invalid choice: 'factr'" in capsys.readouterr().err


@pytest.mark.parametrize("family, params", [
    ("complete", {"n": "4"}),
    ("regular", {"n": "6", "d": "3"}),
    ("eulerian_cycles", {"n": "5", "c": "2"}),
    ("multiplied", {"base": None, "t": "2"}),
    ("observation", {"k": "3", "r": "1"}),
])
def test_gen_without_a_family_parameter_names_the_flag(tmp_path, capsys, family, params):
    params = {key: value or write_graph(tmp_path, complete_graph(3)) for key, value in params.items()}
    flags = [arg for key, value in params.items() for arg in (f"--{key}", value)]
    assert main(["gen", "--family", family, *flags]) == 0
    for key in params:
        rest = [arg for other, value in params.items() if other != key for arg in (f"--{other}", value)]
        assert main(["gen", "--family", family, *rest]) == 2, key
        assert capsys.readouterr().err == f"error: {family} family needs --{key}\n"


@pytest.mark.parametrize("z", ["999", "-1"])
def test_parity_factor_rejects_a_steered_vertex_outside_the_graph(tmp_path, capsys, z):
    k4 = write_graph(tmp_path, complete_graph(4))
    assert main(["parity-factor", k4, "--f", "0,1,2,3", "--epsilon", "0.5", "--z", z]) == 2
    assert capsys.readouterr().err == f"error: vertex {z} out of range\n"


@pytest.mark.parametrize("weights", ["nan,0.5", "0.5,nan,0.5"])
def test_even_factor_rejects_nan_weights(tmp_path, capsys, weights):
    k5 = write_graph(tmp_path, complete_graph(5))
    assert main(["even-factor", k5, "--epsilons", weights]) == 2
    assert capsys.readouterr().err == "error: weights must be finite\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_oracle_rejects_a_job_count_below_one(tmp_path, capsys, monkeypatch, jobs):
    """Each question exits 2 before any search starts, where a count below 1
    used to run the search in process and exit 0."""
    k5 = write_graph(tmp_path, complete_graph(5))
    monkeypatch.setattr(lab, "_sharded", None)  # a search would raise TypeError: exit 4
    for question in (["equitable", "--k", "2"], ["orientation", "--k", "2"],
                     ["parity_gf", "--f", "0,1", "--epsilon", "0.5"]):
        assert main(["oracle", k5, "--jobs", jobs, "--question", *question]) == 2
        assert capsys.readouterr() == ("", f"error: jobs must be >= 1, got {jobs}\n")


def test_cli_parity_budget_of_n_admits_the_first_plan(tmp_path, capsys):
    """Even-k parity tries the first plan, uncharged, with a budget of at
    least n, and it is realized here; below n the plan search takes over and
    runs out before its first leaf, which costs n nodes."""
    g = eulerian_union(random.Random(7), 50, 3)
    path = write_graph(tmp_path, g)
    argv = ["factor", path, "--k", "2", "--mode", "parity", "--f", "0,1", "--budget"]
    assert main(argv + [str(g.n - 1)]) == 3
    assert capsys.readouterr().err.startswith("undecided:")
    assert main(argv + [str(g.n)]) == 0
    capsys.readouterr()


def test_cli_factor_k2_on_three_cycles_runs_one_flow(tmp_path, capsys, monkeypatch):
    """`factor --k 2` on a 200-vertex union of three Hamiltonian cycles (inside
    the hypothesis) succeeds with one flow; the plan search alone ran past
    100 s at n = 60."""
    g = eulerian_union(random.Random(97), 200, 3)
    leaves, realize = [], orientation.realize_out_degrees
    monkeypatch.setattr(orientation, "realize_out_degrees",
                        lambda g, o, **kw: leaves.append(o) or realize(g, o, **kw))
    assert main(["factor", write_graph(tmp_path, g), "--k", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(leaves) == 1
    assert all(entry["pass"] for entry in report["audit"].values())


def test_cli_gen_round_trip(tmp_path, capsys):
    assert main(["gen", "--family", "observation", "--k", "2", "--r", "1", "--n", "5"]) == 0
    text = capsys.readouterr().out
    g = parse_graph(text)
    assert all(d == 2 for d in g.degrees)
    # seed-deterministic
    assert main(["gen", "--family", "regular", "--n", "6", "--d", "3", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--family", "regular", "--n", "6", "--d", "3", "--seed", "4"]) == 0
    assert capsys.readouterr().out == first


def test_cli_verify(tmp_path, capsys):
    path = write_graph(tmp_path, complete_graph(7))
    assert main(["factor", path, "--k", "3"]) == 0
    report_path = tmp_path / "rep.json"
    report_path.write_text(capsys.readouterr().out)
    assert main(["verify", path, str(report_path), "--claims", "deviation<1,size±1"]) == 0
    assert main(["verify", path, str(report_path), "--claims", "regular"]) == 0
    capsys.readouterr()


def test_cli_verify_rejects_malformed_reports(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    for report in (
        {"k": 2, "factors": [{"edges": [0, 1]}, {"edges": [-1]}]},
        {"k": 1, "factors": [{"edges": [0, 1, 2]}, {"edges": []}]},
        {"k": 2, "factors": [{"edges": [0, 1, 2]}]},
        {"k": 2, "factors": [{"edges": [0, 1]}, {"edges": [3]}]},
        {"k": 2, "factors": [{"edges": [0, 1]}, {"edges": [2.0]}]},
        {"k": 2, "factors": [{"edges": [0, True]}, {"edges": [2]}]},
        {"k": "1", "factors": [{"edges": [0, 1, 2]}]},
    ):
        report_path = tmp_path / "rep.json"
        report_path.write_text(json.dumps(report))
        assert main(["verify", path, str(report_path), "--claims", "size±1"]) == 2, report
    report_path.write_text(json.dumps({"k": 1, "factors": [{"edges": [0, 1, 2]}]}))
    assert main(["verify", path, str(report_path), "--claims", "size±1"]) == 0
    capsys.readouterr()


def test_cli_verify_rechecks_every_k_factor_report(tmp_path, capsys):
    g = eulerian_union(random.Random(7), 12, 3)  # 6-regular, even degrees
    path = write_graph(tmp_path, g)
    report_path = tmp_path / "rep.json"
    for argv, claims in (
        (["factor", path, "--k", "3"], "deviation<1,size±1"),
        (["factor", path, "--k", "3", "--mode", "parity"], "deviation<2,parity"),
        (["factor", path, "--k", "2", "--mode", "parity", "--f", "0,1"], "deviation<2,parity:0;1"),
        (["factor", path, "--k", "3", "--mode", "regular"], "regular"),
        (["factor", path, "--k", "3", "--mode", "anstee"], "deviation<2,size±1"),
        (["even-factor", path, "--k", "3"], "even,deviation<2"),
        (["even-factor", path, "--epsilons", "0.5,0.25,0.25"], "even,deviation<6:0.5;0.25;0.25"),
    ):
        assert main(argv) == 0
        report_path.write_text(capsys.readouterr().out)
        audit = json.loads(report_path.read_text())["audit"]
        assert main(["verify", path, str(report_path), "--claims", claims]) == 0, argv
        rechecked = {}
        for line in capsys.readouterr().out.splitlines():
            claim, rest = line.split(": ", 1)
            rechecked[claim] = float(rest.split("measured ")[1].split(",")[0])
        assert rechecked == {c: e["measured"] for c, e in audit.items()}, argv


def test_import_cli_leaves_networkx_unloaded(tmp_path):
    k4 = write_graph(tmp_path, complete_graph(4), "k4.txt")
    k5 = write_graph(tmp_path, complete_graph(5), "k5.txt")
    report = str(tmp_path / "rep.json")
    code = "\n".join((
        "import contextlib, io, sys, eqfactor.cli",
        f"rc = [eqfactor.cli.main(['parity-factor', {k4!r}, '--f', '0,1,2,3', '--epsilon', '0.5'])]",
        "out = io.StringIO()",
        "with contextlib.redirect_stdout(out):",
        f"    rc.append(eqfactor.cli.main(['factor', {k5!r}, '--k', '2', '--mode', 'regular']))",
        f"open({report!r}, 'w').write(out.getvalue())",
        f"rc.append(eqfactor.cli.main(['verify', {k5!r}, {report!r}, '--claims', 'regular']))",
        "print(rc, 'networkx' in sys.modules, 'jsonschema' in sys.modules)",
    ))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False False"


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(pipelines, "parity_factorize", crash)
    path = write_graph(tmp_path, complete_graph(5))
    assert main(["factor", path, "--k", "3", "--mode", "parity"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.splitlines()[-1] == "internal error: RecursionError: maximum recursion depth exceeded"


def test_cli_even_and_parity_factor(tmp_path, capsys):
    k5 = write_graph(tmp_path, complete_graph(5), "k5.txt")
    assert main(["even-factor", k5, "--epsilon", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert all(entry["pass"] for entry in report["audit"].values())
    k4 = write_graph(tmp_path, complete_graph(4), "k4.txt")
    assert main(["parity-factor", k4, "--f", "0,1,2,3", "--epsilon", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert all(entry["pass"] for entry in report["audit"].values())


@pytest.mark.parametrize("text, lineno, message", [
    ("n 2\nn 3\n", 2, "duplicate vertex count"),
    ("# c\nn\n", 2, "expected 'n <count>'"),
    ("n 2 3\n", 1, "expected 'n <count>'"),
    ("n two\n", 1, "vertex count is not an integer"),
    ("\nn -1\n", 2, "vertex count must be >= 0"),
    ("e 0 1\nn 2\n", 1, "edge before vertex count"),
    ("n 2\ne 0\n", 2, "expected 'e <u> <v>'"),
    ("n 2\ne 0 1 1\n", 2, "expected 'e <u> <v>'"),
    ("n 2\ne 0 1\ne 0 x\n", 3, "edge endpoints are not integers"),
    ("n 2\ne 0 1\ne 1.5 0\n", 3, "edge endpoints are not integers"),
    ("n 2\n\ne 0 5\n", 3, "endpoint outside [0, 2)"),
    ("n 2\ne -1 0\n", 2, "endpoint outside [0, 2)"),
    ("n 2\nx 0 1\n", 2, "unknown directive 'x'"),
    ("n 2\nE 0 1\n", 2, "unknown directive 'E'"),
])
def test_parse_error_messages_carry_their_line(text, lineno, message):
    with pytest.raises(InvalidInput) as exc:
        parse_graph(text)
    assert str(exc.value) == f"line {lineno}: {message}"


def test_parse_missing_vertex_count():
    for text in ("", "# nothing\n", "\n  \n"):
        with pytest.raises(InvalidInput, match="^missing vertex count line 'n <count>'$"):
            parse_graph(text)


def test_parse_accepts_comments_whitespace_and_line_endings():
    text = "  # indented comment\r\n\tn\t3 \r\n\r\n#e 9 9\n e 0  1\n\te\t1\t2\t\r\n   \ne 2 2 # no\n"
    with pytest.raises(InvalidInput, match="line 8: expected 'e <u> <v>'"):
        parse_graph(text)  # a trailing comment is not a comment
    g = parse_graph(text.replace(" # no", ""))
    assert g == Multigraph(3, [(0, 1), (1, 2), (2, 2)])
    assert parse_graph("n 0\n") == Multigraph(0, [])


def _random_report(rng):
    k = rng.randint(1, 4)
    factors = [{"edges": sorted(rng.sample(range(60), rng.choice((0, 1, rng.randint(2, 30)))))}
               for _ in range(k)]
    audit = {}
    for claim in rng.sample(["deviation<1", "size±1", "parity", "eps-window", 'odd"name', "even"],
                            rng.randint(0, 4)):
        bound = rng.choice((0, 1, 2, 6, 1.0, 2.5))
        measured = rng.choice((0, 3, 0.0, 1 / 3, 1e-17, 123456.75, -0.5))
        audit[claim] = {"bound": bound, "measured": measured, "pass": rng.random() < 0.5}
    return {"k": k, "factors": factors, "audit": audit}


def test_dump_report_bytes_equal_indented_json_dumps():
    rng = random.Random(61)
    reports = [_random_report(rng) for _ in range(300)]
    reports += [
        {"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {}},
        {"k": 1, "factors": [{"edges": []}], "audit": {}},
        {"k": 2, "factors": [{"edges": []}, {"edges": [7]}], "audit": {"regular": {"bound": 0, "measured": 0, "pass": True}}},
    ]
    for report in reports:
        assert dump_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    g = complete_graph(5)
    fz = Factorization(g, 3, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1])
    report = factorization_report(fz, [("deviation<1", 1, 2 / 3, True), ("size±1", 1, 0, True)])
    assert dump_report(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


K5_TEXT = {
    ("factor", "--k", "2"): """\
k = 2
factor 1: edges [1, 2, 5, 6, 8]
factor 2: edges [0, 3, 4, 7, 9]
audit deviation<1: bound 1, measured 0.0, pass True
audit size±1: bound 1, measured 0.0, pass True
""",
    ("factor", "--k", "3"): """\
k = 3
factor 1: edges [0, 3, 5, 7]
factor 2: edges [1, 6, 9]
factor 3: edges [2, 4, 8]
audit deviation<1: bound 1, measured 0.6666666666666667, pass True
audit size±1: bound 1, measured 0.6666666666666665, pass True
""",
    ("factor", "--k", "3", "--mode", "parity"): """\
k = 3
factor 1: edges [1, 2, 5, 6, 8]
factor 2: edges [0, 3, 4, 7, 9]
factor 3: edges []
audit deviation<2: bound 2, measured 1.3333333333333333, pass True
audit parity: bound 0, measured 0, pass True
""",
    ("factor", "--k", "2", "--mode", "regular"): """\
k = 2
factor 1: edges [1, 2, 5, 6, 8]
factor 2: edges [0, 3, 4, 7, 9]
audit regular: bound 0, measured 0, pass True
""",
    ("even-factor", "--k", "2"): """\
factor 1: edges [1, 2, 5, 6, 8]
factor 2: edges [0, 3, 4, 7, 9]
audit even: bound 0, measured 0, pass True
audit deviation<2: bound 2, measured 0.0, pass True
""",
    ("even-factor", "--epsilons", "0.5,0.5"): """\
factor 1: edges [0, 3, 4, 7, 9]
factor 2: edges [1, 2, 5, 6, 8]
audit even: bound 0, measured 0, pass True
audit deviation<6: bound 6, measured 0.0, pass True
""",
    ("even-factor", "--epsilon", "0.5"): """\
factor edges: [0, 3, 4, 7, 9]
audit even: bound 0, measured 0, pass True
audit eps-window: bound 2, measured 0.0, pass True
""",
    ("parity-factor", "--f", "0,1", "--epsilon", "0.5"): """\
factor edges: [0, 2, 3, 4, 5, 8]
audit parity: bound 0, measured 0, pass True
audit eps-window: bound 2, measured 1.0, pass True
""",
}


@pytest.mark.parametrize("argv", list(K5_TEXT))
def test_text_format_golden_on_k5(tmp_path, capsys, argv):
    path = write_graph(tmp_path, complete_graph(5))
    assert main([argv[0], path, *argv[1:], "--format", "text"]) == 0
    out, err = capsys.readouterr()
    assert out == K5_TEXT[argv]
    if argv == ("factor", "--k", "3"):
        assert err == ("warning: hypothesis not met: graph is neither (6)-edge-connected "
                       "nor (4)-tree-connected (lambda = 4)\n")
    else:
        assert err == ""


MALFORMED_REPORTS = [
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {}, "extra": 1}, "unknown top-level key"),
    ({"k": 1}, "no factors"),
    ({"factors": [{"edges": [0, 1, 2]}]}, "no k"),
    ([{"edges": [0, 1, 2]}], "not an object"),
    ({"k": 0, "factors": [], "audit": {}}, "k < 1"),
    ({"k": -1, "factors": [], "audit": {}}, "negative k"),
    ({"k": 1.0, "factors": [{"edges": [0, 1, 2]}], "audit": {}}, "float k"),
    ({"k": True, "factors": [{"edges": [0, 1, 2]}], "audit": {}}, "boolean k"),
    ({"k": 1, "factors": {"edges": [0, 1, 2]}, "audit": {}}, "factors not a list"),
    ({"k": 1, "factors": [[0, 1, 2]], "audit": {}}, "factor not an object"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2], "size": 3}], "audit": {}}, "factor with an extra key"),
    ({"k": 1, "factors": [{"ids": [0, 1, 2]}], "audit": {}}, "factor without edges"),
    ({"k": 1, "factors": [{"edges": "0,1,2"}], "audit": {}}, "edges not a list"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": []}, "audit not an object"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {"size±1": {"bound": 1, "measured": 0}}},
     "audit entry without pass"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {"size±1": {"measured": 0, "pass": True}}},
     "audit entry without bound"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {"size±1": {"bound": 1, "pass": True}}},
     "audit entry without measured"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}],
      "audit": {"size±1": {"bound": 1, "measured": 0, "pass": True, "note": "x"}}}, "audit entry with an extra key"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {"size±1": {"bound": "1", "measured": 0, "pass": True}}},
     "string bound"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {"size±1": {"bound": 1, "measured": 0, "pass": 1}}},
     "integer pass"),
    ({"k": 1, "factors": [{"edges": [0, 1, 2]}], "audit": {"size±1": True}}, "audit entry not an object"),
]


@pytest.mark.parametrize("report, why", MALFORMED_REPORTS, ids=[why for _, why in MALFORMED_REPORTS])
def test_verify_rejects_reports_of_the_wrong_shape(tmp_path, capsys, report, why):
    path = write_graph(tmp_path, cycle_graph(3))
    report_path = tmp_path / "rep.json"
    report_path.write_text(json.dumps(report))
    assert main(["verify", path, str(report_path), "--claims", "size±1"]) == 2
    assert "error: " in capsys.readouterr().err
    with pytest.raises(InvalidInput):
        check_report(report)
    # verify accepts a report without its audit, and unlike jsonschema it
    # does not count 1.0 as an integer (as for edge ids)
    if "audit" in report and why != "float k":
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)


def test_check_report_accepts_what_the_schema_accepts():
    rng = random.Random(71)
    for _ in range(100):
        report = _random_report(rng)
        jsonschema.validate(report, REPORT_SCHEMA)
        check_report(report)
        check_report({"k": report["k"], "factors": report["factors"]})

import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conftest import audit_passes, cycle_graph, eulerian_union, random_multigraph
from eqfactor import cli, graphio, lab, orientation, parity, pipelines
from eqfactor.cli import build_parser, main
from eqfactor.graphio import (
    REPORT_SCHEMA,
    check_report,
    dump_report,
    factorization_report,
    parse_graph,
    serialize_graph,
)
from eqfactor.errors import Infeasible, InvalidInput
from eqfactor.maxflow import FlowNetwork
from eqfactor.multigraph import Factorization, Multigraph, complete_graph


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
    assert g.edges[1] == (1, 1)
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


def test_cli_spent_budget_names_the_unmet_hypothesis(tmp_path, capsys):
    """A plan search that runs out of budget proves nothing either: its
    Undecided names the hypothesis that K4 does not meet, as Infeasible's does."""
    k4 = write_graph(tmp_path, complete_graph(4))
    assert main(["factor", k4, "--k", "3", "--budget", "0"]) == 3
    assert capsys.readouterr() == ("", "undecided: mod-k plan search exceeded node budget 0; hypothesis not met: "
                                       "graph is neither (6)-edge-connected nor (4)-tree-connected (lambda = 3)\n")


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


# an exact --r-list split, the claim its audit makes, and its base split's
# warnings: none, as a successful split checks no hypothesis (K4,4 at k = 4
# is outside it, with d(X) = 4 < 10 at the Q-odd set {1})
R_LISTS = [
    (complete_graph(5), ["--k", "2", "--r-list", "2,2"], "deviation<1:0.5;0.5", ""),
    (K44, ["--k", "4", "--r-list", "1,3"], "deviation<1:0.25;0.75", ""),
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


def test_k3_fallback_is_exactly_the_three_factor_impossibility(tmp_path, capsys):
    """On 6-edge-connected multigraphs (three Hamiltonian cycles, plus up to
    three loops or edges), find_Z_set(g, 3) is None exactly when one vertex
    has degree != 0 (mod 3); there `factor --k 3` falls back to a special
    vertex with a passing deviation<2 audit, and three_factor_criterion
    proves no equitable 3-factorization exists. So the CLI's fallback is
    precisely the paper's exceptional case, and elsewhere both give a passing
    deviation<1 audit."""
    rng = random.Random(2113)
    seen = {"impossible": 0, "loops": 0}
    for _ in range(60):
        n = rng.randint(4, 12)
        edges = list(eulerian_union(rng, n, 3).edges)
        for _ in range(rng.randint(0, 3)):
            u = rng.randrange(n)
            edges.append((u, u) if rng.random() < 0.5 else (u, rng.randrange(n)))
        g = Multigraph(n, edges)
        impossible = sum(d % 3 != 0 for d in g.degrees) == 1
        seen["impossible"] += impossible
        seen["loops"] += any(u == v for u, v in g.edges)
        assert (pipelines.find_Z_set(g, 3) is None) == impossible
        assert main(["factor", write_graph(tmp_path, g), "--k", "3"]) == 0
        out, err = capsys.readouterr()
        audit = json.loads(out)["audit"]
        assert ("fell back to special vertex" in err) == impossible
        assert sorted(audit) == ["deviation<2" if impossible else "deviation<1", "size±1"]
        assert all(e["pass"] for e in audit.values())
        if impossible:
            with pytest.raises(Infeasible, match="exactly one vertex"):
                pipelines.three_factor_criterion(g)
        else:
            assert audit_passes(pipelines.three_factor_criterion(g)[1])
    assert seen["impossible"] >= 5 and 60 - seen["impossible"] >= 5 and seen["loops"] >= 10


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


FULL_PARSER = build_parser()


def comparable(namespace) -> dict:
    """The attributes of a parsed namespace, with NaN made equal to itself."""
    return {key: "NaN" if value != value else value for key, value in vars(namespace).items()}


def sample_values(spec) -> tuple:
    """Values for one argument: (valid ones, a negative number and values
    that fail its conversion or choices)."""
    if "choices" in spec:
        return list(spec["choices"]), ["up"]
    if spec.get("type") is int:
        return ["3", "0", "12"], ["-1", "x", "2.5"]
    if spec.get("type") is float:
        return ["0.5", "nan", "1e-1", "inf"], ["-0.5", "x"]
    return ["0,1", "g.txt", "", "a=b"], ["-1", "-"]


STRAYS = [["-h"], ["--help"], ["--"], ["-"], ["--jobs", "2"], ["--format", "text"], ["--bogus"], ["extra"]]


@st.composite
def command_lines(draw):
    """An argv of one subcommand: each positional, each required flag and
    some others, with valid values, except that up to two arguments may be
    left out, take a value that fails, or come in a form that argparse reads
    otherwise (`=`, a prefix, a repeat, no value); then up to two stray
    tokens, all in any order."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, shared, arguments = cli.COMMANDS[name]
    specs = [(f, cli.SHARED_FLAGS[f]) for f in shared] + [(flags[0], kw) for flags, kw in arguments]
    odd = draw(st.sets(st.sampled_from([flag for flag, _ in specs]), max_size=2))
    pieces = []
    for flag, spec in specs:
        valid, invalid = sample_values(spec)
        value, other = (draw(st.sampled_from(valid + invalid if flag in odd else valid)) for _ in range(2))
        positional = not flag.startswith("-")
        tokens = [value] if positional else [flag] if spec.get("action") == "store_true" else [flag, value]
        if flag not in odd:
            forms = [[tokens]] if positional or spec.get("required") else [[], [tokens]]
        elif positional:
            forms = [[tokens], []]
        else:
            forms = [[], [tokens], [[f"{flag}={value}"]], [[flag[:-1], *tokens[1:]]],
                     [tokens, [flag, other][:len(tokens)]], [[flag]]]
        pieces += draw(st.sampled_from(forms))
    pieces += draw(st.lists(st.sampled_from(STRAYS), max_size=2))
    return [name] + [token for piece in draw(st.permutations(pieces)) for token in piece]


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_parse_command_agrees_with_the_full_parser(argv):
    """Whenever the table parse returns a namespace, argparse parses the same
    argv without error to the same attributes."""
    args = cli.parse_command(argv)
    if args is not None:
        assert comparable(args) == comparable(FULL_PARSER.parse_args(argv))


def test_parse_command_reads_each_plain_argv():
    for name, argv in SUBCOMMAND_ARGVS.items():
        for extra in [[], *([flag, value] for flag, (value, readers) in SHARED_FLAGS.items() if name in readers)]:
            args = cli.parse_command(argv + extra)
            assert comparable(args) == comparable(FULL_PARSER.parse_args(argv + extra)), (name, extra)
    for argv in [[], ["-h"], ["factr"], ["factor", "g.txt", "--k=3"], ["factor", "g.txt", "--k", "3", "--k", "3"],
                 ["orient", "g.txt", "--Z"], ["orient", "g.txt", "--Z", "-h"], ["orient", "g.txt", "--", "--Z", "1"]]:
        assert cli.parse_command(argv) is None, argv


def test_every_argument_spec_is_one_parse_command_models():
    """A spec key that parse_command does not read, such as nargs or
    action="append", or a second option string, fails here instead of being
    misread."""
    specs = [((flag,), spec) for flag, spec in cli.SHARED_FLAGS.items()]
    specs += [argument for _, _, _, arguments in cli.COMMANDS.values() for argument in arguments]
    for flags, spec in specs:
        assert len(flags) == 1 and set(spec) <= {"type", "choices", "default", "required", "dest", "action", "help"}
        assert spec.get("action", "store_true") == "store_true" and spec.get("type", int) in (int, float), flags


def test_main_prints_what_the_full_parser_prints(tmp_path, capsys, monkeypatch):
    """Every argv gives the same stdout, stderr and exit code whether the
    table parse reads it or argparse does; the forms the table parse leaves
    to argparse included."""
    k5 = write_graph(tmp_path, complete_graph(5))
    runs = [["analyze", k5], ["even-factor", k5, "--k", "2", "--format", "text"],
            ["-h"], ["--help"], *([name, "-h"] for name in cli.COMMANDS),
            ["factor", k5, "--k=3"], ["parity-factor", k5, "--f", "0,1", "--eps", "0.5"],
            ["factor", k5, "--k", "2", "--k", "3"], ["analyze", "--", k5]]
    errors = [
        [], ["frobnicate"], ["factr"], ["--bogus"], ["factor", k5, "--k", "x"],
        ["factor", k5, "--k", "3", "--bogus"], ["analyze", k5, "extra"],
        ["parity-factor", k5, "--f", "0,1", "--epsilon", "0.5", "--side", "up"],
        ["analyze", k5, "--budget", "5"], ["gen", "--family", "regular", "--jobs", "2"],
        *([name] for name in cli.COMMANDS),
        ["parity-factor", k5, "--f", "0,1", "--epsilon", "0.5", "--z", "-1"], ["analyze", "-"],
    ]
    for argv, code in [(argv, 0) for argv in runs] + [(argv, 2) for argv in errors]:
        table = (main(argv), *capsys.readouterr())
        monkeypatch.setattr(cli, "parse_command", lambda argv: None)
        assert table == (main(argv), *capsys.readouterr()), argv
        monkeypatch.undo()
        assert table[0] == code, argv


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


@pytest.mark.parametrize("flags, message", [
    (["--n", "4", "--d", "-2"], "d >= 0"),
    (["--n", "0", "--d", "2"], "n >= 1"),
    (["--n", "-3", "--d", "-1"], "n >= 1"),
    (["--n", "5", "--d", "3"], "n*d even"),
])
def test_gen_regular_names_the_parameter_at_fault(capsys, flags, message):
    """A negative degree and an empty graph used to be told that n*d must be
    even, which held."""
    assert main(["gen", "--family", "regular", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: regular family needs {message}\n")


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


def test_oracle_rejects_an_odd_parity_map_as_parity_factor_does(tmp_path, capsys):
    """An f with an odd sum is an invalid request (exit 2) for both commands;
    the oracle used to answer false (exit 1)."""
    k5 = write_graph(tmp_path, complete_graph(5))
    for argv in (["oracle", k5, "--question", "parity_gf"], ["parity-factor", k5]):
        assert main([*argv, "--f", "0", "--epsilon", "0.5"]) == 2
        assert capsys.readouterr() == ("", "error: sum of f over V must be even\n")


def test_cli_parity_budget_of_n_admits_the_first_plan(tmp_path, capsys):
    """Even-k parity with k >= 3 tries the first plan, uncharged, with a
    budget of at least n, and it is realized here; below n the plan search
    takes over and runs out before its first leaf, which costs n nodes.
    k = 2 spends no budget at all."""
    g = eulerian_union(random.Random(7), 50, 3)
    path = write_graph(tmp_path, g)
    argv = ["factor", path, "--mode", "parity", "--f", "0,1", "--budget"]
    assert main(argv + [str(g.n - 1), "--k", "4"]) == 3
    assert capsys.readouterr().err.startswith("undecided:")
    assert main(argv + [str(g.n), "--k", "4"]) == 0
    capsys.readouterr()
    assert main(argv + ["0", "--k", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(entry["pass"] for entry in report["audit"].values())


def test_cli_factor_k2_on_three_cycles_builds_no_network(tmp_path, capsys, monkeypatch):
    """`factor --k 2` on a 200-vertex union of three Hamiltonian cycles (inside
    the hypothesis) succeeds, in every mode that orients, and its orientation
    builds no flow network: it is one T-join pass. The plan search alone ran
    past 100 s at n = 60."""
    g = eulerian_union(random.Random(97), 200, 3)
    path = write_graph(tmp_path, g)
    built = []
    monkeypatch.setattr(orientation, "FlowNetwork", lambda *args: built.append(args[0]) or FlowNetwork(*args))
    for mode in (["--mode", "equitable"], ["--mode", "regular"], ["--mode", "parity", "--f", "3,5"]):
        assert main(["factor", path, "--k", "2", "--budget", "0", *mode]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(entry["pass"] for entry in report["audit"].values())
    assert built == []


def test_cli_rejects_a_negative_budget(tmp_path, capsys):
    """A budget below 0 is invalid input (exit 2) for every command and mode
    that takes one: k = 3 used to report it as spent (exit 3), and k = 2,
    the Eulerian orientation and anstee, which spend none, exit 0."""
    k5 = write_graph(tmp_path, complete_graph(5))
    for argv in (["factor", k5, "--k", "3", "--budget", "-7"], ["orient", k5, "--k", "2", "--budget", "-1"],
                 ["orient", k5, "--k", "3", "--budget", "-1"], ["orient", k5, "--budget", "-1"],
                 ["factor", k5, "--k", "2", "--mode", "anstee", "--budget", "-1"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: budget must be >= 0\n")


def test_cli_orient_k2_on_parity_inconsistent_components_is_infeasible(tmp_path, capsys):
    """Two disjoint triangles: |E| = 6 is even, but each triangle has an odd
    edge count, so no orientation has every out-degree even. That is a
    proof (exit 1) at any budget; with budget 0 the plan search used to give
    up (exit 3)."""
    g = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    path = write_graph(tmp_path, g)
    for budget in ("0", "1000000"):
        assert main(["orient", path, "--k", "2", "--budget", budget]) == 1
        assert capsys.readouterr() == ("", "infeasible: the residues on the component of vertex 0 "
                                           "sum to 0 (mod 2), but it has 3 edges\n")


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


def _parse_outcome(parse, text):
    """The graph that parse makes of text, or the text of its InvalidInput."""
    try:
        return parse(text)
    except InvalidInput as exc:
        return str(exc)


def _fuzzed_graph_texts(rng, count):
    """Serialized random multigraphs, half of them left canonical and half
    mutated by a few edits drawn from the format's characters and its near
    misses (carriage returns, signs, underscores, a non-ASCII digit)."""
    alphabet = "ne 0123456789\n\r\t#-+_x.\u0663"
    for _ in range(count):
        chars = list(serialize_graph(random_multigraph(rng, min_n=1, max_n=12, min_m=0, max_m=15)))
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars))
                edit = rng.randrange(3)
                if edit == 0:
                    chars.insert(i, rng.choice(alphabet))
                elif edit == 1:
                    del chars[i]
                else:
                    chars[i] = rng.choice(alphabet)
        yield "".join(chars)


def test_bulk_parse_matches_the_line_loop():
    """parse_graph reads canonical text in bulk; on seeded fuzzed texts, and
    on near misses of the canonical form, it gives the same graph or the
    same error text as the line loop, which reads every text line by line."""
    near_misses = ["n 3\ne 0 1", "n 3\ne 01 2\n", "n 03\ne 0 1\n", "n 3\ne 0 3\n", "n 3\r\ne 0 1\r\n",
                   "n 3\ne 0 1\n\n", "n 3\ne 0  1\n", "n 3\ne +1 2\n", "n 3\ne 1_0 2\n", "n 1_0\ne 0 9\n",
                   "n \u0663\ne 0 1\n", "n 3\ne 2 \u0661\n", "n 0\n", "n 2\n", "n 2\ne 1 1\n",
                   "n " + "1" * 5000 + "\n", "n 3\ne 0 " + "1" * 5000 + "\n"]
    texts = near_misses + list(_fuzzed_graph_texts(random.Random(71), 3000))
    kinds = {"bulk": 0, "bulk, then the loop": 0, "loop": 0}
    for text in texts:
        outcome = _parse_outcome(parse_graph, text)
        assert outcome == _parse_outcome(graphio._parse_lines, text), text
        if re.fullmatch(graphio.CANONICAL, text) is None:
            kinds["loop"] += 1
        else:
            kinds["bulk" if isinstance(outcome, Multigraph) else "bulk, then the loop"] += 1
    assert min(kinds.values()) >= 30, kinds


def test_canonical_text_parses_in_bulk_within_8_mb(monkeypatch):
    """A 10^4-vertex canonical text (three Hamiltonian cycles, as the
    benchmark's) is read without the line loop, and the match keeps no
    backtracking stack: the parse peaks below 8 MB, where a greedy repeat
    alone would hold about 13 MB."""
    g = eulerian_union(random.Random(11), 10_000, 3)
    text = serialize_graph(g)
    parse_graph("n 0\n")  # the pattern is compiled on first use

    def line_loop(text):
        raise AssertionError("canonical text went through the line loop")

    monkeypatch.setattr(graphio, "_parse_lines", line_loop)
    tracemalloc.start()
    try:
        parsed = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == g
    assert peak < 8 * 10**6


def test_eps_claims_are_written_from_the_ratio_each_solver_bounds_by(tmp_path, capsys, monkeypatch):
    """Both eps solvers read eps as the decimal it prints as, and each
    command writes its eps-window claim from that ratio: 0.07 is 7/100 and
    0.29 is 29/100, so 200 parallel edges give an even factor of exactly 58,
    and the factor meets the claim."""
    claims = []
    one_factor = cli._one_factor
    monkeypatch.setattr(cli, "_one_factor", lambda g, ids, c: claims.append(c[-1]) or one_factor(g, ids, c))
    hundred = write_graph(tmp_path, Multigraph(2, [(0, 1)] * 100))
    assert main(["parity-factor", hundred, "--f", "0,1", "--epsilon", "0.07"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [len(f["edges"]) for f in report["factors"]] == [7, 93]
    assert all(entry["pass"] for entry in report["audit"].values())
    assert main(["even-factor", write_graph(tmp_path, Multigraph(2, [(0, 1)] * 200), "m.txt"),
                 "--epsilon", "0.29"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [len(f["edges"]) for f in report["factors"]] == [58, 142]
    assert report["audit"]["eps-window"] == {"bound": 2, "measured": 0.0, "pass": True}
    assert all(entry["pass"] for entry in report["audit"].values())
    assert claims == ["eps-window:7/100", "eps-window:29/100"]


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
factor 1: edges [0, 1, 6, 7, 9]
factor 2: edges [2, 3, 4, 5, 8]
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
factor 1: edges [0, 1, 6, 7, 9]
factor 2: edges [2, 3, 4, 5, 8]
audit regular: bound 0, measured 0, pass True
""",
    ("even-factor", "--k", "2"): """\
factor 1: edges [0, 3, 4, 7, 9]
factor 2: edges [1, 2, 5, 6, 8]
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
factor edges: [1, 2, 3, 4, 5, 6]
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
    # K5 is outside the k = 3 hypothesis (lambda = 4 < 6), but a success checks none
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

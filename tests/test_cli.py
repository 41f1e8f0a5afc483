import json
import os
import random
import subprocess
import sys

import jsonschema
import pytest

from conftest import eulerian_union, random_multigraph
from eqfactor import pipelines
from eqfactor.cli import main
from eqfactor.graphio import (
    REPORT_SCHEMA,
    dump_report,
    factorization_report,
    parse_graph,
    serialize_graph,
)
from eqfactor.errors import InvalidInput
from eqfactor.multigraph import Factorization, complete_graph, cycle_graph


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
    capsys.readouterr()


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
    code = (
        "import sys, eqfactor.cli; "
        f"rc = eqfactor.cli.main(['parity-factor', {k4!r}, '--f', '0,1,2,3', '--epsilon', '0.5']); "
        "print(rc, 'networkx' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"


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

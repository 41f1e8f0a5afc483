"""Command line surface: parse graphs, run pipelines and oracles, emit reports.

Exit codes: 0 success, 1 proven infeasible (or oracle answer false), 2
invalid input, 3 undecided (a budget ran out, or a sufficient construction
did not apply), 4 internal error (any other exception, so that a crash never
reads as "infeasible").

Importing this module loads only errors, graphio and multigraph of the
package. Each cmd_* imports the modules it runs when it is dispatched, so
one call loads what its subcommand needs and nothing more.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DEFAULT_BUDGET, Infeasible, InvalidInput, Undecided
from .graphio import check_report, dump_report, factorization_report, parse_graph, serialize_graph
from .multigraph import Factorization, Multigraph


def _csv_ints(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InvalidInput(f"expected comma-separated integers, got {text!r}") from None


def _csv_floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InvalidInput(f"expected comma-separated reals, got {text!r}") from None


def _read_graph(path: str) -> Multigraph:
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None


def _parity_map(g: Multigraph, odd_vertices) -> tuple:
    f = [0] * g.n
    for v in odd_vertices:
        if not 0 <= v < g.n:
            raise InvalidInput(f"vertex {v} out of range")
        f[v] = 1
    return tuple(f)


def _zset(args):
    return frozenset(_csv_ints(args.Z)) if args.Z is not None else None


def _residue_map(g: Multigraph, args) -> tuple:
    from .orientation import residue_map

    return residue_map(g, z=args.z, Z=_zset(args))


def _emit(args, fz: Factorization, audit, text_lines):
    """Print the report of fz and its audit entries: JSON, or the lines that
    text_lines() returns followed by one line per audit entry."""
    if args.format == "json":
        sys.stdout.write(dump_report(factorization_report(fz, audit)))
    else:
        lines = text_lines() + [f"audit {c}: bound {b}, measured {m}, pass {p}" for c, b, m, p in audit]
        sys.stdout.write("\n".join(lines) + "\n")


def _factor_lines(fz: Factorization) -> list:
    return [f"factor {i}: edges {fz.factor_edges(i)}" for i in range(1, fz.k + 1)]


def _one_factor(g: Multigraph, edge_ids, claims) -> tuple:
    """A single factor F as the 2-part factorization (F, complement), and the
    audit entries of claims measured on F alone; the complement's degrees
    follow from F's."""
    from . import lab

    chosen = set(edge_ids)
    fz = Factorization(g, 2, [1 if eid in chosen else 2 for eid in range(g.m)])
    return fz, lab.measure(g, fz.all_factor_degrees()[:1], claims)


def cmd_analyze(args):
    from . import connectivity

    g = _read_graph(args.graph)
    lam, odd, tree_conn = connectivity.analyze(g)
    lam = "inf" if lam == float("inf") else lam
    odd = "inf" if odd == float("inf") else odd
    if args.format == "json":
        sys.stdout.write(json.dumps(
            {"n": g.n, "m": g.m, "lambda": lam, "odd_lambda": odd, "tree_connectivity": tree_conn},
            indent=2, sort_keys=True) + "\n")
    else:
        print(f"n = {g.n}, m = {g.m}")
        print(f"lambda = {lam}")
        print(f"odd lambda = {odd}")
        print(f"tree connectivity = {tree_conn}")
    return 0


def cmd_orient(args):
    from .orientation import eulerian_orientation, mod_k_orientation

    g = _read_graph(args.graph)
    if args.k is None:
        if args.z is not None or args.Z is not None:
            raise InvalidInput("--z and --Z need --k")
        d = eulerian_orientation(g)
    else:
        d = mod_k_orientation(g, args.k, _residue_map(g, args), budget=args.budget)
    if args.format == "json":
        sys.stdout.write(json.dumps({"tails": list(d.tails)}, sort_keys=True) + "\n")
    else:
        for eid in range(g.m):
            print(f"{eid} {d.tails[eid]} {d.head(eid)}")
    return 0


def _reject_unread(args, option, readers):
    """Reject the first flag given that the chosen value of option, --mode or
    --question, does not read: readers maps a flag's dest to its readers."""
    choice = getattr(args, option[2:])
    for dest, chosen_by in readers.items():
        given = getattr(args, dest)  # --bounded is False when absent; --z 0 is given
        if given is not None and given is not False and choice not in chosen_by:
            raise InvalidInput(f"--{dest.replace('_', '-')} does not apply to {option} {choice}")


# flag dest -> the --mode or --question values that read the flag
FACTOR_READERS = {"z": ("equitable",), "Z": ("equitable",), "f": ("parity",),
                  "r_list": ("regular",), "bounded": ("regular",)}
ORACLE_READERS = {"k": ("equitable", "orientation"), "z": ("orientation",), "Z": ("orientation",),
                  "f": ("parity_gf",), "epsilon": ("parity_gf",)}


def cmd_factor(args):
    from . import lab, pipelines
    from .coloring import anstee_decomposition

    _reject_unread(args, "--mode", FACTOR_READERS)
    if args.bounded and args.r_list is None:
        raise InvalidInput("--bounded needs --r-list")
    g = _read_graph(args.graph)
    if args.mode == "equitable":
        fz, audit, warnings = pipelines.equitable_factorize(g, args.k, z=args.z, Z=_zset(args), budget=args.budget)
    elif args.mode == "parity":
        f = _parity_map(g, _csv_ints(args.f)) if args.f is not None else None
        fz, audit, warnings = pipelines.parity_factorize(g, args.k, f=f, budget=args.budget)
    elif args.mode == "anstee":
        fz = anstee_decomposition(g, args.k)
        audit, warnings = lab.verify(g, fz, ["deviation<2", "size±1"]), []
    elif args.r_list is None:
        fz, audit, warnings = pipelines.regular_factorize(g, args.k, budget=args.budget)
    else:
        fz, audit, warnings = pipelines.regular_split(
            g, _csv_ints(args.r_list), args.k, bounded_mode=args.bounded, budget=args.budget)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(args, fz, audit, lambda: [f"k = {fz.k}", *_factor_lines(fz)])
    return 0


def cmd_parity_factor(args):
    from . import lab, parity

    g = _read_graph(args.graph)
    if args.f is None or args.epsilon is None:
        raise InvalidInput("parity-factor requires --f and --epsilon")
    f = _parity_map(g, _csv_ints(args.f))
    side = None
    if args.z is not None:
        side = (args.z, "at_least" if args.side == "at-least" else "at_most")
    edge_ids = parity.epsilon_parity_factor(g, f, args.epsilon, z=side)
    fz, audit = _one_factor(g, edge_ids, [lab.parity_claim(f), f"eps-window:{args.epsilon!r}"])
    _emit(args, fz, audit, lambda: [f"factor edges: {sorted(edge_ids)}"])
    return 0


def cmd_even_factor(args):
    from . import lab, parity

    g = _read_graph(args.graph)
    given = sum(x is not None for x in (args.epsilon, args.epsilons, args.k))
    if given != 1:
        raise InvalidInput("even-factor takes exactly one of --epsilon, --epsilons, --k")
    if args.epsilon is not None:
        edge_ids = parity.even_factor_eps(g, args.epsilon)
        fz, audit = _one_factor(g, edge_ids, ["even", f"eps-window:{args.epsilon!r}"])
        _emit(args, fz, audit, lambda: [f"factor edges: {sorted(edge_ids)}"])
        return 0
    if args.k is not None:
        fz = parity.hilton_even_factorization(g, args.k)
        claims = ["even", "deviation<2"]
    else:
        eps_list = _csv_floats(args.epsilons)
        fz = parity.weighted_even_factorization(g, eps_list)
        claims = ["even", "deviation<6:" + ";".join(repr(e) for e in eps_list)]
    audit = lab.verify(g, fz, claims)
    _emit(args, fz, audit, lambda: _factor_lines(fz))
    return 0


def cmd_verify(args):
    from . import lab

    g = _read_graph(args.graph)
    try:
        with open(args.report) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read report {args.report}: {exc}") from None
    check_report(data)
    k, factors = data["k"], data["factors"]
    if len(factors) != k:
        raise InvalidInput(f"report has {len(factors)} factors but k = {k!r}")
    assignment = [0] * g.m
    for i, fac in enumerate(factors, start=1):
        for eid in fac["edges"]:
            # bool is an int subclass, and a negative id would index
            # from the end of the edge list
            if type(eid) is not int or not 0 <= eid < g.m:
                raise InvalidInput(f"edge id {eid!r} is not an integer in 0..{g.m - 1}")
            if assignment[eid] != 0:
                raise InvalidInput(f"edge {eid} appears in two factors")
            assignment[eid] = i
    if any(a == 0 for a in assignment):
        raise InvalidInput("factors do not cover every edge")
    fz = Factorization(g, k, assignment)
    claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    entries = lab.verify(g, fz, claims)
    for claim, bound, measured, passed in entries:
        print(f"{claim}: bound {bound}, measured {measured}, {'pass' if passed else 'FAIL'}")
    return 0 if all(passed for *_, passed in entries) else 1


def cmd_gen(args):
    from . import lab

    params = {}
    for key in ("n", "k", "r", "d", "c", "t"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if args.base is not None:
        params["base"] = _read_graph(args.base)
    g = lab.generate(args.family, params, seed=args.seed)
    sys.stdout.write(serialize_graph(g))
    return 0


def cmd_oracle(args):
    from . import lab

    _reject_unread(args, "--question", ORACLE_READERS)
    g = _read_graph(args.graph)
    if args.question == "equitable":
        if args.k is None:
            raise InvalidInput("oracle equitable requires --k")
        answer = lab.oracle_equitable(g, args.k, jobs=args.jobs)
    elif args.question == "orientation":
        if args.k is None:
            raise InvalidInput("oracle orientation requires --k")
        answer = lab.oracle_orientation(g, _residue_map(g, args), args.k, jobs=args.jobs)
    else:
        if args.f is None or args.epsilon is None:
            raise InvalidInput("oracle parity_gf requires --f and --epsilon")
        from . import parity

        f = _parity_map(g, _csv_ints(args.f))
        g0, f0 = parity.epsilon_windows(g, f, args.epsilon)
        answer = lab.oracle_parity_gf(g, parity.ParitySpec(f=f, g0=g0, f0=f0), jobs=args.jobs)
    print("true" if answer else "false")
    return 0 if answer else 1


# the shared flags; each subcommand in COMMANDS takes only those it reads
SHARED_FLAGS = {
    "--format": dict(choices=("json", "text"), default="json"),
    "--seed": dict(type=int, default=0),
    "--budget": dict(type=int, default=DEFAULT_BUDGET,
                     help="plan-search nodes, one per candidate out-degree tried, before exit 3 (undecided); "
                          "with a budget of at least n, a mod-k orientation first tries one least-imbalance "
                          "plan, and a failed first plan is not charged"),
    "--jobs": dict(type=int, default=1),
}


def _arg(*flags, **kwargs) -> tuple:
    """The arguments of one add_argument call."""
    return flags, kwargs


GRAPH = _arg("graph", help="graph file (text format)")

# name -> (help, function, shared flags, further arguments), in help order
COMMANDS = {
    "analyze": ("edge/odd/tree connectivity report", cmd_analyze, ("--format",), (GRAPH,)),
    "orient": ("Eulerian or mod-k residue orientation", cmd_orient, ("--format", "--budget"), (
        GRAPH,
        _arg("--k", type=int),
        _arg("--z", type=int),
        _arg("--Z"),
    )),
    "factor": ("factorization pipelines", cmd_factor, ("--format", "--budget"), (
        GRAPH,
        _arg("--k", type=int, required=True),
        _arg("--mode", choices=("equitable", "parity", "regular", "anstee"), default="equitable"),
        _arg("--z", type=int),
        _arg("--Z"),
        _arg("--f", help="comma-separated odd-parity vertices (even-k parity mode)"),
        _arg("--r-list", dest="r_list"),
        _arg("--bounded", action="store_true", help="complete to a regular supergraph first"),
    )),
    "parity-factor": ("epsilon-parity factor search", cmd_parity_factor, ("--format",), (
        GRAPH,
        _arg("--f", required=True, help="comma-separated odd-parity vertices"),
        _arg("--epsilon", type=float, required=True),
        _arg("--z", type=int, help="vertex with a one-sided degree constraint"),
        _arg("--side", choices=("at-least", "at-most"), default="at-least"),
    )),
    "even-factor": ("even factor or even factorization", cmd_even_factor, ("--format",), (
        GRAPH,
        _arg("--epsilon", type=float),
        _arg("--epsilons", help="comma-separated weights summing to 1"),
        _arg("--k", type=int),
    )),
    "verify": ("audit a JSON report against its graph", cmd_verify, (), (
        GRAPH,
        _arg("report", help="JSON factorization report"),
        _arg("--claims", default="deviation<1,size±1"),
    )),
    "gen": ("seed-deterministic graph families", cmd_gen, ("--seed",), (
        _arg("--family", required=True),
        _arg("--n", type=int),
        _arg("--k", type=int),
        _arg("--r", type=int),
        _arg("--d", type=int),
        _arg("--c", type=int),
        _arg("--t", type=int),
        _arg("--base", help="base graph file for the multiplied family"),
    )),
    "oracle": ("exhaustive ground-truth questions", cmd_oracle, ("--jobs",), (
        GRAPH,
        _arg("--question", required=True, choices=("equitable", "orientation", "parity_gf")),
        _arg("--k", type=int),
        _arg("--z", type=int),
        _arg("--Z"),
        _arg("--f"),
        _arg("--epsilon", type=float),
    )),
}


def build_parser(*names) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of the named COMMANDS, or of
    all of them when none is named."""
    parser = argparse.ArgumentParser(
        prog="eqfactor",
        description="Equitable and parity edge-factorizations of multigraphs.",
    )
    # with some subparsers left out, the usage line still names them all; the
    # full parser sets no metavar, as its errors name the argument
    # 'subcommand' only then
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if names else None)
    for name in names or COMMANDS:
        text, func, shared, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flag in shared:
            p.add_argument(flag, **SHARED_FLAGS[flag])
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        # read through the module, so that a wrapper put on cmd_* after
        # import, such as a tracer's, is the function that runs
        p.set_defaults(func=globals()[func.__name__])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # building all eight subparsers costs more than a small solve, so a call
    # that names its subcommand builds that one alone; any other argv gets
    # every subparser, for the top-level help and the invalid-choice error
    parser = build_parser(*argv[:1]) if argv and argv[0] in COMMANDS else build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except Undecided as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not an answer: keep it apart from exit 1
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

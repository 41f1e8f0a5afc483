"""Independent checker for eqfactor CLI output.

It imports nothing from eqfactor: degrees are recomputed from the raw graph
file, and each report is judged against the window its command promises.
"""

from __future__ import annotations

import json


class CheckError(Exception):
    """The program's output does not meet its command's promise."""


class ClaimFailed(CheckError):
    """The output misses its promise, and its own audit says so."""


def parse_graph_text(text: str) -> tuple:
    """(n, edges) from the graph text format; comments and blank lines skipped."""
    n = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    if n is None:
        raise CheckError("graph file has no vertex count")
    return n, edges


def _degrees(n: int, edges, edge_ids=None) -> list:
    deg = [0] * n
    for eid in range(len(edges)) if edge_ids is None else edge_ids:
        u, v = edges[eid]
        deg[u] += 1
        deg[v] += 1
    return deg


def analyze_reference(graph_text: str) -> dict:
    """Expected `analyze` JSON for a 6-regular union of Hamiltonian cycles.

    lambda comes from networkx max-flow (not Stoer-Wagner); odd lambda is inf
    since every degree is even; tree connectivity is pinned by the
    Nash-Williams sandwich lambda // 2 <= tau <= m // (n - 1).
    """
    import networkx as nx

    n, edges = parse_graph_text(graph_text)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    for u, v in edges:
        if u == v:
            continue
        if h.has_edge(u, v):
            h[u][v]["capacity"] += 1
        else:
            h.add_edge(u, v, capacity=1)
    lam = min(nx.maximum_flow_value(h, 0, t) for t in range(1, n))
    lower, upper = lam // 2, len(edges) // (n - 1)
    if lower != upper:
        raise ValueError(f"tree connectivity not pinned: {lower} <= tau <= {upper}")
    if any(d % 2 for d in _degrees(n, edges)):
        raise ValueError("reference assumes every degree is even")
    return {"n": n, "m": len(edges), "lambda": lam, "odd_lambda": "inf", "tree_connectivity": lower}


def _factor_degrees(n: int, edges, report, k: int) -> list:
    """Per-factor degree lists, after checking the factors partition 0..m-1."""
    if not isinstance(report, dict) or not isinstance(report.get("factors"), list):
        raise CheckError("report has no factor list")
    factors = report["factors"]
    if report.get("k") != k or len(factors) != k:
        raise CheckError(f"expected k = {k} factors, got k = {report.get('k')!r} with {len(factors)}")
    m = len(edges)
    seen = [False] * m
    for fac in factors:
        ids = fac.get("edges") if isinstance(fac, dict) else None
        if not isinstance(ids, list):
            raise CheckError("factor without an edge list")
        for eid in ids:
            if type(eid) is not int or not 0 <= eid < m:
                raise CheckError(f"edge id {eid!r} outside [0, {m})")
            if seen[eid]:
                raise CheckError(f"edge {eid} in two factors")
            seen[eid] = True
    if not all(seen):
        raise CheckError(f"edge {seen.index(False)} is in no factor")
    return [_degrees(n, edges, fac["edges"]) for fac in factors]


def _require(ok: bool, what: str):
    if not ok:
        raise CheckError(what)


def check(kind: str, params: dict, graph_text: str, stdout: str, reference=None):
    """Raise CheckError unless stdout is a correct answer for this request.

    The subclass ClaimFailed means the report's own audit marks a claim as
    failed: a failure the program admits, not a silently wrong answer.
    """
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    try:
        _check(kind, params, graph_text, report, reference)
    except CheckError as exc:
        audit = report.get("audit") if isinstance(report, dict) else None
        failed = [c for c, e in audit.items() if isinstance(e, dict) and e.get("pass") is False] \
            if isinstance(audit, dict) else []
        if failed:
            raise ClaimFailed(f"{exc}; the report's audit fails {', '.join(failed)}") from None
        raise


def _check(kind: str, params: dict, graph_text: str, report, reference):
    n, edges = parse_graph_text(graph_text)
    d = _degrees(n, edges)
    if kind == "analyze":
        _require(report == reference, f"analyze gave {report}, expected {reference}")
        return
    if kind in ("parity_factor", "even_eps"):  # one factor plus its complement
        eps, odd = params["epsilon"], set(params.get("odd", ()))
        (deg, _) = _factor_degrees(n, edges, report, 2)
        for v in range(n):
            _require(deg[v] % 2 == (v in odd), f"factor degree parity wrong at {v}")
            _require(abs(deg[v] - eps * d[v]) < 2, f"eps-window violated at {v}")
        if "z" in params:
            z, target = params["z"], eps * d[params["z"]]
            steered = deg[z] >= target if params["side"] == "at-least" else deg[z] <= target
            _require(steered, f"d_F({z}) = {deg[z]} on the wrong side of {target}")
        return
    k = params["k"]
    degs = _factor_degrees(n, edges, report, k)
    odd = set(params.get("odd") or ())
    for i, deg in enumerate(degs):
        for v in range(n):
            if kind == "equitable":
                ok = abs(deg[v] - d[v] / k) < 1
            elif kind == "parity":
                target = (v in odd) if odd else d[v] % 2
                ok = abs(deg[v] - d[v] / k) < 2 and deg[v] % 2 == target
            elif kind == "regular":
                ok = deg[v] * k == d[v]
            elif kind == "even":
                ok = deg[v] % 2 == 0 and abs(deg[v] - d[v] / k) < 2
            elif kind == "weighted":
                ok = deg[v] % 2 == 0 and abs(deg[v] - params["epsilons"][i] * d[v]) < 6
            else:
                raise ValueError(f"unknown check kind {kind!r}")
            _require(ok, f"{kind} window violated: factor {i + 1}, vertex {v}, degree {deg[v]} of {d[v]}")
    if kind == "equitable":
        for i, fac in enumerate(report["factors"]):
            size = len(fac["edges"])
            _require(abs(size - len(edges) / k) < 1, f"factor {i + 1} has {size} edges")


"""Graph text format and JSON report schema.

Text format, one directive per line:

    # comment (ignored, as are blank lines)
    n <vertex count>          (exactly once, before any edge)
    e <u> <v>                 (one edge; u == v is a loop; repeat for
                               parallel edges; edge ids follow file order)
"""

from __future__ import annotations

import json
import re

from .errors import InvalidInput
from .multigraph import Factorization, Multigraph

REPORT_SCHEMA = {
    "type": "object",
    "required": ["k", "factors", "audit"],
    "additionalProperties": False,
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "factors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["edges"],
                "additionalProperties": False,
                "properties": {
                    "edges": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 0},
                    }
                },
            },
        },
        "audit": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["bound", "measured", "pass"],
                "additionalProperties": False,
                "properties": {
                    "bound": {"type": "number"},
                    "measured": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}


# canonical text, as serialize_graph and ``eqfactor gen`` write it; the
# possessive repeat keeps no backtracking stack
CANONICAL = r"n (0|[1-9][0-9]*)\n((?:e (?:0|[1-9][0-9]*) (?:0|[1-9][0-9]*)\n)*+)"


def parse_graph(text: str) -> Multigraph:
    """Parse the text format; errors carry 1-based line numbers. Canonical
    text is read in bulk, its endpoints by one json.loads of a flat list;
    any other text, or an endpoint out of range, goes through the line loop.
    """
    match = re.fullmatch(CANONICAL, text)  # compiled on first use, then cached by re
    if match:
        try:
            n = int(match[1])
            flat = json.loads("[" + match[2][2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
        except ValueError:  # beyond int()'s digit limit: the loop reports it
            return _parse_lines(text)
        if max(flat, default=-1) < n:
            ends = iter(flat)
            return Multigraph(n, zip(ends, ends))
    return _parse_lines(text)


def _parse_lines(text: str) -> Multigraph:
    """The line-by-line parser: every form the format allows, and every error."""
    n = None
    edges = []
    add_edge = edges.append
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        # the common line first: a well-formed edge after the vertex count
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise InvalidInput(f"line {lineno}: edge endpoints are not integers") from None
            if u < 0 or v < 0 or u >= n or v >= n:
                raise InvalidInput(f"line {lineno}: endpoint outside [0, {n})")
            add_edge((u, v))
        elif not parts or parts[0].startswith("#"):
            continue
        elif parts[0] == "n":
            if n is not None:
                raise InvalidInput(f"line {lineno}: duplicate vertex count")
            if len(parts) != 2:
                raise InvalidInput(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise InvalidInput(f"line {lineno}: vertex count is not an integer") from None
            if n < 0:
                raise InvalidInput(f"line {lineno}: vertex count must be >= 0")
        elif parts[0] == "e":
            if n is None:
                raise InvalidInput(f"line {lineno}: edge before vertex count")
            raise InvalidInput(f"line {lineno}: expected 'e <u> <v>'")
        else:
            raise InvalidInput(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise InvalidInput("missing vertex count line 'n <count>'")
    return Multigraph(n, edges)


def serialize_graph(g: Multigraph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def factorization_report(fz: Factorization, audit=None) -> dict:
    """Build the report object matching REPORT_SCHEMA."""
    return {
        "k": fz.k,
        "factors": [{"edges": edges} for edges in fz.all_factor_edges()],
        "audit": {
            claim: {"bound": float(bound), "measured": float(measured), "pass": bool(ok)}
            for claim, bound, measured, ok in (audit or [])
        },
    }


def check_report(data) -> None:
    """Raise InvalidInput unless data has REPORT_SCHEMA's shape: the keys k,
    factors and audit and no others, with k an integer >= 1, every factor
    exactly {"edges": [...]}, and every audit entry exactly {bound, measured,
    pass} holding two numbers and a boolean. The audit alone may be missing,
    as ``verify`` measures every claim again. Edge ids are checked against
    the graph by the caller."""

    def fail(what):
        raise InvalidInput(f"malformed report: {what}")

    if type(data) is not dict:
        fail("not a JSON object")
    if not {"k", "factors"} <= set(data) <= {"k", "factors", "audit"}:
        fail(f"keys {sorted(data)}, expected ['audit', 'factors', 'k']")
    if type(data["k"]) is not int or data["k"] < 1:
        fail(f"k = {data['k']!r} is not an integer >= 1")
    if type(data["factors"]) is not list:
        fail("factors is not a list")
    for i, fac in enumerate(data["factors"], start=1):
        if type(fac) is not dict or set(fac) != {"edges"} or type(fac["edges"]) is not list:
            fail(f"factor {i} is not {{\"edges\": [...]}}")
    audit = data.get("audit", {})
    if type(audit) is not dict:
        fail("audit is not an object")
    for claim, entry in audit.items():
        if (type(entry) is not dict or set(entry) != {"bound", "measured", "pass"}
                or type(entry["bound"]) not in (int, float)
                or type(entry["measured"]) not in (int, float)
                or type(entry["pass"]) is not bool):
            fail(f"audit entry {claim!r} is not {{bound, measured, pass}}")


def dump_report(report: dict) -> str:
    """The bytes of json.dumps(report, indent=2, sort_keys=True) + "\\n" for a
    report of REPORT_SCHEMA's shape.

    json.dumps runs its pure-Python encoder whenever it indents, so only the
    small audit goes through it; each factor's edge list, nearly all the
    bytes, is written by the C encoder and indented by hand.
    """
    parts = []
    for key in sorted(report):
        value = report[key]
        if key == "factors":
            text = _factors_json(value)
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        parts.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _factors_json(factors) -> str:
    """The factors list as json.dumps(indent=2) writes it two levels deep."""
    if not factors:
        return "[]"
    items = []
    for fac in factors:
        edges = fac["edges"]
        if edges:
            edges = "[\n        " + json.dumps(edges)[1:-1].replace(", ", ",\n        ") + "\n      ]"
        else:
            edges = "[]"
        items.append('    {\n      "edges": ' + edges + "\n    }")
    return "[\n" + ",\n".join(items) + "\n  ]"

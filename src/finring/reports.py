"""Report serialization: deterministic JSON plus markdown tables.

JSON output preserves dict insertion order (which every report type pins) and
never sorts keys, so an identical config yields byte-identical bytes.
numpy scalars that leak into report dicts are converted, not rejected.
"""

from __future__ import annotations

import json

import numpy as np


def _default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


_encode_str = json.encoder.encode_basestring_ascii
# exact types written with no further dispatch
_LEAVES = {str: _encode_str, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): lambda _: "null"}


def to_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, default=_default) + "\\n"``, byte for
    byte, without json's pure-Python indenting encoder: dicts, lists,
    tuples, strings, ints, bools and None are written directly, floats
    through ``json.dumps`` and anything else through `_default`."""
    out: list[str] = []
    _write(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, put) -> None:
    """Append the JSON text of `value` through `put`; `newline` is a line
    break followed by the indent of the level `value` sits at."""
    if isinstance(value, dict):
        items = ((_encode_str(k if isinstance(k, str) else _key(k)) + ": ", v)
                 for k, v in value.items())
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = (("", v) for v in value)
        brackets = "[]"
    else:
        leaf = _LEAVES.get(type(value))
        if leaf is not None:
            put(leaf(value))
        elif isinstance(value, str):
            put(_encode_str(value))
        elif isinstance(value, int):          # bool has its own entry
            put(int.__repr__(value))
        elif isinstance(value, float):
            put(json.dumps(value))
        else:
            _write(_default(value), newline, put)
        return
    if not value:
        put(brackets)
        return
    inner = newline + "  "
    sep = brackets[0] + inner
    for prefix, item in items:
        leaf = _LEAVES.get(type(item))
        if leaf is None:
            put(sep + prefix)
            _write(item, inner, put)
        else:
            put(sep + prefix + leaf(item))
        sep = "," + inner
    put(newline + brackets[1])


def _key(key) -> str:
    """A non-string dict key as json writes it."""
    if key is None or isinstance(key, (int, float)):   # bool is an int
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _md_table(headers: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def _compact(value) -> str:
    return json.dumps(value, default=_default)


def classification_markdown(report: dict) -> str:
    ring = report["ring"]
    lines = [f"# Classification of {ring['name']} (order {ring['order']})", ""]
    rows = []
    for name, cond in report["conditions"].items():
        extra = []
        if "witness" in cond:
            extra.append(f"witness: {_compact(cond['witness'])}")
        if "bound" in cond:
            extra.append(f"bound: {cond['bound']}")
        rows.append([name, cond["verdict"],
                     cond["certificate"].get("kind") or cond["certificate"].get("rule"),
                     "; ".join(extra)])
    lines.extend(_md_table(["condition", "verdict", "certificate", "notes"], rows))
    if report.get("polynomials"):
        lines.extend(["", "## Declared polynomials", ""])
        prow = []
        for name, entry in report["polynomials"].items():
            notes = []
            if "reason" in entry:
                notes.append(f"reason: {entry['reason']}")
            if "witness_g" in entry:
                notes.append(f"witness g: {_compact(entry['witness_g'])}")
            if "bound" in entry:
                notes.append(f"bound: {entry['bound']}")
            prow.append([name, _compact(entry["coefficients"]),
                         entry["status"], "; ".join(notes)])
        lines.extend(_md_table(["poly", "coefficients", "status", "notes"], prow))
    lines.append("")
    return "\n".join(lines)


def corpus_markdown(report: dict) -> str:
    lines = [f"# Corpus classification ({report['ring_count']} rings)", "",
             "## Condition combinations", ""]
    headers = ["reduced", "weak_dim_class", "arithmetical", "gaussian",
               "pseudo_arithmetical", "zero_ideal_locally_irreducible", "rings"]
    lines.extend(_md_table(headers,
                           [[row[h] for h in headers] for row in report["summary"]]))
    lines.extend(["", "## Rings", ""])
    rows = []
    for ring in report["rings"]:
        conds = ring["conditions"]
        rows.append([ring["ring"]["name"], ring["ring"]["order"],
                     conds["reduced"]["verdict"],
                     conds["weak_dim_class"]["verdict"],
                     conds["arithmetical"]["verdict"],
                     conds["gaussian"]["verdict"],
                     conds["pseudo_arithmetical"]["verdict"],
                     conds["zero_ideal_locally_irreducible"]["verdict"]])
    lines.extend(_md_table(["ring", "order", "reduced", "weak_dim",
                            "arithmetical", "gaussian", "pseudo_arith",
                            "zero_loc_irred"], rows))
    lines.append("")
    return "\n".join(lines)


def conjecture_markdown(report: dict) -> str:
    counts = report["counts"]
    lines = ["# Pseudo-arithmetical vs locally irreducible zero ideal", "",
             f"Statement under test: {report['statement']}.", "",
             f"Agree: {counts['Agree']}  Disagree: {counts['Disagree']}  "
             f"Undecided: {counts['Undecided']}  (total {counts['total']})", ""]
    if report["disagreements"]:
        lines.append("## DISAGREEMENTS (replay-verified counterexample candidates)")
        lines.append("")
        for row in report["disagreements"]:
            lines.append(f"- **{row['ring']}** (order {row['order']}): "
                         f"pseudo-arithmetical {row['pseudo_arithmetical']['verdict']} "
                         f"vs zero-ideal locally irreducible "
                         f"{row['zero_ideal_locally_irreducible']['verdict']}")
        lines.append("")
    rows = [[r["ring"], r["order"], r["pseudo_arithmetical"]["verdict"],
             r["zero_ideal_locally_irreducible"]["verdict"], r["agreement"]]
            for r in report["rows"]]
    lines.extend(_md_table(["ring", "order", "pseudo_arithmetical",
                            "zero_ideal_locally_irreducible", "agreement"], rows))
    lines.append("")
    return "\n".join(lines)


def harness_markdown(report: dict) -> str:
    lines = [f"# Structural-law harness ({report['instances']} instances, "
             f"{report['failures']} failures, {report['skipped_laws']} skipped laws)",
             ""]
    rows = []
    for result in report["results"]:
        for law in result["laws"]:
            rows.append([result["ring"], result["order"], result["check"],
                         law["law"], law["status"]])
    lines.extend(_md_table(["ring", "order", "check", "law", "status"], rows))
    lines.append("")
    return "\n".join(lines)

#!/usr/bin/env python3
"""Run the gated perf figures at their pinned settings and check every
gate in ci/gates.json against the rows they emit.

Usage:
    check_gates.py BUILD_DIR

For each figure in the table, runs BUILD_DIR/<binary> --json
BENCH_<figure>.json (in the current directory) with the entry's pinned
FLODB_BENCH_* environment and no other FLODB_BENCH_* variable, then
prints one line per row and gate and exits non-zero if any gate fails.

Table format: {"<figure>": {"binary", "env", "why", "gates": [gate...]}}.
A gate selects rows, reads one metric from each and compares it to a
bound:

    {"rows": {"store": "FloDB", "batch": {">=": 64}},   # optional, {} = all
     "metric": "write_amp", "<=": 8.0}                 # one of <= == >= >

A gate with "over" bounds the ratio of the metric to the same metric of
a denominator row joined on the "on" columns. Denominators come from the
same run ("rows" selects them) or from a checked-in baseline document:

    "over": {"rows": {"mode": "inline"}, "on": []}
    "over": {"baseline": "ci/bench_baselines/BENCH_fig09.json",
             "on": ["store", "threads"]}

A gate fails when it checks no row, when a selected row lacks the
metric, or when a ratio's denominator row is missing, zero or lacks the
metric. Two cases are notes, not failures, because the sweep matrix may
grow: a row only in the current run, and a row only in the baseline.

Stdlib only: CI must not pip install anything.
"""

import json
import operator
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "ci", "gates.json")

OPS = {"<=": operator.le, "==": operator.eq, ">=": operator.ge, ">": operator.gt}

# Columns that name a row in the figures' sweeps, for the printed label.
ID_COLUMNS = ("store", "mode", "dist", "threads", "batch", "cache_bytes", "scan_pct", "scan_len",
              "memory_kb")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def bound_of(spec):
    """The (operator, bound) pair of a gate or a selector condition."""
    (op,) = [key for key in spec if key in OPS]
    return op, spec[op]


def matches(row, selector):
    for column, want in selector.items():
        value = row.get(column)
        if isinstance(want, dict):
            op, bound = bound_of(want)
            if value is None or not OPS[op](value, bound):
                return False
        elif value != want:
            return False
    return True


def label(row):
    return " ".join(f"{c}={row[c]:g}" if isinstance(row[c], (int, float)) else f"{c}={row[c]}"
                    for c in ID_COLUMNS if c in row)


def check_gate(gate, doc, root=ROOT):
    """Checks one gate against a figure document; returns a list of
    (status, text) lines, status one of "ok", "FAIL" and "note"."""
    op, bound = bound_of(gate)
    metric = gate["metric"]
    rows = [row for row in doc.get("rows", []) if matches(row, gate.get("rows", {}))]
    over = gate.get("over")
    lines = []

    def verdict(row, text, value):
        lines.append(("ok" if OPS[op](value, bound) else "FAIL", f"{label(row)}: {text}"))

    if over is None:
        for row in rows:
            value = row.get(metric)
            if value is None:
                lines.append(("FAIL", f"{label(row)}: no {metric}"))
            else:
                verdict(row, f"{metric} {value:.4g} {op} {bound}", value)
    else:
        on = over["on"]
        source = over.get("baseline")
        if source is None:
            denominators = doc.get("rows", [])
        else:
            base = load_json(os.path.join(root, source))
            if base.get("figure") != doc.get("figure"):
                return [("FAIL", f"figure mismatch: current={doc.get('figure')} "
                                 f"baseline={base.get('figure')} ({source})")]
            denominators = base.get("rows", [])
        index = {tuple(row.get(c) for c in on): row
                 for row in denominators if matches(row, over.get("rows", {}))}
        unmatched = dict(index)
        for row in rows:
            key = tuple(row.get(c) for c in on)
            den_row = index.get(key)
            unmatched.pop(key, None)
            num, den = row.get(metric), (den_row or {}).get(metric)
            if den_row is None and source is not None:
                lines.append(("note", f"{label(row)}: not in {source}"))
            elif num is None:
                lines.append(("FAIL", f"{label(row)}: no {metric}"))
            elif not den:
                lines.append(("FAIL", f"{label(row)}: denominator row missing, zero "
                                      f"or without {metric}"))
            else:
                verdict(row, f"{metric} {num:.4g} / {den:.4g} = {num / den:.2f}x "
                             f"{op} {bound}x", num / den)
        if source is not None:
            lines += [("note", f"{label(row)}: only in {source}") for row in unmatched.values()]
    if not any(status != "note" for status, _ in lines):
        lines.append(("FAIL", f"no rows to check {metric} on (selector {gate.get('rows', {})})"))
    return lines


def check_figure(figure, entry, doc, root=ROOT):
    if doc.get("figure") != figure:
        return [("FAIL", f"document is figure {doc.get('figure')}, not {figure}")]
    return [line for gate in entry["gates"] for line in check_gate(gate, doc, root)]


def main(argv):
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    build = argv[1]
    table = load_json(TABLE)
    inherited = {k: v for k, v in os.environ.items() if not k.startswith("FLODB_BENCH_")}

    lines = []
    for figure, entry in table.items():
        path = f"BENCH_{figure}.json"
        run = subprocess.run([os.path.join(build, entry["binary"]), "--json", path],
                             env={**inherited, **entry["env"]})
        if run.returncode != 0:
            lines.append((figure, "FAIL", f"{entry['binary']} exited {run.returncode}"))
            continue
        lines += [(figure, status, text)
                  for status, text in check_figure(figure, entry, load_json(path))]

    for figure, status, text in lines:
        print(f"{status:>4}  {figure:<16} {text}")
    failures = sum(status == "FAIL" for _, status, _ in lines)
    checked = sum(status != "note" for _, status, _ in lines)
    if failures:
        print(f"FAIL: {failures} of {checked} checks failed (bounds and provenance: ci/gates.json)")
        return 1
    print(f"PASS: {checked} checks across {len(table)} figures")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

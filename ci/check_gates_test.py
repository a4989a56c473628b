#!/usr/bin/env python3
"""Tests for check_gates.py over the real ci/gates.json: every gate passes
on a synthetic document shaped like its figure's output, and fails on
each condition it guards: no selected rows, a missing metric, a crossed
bound (a zero sanity field included), a baseline of another figure, and
a missing or zero ratio denominator.

Usage:
    python3 ci/check_gates_test.py

Stdlib only; needs no build.
"""

import copy
import json
import os
import tempfile
import unittest

import check_gates

TABLE = check_gates.load_json(check_gates.TABLE)

# Per-row metrics the non-baseline gates read, added to the baseline's own
# rows (which pass the baseline gate at ratio 1.0).
EXTRA = {
    "fig_sync_write": lambda row: {"syncs_per_write": 1.0 if row["threads"] == 1 else 0.21},
    "fig_compaction": lambda row: {"write_amp": 2.5, "space_amp": 1.4, "compactions": 3},
}

# Figures with no baseline file: hand-written rows in the figure's shape.
IN_RUN = {
    "fig_read_cached": [
        {"store": "FloDB", "dist": dist, "threads": 2, "cache_bytes": cache,
         "mops": 0.3, "hit_rate": hit}
        for dist, cache, hit in (("zipfian", 1.04858e6, 0.2),   # below the gated size
                                 ("zipfian", 4.1943e6, 0.6),    # 4 MiB, rounded down
                                 ("zipfian", 1.67772e7, 0.8),
                                 ("uniform", 4.1943e6, 0.1))],  # only zipfian is gated
    "fig14": [
        {"store": "FloDB", "threads": 4, "scan_pct": pct, "mops": mops, "mkeys_per_s": mkeys}
        for pct, mops, mkeys in ((2, 0.60, 1.7), (10, 0.35, 3.5), (50, 0.08, 4.1))],
    "stat_fallback": [
        {"store": "FloDB", "scan_len": scan_len, "memory_kb": 512, "threads": 4,
         "fallback_pct": pct}
        for scan_len, pct in ((10, 0.0), (100, 0.05), (1000, 0.29))],
}


def baseline_of(gate):
    return gate.get("over", {}).get("baseline")


def passing_doc(figure):
    baselines = [baseline_of(gate) for gate in TABLE[figure]["gates"] if baseline_of(gate)]
    if not baselines:
        return {"figure": figure, "rows": copy.deepcopy(IN_RUN[figure])}
    doc = check_gates.load_json(os.path.join(check_gates.ROOT, baselines[0]))
    extra = EXTRA.get(figure, lambda row: {})
    return {"figure": figure, "rows": [{**row, **extra(row)} for row in doc["rows"]]}


def selected(doc, selector):
    return [row for row in doc["rows"] if check_gates.matches(row, selector)]


def crossed(op, bound):
    """A metric value that breaks `op bound` for every bound in the table."""
    return {"<=": 1e9, ">": 0, ">=": 0, "==": bound + 1}[op]


def synthetic_cases(scratch):
    """Yields (name, figure, gate index, doc, root, passes): for each gate,
    its figure's passing document, then one document per failure condition
    of the gate. `scratch` is a directory for baseline files a case writes."""
    for figure, entry in TABLE.items():
        for g, gate in enumerate(entry["gates"]):
            name = f"{figure}[{g}] {gate['metric']}"
            selector = gate.get("rows", {})
            yield f"{name}: passes", figure, g, passing_doc(figure), check_gates.ROOT, True

            doc = passing_doc(figure)
            doc["rows"] = [row for row in doc["rows"] if row not in selected(doc, selector)]
            yield f"{name}: no rows match", figure, g, doc, check_gates.ROOT, False

            # One bad row fails the gate even when the other rows pass.
            doc = passing_doc(figure)
            del selected(doc, selector)[0][gate["metric"]]
            yield f"{name}: missing metric", figure, g, doc, check_gates.ROOT, False

            doc = passing_doc(figure)
            selected(doc, selector)[0][gate["metric"]] = crossed(*check_gates.bound_of(gate))
            yield f"{name}: bound crossed", figure, g, doc, check_gates.ROOT, False

            over = gate.get("over")
            if over is None:
                continue
            source = baseline_of(gate)
            if source:
                doc = passing_doc(figure)
                doc["figure"] = "fig_other"
                yield f"{name}: figure mismatch", figure, g, doc, check_gates.ROOT, False

                base = check_gates.load_json(os.path.join(check_gates.ROOT, source))
                for row in base["rows"]:
                    row[gate["metric"]] = 0
                root = os.path.join(scratch, figure)
                os.makedirs(os.path.join(root, os.path.dirname(source)), exist_ok=True)
                with open(os.path.join(root, source), "w") as f:
                    json.dump(base, f)
                yield f"{name}: zero denominator", figure, g, passing_doc(figure), root, False
                continue
            denominators = [row for row in selected(passing_doc(figure), over["rows"])
                            if row not in selected(passing_doc(figure), selector)]
            doc = passing_doc(figure)
            for row in doc["rows"]:
                if row in denominators:
                    row[gate["metric"]] = 0
            yield f"{name}: zero denominator", figure, g, doc, check_gates.ROOT, False

            doc = passing_doc(figure)
            first = selected(doc, selector)[0]
            doc["rows"].remove(next(row for row in denominators
                                    if all(row.get(c) == first.get(c) for c in over["on"])))
            yield f"{name}: missing denominator", figure, g, doc, check_gates.ROOT, False


def fails(lines):
    return any(status == "FAIL" for status, _ in lines)


class GatesTest(unittest.TestCase):
    def test_table_is_well_formed(self):
        for figure, entry in TABLE.items():
            self.assertEqual(set(entry), {"binary", "env", "why", "gates"}, figure)
            self.assertTrue(all(key.startswith("FLODB_BENCH_") for key in entry["env"]), figure)
            self.assertTrue(figure in IN_RUN or any(map(baseline_of, entry["gates"])), figure)
            for gate in entry["gates"]:
                check_gates.bound_of(gate)  # exactly one bound operator
                if baseline_of(gate):
                    self.assertTrue(os.path.exists(
                        os.path.join(check_gates.ROOT, baseline_of(gate))), gate)

    def test_synthetic_cases(self):
        with tempfile.TemporaryDirectory() as scratch:
            for name, figure, g, doc, root, passes in synthetic_cases(scratch):
                with self.subTest(name):
                    lines = check_gates.check_gate(TABLE[figure]["gates"][g], doc, root)
                    self.assertEqual(not fails(lines), passes, lines)
                    if passes:
                        self.assertTrue(any(status == "ok" for status, _ in lines), lines)

    def test_whole_figure_passes(self):
        for figure, entry in TABLE.items():
            lines = check_gates.check_figure(figure, entry, passing_doc(figure))
            self.assertFalse(fails(lines), lines)

    def test_document_of_another_figure_fails(self):
        doc = passing_doc("fig09")
        self.assertTrue(fails(check_gates.check_figure("fig11", TABLE["fig11"], doc)))

    def test_rows_on_one_side_of_a_baseline_are_notes(self):
        gate = TABLE["fig09"]["gates"][0]
        doc = passing_doc("fig09")
        dropped = doc["rows"].pop()
        doc["rows"].append({**dropped, "store": "FloDB-new", "mops": 0.01})
        lines = check_gates.check_gate(gate, doc)
        self.assertFalse(fails(lines), lines)
        notes = [text for status, text in lines if status == "note"]
        self.assertEqual(len(notes), 2, notes)

    def test_cache_size_selector_keeps_rounding_slack(self):
        gate = TABLE["fig_read_cached"]["gates"][0]
        lines = check_gates.check_gate(gate, passing_doc("fig_read_cached"))
        self.assertEqual([status for status, _ in lines], ["ok", "ok"], lines)
        self.assertIn("cache_bytes=4.1943e+06", lines[0][1])


if __name__ == "__main__":
    unittest.main()

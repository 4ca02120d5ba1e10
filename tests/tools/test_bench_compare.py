#!/usr/bin/env python3
"""tools/bench_compare.py on small fixture reports: each gate form
holding and failing, gated baseline samples that go missing or
ungated, an ungated sample without a baseline, and --update.

Usage: test_bench_compare.py BENCH_COMPARE.py OUT_DIR
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

COMPARE, OUT = sys.argv[1], sys.argv[2]


def sample(name, value, gate=None, **labels):
    return {"name": name, "labels": {k: str(v) for k, v in labels.items()},
            "value": value, "unit": "count", "gate": gate}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(OUT, self.id().rsplit(".", 1)[-1])
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def write(self, name, samples, bench="fixture"):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            json.dump({"bench": bench, "samples": samples}, f)
        return path

    def compare(self, baseline, current, *flags):
        """Exit code and output of one comparison of two fixtures."""
        result = subprocess.run(
            [sys.executable, COMPARE, self.write("baseline.json", baseline),
             self.write("current.json", current), *flags],
            capture_output=True, text=True)
        return result.returncode, result.stdout + result.stderr

    def assertVerdicts(self, baseline, cases):
        for gate, value, rc in cases:
            with self.subTest(gate=gate, value=value):
                got, output = self.compare(baseline,
                                           [sample("s", value, gate)])
                self.assertEqual(got, rc, output)

    def test_absolute_bounds(self):
        self.assertVerdicts([], [({"min": 5}, 5, 0), ({"min": 5}, 4.9, 1),
                                 ({"max": 2}, 2, 0), ({"max": 2}, 2.1, 1)])

    def test_ratio_bounds_read_the_baseline(self):
        self.assertVerdicts([sample("s", 100)], [
            ({"min_ratio": 0.75}, 75, 0), ({"min_ratio": 0.75}, 74.9, 1),
            ({"max_ratio": 3}, 300, 0), ({"max_ratio": 3}, 300.5, 1)])

    def test_exact_gate_catches_a_count_off_by_one(self):
        exact = {"min_ratio": 1, "max_ratio": 1}
        self.assertVerdicts([sample("s", 74879530)], [
            (exact, 74879530, 0), (exact, 74879531, 1),
            (exact, 74879529, 1)])

    def test_null_value_fails_its_gate(self):
        self.assertVerdicts([sample("s", 1)], [({"min": 0}, None, 1),
                                               ({"max_ratio": 2}, None, 1)])

    def test_labels_select_the_baseline_sample(self):
        exact = {"min_ratio": 1, "max_ratio": 1}
        baseline = [sample("labels", 10, n=12), sample("labels", 20, n=32)]
        rc, output = self.compare(baseline,
                                  [sample("labels", 20, exact, n=32)])
        self.assertEqual(rc, 0, output)
        rc, output = self.compare(baseline,
                                  [sample("labels", 10, exact, n=32)])
        self.assertEqual(rc, 1, output)

    def test_ratio_gate_without_a_baseline_sample_fails(self):
        rc, output = self.compare([sample("s", 1, n=12)],
                                  [sample("s", 1, {"min_ratio": 0.5}, n=32)])
        self.assertEqual(rc, 1, output)
        self.assertIn("no baseline value", output)

    def test_gated_baseline_sample_missing_from_current_fails(self):
        rc, output = self.compare([sample("peak", 10, {"min_ratio": 0.75})],
                                  [sample("other", 10)])
        self.assertEqual(rc, 1, output)
        self.assertIn("missing in the current report", output)

    def test_gated_baseline_sample_ungated_in_current_fails(self):
        rc, output = self.compare([sample("peak", 10, {"min_ratio": 0.75})],
                                  [sample("peak", 10)])
        self.assertEqual(rc, 1, output)
        self.assertIn("ungated in the current report", output)

    def test_ungated_sample_without_a_baseline_passes(self):
        rc, output = self.compare([], [sample("new_timing", 0.5, n=64)])
        self.assertEqual(rc, 0, output)

    def test_reports_of_different_benches_are_an_error(self):
        result = subprocess.run(
            [sys.executable, COMPARE,
             self.write("a.json", [], bench="perf_mlc_scaling"),
             self.write("b.json", [], bench="perf_coldstart")],
            capture_output=True, text=True)
        self.assertNotEqual(result.returncode, 0)

    def test_update_rewrites_the_baseline(self):
        current = [sample("peak", 1, {"min_ratio": 0.75})]
        self.assertEqual(self.compare([sample("peak", 10)], current)[0], 1)
        rc, output = self.compare([sample("peak", 10)], current, "--update")
        self.assertEqual(rc, 0, output)
        with open(os.path.join(self.dir, "baseline.json")) as f:
            self.assertEqual(json.load(f)["samples"], current)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])

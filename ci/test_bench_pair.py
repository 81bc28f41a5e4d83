#!/usr/bin/env python3
"""Unit tests for ci/bench_pair.py (stdlib only): the per-metric verdicts,
and the gate end to end over two fake checkouts whose tangobench/run.py
prints a canned result line."""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_pair  # noqa: E402

# A base whose quartiles sit 50 % of the median apart.
WIDE = [100, 140, 70, 120, 90]

# Stands in for tangobench/run.py: prints the result line fake.json describes,
# with the seed nudging the value so the runs have a small spread.
FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
cfg = json.load(open("fake.json"))
if cfg.get("no_result"):
    print("workload w seed 1 trace 0")
    sys.exit(0)
value = cfg["value"] * (1 + 0.01 * int(args["--seed"]))
print(json.dumps({"correct": cfg.get("correct", True), "attempted": 1000,
                  "failed": cfg.get("failed", 0),
                  "metrics": {"pkts_per_s": {"value": value, "unit": "pkts/s"}}}))
"""


class VerdictTest(unittest.TestCase):
    def test_clear_regression(self):
        v, *_ = bench_pair.verdict([100, 101, 99, 100, 102], [60, 61, 59, 60, 62], "higher", 0.25)
        self.assertEqual(v, "regressed")

    def test_small_change_within_bound_is_unchanged(self):
        v, *_ = bench_pair.verdict([100, 101, 99, 100, 102], [99, 100, 101, 98, 100], "lower", 0.25)
        self.assertEqual(v, "unchanged")

    def test_spread_wider_than_bound_is_unresolved_not_unchanged(self):
        v, _, _, gain, spread = bench_pair.verdict(WIDE, [95, 130, 75, 110, 100], "lower", 0.25)
        self.assertEqual(v, "unresolved")
        self.assertLess(abs(gain), 0.25)
        self.assertGreater(spread, 0.25)

    def test_every_head_run_better_under_wide_spread_is_improved(self):
        v, *_ = bench_pair.verdict(WIDE, [50, 60, 55, 65, 62], "lower", 0.25)
        self.assertEqual(v, "improved")

    def test_every_head_run_worse_beyond_bound_under_wide_spread_regresses(self):
        v, *_ = bench_pair.verdict(WIDE, [200, 210, 190, 220, 205], "lower", 0.25)
        self.assertEqual(v, "regressed")


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.trees = {}
        for side in ("base", "head"):
            tree = pathlib.Path(self.tmp.name) / side
            (tree / "tangobench").mkdir(parents=True)
            (tree / "tangobench" / "run.py").write_text(FAKE_RUN)
            (tree / "BENCHMARK.json").write_text(json.dumps({
                "command": [sys.executable, "tangobench/run.py"],
                "workloads": [{"name": "w"}],
                "end_to_end": [{"name": "pkts_per_s", "better": "higher", "bound": 0.25}],
            }))
            self.trees[side] = tree

    def gate(self, base, head):
        for side, cfg in (("base", base), ("head", head)):
            (self.trees[side] / "fake.json").write_text(json.dumps(cfg))
        return subprocess.run(
            [sys.executable, str(HERE / "bench_pair.py"), "--base", str(self.trees["base"]),
             "--head", str(self.trees["head"])], capture_output=True, text=True)

    def test_same_results_pass(self):
        out = self.gate({"value": 1000}, {"value": 1000})
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("| w | pkts_per_s |", out.stdout)
        self.assertIn("unchanged", out.stdout)

    def test_clear_regression_fails(self):
        out = self.gate({"value": 1000}, {"value": 500})
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("FAIL: w pkts_per_s worse by", out.stdout)

    def test_head_not_correct_fails(self):
        out = self.gate({"value": 1000}, {"value": 1000, "correct": False})
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("correct: false", out.stdout)

    def test_higher_failed_share_fails(self):
        out = self.gate({"value": 1000, "failed": 1}, {"value": 1000, "failed": 2})
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("failed share", out.stdout)

    def test_missing_result_line_exits_2(self):
        out = self.gate({"value": 1000}, {"no_result": True})
        self.assertEqual(out.returncode, 2, out.stdout + out.stderr)
        self.assertIn("no result line", out.stderr)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of bench/check_bench.py over the fixtures in data/bench_gate/.

Every case directory holds one fresh BENCH_demo.json that the gate checks
against data/bench_gate/baselines/ (tolerance 0.01). Run directly or via
ctest (check_bench_gate).
"""

import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, os.pardir, "bench", "check_bench.py")
FIXTURES = os.path.join(HERE, "data", "bench_gate")


def gate(fresh_dir):
    """Exit code and output of the gate over `fresh_dir`."""
    run = subprocess.run(
        [sys.executable, GATE, fresh_dir, os.path.join(FIXTURES, "baselines")],
        capture_output=True, text=True, check=False)
    return run.returncode, run.stdout + run.stderr


class CheckBenchTest(unittest.TestCase):
    def assert_gate(self, case, expected_code, expected_text):
        code, output = gate(os.path.join(FIXTURES, case))
        self.assertEqual(code, expected_code, output)
        self.assertIn(expected_text, output)

    def test_within_tolerance_passes(self):
        self.assert_gate("within_tolerance", 0, "0 regressed, 0 improved")

    def test_improvement_passes_with_refresh_hint(self):
        self.assert_gate("improved", 0, "refresh its baseline")

    def test_lower_is_better_regression_fails(self):
        self.assert_gate("lower_regressed", 1, "FAIL BENCH_demo.json cell/mean_recovery_s")

    def test_higher_is_better_regression_fails(self):
        self.assert_gate("higher_regressed", 1, "FAIL BENCH_demo.json cell/warm_hit_rate")

    def test_zero_baseline_becoming_nonzero_fails(self):
        self.assert_gate("stall_appeared", 1, "FAIL BENCH_demo.json cell/stalls")

    def test_missing_metric_fails(self):
        self.assert_gate("missing_metric", 1, "cell/warm_hit_rate: missing")

    def test_quick_against_full_fails(self):
        self.assert_gate("quick_vs_full", 1, "quick=True run compared")

    def test_missing_file_fails(self):
        with tempfile.TemporaryDirectory() as empty:
            code, output = gate(empty)
        self.assertEqual(code, 1, output)
        self.assertIn("BENCH_demo.json: missing", output)


if __name__ == "__main__":
    unittest.main()

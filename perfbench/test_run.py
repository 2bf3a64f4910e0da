"""Tests of the benchmark itself, on one small signature.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import CERTIFY_CALLS, CertifyCase, Workload, run_certify  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def tiny(tangent_dim: int = 129, expected_calls=CERTIFY_CALLS) -> dict:
    # 129 is the true exact tangent dimension of (3,4,6,2,1).
    case = CertifyCase((3, 4, 6, 2, 1), "exact", 1, "INCONCLUSIVE", tangent_dim, (5, 7, 7))
    return {"tiny": Workload("tiny", run_certify, (case,), expected_calls)}


def bench(workloads: dict, trace: int):
    out, err = io.StringIO(), io.StringIO()
    argv = ["--workload", "tiny", "--seed", "4", "--seconds", "0.1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run.main(argv, workloads)
    return code, out.getvalue().splitlines(), err.getvalue()


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, trace: int, declared: list) -> None:
        code, lines, _ = bench(tiny(), trace)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, unit in want.items():
            self.assertTrue(
                any(line.startswith(name + " ") and f" {unit} " in line for line in lines[:-1]),
                f"{name} is not printed with its unit {unit}",
            )

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        self.check_metrics(0, CONTRACT["end_to_end"])

    def test_every_per_layer_metric_is_printed_with_its_unit(self):
        self.check_metrics(1, CONTRACT["per_layer"])

    def test_wrong_expected_answer_drives_error_rate_above_zero(self):
        code, lines, err = bench(tiny(tangent_dim=128), 0)
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        error_line = next(line for line in lines if line.startswith("error_rate "))
        self.assertNotIn("= 0 ratio", error_line)
        self.assertIn("expected", err)

    def test_traced_run_fails_when_a_predicted_call_never_happens(self):
        workloads = tiny(expected_calls=CERTIFY_CALLS + ("bordercert.linalg.modp_rank",))
        code, lines, err = bench(workloads, 1)
        self.assertEqual(code, 2)
        self.assertFalse(any(line.startswith("{") for line in lines))
        self.assertIn("bordercert.linalg.modp_rank", err)

    def test_traced_run_fails_when_a_wrapped_name_is_missing(self):
        missing = ("bordercert.linalg", "no_such_rank", "linalg.none", None)
        saved = spans.WRAPPED
        spans.WRAPPED = saved + (missing,)
        try:
            code, lines, err = bench(tiny(), 1)
        finally:
            spans.WRAPPED = saved
        self.assertEqual(code, 2)
        self.assertFalse(any(line.startswith("{") for line in lines))
        self.assertIn("no_such_rank", err)


if __name__ == "__main__":
    unittest.main()

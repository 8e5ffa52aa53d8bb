"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and checks that the
reported metric names are exactly those of BENCHMARK.json, that every
declared per-layer metric is produced by some workload, and that the
checker can fail: a wrong expected case count must raise the error rate
above 0.  The wrong count is fed in here only, never in the library.
"""

import contextlib
import io
import json
import sys
import time
import unittest
from dataclasses import replace

import reference
import run
import spans

# Small verify parameters; each applies only to the jobs that take it.
TINY = {"n_max": 3, "order": 3, "lambda_max": 3, "r_max": 3, "k_max": 2, "p_max": 2, "mu_max": 3}
TINY_PATHS = 300


def tiny_workloads() -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    from ycalc.verify import run_all

    jobs = {r.identity: {"status": r.status, "cases": r.cases} for r in run_all(TINY)}
    args = tuple(a for k, v in TINY.items() for a in (f"--{k.replace('_', '-')}", str(v)))
    full = run.load_workloads()
    return {
        "verify-all": run.VerifyAll(jobs, args),
        "sample-1step": replace(full["sample-1step"], paths=TINY_PATHS),
        "sample-walk": replace(full["sample-walk"], paths=TINY_PATHS),
    }


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.workloads = tiny_workloads()

    def bench(self, name: str, trace: bool, workload=None) -> dict:
        stream = io.StringIO()
        result = run.run(workload or self.workloads[name], name, 1, 0.1, trace, self.spec, stream)
        last = json.loads(stream.getvalue().splitlines()[-1])
        self.assertEqual(list(last), ["correct", "attempted", "failed", "metrics"])
        return result

    def test_metric_names_match_benchmark_json(self):
        end_to_end = [m["name"] for m in self.spec["end_to_end"]]
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(self.workloads))
        produced = set()
        for name, workload in self.workloads.items():
            plain = self.bench(name, False)
            self.assertTrue(plain["correct"], name)
            self.assertEqual(list(plain["metrics"]), end_to_end)
            self.assertTrue(all(m["value"] > 0 for m in plain["metrics"].values()), name)
            traced = self.bench(name, True)
            self.assertTrue(traced["correct"], name)  # includes byte-identical output
            self.assertEqual(list(traced["metrics"]), per_layer)
            layers = traced["layers"]
            if name == "verify-all":
                for identity, job in workload.jobs.items():
                    self.assertEqual(layers[f"verify.{identity}.cases"], job["cases"])
            else:
                self.assertEqual(layers["growth.draws"], workload.paths * workload.steps)
            produced |= set(layers)
        self.assertEqual(set(per_layer) - produced, set())

    def test_wrong_case_count_raises_error_rate(self):
        good = self.workloads["verify-all"]
        jobs = dict(good.jobs, chi=dict(good.jobs["chi"], cases=good.jobs["chi"]["cases"] + 1))
        result = self.bench("verify-all", False, replace(good, jobs=jobs))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_tracer_rebinds_every_alias(self):
        import ycalc.cli

        tracer = spans.install()
        wrapped = ycalc.moments.s_r_direct
        self.assertTrue(hasattr(wrapped, "__wrapped__"))
        for module in (ycalc, ycalc.cli, ycalc.growth, ycalc.verify):
            self.assertIs(module.s_r_direct, wrapped)
        self.assertIs(ycalc.cli._S_METHODS["direct"], wrapped)
        with contextlib.redirect_stdout(io.StringIO()):
            ycalc.cli.main(["moments", "s", "--lambda", "2,1", "--alpha", "1", "--r-max", "2"])
        self.assertEqual(tracer.calls["ycalc.moments:s_r_direct"], 3)
        self.assertEqual(tracer.calls["ycalc.cli:main"], 1)

    def test_reference_loop_cost_covers_the_call(self):
        samples = [[0.0, 0.0], [1.0, 0.01], [2.0, 0.03], [3.0, 0.06], [4.0, 0.10]]
        self.assertAlmostEqual(reference.cpu_per_loop(samples, 1.5, 3.5), 0.025)
        self.assertAlmostEqual(reference.cpu_per_loop(samples, 2.2, 2.4), 0.03)
        self.assertIsNone(reference.cpu_per_loop(samples, -1.0, 0.5))
        with run.speedometer() as samples:
            time.sleep(0.2)
        self.assertGreater(len(samples), 1)

    def test_missing_kernel_reports_zero(self):
        values = run.layer_values({"functions": {}, "draws": 0, "jobs": {}})
        for prefix in spans.KERNELS:
            self.assertEqual(values[f"{prefix}.calls"], 0)


if __name__ == "__main__":
    unittest.main()

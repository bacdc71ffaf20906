"""Self-test of the benchmark: tiny sizes, every workload, every metric.

    python3 bench/selftest.py

Checks that each workload runs clean at tiny sizes and emits every metric of
BENCHMARK.json with its unit, traced and untraced; that a wrong reference
value shows up as a failed op rather than a pass; that traced counts repeat
exactly; that the benchmark's own arithmetic reproduces the frozen values;
and that the runner refuses a directory without the gpaths sources.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import calibrate
import reference as ref
import run
import tracer
import workloads

run.PROBES_PER_CYCLE = 1


def _measure(workload, trace, refs=None):
    params = workloads.TINY[workload]
    inputs = workloads.make_inputs(workload, params, seed=7)
    if refs is None:
        refs = workloads.references(workload, params)
    measured = run.measure(workload, params, inputs, refs, seconds=0.01, trace=trace)
    return measured, run.summarize(workload, measured, trace, run.load_spec())


class WorkloadTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = run.load_spec()
        for workload in workloads.WORKLOADS:
            for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    _, result = _measure(workload, trace)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(result["missing"], [])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
                    self.assertEqual(result["extra"]["fail_ratio"], {"value": 0.0, "unit": "1"})
                    if workload == "longmap" and not trace:
                        self.assertEqual(result["extra"]["map_ms_p95"]["unit"], "ms")

    def test_wrong_reference_fails_the_op(self):
        wrong = {
            "verify": ("lines", lambda v: v[:-1] + ["PASS (77 checks)"]),
            "exhaustive": ("count", lambda v: v + 1),
            "algebra": ("series", lambda v: v[:-1] + [[v[-1][0] + 1, 1]]),
            "longmap": ("maps", lambda v: {**v, "sigma": v["sigma"] + 1}),
        }
        for workload, (key, corrupt) in wrong.items():
            with self.subTest(workload=workload):
                refs = workloads.references(workload, workloads.TINY[workload])
                refs[key] = corrupt(refs[key])
                _, result = _measure(workload, False, refs)
                self.assertFalse(result["correct"])
                self.assertGreater(result["extra"]["fail_ratio"]["value"], 0)
                self.assertEqual(result["failed"], result["attempted"])

    def test_traced_counts_repeat(self):
        spec = run.load_spec()
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                runs = [_measure(workload, True)[1]["metrics"] for _ in range(2)]
                self.assertEqual(
                    {k: runs[0][k]["value"] for k in counts},
                    {k: runs[1][k]["value"] for k in counts},
                )

    def test_spans_are_written(self):
        params = workloads.TINY["exhaustive"]
        refs = workloads.references("exhaustive", params)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exhaustive.spans")
            run.measure("exhaustive", params, None, refs, seconds=0.01, trace=True, spans_path=path)
            header, spans = tracer.read_spans(path)
        self.assertGreater(header["count"], 0)
        for i in range(header["count"]):
            self.assertLess(spans["parent"][i], i)
            self.assertLessEqual(spans["start_ns"][i], spans["end_ns"][i])
        walks = {header["names"].index(n) for n in tracer.WALKS if n in header["names"]}
        self.assertTrue(walks & set(spans["name"]))

    def test_inputs_follow_the_seed(self):
        params = workloads.TINY["longmap"]
        self.assertEqual(
            workloads.make_inputs("longmap", params, 3), workloads.make_inputs("longmap", params, 3)
        )
        self.assertNotEqual(
            workloads.make_inputs("longmap", params, 3), workloads.make_inputs("longmap", params, 4)
        )


class ReferenceTest(unittest.TestCase):
    def test_own_arithmetic_matches_frozen_values(self):
        self.assertEqual(tuple(ref.catalan(k) for k in range(11)), ref.CATALAN_10)
        self.assertEqual(tuple(ref.schroder(n) for n in range(11)), ref.SCHRODER_10)
        self.assertEqual(tuple(ref.guvu_at(1, 1, 1, 10)), ref.SCHRODER_10)
        self.assertEqual(tuple(ref.guvu_at(0, 1, 1, 10)), ref.CATALAN_10)
        self.assertEqual(tuple(ref.guvu_at(1, 0, 2, 10)), ref.A025235_10)
        self.assertEqual(tuple(ref.guvu_at(-3, 4, 16, 10)), ref.A059231_10)
        self.assertEqual(tuple(ref.gfull_at(0, 1, 0, 10)), ref.CATALAN_10)
        for stat, rows in ref.GOLDEN_ROWS.items():
            self.assertEqual(tuple(map(tuple, ref.stat_rows(stat, 6))), rows)
        self.assertEqual(ref.schroder_ab(2), {(2, 0, 0): 1, (1, 1, 0): 3, (0, 2, 0): 2})
        self.assertEqual(ref.poly_at(sorted([*k, v] for k, v in ref.gfull_poly(5).items()), 1, 1, 0), ref.schroder(5))


class RunnerTest(unittest.TestCase):
    def test_scale_is_the_mean_sampled_speed(self):
        ref_s = calibrate.REFERENCE_S
        self.assertEqual(calibrate.scale([ref_s] * 5), 1.0)
        self.assertEqual(calibrate.scale([ref_s / 2, 2 * ref_s]), 1.25)

    def test_untraced_ops_are_sampled_and_scaled(self):
        measured, result = _measure("algebra", False)
        for op in measured["ops"]:
            self.assertGreaterEqual(op["speed_samples"], 2)
            self.assertGreater(op["scale"], 0)
        for record in measured["probes"] + measured["ops"]:
            self.assertGreater(record["setup_scale"], 0)
        self.assertEqual(result["extra"]["run_s_unscaled"]["unit"], "s")

    def test_refuses_a_tree_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "bench"), ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

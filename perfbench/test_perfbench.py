#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; builds the harness first (see run.py).
Checks that the request generator is a pure function of (workload,
seed), that every metric a run prints is declared in BENCHMARK.json
and every declared metric is printed, that the output checks reject a
tampered reply and a tampered curve, and that the benchmark fails
cleanly where the library sources are missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

ROOT = run.ROOT
SERVE_WORKLOADS = ("serve_cold_mix", "serve_hot_small")


def harness(*args):
    return subprocess.run([str(run.binary_path()), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170,
                          check=False)


def benchmark(workload, seed, seconds, trace):
    result = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400, check=False)
    return result


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_stream_other_seed_other_stream(self):
        for workload in SERVE_WORKLOADS:
            first = harness("--workload", workload, "--seed", "7",
                            "--gen-requests", "300")
            again = harness("--workload", workload, "--seed", "7",
                            "--gen-requests", "300")
            other = harness("--workload", workload, "--seed", "8",
                            "--gen-requests", "300")
            for result in (first, again, other):
                self.assertEqual(result.returncode, 0, result.stderr)
            self.assertGreaterEqual(len(first.stdout.splitlines()), 300)
            self.assertEqual(first.stdout, again.stdout, workload)
            self.assertNotEqual(first.stdout, other.stdout, workload)

    def test_cold_mix_keys_are_fresh(self):
        lines = harness("--workload", "serve_cold_mix", "--seed", "3",
                        "--gen-requests", "600").stdout.splitlines()
        seeds = [json.loads(line)["seed"] for line in lines]
        self.assertEqual(len(seeds), len(set(seeds)))


class CheckerTest(unittest.TestCase):
    def test_rejects_tampered_reply_and_curve(self):
        result = harness("--self-test")
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("self-test ok", result.stdout)


class MetricNamesTest(unittest.TestCase):
    def test_printed_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertEqual(workloads, list(run.WORKLOADS))
        for workload in workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = benchmark(workload, 5, 1, trace)
                    self.assertEqual(result.returncode, 0,
                                     result.stdout[-3000:])
                    last = json.loads(result.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(last),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(last["correct"])
                    printed = {name: metric["unit"]
                               for name, metric in last["metrics"].items()}
                    self.assertEqual(printed, declared[trace])


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        scratch = run.build_root() / "perfbench-test"
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as directory:
            shutil.copy(ROOT / "BENCHMARK.json", directory)
            shutil.copytree(run.BENCH_DIR, Path(directory) / "perfbench")
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cache_study", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=directory, capture_output=True, text=True,
                timeout=170, check=False)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    run.build()
    unittest.main()

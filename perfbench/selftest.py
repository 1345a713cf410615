"""Tests of the benchmark itself, at tiny job sizes.

    python3 perfbench/selftest.py

Plain ``unittest``; the file name keeps it out of the package's pytest run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class WorkDir(unittest.TestCase):
    def setUp(self) -> None:
        self.workdir = run.WORK / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    def runner(self, name: str, seed: int, traced: bool = False) -> run.Runner:
        wl = workloads.WORKLOADS[name](seed, "tiny", self.workdir)
        r = run.Runner(wl, tracing.Tracer() if traced else None)
        r.run(0)
        return r


class TinyWorkloads(unittest.TestCase):
    def test_each_workload_passes_at_tiny_size(self):
        metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seed", "3", "--seconds", "0",
                             "--trace", "0", "--scale", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), metrics)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)
                for printed in ("op_p50_ms", "op_p90_ms", "fail_frac"):
                    self.assertIn(printed, proc.stdout)

    def test_traced_run_reports_every_per_layer_metric(self):
        proc = bench("--workload", "session", "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--scale", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCHMARK["per_layer"]])
        self.assertGreater(result["metrics"]["store.append.calls"]["value"], 0)
        self.assertGreater(result["metrics"]["cli.commands"]["value"], 0)

    def test_refuses_to_run_without_the_package(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "search", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Gates(WorkDir):
    def test_wrong_class_count_fails_search(self):
        with mock.patch.dict(workloads.EXPECTED_K2_CLASSES, {11: 5}):
            r = self.runner("search", 1)
        self.assertGreater(len(r.failures), 0)
        self.assertIn("k=2 classes at n=11", r.failures[0])

    def test_wrong_tuple_total_fails_algebra(self):
        real = workloads.covered_tuples
        with mock.patch.object(workloads, "covered_tuples", lambda spec, m: real(spec, m) + 1):
            r = self.runner("algebra", 1)
        self.assertGreater(len(r.failures), 0)

    def test_correct_answers_pass(self):
        for name in ("search", "algebra"):
            with self.subTest(workload=name):
                r = self.runner(name, 1)
                self.assertEqual(r.failures, [])


class TracedCounts(WorkDir):
    def counts(self, seed: int) -> dict[str, float]:
        r = self.runner("search", seed, traced=True)
        self.assertEqual(r.failures, [])
        values = tracing.layer_metrics(r.pass_stats, r.traced_s, r.untraced_s, {})
        return {k: v for k, v in values.items() if tracing.UNITS[k] in ("count", "B")}

    def test_counts_repeat_for_a_seed_and_change_with_it(self):
        first, again, other = self.counts(5), self.counts(5), self.counts(6)
        self.assertEqual(first, again)
        self.assertGreater(first["haight.candidates"], 0)
        self.assertNotEqual(first, other)


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        per_layer = [{"name": n, "unit": u, "better": b} for n, u, b, _ in tracing.PER_LAYER]
        self.assertEqual(BENCHMARK["per_layer"], per_layer)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOAD_NAMES))
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(list(e2e), list(run.BOUNDED))
        self.assertEqual(e2e, {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"})


if __name__ == "__main__":
    unittest.main()

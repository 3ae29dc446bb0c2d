#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, at smoke scale.

    python3 e2ebench/test_e2ebench.py

Builds the runner on first use (as run.py does). Checks that every
declared metric prints with its unit, that the output checks trip on
corrupted result files, that the seed is what varies the inputs, and
that the command fails without the sources next to it.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SCRATCH = bench.ROOT / ".bench_build" / "test"


def invoke(workload, trace, seed=5, cwd=bench.ROOT):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        for workload in bench.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = invoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout[-2000:]
                                     + proc.stderr[-2000:])
                    result = result_of(proc)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics),
                                     {m["name"] for m in declared[key]})
                    for m in declared[key]:
                        self.assertEqual(metrics[m["name"]]["unit"],
                                         m["unit"])
                        self.assertIsInstance(metrics[m["name"]]["value"],
                                              (int, float))
                    # The table names every metric, the two end-to-end
                    # metrics kept out of the result line included.
                    table = proc.stdout
                    names = [(n, u) for n, u, _ in bench.END_TO_END]
                    if trace:
                        names += bench.PER_LAYER
                    for name, unit in names:
                        self.assertRegex(table, re.compile(
                            rf"^{re.escape(name)}\s+{re.escape(unit)}\s",
                            re.M))

    def test_declared_units_match_run_py(self):
        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        units = {n: u for n, u, keep in bench.END_TO_END if keep}
        self.assertEqual({m["name"]: m["unit"]
                          for m in declared["end_to_end"]}, units)
        self.assertEqual({m["name"]: m["unit"]
                          for m in declared["per_layer"]},
                         dict(bench.PER_LAYER))
        self.assertEqual({w["name"] for w in declared["workloads"]},
                         set(bench.WORKLOADS))

    def test_seed_varies_the_inputs(self):
        first = result_of(invoke("sec7-1t", 0, seed=1))["metrics"]
        again = result_of(invoke("sec7-1t", 0, seed=1))["metrics"]
        other = result_of(invoke("sec7-1t", 0, seed=2))["metrics"]
        for name in ("median_abs_err_pct", "p95_abs_err_pct"):
            self.assertEqual(first[name], again[name])
        self.assertNotEqual(
            [first[n]["value"] for n in ("median_abs_err_pct",
                                         "p95_abs_err_pct")],
            [other[n]["value"] for n in ("median_abs_err_pct",
                                         "p95_abs_err_pct")])


class OutputCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.check_tree()
        bench.build(4)
        shutil.rmtree(SCRATCH, ignore_errors=True)
        SCRATCH.mkdir(parents=True)
        cls.runs = {}
        for workload in ("sec7-1t", "secure-period"):
            spec_path = SCRATCH / f"{workload}.yaml"
            subprocess.run([str(bench.BINARY), "gen", workload, "9", "2",
                            str(bench.BASE_SCENARIO), str(spec_path),
                            "--smoke"], check=True)
            spec = bench.read_spec(spec_path)
            record = bench.run_once(spec_path, spec, SCRATCH / workload,
                                    "plain")
            cls.runs[workload] = (spec, record)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def corrupted(self, workload, edit):
        """Copies a good run's directory, applies `edit`, re-checks it."""
        spec, record = self.runs[workload]
        self.assertEqual(record["errors"], [])
        copy = SCRATCH / f"{workload}-corrupt"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(SCRATCH / workload, copy)
        edit(copy)
        return bench.check_outputs(copy, spec, record["result"])

    def test_good_runs_pass(self):
        for workload in self.runs:
            self.assertEqual(self.corrupted(workload, lambda d: None), [])

    def test_truncated_results_csv(self):
        def truncate(d):
            data = (d / "results.csv").read_bytes()
            (d / "results.csv").write_bytes(data[:len(data) * 2 // 3])
        for workload in self.runs:
            self.assertNotEqual(self.corrupted(workload, truncate), [])

    def test_missing_results_row(self):
        def drop_row(d):
            lines = (d / "results.csv").read_text().splitlines(True)
            (d / "results.csv").write_text("".join(lines[:5] + lines[6:]))
        self.assertNotEqual(self.corrupted("sec7-1t", drop_row), [])

    def test_duplicated_results_row(self):
        def dup_row(d):
            lines = (d / "results.csv").read_text().splitlines(True)
            (d / "results.csv").write_text("".join(lines + [lines[3]]))
        self.assertNotEqual(self.corrupted("sec7-1t", dup_row), [])

    def test_bandwidth_file_missing_a_relay(self):
        def drop_entry(d):
            lines = (d / "bandwidth.txt").read_text().splitlines(True)
            (d / "bandwidth.txt").write_text("".join(lines[:-1]))
        for workload in self.runs:
            self.assertNotEqual(self.corrupted(workload, drop_entry), [])

    def test_short_jsonl(self):
        def drop_line(d):
            lines = (d / "results.jsonl").read_text().splitlines(True)
            (d / "results.jsonl").write_text("".join(lines[1:]))
        self.assertNotEqual(self.corrupted("sec7-1t", drop_line), [])

    def test_altered_estimate_breaks_the_statistics(self):
        def alter(d):
            lines = (d / "results.csv").read_text().splitlines(True)
            rows = [line.split(",") for line in lines[1:]]
            for row in rows:
                row[5] = "0.5"  # relative_error
            (d / "results.csv").write_text(
                lines[0] + "".join(",".join(row) for row in rows))
        self.assertNotEqual(self.corrupted("sec7-1t", alter), [])

    def test_missing_fault_ledger(self):
        def remove(d):
            (d / "faults.csv").unlink()
        self.assertNotEqual(self.corrupted("secure-period", remove), [])


class BareTreeTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = SCRATCH.parent / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = invoke("sec7-1t", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

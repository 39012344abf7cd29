#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark, at the tiny input size.

    python3 perfbench/test_perfbench.py

Builds dfsm_perfbench on first use (through run.py). Checks that every
workload emits every metric BENCHMARK.json names, with its unit, in both
modes; that two seeds give different inputs and both pass; that a
sabotaged input makes the checks fail; and that the benchmark refuses to
run, printing no result, when the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# The workload-specific end-to-end figures each untraced run reports.
REPORTED = {
    "serve-benign": ["serve.req_per_s"],
    "serve-attack": ["serve.req_per_s"],
    "corpus-1m": ["corpus.csv_ingest_rec_per_s",
                  "corpus.colsnap_reload_rec_per_s", "corpus.append_rec_per_s",
                  "corpus.read_p50_us", "corpus.read_p99_us",
                  "corpus.read_samples"],
    "analyze-wide": ["analyze.sweep_s", "analyze.rank_ms",
                     "analyze.campaign_trials_per_s"],
}
COMMON = ["setup_s", "wall_s", "failed_frac", "peak_rss_mb"]

# Layers a traced run of each workload must show at work (non-zero).
EXERCISED = {
    "serve-benign": ["loadgen.request_us_p50", "netsim.parse_head_us_p50",
                     "apps.serve_us_p50", "analysis.observe_us_p50"],
    "serve-attack": ["apps.construct_count", "analysis.violations"],
    "corpus-1m": ["bugtraq.csv_parse_ms", "bugtraq.colsnap_decode_ms",
                  "bugtraq.append_batch_us_p50", "bugtraq.scan_count_ms_p50",
                  "core.checksum_mb_per_s"],
    "analyze-wide": ["analysis.sweep_ms", "apps.study_runs",
                     "staticlint.lint_ms", "fssim.explore_ms",
                     "faultinject.trial_ms_p50", "core.evaluate_batch_ms"],
}


def run(workload, seed=1, trace=0, sabotage=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if sabotage:
        cmd += ["--sabotage", sabotage]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def parse(proc):
    """Returns (result, report, inputs) from a run's standard output."""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = {}
    inputs = None
    for line in lines[:-1]:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
        elif line.startswith("inputs "):
            inputs = line.split()[1]
    return result, report, inputs


class PerfbenchTest(unittest.TestCase):
    def check_result(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])

    def test_every_workload_emits_every_metric(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                proc = run(name)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result, report, _ = parse(proc)
                self.check_result(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"], proc.stderr[-2000:])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                for key in COMMON + REPORTED[name]:
                    self.assertIn(key, report)
                    self.assertTrue(report[key]["unit"])
                self.assertEqual(report["failed_frac"]["value"], 0)
            with self.subTest(workload=name, trace=1):
                proc = run(name, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result, _, _ = parse(proc)
                self.check_result(result, SPEC["per_layer"])
                self.assertTrue(result["correct"], proc.stderr[-2000:])
                metrics = result["metrics"]
                self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.9)
                for key in EXERCISED[name]:
                    self.assertGreater(metrics[key]["value"], 0, key)

    def test_two_seeds_give_different_inputs_and_pass(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                first = parse(run(w["name"], seed=1))
                second = parse(run(w["name"], seed=2))
                self.assertNotEqual(first[2], second[2])
                self.assertTrue(first[0]["correct"])
                self.assertTrue(second[0]["correct"])

    def test_sabotaged_inputs_fail_the_checks(self):
        cases = [("corpus-1m", 0, "colsnap-byte"),
                 ("serve-benign", 1, "monitor-accept-all"),
                 ("serve-attack", 1, "monitor-accept-all")]
        for workload, trace, sabotage in cases:
            with self.subTest(workload=workload, sabotage=sabotage):
                proc = run(workload, trace=trace, sabotage=sabotage)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result, report, _ = parse(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                if report:
                    self.assertGreater(report["failed_frac"]["value"], 0)

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("serve-benign", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

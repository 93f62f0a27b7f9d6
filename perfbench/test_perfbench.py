#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")


def bench(*args, cwd=ROOT, check=True):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if check and proc.returncode:
        raise AssertionError("run.py %s failed:\n%s" % (args, proc.stderr))
    return proc


def one_pass(workload, seed, trace=0, *extra):
    """(result, pass digest) of a single pass."""
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), *extra).stdout.splitlines()
    digest = [l.split()[2] for l in out if l.startswith("digest ")]
    return json.loads(out[-1]), digest[0]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)

    def test_short_mode_prints_every_metric_with_its_unit(self):
        out = bench("--short").stdout
        self.assertIn("short mode: PASS", out)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(out, r"\n\S+\s+%s\s+\S+ %s\n" % (
                re.escape(m["name"]), re.escape(m["unit"])))

    def test_wrong_expected_digest_fails_jobs(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        digests = expected["registry"]["digests"].split()
        digests[3] = "%016x" % (int(digests[3], 16) ^ 1)
        expected["registry"]["digests"] = " ".join(digests)
        bad = os.path.join(SCRATCH, "wrong-expected.json")
        with open(bad, "w") as f:
            json.dump(expected, f)
        result, _ = one_pass("registry", 1, 0, "--expected", bad)
        self.assertFalse(result["correct"])
        # Job 3 fails in the warm-up pass and in the timed pass.
        self.assertEqual(result["failed"], 2)
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_seed_permutes_registry_and_sweep_but_changes_corpus(self):
        for workload, same in (("registry", True), ("tracer-sweep", True),
                               ("corpus", False)):
            a, da = one_pass(workload, 1)
            b, db = one_pass(workload, 2)
            self.assertTrue(a["correct"] and b["correct"], workload)
            self.assertEqual(da == db, same, workload)

    def test_traced_run_checks_counters_and_accounts_for_job_time(self):
        result, _ = one_pass("registry", 1, 1)
        self.assertTrue(result["correct"])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        shares = [v for k, v in m.items() if k.endswith("share")
                  and k != "unattributed.share"]
        self.assertAlmostEqual(sum(shares) + m["unattributed.share"], 1.0,
                               places=6)
        self.assertEqual(max(shares), m["hydra.share"])

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "registry",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own test.

Run from the repository root:

    python3 perfbench/test_gate.py

Checks four things:
- a short clean run passes the correctness gate and prints a result;
- a run that corrupts one served answer exits with status 3 and prints no
  result;
- outside a full checkout (only BENCHMARK.json and perfbench/), the
  command fails without printing a result;
- a known daemon defect still trips the gate: a restart after an explicit
  Checkpoint folds the journal suffix a second time, so its answers differ
  from the reference (ingest-mixed, seed 5, 8 seconds: 2 of the 250
  answers after the restarts change). When the daemon is fixed this test
  fails; invert it then (expect status 0 and a result), and move the run's
  Checkpoint back before the restarts in perfbench/src/main.cc.

The runs build into the usual build directory, so the first one may take a
minute.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Exit status of a run whose served answers disagree with the reference.
MISMATCH_STATUS = 3


def run(*extra, cwd=ROOT, env=None, workload="serve-light", seed=5,
        seconds=2):
    command = [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0", *extra]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        final = json.loads(lines[-1])
    except ValueError:
        return None
    return final if isinstance(final, dict) and "correct" in final else None


class GateTest(unittest.TestCase):
    def test_clean_run_passes_the_gate(self):
        result = run()
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        final = result_line(result.stdout)
        self.assertIsNotNone(final)
        self.assertTrue(final["correct"])
        self.assertGreater(final["attempted"], 0)

    def assertTripsGate(self, result):
        self.assertEqual(result.returncode, MISMATCH_STATUS,
                         result.stderr[-2000:])
        self.assertIsNone(result_line(result.stdout))
        self.assertIn("differ from the in-process reference", result.stderr)

    def test_corrupted_answer_trips_the_gate(self):
        self.assertTripsGate(run("--inject-mismatch"))

    def test_restart_after_checkpoint_refolds_journal(self):
        self.assertTripsGate(run("--checkpoint-before-restart",
                                 workload="ingest-mixed", seed=5, seconds=8))

    def test_fails_without_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        parent = pathlib.Path(build)
        if not parent.is_absolute():
            parent = ROOT / parent
        parent.mkdir(parents=True, exist_ok=True)
        bare = pathlib.Path(tempfile.mkdtemp(dir=parent, prefix="bare-"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            result = run(cwd=bare, env=env)
            self.assertNotEqual(result.returncode, 0)
            self.assertIsNone(result_line(result.stdout))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

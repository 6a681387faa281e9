#!/usr/bin/env python3
"""Tests of the benchmark itself (not of ratt).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each case runs run.py from the checkout root on short single-instance runs.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SCRATCH = ROOT / ".bench_build" / "perfbench" / "test"

sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402


def invoke(workload, seed, trace=0, goldens=None, cwd=ROOT, run=RUN):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace)]
    if trace == 0:
        cmd += ["--max-reps", "1"]
    if goldens is not None:
        cmd += ["--goldens", str(goldens)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail_of(workload, seed, trace=0):
    path = bench.BUILD_DIR / "results" / \
        f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


class GoldenTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def test_same_seed_reproduces_goldens(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(invoke(workload, 1))
                detail = detail_of(workload, 1)
                self.assertTrue(result["correct"], detail["errors"])
                self.assertTrue(detail["pinned_seed"])
                self.assertEqual(set(result["metrics"]),
                                 set(bench.END_TO_END))

    def test_second_seed_changes_inputs_and_passes(self):
        for workload in ("hostile_link", "incremental_dirty"):
            with self.subTest(workload=workload):
                inputs = []
                for seed in (1, 2):
                    result = result_of(invoke(workload, seed))
                    detail = detail_of(workload, seed)
                    self.assertTrue(result["correct"], detail["errors"])
                    golden = detail["harness"]["reps"][0]["golden"]
                    inputs.append(golden["inputs_fnv"])
                self.assertNotEqual(inputs[0], inputs[1])

    def test_unpinned_seed_still_checks_model_constants(self):
        result = result_of(invoke("hostile_link", 987654))
        detail = detail_of("hostile_link", 987654)
        self.assertTrue(result["correct"], detail["errors"])
        self.assertFalse(detail["pinned_seed"])

    def test_corrupted_golden_fails(self):
        goldens = json.loads(bench.GOLDENS.read_text())
        cases = [("fleet_mac", "any_seed", "report_digest"),
                 ("fleet_small", "any_seed", "timing.device_ms_per_round"),
                 ("hostile_link", "by_seed", "rounds_valid")]
        for workload, block, key in cases:
            with self.subTest(workload=workload, key=key):
                bad = json.loads(json.dumps(goldens))
                fields = bad["workloads"][workload][block]
                if block == "by_seed":
                    fields = fields["1"]
                value = fields[key]
                fields[key] = value + 1 if not isinstance(value, str) \
                    else "0" * len(value)
                path = SCRATCH / f"corrupt-{workload}.json"
                path.write_text(json.dumps(bad))
                result = result_of(invoke(workload, 1, goldens=path))
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])


class TracedTest(unittest.TestCase):
    def test_every_layer_metric_and_the_round_identity(self):
        result = result_of(invoke("fleet_mac", 3, trace=1))
        detail = detail_of("fleet_mac", 3, trace=1)
        self.assertTrue(result["correct"], detail["errors"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(set(metrics), set(bench.PER_LAYER))
        self.assertAlmostEqual(
            metrics["sim.attributed_us_per_round"] +
            metrics["sim.unattributed_us_per_round"],
            metrics["sim.cpu_us_per_round"], places=6)
        spans = bench.BUILD_DIR / "spans" / "fleet_mac-seed3.jsonl"
        names = {json.loads(line)["name"]
                 for line in spans.read_text().splitlines()}
        for name in ("sim.swarm_ctor", "sim.materialize", "sim.drain",
                     "obs.merge", "obs.jsonl", "attest.prover_handle",
                     "attest.verifier_check", "hw.read_block", "crypto.mac"):
            self.assertIn(name, names)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        lone = SCRATCH / "lone"
        shutil.rmtree(lone, ignore_errors=True)
        lone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke("fleet_mac", 1, cwd=lone,
                      run=lone / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

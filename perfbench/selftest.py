"""Self-test of the benchmark at a tiny input size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload runs and emits exactly the metrics declared
in ``BENCHMARK.json``, that the layer wrappers fire, that a failing
operation is counted, and that the benchmark refuses to measure what it
should not.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import FUNCTIONS  # noqa: E402

SECONDS = 0.2


def tiny(workload: str, trace: bool) -> dict:
    return run.run(workload, None, SECONDS, trace, size="tiny",
                   out=io.StringIO())


class TestBenchmark(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json") as fh:
            cls.spec = json.load(fh)
        cls.results = {(name, trace): tiny(name, trace)
                       for name in workloads.WORKLOADS
                       for trace in (False, True)}

    def test_every_workload_runs_clean(self):
        declared = {w["name"] for w in self.spec["workloads"]}
        self.assertLessEqual(declared, set(workloads.WORKLOADS))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))
        for key, result in self.results.items():
            self.assertTrue(result["correct"], key)
            self.assertEqual(result["failed"], 0, key)
            self.assertGreaterEqual(result["attempted"], 1, key)

    def test_emitted_metrics_match_declaration(self):
        for kind, trace in (("end_to_end", False), ("per_layer", True)):
            declared = {m["name"]: m["unit"] for m in self.spec[kind]}
            for (name, traced), result in self.results.items():
                if traced != trace:
                    continue
                emitted = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                self.assertEqual(emitted, declared, (name, kind))

    def test_end_to_end_metrics_are_nonzero(self):
        for (name, traced), result in self.results.items():
            if not traced:
                for metric, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, (name, metric))

    def test_layer_wrappers_fire(self):
        # Store-less phase functions run only on the untiled corpus, and
        # a serial run never enters the other executors.
        metrics = self.results[("cold-chip", True)]["metrics"]
        for name in FUNCTIONS:
            calls = metrics[f"{name}.calls"]["value"]
            if name in ("phase.assign_phases", "phase.verify_assignment"):
                self.assertEqual(calls, 0, name)
            else:
                self.assertGreater(calls, 0, name)
        corpus = self.results[("corpus-small", True)]["metrics"]
        for name in ("phase.assign_phases", "phase.verify_assignment"):
            self.assertGreater(corpus[f"{name}.calls"]["value"], 0, name)
        parallel = self.results[("chip-parallel", True)]["metrics"]
        self.assertGreater(
            parallel["graph.min_weight_perfect_matching.calls"]["value"], 0,
            "worker-side layer timings were not collected")

    def test_known_crash_stays_in_corpus(self):
        out = io.StringIO()
        run.run("corpus-small", None, SECONDS, True, size="tiny", out=out)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertGreater(
            result["metrics"]["corpus.known_failures"]["value"], 0)
        self.assertEqual(result["failed"], 0)

    def test_injected_failure_raises_failed_count(self):
        broken = workloads.PipelineConfig(tiled=True,
                                          executor="no-such-executor")
        with mock.patch.object(workloads.ColdChip, "config", broken):
            result = tiny("cold-chip", False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_wrong_answer_counts_as_failed(self):
        real = workloads.digest
        calls = []

        def wrong_after_reference(result):
            calls.append(1)
            return real(result) if len(calls) == 1 else "0" * 64

        with mock.patch.object(workloads, "digest", wrong_after_reference):
            result = tiny("cold-chip", False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_refuses_backend_override(self):
        with mock.patch.dict(os.environ, {"REPRO_KERNELS": "numpy"}):
            with self.assertRaises(SystemExit):
                tiny("cold-chip", False)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in self.spec["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *self.spec["command"], "--workload",
                 "cold-chip", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

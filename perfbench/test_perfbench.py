"""Self-tests of the benchmark, on tiny sizes that are not workloads.

Run from the root of the repository with

    python3 -m pytest -q perfbench

They include the negative controls: a CLI invocation that silently does
nothing, and a sweep pair checked against the wrong exit code, must both
count as failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import shims  # noqa: E402
from workloads import REFERENCE_NOMINAL_S, cross_validate, doc_pipeline, verify_sweep  # noqa: E402

# `python -m cubespec.cli` imports the module and exits 0 without output,
# because cli.py has no __main__ guard
MODULE_CLI = (sys.executable, "-m", "cubespec.cli")
TINY = {"m": 4, "k": 2, "span": 6, "margin": 2}


def _run_all(commands, prefix=run.CLI):
    env = run.child_env(run.ROOT)
    return [run.run_subprocess(c, env, cpu_limit=60, prefix=prefix) for c in commands]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(parents=True, exist_ok=True)
        cls.doc = run.WORK / "selftest-doc.json"

    @classmethod
    def tearDownClass(cls):
        cls.doc.unlink(missing_ok=True)

    def test_tiny_commands_pass_their_checks(self):
        commands = (
            doc_pipeline(self.doc, **TINY)
            + cross_validate(**TINY)
            + verify_sweep(0, clean=((4, 2),), findings=((3, 3),))
        )
        for outcome in _run_all(commands):
            self.assertEqual(outcome.problems, [], outcome.command.label)
            self.assertIsNotNone(outcome.sha256)
            self.assertGreater(outcome.peak_rss_mb, 0)

    def test_module_invocation_counts_as_failed(self):
        commands = doc_pipeline(self.doc, **TINY) + verify_sweep(0, clean=((4, 2),), findings=())
        for outcome in _run_all(commands, prefix=MODULE_CLI):
            self.assertEqual(outcome.exit_code, 0)  # the silent pass being guarded against
            self.assertNotEqual(outcome.problems, [], outcome.command.label)

    def test_wrong_expected_exit_counts_as_failed(self):
        # (4, 2) is clean, so listing it among the findings pairs is wrong
        (outcome,) = _run_all(verify_sweep(0, clean=(), findings=((4, 2),)))
        self.assertEqual(outcome.exit_code, 0)
        self.assertIn("exit 0, expected 1", outcome.problems)

    def test_changed_document_counts_as_failed(self):
        first, again = _run_all(verify_sweep(0, clean=((4, 2),), findings=()) * 2)
        seen = {}
        run.check_repeatable(first, seen)
        again.sha256 = "0" * 64
        run.check_repeatable(again, seen)
        self.assertEqual(first.problems, [])
        self.assertEqual(len(again.problems), 1)

    def test_traced_documents_match_untraced(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import cubespec.verifier

        original = cubespec.verifier.classify_osculation
        commands = doc_pipeline(self.doc, **TINY) + cross_validate(**TINY)
        untraced = _run_all(commands)
        tracer = shims.Tracer()
        with shims.installed(tracer) as cli_main:
            self.assertIsNot(cubespec.verifier.classify_osculation, original)
            traced = [run.run_in_process(c, tracer, cli_main) for c in commands]
        self.assertIs(cubespec.verifier.classify_osculation, original)
        for plain, shimmed in zip(untraced, traced):
            self.assertEqual(shimmed.problems, [], shimmed.command.label)
            self.assertEqual(plain.sha256, shimmed.sha256, shimmed.command.label)
        metrics = shims.layer_metrics(tracer, traced)
        untraced_only = {"trace.overhead_s", "e2e.build_s", "e2e.check_s", "e2e.cross_validate_s"}
        self.assertEqual(set(metrics) | untraced_only, set(shims.LAYER_METRICS))
        for name in ("complex_model.build_calls", "complex_model.to_json_s",
                     "complex_model.from_json_s", "hyperplane_engine.core_edge_count",
                     "verifier.witnesses_classified", "verifier.classify_s",
                     "verifier.hidden_build_s"):
            self.assertGreater(metrics[name], 0, name)
        self.assertGreaterEqual(
            metrics["hyperplane_engine.osc_pairs"], metrics["verifier.witnesses_classified"]
        )
        names = {s["name"] for s in tracer.spans}
        self.assertIn("complex_model.build_quotient_complex", names)
        self.assertNotIn("complex_model.square_boundary", names)  # per-cell, not wrapped

    def test_calibrated_pass_scales_by_nearby_references(self):
        bench = run.Run(verify_sweep(0, clean=((4, 2),), findings=((3, 3),)),
                        run.child_env(run.ROOT))
        done = bench.subprocess_pass(calibrate=True)
        self.assertIsNone(done[0].reference_s)
        bench.calibrate()
        self.assertEqual(len(bench.references), len(done) + 2)
        for outcome in done:
            self.assertEqual(outcome.problems, [], outcome.command.label)
            self.assertGreater(outcome.reference_s, 0)
            self.assertAlmostEqual(
                outcome.calibrated_seconds,
                outcome.seconds * REFERENCE_NOMINAL_S / outcome.reference_s,
            )
        self.assertIsNone(bench.subprocess_pass()[0].reference_s)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, shims.LAYER_METRICS
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.REQUIRED_NONZERO))

    def test_exits_nonzero_without_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cross-validate",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()

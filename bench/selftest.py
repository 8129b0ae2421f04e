"""Self-tests of the benchmark itself (about a minute):

    python3 bench/selftest.py

They check that every operation starts cold, that the exactness gate
catches a wrong answer, that the generator is deterministic and its gate
holds on seeds other than the default, that tracing patches every alias
and covers the operation, and that the benchmark refuses to run without
the hardlef sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest

import run
import tracer


def _workdir(name: str) -> str:
    path = os.path.join(run.WORK, f"selftest-{name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(run.WORK, exist_ok=True)
    return path


class ColdStart(unittest.TestCase):
    def test_repeat_is_not_served_from_a_cache(self):
        r = run.Run("catalog_suite", 0, _workdir("cold"))
        r.ops = [op for op in r.ops if op.label == "lefschetz:h5s1"]
        first, second = (r.run_pass(False) for _ in range(2))
        self.assertEqual(r.problems, [])
        [t1] = first["ops"]["lefschetz:h5s1"]
        [t2] = second["ops"]["lefschetz:h5s1"]
        # A repeat answered from any cache (lefschetz._full and _basic
        # answer a repeated Betti table in well under a millisecond) would
        # take a small fraction of the first run.
        self.assertGreater(t2, 0.5 * t1, (t1, t2))

    def test_each_operation_gets_a_fresh_interpreter(self):
        request = {"mode": "probe", "src": run.SRC}
        (a, _), (b, _) = run.spawn(request), run.spawn(request)
        self.assertNotEqual(a["pid"], b["pid"])
        self.assertFalse(a["preloaded"] or b["preloaded"])
        self.assertTrue(a["module"].startswith(run.SRC))


class ExactnessGate(unittest.TestCase):
    def _run_one(self, label: str, tamper) -> run.Run:
        r = run.Run("catalog_suite", 0, _workdir("gate"))
        r.ops = [op for op in r.ops if op.label == label]
        tamper(r.ops[0])
        r.run_pass(False)
        return r

    def test_untampered_operation_passes(self):
        r = self._run_one("cohomology:kt4", lambda op: None)
        self.assertEqual((r.attempted, r.failed, r.problems), (1, 0, []))

    def test_tampered_betti_table_counts_as_failure(self):
        def tamper(op):
            op.expect["betti"] = [1, 3, 5, 3, 1]
        r = self._run_one("cohomology:kt4", tamper)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("betti", r.problems[0])

    def test_tampered_digest_counts_as_failure(self):
        def tamper(op):
            op.digest = "0" * 16
        r = self._run_one("suite:h3", tamper)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("sha256", r.problems[0])

    def test_unexpected_exit_code_counts_as_failure(self):
        def tamper(op):
            op.argv[op.argv.index("--entry") + 1] = "no_such_entry"
        r = self._run_one("suite:h3", tamper)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("exit code 1", r.problems[0])


class SeededGenerator(unittest.TestCase):
    def _files(self, seed: int) -> dict:
        model_dir = os.path.join(_workdir(f"gen{seed}"), "models")
        os.makedirs(model_dir)
        reply, _ = run.spawn({"mode": "generate", "src": run.SRC,
                              "workload": "rebased_rational", "seed": seed,
                              "model_dir": model_dir})
        out = {}
        for name in reply["files"]:
            with open(os.path.join(model_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def test_same_seed_gives_identical_files(self):
        self.assertEqual(self._files(7), self._files(7))
        self.assertNotEqual(self._files(7), self._files(8))

    def test_gate_holds_on_non_default_seeds(self):
        for seed in (7, 12345):
            r = run.Run("rebased_rational", seed, _workdir(f"seed{seed}"))
            r.run_pass(False)
            self.assertEqual((r.failed, r.problems), (0, []), seed)
            self.assertEqual(r.attempted, len(r.ops))


class Tracing(unittest.TestCase):
    def test_every_alias_is_patched(self):
        sys.path.insert(0, run.SRC)
        try:
            import hardlef.cli
            t = tracer.Tracer()
            tracer.install(t)
            # hardlef.cohomology is shadowed by the function of that name
            mod = {name: sys.modules[f"hardlef.{name}"] for name in
                   ("catalog", "cli", "cohomology", "lefschetz", "model",
                    "structures")}
            cohomology, lefschetz = mod["cohomology"], mod["lefschetz"]
            for name, attr, home in (
                    ("lefschetz", "full_complex", "cohomology"),
                    ("lefschetz", "basic_complex", "cohomology"),
                    ("lefschetz", "betti_numbers", "cohomology"),
                    ("lefschetz", "splitting_check", "cohomology"),
                    ("lefschetz", "quotient_contact", "structures"),
                    ("catalog", "validate_lcs", "structures"),
                    ("cli", "validate_contact", "structures")):
                fn = getattr(mod[name], attr)
                self.assertTrue(hasattr(fn, "__wrapped__"), (name, attr))
                self.assertIs(fn, getattr(mod[home], attr))
            self.assertTrue(hasattr(
                cohomology.CohomologySpace.class_of, "__wrapped__"))
            hardlef.cli.betti_numbers(lefschetz._full(
                mod["model"].StructureModel.from_salamon("(0,0,12)")))
            names = {s[0] for s in t.spans}
            self.assertIn("cohomology.full_complex", names)
            for i, s in enumerate(t.spans):
                self.assertLess(s[1], i)
        finally:
            sys.path.remove(run.SRC)

    def test_traced_pass_records_every_layer_and_covers_the_operation(self):
        r = run.Run("catalog_suite", 0, _workdir("trace"))
        traced = r.run_pass(True)
        self.assertEqual(r.problems, [])
        values = run._layer_values(traced["layers"])
        for name, _, on in run.PER_LAYER:
            if "catalog_suite" in on and name != "trace.overhead_ratio":
                self.assertGreater(values[name], 0, name)
        self.assertGreaterEqual(values["trace.coverage"], 0.95)


class Refusal(unittest.TestCase):
    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        root = _workdir("bare")
        shutil.copytree(run.BENCH, os.path.join(root, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "catalog_suite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertRaises(ValueError, json.loads, line)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        for name in os.listdir(run.WORK) if os.path.isdir(run.WORK) else ():
            if name.startswith("selftest-"):
                shutil.rmtree(os.path.join(run.WORK, name),
                              ignore_errors=True)

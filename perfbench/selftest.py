"""Fast self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, checks that every metric
BENCHMARK.json names is printed with its unit, that a corrupted output file
counts as a failed operation, and that a traced run leaves the library's
functions as it found them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", str(trace)], size="tiny")
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}")
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _library_bindings(lib) -> dict:
    """Identity of every callable a library module exposes, plus the
    registry entries and the RngStream method the tracer rebinds."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("hilbertbridge"):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                found[(name, attr)] = id(value)
    found["RngStream.generator"] = id(lib.stats_util.RngStream.__dict__["generator"])
    for key, entry in lib.experiments.REGISTRY.items():
        found[("REGISTRY", key)] = (id(entry), id(entry.runner))
    return found


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        cls.lib = bench.load_library()

    def _assert_metrics(self, result: dict, lines: list[str], wanted: list[dict]):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
            prefix, unit = f"perfbench: {metric['name']} = ", metric["unit"]
            self.assertTrue(
                any(line.startswith(prefix) and (line.endswith(f" {unit}")
                                                 or line.endswith(f" {unit} (computed)"))
                    for line in lines),
                f"{metric['name']} missing from the readable report")

    def test_every_workload_prints_every_metric(self):
        listed = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(tuple(listed), workloads.WORKLOADS)
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                lines, result = _bench(workload, 0)
                self._assert_metrics(result, lines, self.spec["end_to_end"])
                for metric in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)
            with self.subTest(workload=workload, trace=1):
                lines, result = _bench(workload, 1)
                self._assert_metrics(result, lines, self.spec["per_layer"])

    def _failures(self, work, corrupt_passes: tuple[bool, ...]) -> list[int]:
        """Failed operations per pass, corrupting the passes marked True."""
        lib = self.lib
        original = lib.experiments.write_outputs

        def corrupting(*args, **kwargs):
            trials_path, summary_path = original(*args, **kwargs)
            lines = trials_path.read_text().splitlines()
            lines[1] += "9"
            trials_path.write_text("\n".join(lines) + "\n")
            return trials_path, summary_path

        checker = workloads.Checker(lib, workloads.load_expected(HERE / "expected.json"))
        runner = bench.Runner(lib, work, bench.OUT / "selftest", checker)
        counts = []
        for corrupt in corrupt_passes:
            before = len(runner.failures)
            if corrupt:
                lib.experiments.write_outputs = corrupting
            try:
                runner.run_pass()
            finally:
                lib.experiments.write_outputs = original
            counts.append(len(runner.failures) - before)
        self.assertEqual(runner.attempted, len(corrupt_passes) * len(work.ops))
        return counts

    def test_corrupted_output_is_a_failed_operation(self):
        spin = workloads.build(self.lib, "spin-born", 3, "tiny")
        sweep = workloads.build(self.lib, "registry-sweep", 3, "tiny")
        curvature = workloads.Workload("curvature", tuple(
            op for op in sweep.ops if op.experiment == "curvature"))
        self.assertIn(curvature.ops[0].key,
                      workloads.load_expected(HERE / "expected.json"))
        # recorded digest, reference walks, and repeat-pass determinism
        self.assertEqual(self._failures(curvature, (True,)), [1])
        self.assertEqual(self._failures(spin, (True,)), [1])
        self.assertEqual(self._failures(spin, (False, True, False)), [0, 1, 0])

    def test_traced_run_restores_the_library(self):
        before = _library_bindings(self.lib)
        _bench("registry-sweep", 1)
        self.assertEqual(_library_bindings(self.lib), before)


if __name__ == "__main__":
    unittest.main()

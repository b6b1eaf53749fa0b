"""Smoke test of the benchmark itself at tiny sizes.

Run from the repository root with ``python3 perfbench/smoke.py``.
"""

from __future__ import annotations

import json
import random
import unittest

import run

TINY = {
    "verify_sweep": {"phiA": range(2, 4), "psiA": range(2, 4), "phiB": range(2, 3), "psiB": range(2, 3), "d4": True},
    "map_stream": {"A": (5, 30), "B": (4, 30)},
    "series": {"dyck_a": 4, "dyck_b": 3, "ideal_a": 4, "ideal_b": 3, "palindromic": 8},
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


class SmokeTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))

    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        keys = {"workloads": {"name", "why"}, "end_to_end": {"name", "unit", "better", "bound"}, "per_layer": {"name", "unit", "better"}}
        names = [entry["name"] for section in keys for entry in SPEC[section]]
        self.assertEqual(len(names), len(set(names)))
        for section, wanted in keys.items():
            for entry in SPEC[section]:
                self.assertEqual(set(entry), wanted, entry)
                self.assertRegex(entry["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
                if "unit" in entry:
                    self.assertRegex(entry["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
                    self.assertIn(entry["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            result, record = run.run(workload, 7, 0.01, False, TINY[workload])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], workload)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, units("end_to_end"), workload)
            self.assertEqual(result["metrics"]["pass_ratio"]["value"], 1.0)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))
            self.assertEqual(record["seed"], 7)

    def test_per_layer_metrics_add_up(self):
        for workload in run.WORKLOADS:
            result, record = run.run(workload, 7, 0.02, True, TINY[workload])
            self.assertTrue(result["correct"], workload)
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, units("per_layer"), workload)
            parts = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
            self.assertAlmostEqual(parts, metrics["trace.wall_s"], delta=1e-9 + 1e-9 * parts)
            self.assertTrue(any(s["name"] == "round" for s in record["spans"]))
            self.assertGreater(metrics["rootposets.self_s"], 0, workload)

    def test_planted_wrong_polynomial_fails(self):
        original = run.expected_poly

        def planted(lib, stat, family, n):
            want = original(lib, stat, family, n)
            return want * 2 if (stat, family) == ("maj", "B") else want

        run.expected_poly = planted
        try:
            result, _ = run.run("series", 7, 0.01, False, TINY["series"])
        finally:
            run.expected_poly = original
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["pass_ratio"]["value"], 1.0)

    def test_inputs_follow_the_seed(self):
        lib = run.load_library()
        size = TINY["map_stream"]
        first = run.map_setup(lib, random.Random(3), size)
        again = run.map_setup(lib, random.Random(3), size)
        other = run.map_setup(lib, random.Random(4), size)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        paths = lib["paths"]
        for family, _, _, objects in first:
            for word, _, maj in objects:
                if family == "A":
                    self.assertTrue(paths.is_dyck_a(word))
                    self.assertEqual(maj, paths.maj_a(word))
                else:
                    self.assertTrue(paths.is_dyck_b(word))
                    self.assertEqual(maj, paths.maj_b(word))


if __name__ == "__main__":
    unittest.main()

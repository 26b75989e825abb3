"""Tests of the orchestrator's bookkeeping (no build, no passes).

Run from the repository root: python3 -m unittest perfbench/test_run.py
"""

import importlib.util
import json
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("run", HERE / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def record(kind, work=100, wall=2.0, cpu=3.0, counts=None, failures=(), layers=None):
    return {
        "kind": kind, "order": 0, "setup_s": 0.1, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": 20.0,
        "verdict": {"checks_run": 4, "failures": list(failures), "work": work,
                    "counts": counts or {"sim.events": 100}},
        "layers": layers or {},
    }


class MetricsMatchTheContract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class Bookkeeping(unittest.TestCase):
    def test_a_count_that_changes_between_passes_is_a_failure(self):
        same = [record("plain"), record("plain")]
        self.assertEqual(run.count_checks(same), (1, []))
        moved = [record("plain"), record("plain", counts={"sim.events": 101})]
        checks, failures = run.count_checks(moved)
        self.assertEqual(checks, 1)
        self.assertEqual(len(failures), 1)
        self.assertIn("sim.events", failures[0])

    def test_end_to_end_takes_medians_of_the_untraced_passes(self):
        plain = [record("plain", wall=w, cpu=c) for w, c in ((1.0, 3.0), (2.0, 2.0), (4.0, 1.0))]
        m = run.end_to_end(plain, 0.5)
        self.assertEqual(m["work_per_s"], 50.0)
        self.assertEqual(m["cpu_s"], 2.0)
        self.assertEqual(m["check_pass_ratio"], 0.5)
        self.assertEqual(set(m), set(run.END_TO_END))

    def test_per_layer_reports_every_metric_and_the_overheads(self):
        plain = [record("plain", wall=2.0, cpu=3.0)]
        traced = [record("traced", wall=2.5, cpu=2.4, layers={"sim.run_s": 1.5})]
        profiled = [record("profiled", layers={"sim.phase.engine_s": 0.7, "sim.run_s": 9.0})]
        m = run.per_layer(plain, traced, profiled)
        self.assertEqual(set(m), set(run.PER_LAYER))
        self.assertEqual(m["sim.run_s"], 1.5)
        self.assertEqual(m["sim.phase.engine_s"], 0.7)
        self.assertAlmostEqual(m["trace.overhead_pct"], 25.0)
        self.assertAlmostEqual(m["bench.fanout_overhead_s"], 0.6)
        self.assertEqual(m["model.pmo_s"], 0.0)


if __name__ == "__main__":
    unittest.main()

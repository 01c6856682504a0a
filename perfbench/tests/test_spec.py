"""Consistency checks between BENCHMARK.json, perfbench/metrics.json and
run.py's metric composition. Run with: python3 perfbench/run.py --selftest
"""
import argparse
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


def load(path):
    with open(path) as f:
        return json.load(f)


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.meta = load(os.path.join(os.path.dirname(HERE), "metrics.json"))

    def test_benchmark_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_metrics_documented(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(self.meta["workloads"]), set(run.WORKLOADS))
        self.assertEqual({m["name"] for m in self.spec["end_to_end"]},
                         set(self.meta["end_to_end"]))
        self.assertEqual({m["name"] for m in self.spec["per_layer"]},
                         set(self.meta["per_layer"]))
        e2e = set(self.meta["end_to_end"]) | set(self.meta["also_printed"])
        for name, m in self.meta["per_layer"].items():
            self.assertTrue(set(m["moves"]) <= e2e, name)
            self.assertTrue(set(m["on"] + m["little_on"]) <= set(run.WORKLOADS), name)

    def test_compose_emits_exactly_the_listed_metrics(self):
        e2e = {m["name"]: 1.0 for m in self.spec["end_to_end"]}
        proc = {"setup_s": [0.1, 0.3, 0.2], "peak_rss_mb": 10.0, "e2e": e2e,
                "layers": {"transport.send_ns": 5.0}}
        args = argparse.Namespace(workload="rpc_bulk", trace=0)
        metrics, _ = run.compose(args, [proc], None, self.spec)
        self.assertEqual(set(metrics), set(e2e))
        self.assertEqual(metrics["setup_s"]["value"], 0.2)
        args.trace = 1
        metrics, missing = run.compose(args, [proc], proc, self.spec)
        self.assertEqual(set(metrics), {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(metrics["transport.send_ns"]["value"], 5.0)
        self.assertIn("sim.events", missing)


if __name__ == "__main__":
    unittest.main()

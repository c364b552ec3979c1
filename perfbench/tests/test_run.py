"""Tests of perfbench/run.py's derived metrics and result shape.

    python3 -m unittest discover -s perfbench/tests

The fixtures come from one traced cc1plus compile under the shim
(MSW_TELEMETRY=ops): the MSW_STATS_DUMP file, with its trace tail cut to
four events, and the stats tap's output.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def load_fixture():
    """The fixture run's counters, fast-path digests and frees issued."""
    with open(os.path.join(HERE, "fixtures", "cc1plus_stats_dump.json")) as f:
        dump = json.load(f)
    with open(os.path.join(HERE, "fixtures", "cc1plus_stats_tap.json")) as f:
        tap = json.load(f)
    return run.shim_counters(dump, tap)


class DerivedMetrics(unittest.TestCase):
    def setUp(self):
        self.counters, alloc_ns, free_ns, _ = load_fixture()
        self.m = run.derive_layers(self.counters, alloc_ns, free_ns,
                                   process_cpu_s=4.0)

    def test_mark(self):
        # 11237888000 bytes scanned in 904395206 ns of mark phase.
        self.assertAlmostEqual(self.m["sweep.mark_gbps"],
                               11237888000 / 904395206)
        self.assertAlmostEqual(self.m["sweep.mark_gbps"], 12.426, places=3)
        self.assertAlmostEqual(self.m["sweep.mark_ms"], 904.395206)
        self.assertAlmostEqual(self.m["sweep.scanned_mib"],
                               11237888000 / 1048576)

    def test_release(self):
        # 653948 released + 114830 failed = 768778 entries tested.
        self.assertAlmostEqual(self.m["sweep.release_ns_per_entry"],
                               184885487 / 768778)
        self.assertAlmostEqual(self.m["sweep.release_ns_per_entry"], 240.493,
                               places=3)
        self.assertAlmostEqual(self.m["sweep.release_ratio"],
                               653948 / 768778)
        self.assertAlmostEqual(self.m["sweep.release_ms"], 184.885487)

    def test_whole_sweep(self):
        self.assertAlmostEqual(self.m["sweep.cpu_share"], 2879425563 / 4.0e9)
        self.assertAlmostEqual(self.m["sweep.cpu_ms"], 2879.425563)
        self.assertAlmostEqual(self.m["sweep.drain_ms"], 42.225774)
        self.assertEqual(self.m["sweep.count"], 152)
        self.assertEqual(self.m["sweep.alloc_pause_ms"], 0)
        self.assertEqual(self.m["quarantine.unmapped_entries"], 1573)

    def test_fast_path_digests(self):
        # Interpolated by the tap; the dump's bucket bounds are 95, 2687,
        # 135 and 1151 ns.
        self.assertEqual(self.m["core.alloc_ns.p50"], 93.896)
        self.assertEqual(self.m["core.alloc_ns.p99"], 2621.867)
        self.assertEqual(self.m["core.free_ns.p50"], 134.205)
        self.assertEqual(self.m["core.free_ns.p99"], 1093.192)

    def test_nothing_tested_is_an_error(self):
        counters, alloc_ns, free_ns, _ = load_fixture()
        counters.update(entries_released=0, failed_frees=0)
        with self.assertRaises(run.BenchError):
            run.derive_layers(counters, alloc_ns, free_ns, 4.0)


class CounterSanity(unittest.TestCase):
    def setUp(self):
        self.counters, _, _, self.frees = load_fixture()

    def test_fixture_is_sane(self):
        self.assertEqual(self.frees, 656571)
        run.check_counters("cc1plus", self.counters, self.frees, None)

    def test_violations_raise(self):
        bad = [
            (dict(self.counters, sweeps=0), self.frees, None),
            (dict(self.counters, stw_ns=1), self.frees, None),
            (self.counters, self.counters["entries_released"] - 1, None),
            (self.counters, self.frees, self.counters["bytes_released"] - 1),
        ]
        for counters, frees, bytes_freed in bad:
            with self.assertRaises(run.BenchError):
                run.check_counters("cc1plus", counters, frees, bytes_freed)


def fake_rep(wall_s, layers=None):
    rep = run.Rep(wall_s, cpu_s=2 * wall_s, peak_rss_mib=40.0, status=0,
                  stdout="")
    rep.ops_per_s = 1e6 / wall_s
    rep.op_us = [0.8, 4.5]
    rep.layers = layers
    return rep


class ResultShape(unittest.TestCase):
    """Every metric BENCHMARK.json names is printed, with its unit."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR),
                               "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def units(self, section):
        return {m["name"]: m["unit"] for m in self.spec[section]}

    def test_unit_tables_match_benchmark_json(self):
        self.assertEqual(run.E2E_UNITS, self.units("end_to_end"))
        self.assertEqual(run.LAYER_UNITS, self.units("per_layer"))

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            reps = [fake_rep(w) for w in (1.0, 1.2, 1.1)]
            metrics = run.with_units(
                run.end_to_end(workload, reps, [0.5, 0.4, 0.6]), run.E2E_UNITS)
            self.assertEqual(
                {k: v["unit"] for k, v in metrics.items()},
                self.units("end_to_end"), workload)
            self.assertAlmostEqual(metrics["wall_s"]["value"], 1.1)
            self.assertAlmostEqual(metrics["setup_s"]["value"], 0.5)

    def test_per_layer_metrics(self):
        counters, alloc_ns, free_ns, _ = load_fixture()
        layers = run.derive_layers(counters, alloc_ns, free_ns, 4.0)
        probe = {"d%d" % d: {"gbps": 1.0 + d} for d in (0, 5, 20, 50)}
        metrics = run.with_units(
            run.per_layer([fake_rep(2.0, layers)], [fake_rep(1.6)], probe),
            run.LAYER_UNITS)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         self.units("per_layer"))
        self.assertAlmostEqual(metrics["trace_overhead"]["value"], 2.0 / 1.6)
        self.assertEqual(metrics["sweep.mark_gbps.d20"]["value"], 21.0)

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.with_units({"setup_s": 1.0}, run.E2E_UNITS)


class WithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "server",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("correct", p.stdout)
        self.assertIn("runtime sources not found", p.stderr)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark's metric, check and comparison logic.

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import compare  # noqa: E402


def system(**kw):
    s = {"label": "sys", "generated": 100, "mac": 100, "drops": 10,
         "processed": 85, "held": 5, "mlc_wb": 0, "digest": "aa"}
    s.update(kw)
    return s


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)

    def test_names_and_units_are_well_formed(self):
        names = [m[0] for m in benchlib.END_TO_END + benchlib.PER_LAYER]
        names += [w["name"] for w in self.bench["workloads"]]
        for name in names:
            self.assertRegex(name, benchlib.NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for _, unit, *_ in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertRegex(unit, benchlib.UNIT_RE)

    def test_benchmark_json_declares_exactly_these_metrics(self):
        e2e = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in self.bench["end_to_end"]]
        self.assertEqual(e2e, list(benchlib.END_TO_END))
        layer = [(m["name"], m["unit"], m["better"])
                 for m in self.bench["per_layer"]]
        self.assertEqual(layer, list(benchlib.PER_LAYER))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(benchlib.WORKLOADS))

    def test_setup_bound_is_the_largest(self):
        bounds = {m[0]: m[3] for m in benchlib.END_TO_END}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class Conservation(unittest.TestCase):
    def test_balanced_system_passes(self):
        self.assertEqual(benchlib.conservation_errors(system()), [])

    def test_lost_before_the_mac_trips(self):
        self.assertEqual(len(benchlib.conservation_errors(
            system(generated=101))), 1)

    def test_lost_after_acceptance_trips(self):
        self.assertEqual(len(benchlib.conservation_errors(
            system(processed=84))), 1)
        self.assertEqual(len(benchlib.conservation_errors(
            system(held=6))), 1)


class Percentiles(unittest.TestCase):
    def test_single_sample(self):
        for p in (50, 99, 99.9):
            self.assertEqual(benchlib.percentile([7], p), 7)
        self.assertEqual(benchlib.samples_beyond(1, 99), 0)

    def test_nearest_rank_at_small_n(self):
        self.assertEqual(benchlib.percentile([2, 1], 50), 1)
        self.assertEqual(benchlib.percentile([2, 1], 99), 2)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)
        ten = list(range(10, 0, -1))
        self.assertEqual(benchlib.percentile(ten, 50), 5)
        self.assertEqual(benchlib.percentile(ten, 90), 9)
        self.assertEqual(benchlib.percentile(ten, 99), 10)
        self.assertEqual(benchlib.percentile(ten, 0), 1)

    def test_sample_counts_beyond(self):
        self.assertEqual(benchlib.samples_beyond(10, 50), 5)
        self.assertEqual(benchlib.samples_beyond(10, 99), 0)
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.samples_beyond(10000, 99.9), 10)
        self.assertEqual(benchlib.samples_beyond(0, 99), 0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class Assembly(unittest.TestCase):
    def values(self):
        return {name: 1.0 for name, *_ in benchlib.END_TO_END}

    def test_complete_metrics_carry_units(self):
        out = benchlib.assemble(self.values(), benchlib.END_TO_END)
        self.assertEqual(list(out), [m[0] for m in benchlib.END_TO_END])
        self.assertEqual(out["setup_s"], {"value": 1.0, "unit": "s"})

    def test_missing_metric_fails_loudly(self):
        values = self.values()
        del values["sim_p99_us"]
        with self.assertRaisesRegex(benchlib.MissingMetric, "sim_p99_us"):
            benchlib.assemble(values, benchlib.END_TO_END)

    def test_non_finite_metric_fails_loudly(self):
        values = self.values()
        values["pkts_per_s"] = math.nan
        with self.assertRaises(benchlib.MissingMetric):
            benchlib.assemble(values, benchlib.END_TO_END)


class Checks(unittest.TestCase):
    def test_fig09_shape(self):
        good = [system(label=k, processed=100, mlc_wb=v) for k, v in
                (("DDIO", 2000), ("Invalidate", 0), ("Prefetch", 3000),
                 ("Static", 1400), ("IDIO", 800))]
        self.assertEqual(benchlib.fig09_shape_errors(good), [])
        bad = [dict(s) for s in good]
        bad[3]["mlc_wb"] = 700  # Static below IDIO
        bad[1]["mlc_wb"] = 50   # Invalidate not ~0
        self.assertEqual(len(benchlib.fig09_shape_errors(bad)), 2)

    def test_digests(self):
        reps = [{"systems": [system(digest="a"), system(digest="b")]},
                {"traced": True,
                 "systems": [system(digest="a"), system(digest="b")]}]
        ckpt = {"resumed": "a", "restored": "a"}
        self.assertEqual(benchlib.digest_errors(reps, ckpt), [])
        reps[1]["systems"][1]["digest"] = "c"
        self.assertEqual(len(benchlib.digest_errors(reps, ckpt)), 1)
        self.assertEqual(len(benchlib.digest_errors(
            reps[:1], {"resumed": "a", "restored": "x"})), 1)


class Rates(unittest.TestCase):
    def test_best_rate_takes_each_systems_fastest_run(self):
        reps = [{"systems": [system(processed=100, sim_us=10, run_s=2.0),
                             system(processed=50, sim_us=10, run_s=1.0)]},
                {"systems": [system(processed=100, sim_us=10, run_s=1.0),
                             system(processed=50, sim_us=10, run_s=3.0)]}]
        self.assertEqual(benchlib.best_rate(reps, "packets"), 75.0)
        self.assertEqual(benchlib.best_rate(reps, "sim_us"), 10.0)
        self.assertEqual(benchlib.rep_rate(reps[0], "packets"), 50.0)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 1, "parent": 0, "name": "build", "start_us": 0.0,
             "end_us": 10.0},
            {"id": 2, "parent": 1, "name": "runFor", "start_us": 2.0,
             "end_us": 5.0},
            {"id": 3, "parent": 1, "name": "runFor", "start_us": 6.0,
             "end_us": 7.0},
        ]
        table = benchlib.self_times(spans)
        self.assertEqual(table["build"], (1, 10.0, 6.0))
        self.assertEqual(table["runFor"], (2, 4.0, 4.0))

    def test_stage_table_parse(self):
        text = (
            "Per-stage latency (per packet id)\n"
            "  dma (rx -> payload landed)     n=8       p50=   0.048us  "
            "p90=   0.048us  p99=   0.050us  max=   0.060us\n"
            "  ring wait (descWb -> consume)  n=8       p50=   1.000us  "
            "p90=   2.000us  p99=   3.000us  max=   4.000us\n"
            "  nf processing (consume span)   n=8       p50=   0.404us  "
            "p90=   0.404us  p99=   0.500us  max=   0.600us\n"
            "  total (rx -> consumed)         n=8       p50=   2.000us  "
            "p90=   2.000us  p99=   3.000us  max=   4.000us\n")
        got = benchlib.parse_stage_table(text)
        self.assertEqual(got, {
            "nic.dma_us_p50": 0.048, "nic.dma_us_p99": 0.05,
            "dpdk.ring_wait_us_p50": 1.0, "dpdk.ring_wait_us_p99": 3.0,
            "nf.service_us_p50": 0.404, "nf.service_us_p99": 0.5})


class CompareRule(unittest.TestCase):
    parent = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]

    def test_clear_gain(self):
        change = [p * 1.2 for p in self.parent]
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertEqual((v["label"], v["wins"]), ("gain", 10))

    def test_eight_of_ten_wins_is_no_gain(self):
        change = [p * 1.2 for p in self.parent]
        change[0] = change[1] = 50
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertNotEqual(v["label"], "gain")

    def test_win_inside_parent_spread_is_no_gain(self):
        parent = [100, 120, 80, 110, 90, 100, 120, 80, 110, 90]
        change = [p + 1 for p in parent]
        v = compare.verdict(parent, change, "higher", 0.5)
        self.assertEqual((v["label"], v["wins"]), ("same", 10))

    def test_wide_spread_is_unresolved(self):
        parent = [100, 150, 60, 130, 70, 100, 150, 60, 130, 70]
        change = [p * 0.95 for p in parent]
        v = compare.verdict(parent, change, "higher", 0.1)
        self.assertEqual(v["label"], "unresolved")

    def test_regression_beyond_bound(self):
        change = [p * 0.8 for p in self.parent]
        v = compare.verdict(self.parent, change, "higher", 0.1)
        self.assertEqual(v["label"], "REGRESSION")
        lower = compare.verdict(self.parent, [p * 1.2 for p in self.parent],
                                "lower", 0.1)
        self.assertEqual(lower["label"], "REGRESSION")

    def test_one_row_per_workload(self):
        def result(v):
            return {"failed": 0, "metrics": {"pkts_per_s": {"value": v}}}
        pairs = [{"workload": w, "parent": result(p), "change": result(p)}
                 for w in ("a", "b") for p in self.parent]
        rows = compare.judge(pairs, [{"name": "pkts_per_s",
                                      "better": "higher", "bound": 0.1}])
        self.assertEqual(list(rows), ["a", "b"])
        self.assertEqual(rows["a"]["pkts_per_s"]["label"], "same")


if __name__ == "__main__":
    unittest.main()

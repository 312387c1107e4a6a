"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchlib  # noqa: E402

REPO = os.path.dirname(os.path.dirname(HERE))


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span("a", 1.0, 3.5)]), [2.5])

    def test_nested_spans_subtract_only_direct_children(self):
        spans = [span("root", 0.0, 10.0),
                 span("child", 1.0, 7.0, 0),
                 span("grandchild", 2.0, 5.0, 1)]
        self.assertEqual(benchlib.self_times(spans), [4.0, 3.0, 3.0])

    def test_sibling_spans_both_subtract_from_the_parent(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 3.0, 0),
                 span("b", 4.0, 8.0, 0)]
        self.assertEqual(benchlib.self_times(spans), [4.0, 2.0, 4.0])

    def test_overlapping_children_count_their_union_once(self):
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 6.0, 0),
                 span("b", 4.0, 8.0, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 3.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 2.0, 6.0), span("late", 5.0, 9.0, 0)]
        self.assertEqual(benchlib.self_times(spans)[0], 3.0)

    def test_totals_sum_self_time_and_duration_per_name(self):
        spans = [span("study", 0.0, 4.0),
                 span("sim.run", 0.5, 2.5, 0),
                 span("study", 5.0, 6.0),
                 span("sim.run", 5.25, 5.75, 2)]
        totals = benchlib.totals_by_name(spans)
        self.assertEqual(totals["sim.run"], (2.5, 2.5))
        self.assertEqual(totals["study"], (2.5, 5.0))


class NameTest(unittest.TestCase):
    def test_accepts_letters_digits_underscore_dot_dash(self):
        for name in ["wall_s", "cache.fig9_lru_s", "nas-study", "9lives",
                     "a" * 64]:
            self.assertTrue(benchlib.valid_name(name), name)

    def test_rejects_other_characters_and_lengths(self):
        for name in ["", "_lead", ".lead", "-lead", "has space", "a/b",
                     "a:b", "naïve", "a" * 65]:
            self.assertFalse(benchlib.valid_name(name), name)

    def test_every_metric_and_workload_name_is_valid_and_unique(self):
        names = ([m[0] for m in benchlib.END_TO_END] +
                 [m[0] for m in benchlib.PER_LAYER] +
                 list(benchlib.WORKLOADS))
        for name in names:
            self.assertTrue(benchlib.valid_name(name), name)
        self.assertEqual(len(names), len(set(names)))
        for _name, unit, better, *_ in (benchlib.END_TO_END +
                                        benchlib.PER_LAYER):
            self.assertTrue(benchlib.valid_unit(unit), unit)
            self.assertIn(better, ("lower", "higher"))


def fake_traced(workload):
    """A traced-run output with one span of every name the driver emits."""
    names = ["workload.load", "ipsc.build", "sim.run", "trace.digest",
             "trace.merge_all_sinks", "trace.merge", "analysis.sessions_merge",
             "analysis.rate_sinks_merge", "cache.ops_sink_merge",
             "analysis.analyzers", "cache.log_build", "cache.sweep",
             "cache.fig8", "cache.fig9_lru", "cache.fig9_fifo",
             "cache.fig9_topology", "cache.sec48", "analysis.fidelity",
             "workload.drain"]
    spans = [span(n, float(i), float(i) + 0.5) for i, n in enumerate(names)]
    counters = {"sim.events": 1000.0, "disk.busy_us": 1.0, "disk.span_us": 4.0}
    return {"identity": {"digests": ["0x1"]}, "spans": spans,
            "counters": counters}


class MetricSetTest(unittest.TestCase):
    def test_result_prints_every_end_to_end_metric_with_its_unit(self):
        values = {m[0]: 1.5 for m in benchlib.END_TO_END}
        out = benchlib.result([], 3, 0, values, trace=False)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in out["metrics"].items()},
            {m[0]: m[1] for m in benchlib.END_TO_END})

    def test_every_workload_traced_run_yields_exactly_the_per_layer_set(self):
        for workload in benchlib.WORKLOADS:
            values = benchlib.per_layer_metrics(
                workload, fake_traced(workload), 9.0, 4.0)
            self.assertEqual(set(values), {m[0] for m in benchlib.PER_LAYER},
                             workload)
            out = benchlib.result([], 2, 0, values, trace=True)
            self.assertEqual(
                {k: v["unit"] for k, v in out["metrics"].items()},
                {m[0]: m[1] for m in benchlib.PER_LAYER})

    def test_per_layer_arithmetic(self):
        values = benchlib.per_layer_metrics("nas-study",
                                            fake_traced("nas-study"), 9.0, 4.0)
        self.assertEqual(values["sim.run_s"], 0.5)
        self.assertEqual(values["sim.events_per_s"], 2000.0)
        self.assertEqual(values["disk.busy_fraction"], 0.25)
        # Sink prices are merge-with-sink minus the bare merge: 0.5 - 0.5.
        self.assertEqual(values["analysis.sessions_s"], 0.0)
        self.assertEqual(values["cache.sweep_serial_s"], 2.5)
        pool = benchlib.WORKLOADS["nas-study"]["pool"]
        self.assertEqual(values["cache.sweep_parallel_eff"], 2.5 / (pool * 0.5))
        self.assertEqual(values["bench.tracing_overhead_s"], 5.0)
        self.assertEqual(values["core.campaign_run_s"], 0.0)

    def test_study_serial_sums_its_spans_and_leaves_figures_out(self):
        spans = [span("core.study_serial", 0.0, 2.0),
                 span("sim.run", 0.5, 1.5, 0),
                 span("analysis.figures", 2.0, 2.5),
                 span("core.study_serial", 2.5, 3.0),
                 span("core.summarize", 2.5, 3.0, 3),
                 span("core.campaign_run", 3.0, 4.0)]
        traced = {"identity": {}, "spans": spans, "counters": {}}
        values = benchlib.per_layer_metrics("nas-campaign", traced, 5.0, 4.0)
        self.assertEqual(values["core.study_serial_s"], 2.5)
        self.assertEqual(values["analysis.figures_s"], 0.5)
        self.assertEqual(values["core.summarize_s"], 0.5)
        pool = benchlib.WORKLOADS["nas-campaign"]["pool"]
        self.assertEqual(values["core.parallel_eff"], 2.5 / (pool * 1.0))

    def test_failures_make_the_result_incorrect(self):
        values = {m[0]: 1.0 for m in benchlib.END_TO_END}
        self.assertFalse(benchlib.result(["x"], 1, 1, values, False)["correct"])
        self.assertFalse(benchlib.result([], 1, 1, None, False)["correct"])

    def test_benchmark_json_matches_the_definitions(self):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]],
            [tuple(m) for m in benchlib.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [tuple(m) for m in benchlib.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         benchlib.GATED)
        self.assertEqual([w["why"] for w in bench["workloads"]],
                         [benchlib.WORKLOADS[w]["why"] for w in benchlib.GATED])
        setup_bound = [m["bound"] for m in bench["end_to_end"]
                       if m["name"] == "setup_s"][0]
        self.assertEqual(setup_bound,
                         max(m["bound"] for m in bench["end_to_end"]))


class CheckTest(unittest.TestCase):
    def identity(self, digest="0x5d6c862d0a86afe1"):
        return {"digests": [digest], "records": 10, "events": 20,
                "sweep": "0xabc", "fidelity_bands": 33,
                "fidelity_outside": 0}

    def test_traced_and_timed_agree(self):
        self.assertEqual(
            benchlib.compare_identity(self.identity(), self.identity()), [])

    def test_mismatched_digest_fails_the_traced_check(self):
        mismatches = benchlib.compare_identity(self.identity(),
                                               self.identity("0x0"))
        self.assertEqual(len(mismatches), 1)
        self.assertIn("digests", mismatches[0])

    def test_missing_field_fails_the_traced_check(self):
        traced = self.identity()
        del traced["sweep"]
        self.assertNotEqual(benchlib.compare_identity(self.identity(),
                                                      traced), [])

    def test_pinned_seed_checks_digest_and_fidelity(self):
        self.assertEqual(
            benchlib.check_identity("nas-study", 42, self.identity()), [])
        self.assertNotEqual(
            benchlib.check_identity("nas-study", 42, self.identity("0x1")), [])
        outside = self.identity()
        outside["fidelity_outside"] = 1
        self.assertNotEqual(benchlib.check_identity("nas-study", 42, outside),
                            [])

    def test_unpinned_seed_reports_fidelity_without_gating(self):
        outside = self.identity("0x1")
        outside["fidelity_outside"] = 1
        self.assertEqual(benchlib.check_identity("nas-study", 7, outside), [])

    def test_reference_digests_must_match(self):
        replay = {"digests": ["0x1"], "fidelity_bands": 31}
        self.assertEqual(benchlib.check_identity(
            "nas-replay", 7, replay, {"digests": ["0x1"]}), [])
        self.assertNotEqual(benchlib.check_identity(
            "nas-replay", 7, replay, {"digests": ["0x2"]}), [])

    def test_held_out_seed_is_pinned_on_every_workload(self):
        for workload in benchlib.WORKLOADS:
            self.assertIn(benchlib.HELD_OUT_SEED, benchlib.PINNED[workload])
            self.assertIn(benchlib.DEFAULT_SEED, benchlib.PINNED[workload])


class SeedAndSpreadTest(unittest.TestCase):
    def test_subseeds_start_with_the_seed_and_are_deterministic(self):
        seeds = benchlib.subseeds(42, 5)
        self.assertEqual(seeds[0], 42)
        self.assertEqual(seeds, benchlib.subseeds(42, 5))
        self.assertEqual(len(set(seeds)), 5)
        self.assertNotEqual(seeds[1:], benchlib.subseeds(43, 5)[1:])

    def test_sized_subseed_takes_the_nearest_candidate(self):
        pool = benchlib.subseeds(7, 5)[1:]
        size = dict(zip(pool, [{"ops": n} for n in [10, 50, 52, 90]]))

        def size_of(seeds):
            return [size[s] for s in seeds]
        self.assertEqual(benchlib.sized_subseed(7, {"ops": 49}, 4, size_of),
                         pool[1])
        self.assertEqual(benchlib.sized_subseed(7, {"ops": 1000}, 4, size_of),
                         pool[3])

    def test_sized_subseed_matches_every_count_of_the_target(self):
        pool = benchlib.subseeds(7, 4)[1:]
        # The first candidate is exact in ops but 50 % off in data ops; the
        # third is 10 % off in both, so it is nearer.
        sizes = [{"ops": 100, "data": 150}, {"ops": 200, "data": 200},
                 {"ops": 110, "data": 90}]
        size = dict(zip(pool, sizes))
        chosen = benchlib.sized_subseed(
            7, {"ops": 100, "data": 100}, 3,
            lambda seeds: [size[s] for s in seeds])
        self.assertEqual(chosen, pool[2])
        self.assertAlmostEqual(
            benchlib.size_distance(sizes[0], {"ops": 100, "data": 100}), 0.5)

    def test_end_to_end_takes_the_median_of_each_metric(self):
        samples = [(3.0, 2.9, 120.0, 0.004), (2.5, 2.6, 118.0, 0.001),
                   (2.75, 2.4, 119.0, 0.002), (9.0, 9.0, 300.0, 0.5)]
        self.assertEqual(benchlib.end_to_end_metrics(samples, True),
                         {"wall_s": 2.875, "cpu_s": 2.75, "peak_rss_mb": 119.5,
                          "setup_s": 0.003, "outputs_ok": 1})
        self.assertEqual(
            benchlib.end_to_end_metrics(samples, False)["outputs_ok"], 0)

    def test_spread_uses_statistics_quantiles(self):
        values = [1.0, 2.0, 4.0, 8.0, 16.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        st = benchlib.spread(values)
        self.assertEqual(st["median"], 4.0)
        self.assertEqual(st["iqr_over_median"], (q3 - q1) / 4.0)
        self.assertEqual(st["n"], 5)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(benchlib.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(benchlib.worse_by(10.0, 11.0, "higher"), -0.1)


if __name__ == "__main__":
    unittest.main()

"""Unit tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import analysis as A  # noqa: E402


def event(cls="hit", outcome="ok", sched=0.0, latency=1.0, lag=0.0,
          served_from="cache"):
    return {"cls": cls, "outcome": outcome, "sched_ms": sched,
            "sent_ms": sched + lag, "done_ms": sched + latency,
            "served_from": served_from}


def steady(n=90, latency=2.0, spacing=10.0, cls="hit"):
    return [event(cls, sched=i * spacing, latency=latency) for i in range(n)]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(A.percentile(values, 50), 50)
        self.assertEqual(A.percentile(values, 95), 95)
        self.assertEqual(A.percentile(values, 99), 99)
        self.assertEqual(A.percentile(values, 100), 100)

    def test_small_samples_and_order(self):
        self.assertEqual(A.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertEqual(A.percentile([5.0], 99), 5.0)
        self.assertEqual(A.percentile([1.0, 2.0], 1), 1.0)
        self.assertIsNone(A.percentile([], 50))

    def test_median_and_geomean(self):
        self.assertEqual(A.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(A.median([7]), 7)
        self.assertIsNone(A.median([]))
        self.assertAlmostEqual(A.geomean([1.0, 4.0]), 2.0)
        self.assertIsNone(A.geomean([1.0, 0.0]))


class StepTest(unittest.TestCase):
    def test_latency_excludes_shed_and_failed(self):
        events = [event(latency=5.0), event(outcome="shed", latency=1.0),
                  event(outcome="wrong", latency=1.0), event("warm", latency=9.0)]
        self.assertEqual(A.latencies(events, "hit"), [5.0])
        self.assertEqual(A.latencies(events, "warm"), [9.0])

    def test_generator_lag_skips_unsent(self):
        events = [event(lag=0.5), event(lag=0.1)]
        events.append(dict(event(), sent_ms=-1.0))
        self.assertEqual(sorted(A.generator_lag(events)), [0.1, 0.5])

    def test_generator_kept_up(self):
        lags = [0.1] * 95 + [9.0] * 5  # a few preemptions
        self.assertTrue(A.generator_kept_up(lags, 2.0))
        self.assertFalse(A.generator_kept_up(lags, 0.2))
        self.assertFalse(A.generator_kept_up([0.1] * 80 + [1.0] * 20, 2.0))
        self.assertFalse(A.generator_kept_up([], 2.0))

    def test_step_events_from_raw_columns(self):
        raw = {"cls": ["hit", "cold"], "outcome": ["ok", "shed"],
               "sched_ms": [0.0, 50.0], "sent_ms": [0.1, 50.2],
               "done_ms": [2.0, -1.0], "served_from": ["cache", ""]}
        events = A.step_events(raw)
        self.assertEqual(len(events), 2)
        self.assertEqual(events[1]["cls"], "cold")
        self.assertEqual(events[1]["outcome"], "shed")


class BacklogTest(unittest.TestCase):
    def test_steady_step_has_no_backlog(self):
        self.assertFalse(A.backlog_growing(steady()))

    def test_latency_that_keeps_growing_is_a_backlog(self):
        events = [event(sched=i * 10.0, latency=2.0 + 5.0 * i) for i in range(90)]
        self.assertTrue(A.backlog_growing(events))

    def test_late_sheds_count_as_backlog(self):
        events = steady()
        for e in events[-30:]:
            e["outcome"] = "shed"
        self.assertTrue(A.backlog_growing(events))

    def test_noise_within_slack_is_not_a_backlog(self):
        events = steady()
        for e in events[-30:]:
            e["done_ms"] += A.BACKLOG_SLACK_MS - 1.0
        self.assertFalse(A.backlog_growing(events))

    def test_only_hits_measure_the_queue(self):
        events = steady()
        events += [event("cold", sched=800.0 + i, latency=400.0)
                   for i in range(20)]
        self.assertFalse(A.backlog_growing(events))

    def test_tiny_step(self):
        self.assertFalse(A.backlog_growing(steady(n=2)))


class SloTest(unittest.TestCase):
    def test_clean_step_passes(self):
        ok, reasons = A.slo_verdict(steady() + steady(10, 50.0, cls="warm"))
        self.assertTrue(ok, reasons)

    def test_hit_p99_limit(self):
        events = steady(100)
        for e in events[-2:]:
            e["done_ms"] = e["sched_ms"] + A.HIT_P99_LIMIT_MS + 1.0
        ok, reasons = A.slo_verdict(events)
        self.assertFalse(ok)
        self.assertIn("hit p99", reasons[0])

    def test_single_outlier_within_p99(self):
        events = steady(200)
        events[100]["done_ms"] = events[100]["sched_ms"] + 10 * A.HIT_P99_LIMIT_MS
        self.assertTrue(A.slo_verdict(events)[0])

    def test_warm_p95_limit(self):
        warm = steady(20, A.WARM_P95_LIMIT_MS + 1.0, cls="warm")
        ok, reasons = A.slo_verdict(steady() + warm)
        self.assertFalse(ok)
        self.assertTrue(any("warm p95" in r for r in reasons))

    def test_hit_or_warm_shed_fails_cold_shed_does_not(self):
        events = steady()
        events.append(event("cold", outcome="shed", sched=5.0))
        self.assertTrue(A.slo_verdict(events)[0])
        events.append(event("warm", outcome="shed", sched=6.0))
        ok, reasons = A.slo_verdict(events)
        self.assertFalse(ok)
        self.assertIn("1 warm sheds", reasons)

    def test_failed_event_fails(self):
        for outcome in A.FAILED_OUTCOMES:
            events = steady()
            events[3]["outcome"] = outcome
            self.assertFalse(A.slo_verdict(events)[0], outcome)


class LadderTest(unittest.TestCase):
    def shedding(self):
        events = steady()
        events[-1]["outcome"] = "shed"
        return events

    def test_highest_passing_step(self):
        ladder = [(10.0, steady()), (20.0, steady()), (40.0, self.shedding())]
        self.assertEqual(A.max_qps_in_slo(ladder), 20.0)
        self.assertTrue(A.top_step_shed(ladder))

    def test_prefix_rule_ignores_recovery_above_a_miss(self):
        ladder = [(10.0, steady()), (20.0, self.shedding()), (40.0, steady())]
        self.assertEqual(A.max_qps_in_slo(ladder), 10.0)
        self.assertFalse(A.top_step_shed(ladder))

    def test_order_does_not_matter(self):
        ladder = [(40.0, self.shedding()), (10.0, steady()), (20.0, steady())]
        self.assertEqual(A.max_qps_in_slo(ladder), 20.0)

    def test_first_step_misses(self):
        self.assertEqual(A.max_qps_in_slo([(10.0, self.shedding())]), 0.0)
        self.assertFalse(A.top_step_shed([]))


class JoinTest(unittest.TestCase):
    def setUp(self):
        self.step = {
            "cls": ["hit", "warm", "cold", "hit"],
            "outcome": ["ok", "ok", "ok", "shed"],
            "sched_ms": [0.0, 10.0, 20.0, 30.0],
            "sent_ms": [0.0, 10.0, 20.0, 30.0],
            "done_ms": [2.0, 110.0, 220.0, -1.0],
            "served_from": ["cache", "compute", "compute", ""],
            "trace_id": ["t-hit", "t-warm", "t-cold", "t-shed"],
            "stages_us": {
                "parse": [10, 20, 30, 1],
                "admission": [1, 1, 1, 1],
                "queue": [100, 200, 300, -1],
                "execute": [1500, 90000, 190000, -1],
                "serialize": [5, 5, 50, -1],
            },
        }
        self.access = {
            ("t-hit", "partition"): {"write_us": 4, "lane": 0},
            ("t-hit", "load"): {"write_us": 999, "lane": 0},
            ("t-warm", "repartition"): {"write_us": 6, "lane": 1},
            ("t-cold", "partition"): {"write_us": 40, "lane": 2},
        }
        self.replay = {"t-hit": {"io.read_hgr": 300.0},
                       "t-cold": {"repart.repartition": 150000.0}}

    def test_join_matches_by_trace_id_and_answer_op(self):
        rows = A.join_stages(self.step, self.access, self.replay)
        self.assertEqual([r["cls"] for r in rows], ["hit", "warm", "cold"])
        hit = rows[0]
        self.assertEqual(hit["write_us"], 4)  # the partition, not the load
        self.assertEqual(hit["latency_us"], 2000.0)
        self.assertEqual(hit["unattributed_us"],
                         2000.0 - (10 + 1 + 100 + 1500 + 5) - 4)
        self.assertEqual(hit["replay"], {"io.read_hgr": 300.0})
        self.assertIsNone(rows[1]["replay"])

    def test_unlogged_or_untraced_events_are_dropped(self):
        del self.access[("t-warm", "repartition")]
        self.step["trace_id"][2] = ""
        rows = A.join_stages(self.step, self.access, self.replay)
        self.assertEqual([r["cls"] for r in rows], ["hit"])

    def test_ledger_orders_stages_layers_remainder(self):
        led = A.ledger(A.join_stages(self.step, self.access, self.replay))
        self.assertEqual(set(led), {"hit", "warm", "cold"})
        keys = list(led["cold"])
        self.assertLess(keys.index("stage.write"),
                        keys.index("layer.repart.repartition"))
        self.assertEqual(keys[-1], "unattributed")
        self.assertEqual(led["cold"]["stage.execute"], 190000)

    def test_read_access_log(self):
        with tempfile.NamedTemporaryFile("w", suffix=".ndjson",
                                         delete=False) as f:
            f.write(json.dumps({"op": "partition", "trace_id": "abc",
                                "write_us": 3}) + "\n")
            f.write(json.dumps({"op": "stats", "trace_id": None}) + "\n\n")
        try:
            log = A.read_access_log(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(list(log), [("abc", "partition")])
        self.assertEqual(A.read_access_log(f.name), {})


if __name__ == "__main__":
    unittest.main()

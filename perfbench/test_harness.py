"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The gate test builds the CLIs and the tracer in release mode (as run.py
does) and runs a few real campaigns.
"""

import bisect
import json
import random
import shutil
import sys
import unittest

import harness as h
import run

BENCHMARK = json.loads((h.ROOT / "BENCHMARK.json").read_text())
NAME = r"^[A-Za-z0-9_.-]+$"


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertRegex(name, h.METRIC_NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_harness_reports_exactly_the_declared_metrics(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(declared, dict(h.PER_LAYER))
        results = [h.OpResult(0.1 + i / 1000, 0.05, 1024, True) for i in range(30)]
        metrics, _ = h.summarize(results, [0.3, 0.2, 0.4], h.WORKLOADS["gmp-hunt"])
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(declared, {k: unit for k, (_, unit) in metrics.items()})
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(h.WORKLOADS))


class Tail(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        rng = random.Random(7)
        for n in range(h.TAIL_BEYOND + 1, 700):
            values = [rng.random() for _ in range(n)]
            value, pct = h.tail(values)
            ordered = sorted(values)
            self.assertGreaterEqual(n - ordered.index(value) - 1, h.TAIL_BEYOND)
            # the nearest rank of the reported percentile is the tail sample
            rank = -(-round(pct * n, 6) // 100)
            self.assertEqual(ordered[int(rank) - 1], value)

    def test_every_run_length_has_a_tail(self):
        for w in h.WORKLOADS.values():
            for seconds in (1, 5, BENCHMARK["run_seconds"], 60):
                self.assertGreater(w.op_count(seconds), h.TAIL_BEYOND)

    def test_too_few_samples_have_no_tail(self):
        with self.assertRaises(ValueError):
            h.tail([1.0] * h.TAIL_BEYOND)


class Throughput(unittest.TestCase):
    def test_middle_half_sets_the_throughput(self):
        walls = [100.0] * 10 + [200.0] * 20 + [5000.0] * 10
        self.assertAlmostEqual(h.middle_throughput(walls, 50), 50 * 1000.0 / 200.0)
        # faster operations in the middle half raise it; the median alone stays put
        faster = [100.0] * 10 + [150.0] * 8 + [200.0] * 12 + [5000.0] * 10
        self.assertEqual(h.statistics.median(faster), h.statistics.median(walls))
        self.assertGreater(h.middle_throughput(faster, 50), h.middle_throughput(walls, 50))


class BestOf(unittest.TestCase):
    def test_fastest_execution_counts_and_any_failure_fails(self):
        runs = [h.OpResult(0.3, 0.25, 900, True), h.OpResult(0.2, 0.21, 1000, True), h.OpResult(0.4, 0.2, 800, True)]
        best = h.best_of(runs)
        self.assertEqual((best.wall_s, best.cpu_s, best.rss_kb, best.ok), (0.2, 0.2, 1000, True))
        runs[2] = h.OpResult(0.4, 0.2, 800, False, "digest mismatch")
        best = h.best_of(runs)
        self.assertEqual((best.wall_s, best.ok, best.why), (0.2, False, "digest mismatch"))

    def test_steps_are_summed(self):
        op = h.combine([h.OpResult(0.3, 0.2, 900, True), h.OpResult(0.1, 0.1, 1000, False, "exit 3")])
        self.assertAlmostEqual(op.wall_s, 0.4)
        self.assertAlmostEqual(op.cpu_s, 0.3)
        self.assertEqual((op.rss_kb, op.ok, op.why), (1000, False, "exit 3"))


class Goldens(unittest.TestCase):
    def test_every_default_seed_has_a_golden(self):
        goldens = h.load_goldens()
        seconds = BENCHMARK["run_seconds"]
        for w in h.WORKLOADS.values():
            count = w.op_count(seconds)
            for seed in h.DEFAULT_SEEDS:
                if w.serve:
                    self.assertIsNotNone(h.serve_golden(goldens, seed, count), (w.name, seed))
                    continue
                seeds = w.seeds(seed, count, goldens.get("cost_ms"))
                for steps in w.ops(seeds) + [w.warmup()]:
                    for step in steps:
                        self.assertIsNotNone(h.cli_golden(goldens, step), (w.name, seed, step))

    def test_every_pooled_campaign_seed_has_a_golden(self):
        goldens = h.load_goldens()
        for w in h.WORKLOADS.values():
            if w.serve:
                continue
            for seed in h.POOL:
                for i in range(2):
                    for step in w.op(seed, i):
                        self.assertIsNotNone(h.cli_golden(goldens, step), (w.name, seed, step))

    def test_serve_operation_lists_are_prefix_stable(self):
        w = h.WORKLOADS["serve"]
        self.assertEqual(w.seeds(3, 10), w.seeds(3, 40)[:10])
        self.assertNotEqual(w.seeds(3, 10), w.seeds(4, 10))

    def test_cli_runs_draw_one_seed_per_cost_stratum(self):
        costs = h.load_goldens()["cost_ms"]
        seconds = BENCHMARK["run_seconds"]
        for w in h.WORKLOADS.values():
            if w.serve:
                continue
            count = w.op_count(seconds)
            seeds = w.seeds(3, count, costs)
            self.assertEqual(seeds, w.seeds(3, count, costs))
            self.assertNotEqual(seeds, w.seeds(4, count, costs))
            for kind in {w.seeded_kind(i) for i in range(count)}:
                mine = [s for i, s in enumerate(seeds) if w.seeded_kind(i) == kind]
                ordered = sorted(h.POOL, key=lambda s: (costs[kind][str(s)], s))
                ordered = ordered[:round(len(ordered) * h.DRAWN_SHARE)]
                self.assertTrue(set(mine) <= set(ordered))
                edges = [b * len(ordered) // len(mine) for b in range(len(mine) + 1)]
                strata = sorted(bisect.bisect_right(edges, ordered.index(s)) - 1 for s in mine)
                self.assertEqual(strata, list(range(len(mine))), (w.name, kind))


class Gate(unittest.TestCase):
    """A deliberately corrupted golden must fail its operation."""

    @classmethod
    def setUpClass(cls):
        cls.bins = h.build(sys.stderr)
        cls.goldens = h.load_goldens()
        cls.work = h.ROOT / ".perfbench" / "test-gate"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    @staticmethod
    def corrupt(entry):
        digest, code = entry
        return ("0" if digest[0] != "0" else "1") + digest[1:], code

    def test_corrupted_cli_golden_fails_the_operation(self):
        w = h.WORKLOADS["gmp-hunt"]
        ops = w.ops(w.seeds(1, 3, self.goldens.get("cost_ms")))
        table, refs = h.cli_golden_table(ops, self.goldens, self.bins["pfi-campaign"], self.work)
        self.assertEqual(refs, 0)
        clean = h.run_cli_passes(ops, 2, self.bins["pfi-campaign"], self.work, table)
        self.assertTrue(all(r.ok for r in clean), [r.why for r in clean])
        # the explore step: its seed is operation 1's own, unlike the grid's
        key = (ops[1][1].kind, ops[1][1].key())
        table[key] = self.corrupt(table[key])
        results = h.run_cli_passes(ops, 2, self.bins["pfi-campaign"], self.work, table)
        self.assertEqual([r.ok for r in results], [True, False, True])
        self.assertGreater(sum(not r.ok for r in results) / len(results), 0)

    def test_corrupted_serve_golden_fails_the_operation(self):
        w = h.WORKLOADS["serve"]
        golden = h.serve_golden(self.goldens, 0, 4)
        golden[2] = self.corrupt(golden[2])
        results, _, _ = h.serve_sequence(
            self.bins["pfi-serve"], self.work / "serve", 0, w.seeds(0, 4), h.JOBS, golden
        )
        self.assertEqual([r.ok for r in results], [True, True, False, True])

    def test_corrupted_golden_fails_the_traced_run(self):
        w = h.WORKLOADS["gmp-hunt"]
        seeds = w.seeds(2, 2, self.goldens.get("cost_ms"))
        ops = w.ops(seeds)
        table, _ = h.cli_golden_table(ops, self.goldens, self.bins["pfi-campaign"], self.work)
        metrics, traced, failed, failures = run.run_tracer(w, seeds, self.bins, self.work, table)
        self.assertEqual((failed, failures), (0, []))
        self.assertEqual(len(traced), 2)
        self.assertEqual(set(metrics) | {"trace.overhead_frac"} | {n for n, _ in h.PER_LAYER if n.startswith("serve.")},
                         {n for n, _ in h.PER_LAYER})
        key = (ops[0][1].kind, ops[0][1].key())
        table[key] = self.corrupt(table[key])
        _, _, failed, failures = run.run_tracer(w, seeds, self.bins, self.work, table)
        self.assertEqual((failed, len(failures)), (1, 1), failures)


if __name__ == "__main__":
    unittest.main()

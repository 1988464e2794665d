"""Self-tests of the benchmark (cut-down runs, a few seconds each).

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from repro import StatsTransitionCosts, TuningEngine, WhatIfOptimizer  # noqa: E402
from repro.service.wal import Durability  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "fixed-kernel": workloads.Config(
        phase_len=3, fixed_partition=True, fixed_pool=8, fixed_part=4
    ),
    "durable-dba": workloads.Config(
        phase_len=4, durable=True,
        vote_every=4, adopt_every=8, checkpoint_every=12,
    ),
}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class NamesTest(unittest.TestCase):
    def test_names_are_plain(self):
        names = [n for n, _, _ in run.END_TO_END] + [n for n, _ in run.PER_LAYER]
        names += list(run.WORKLOADS)
        spec = _benchmark_json()
        for key in ("workloads", "end_to_end", "per_layer"):
            names += [item["name"] for item in spec[key]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(set(n for n, _ in run.PER_LAYER)),
                         len(run.PER_LAYER))

    def test_benchmark_json_matches_the_command(self):
        spec = _benchmark_json()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(tuple(workloads.CONFIGS), run.WORKLOADS)
        units = {n: u for n, u, _ in run.END_TO_END}
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.GATED))
        for metric in spec["end_to_end"]:
            self.assertEqual(metric["unit"], units[metric["name"]])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER),
        )


class CutDownRunTest(unittest.TestCase):
    """Each workload, a handful of statements, traced and untraced."""

    def _run(self, workload, trace):
        outcome, report = run.run(
            workload, run.DEFAULT_SEED, 0.0, trace,
            config=SMALL[workload],
        )
        self.assertEqual(outcome.failures, [])
        self.assertEqual(outcome.failed, 0)
        result = run.document(outcome, trace)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        spec = _benchmark_json()
        listed = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for metric in listed:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"])
            self.assertIsInstance(reported["value"], float)
        lines = "\n".join(report + run.format_report(outcome, trace))
        for name, unit, _ in run.END_TO_END:
            self.assertRegex(lines, rf"# {re.escape(name)} .* {re.escape(unit)} ")
        return outcome

    def test_fixed_kernel_skips_candidate_maintenance(self):
        outcome = self._run("fixed-kernel", False)
        self.assertGreater(outcome.values["throughput_sps"], 0.0)
        traced = self._run("fixed-kernel", True)
        for name in ("partitioning.calls", "partitioning.choose_partition_s",
                     "ibg.doi_calls", "candidates.top_indices_s"):
            self.assertEqual(traced.values[name], 0.0, name)
        self.assertGreater(traced.values["wfa.relax_calls"], 0)

    def test_durable_dba(self):
        outcome = self._run("durable-dba", False)
        self.assertGreater(outcome.samples["feedback_p50_ms"], 0)
        self.assertIn("recover_s", outcome.values)
        traced = self._run("durable-dba", True)
        self.assertGreater(traced.values["partitioning.calls"], 0)
        self.assertGreater(traced.values["wal.fsyncs"], 0)
        self.assertGreater(traced.values["recover.replayed_records"], 0)


class DurableCheckTest(unittest.TestCase):
    def setUp(self):
        self.directory = os.path.join(ROOT, ".perfbench_tmp", "selftest")
        shutil.rmtree(self.directory, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def test_extra_vote_on_recovered_engine_fails_the_check(self):
        catalog, stats = workloads.load_catalog()
        sql = workloads.generate_sql(catalog, stats, 7, 0, 3)
        live = TuningEngine.for_stats(stats)
        durability = Durability(self.directory)
        durability.attach(live)
        for position, text in enumerate(sql, 1):
            live.submit("client-0", text)
            live.pump()
            if position == 12:
                durability.checkpoint()
        durability.close()
        recovered, _ = TuningEngine.recover(
            self.directory, WhatIfOptimizer(stats), StatsTransitionCosts(stats)
        )
        recovered.pump()
        self.assertEqual(workloads.durable_mismatches(live, recovered, len(sql)), [])
        vote = workloads.choose_vote(recovered, 0)
        self.assertIsNotNone(vote)
        recovered.vote("dba", *vote)
        self.assertNotEqual(
            workloads.durable_mismatches(live, recovered, len(sql)), []
        )


if __name__ == "__main__":
    unittest.main()

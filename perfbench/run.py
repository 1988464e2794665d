"""End-to-end benchmark of the default WFIT pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload durable-dba --seed 7 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``): ``fixed-kernel`` and
``durable-dba``. With ``--trace 0`` the command measures the program as
shipped (the only addition is a completion hook on each engine's tuner,
to time statement latency) and reports the end-to-end metrics. With
``--trace 1`` it runs an untraced pass, then its first
``TRACED_ROUNDS`` rounds again with every layer's entry points wrapped,
and reports the per-layer metrics; a Chrome trace lands in
``.perfbench_out/``.

Every run checks its outputs: ``fixed-kernel`` replays round 0 through
``run_online`` (untimed, before the rounds, so it also serves as
warm-up) and must match the engine's ``total_work`` and final
recommendation exactly; ``durable-dba`` recovers every round from its
WAL and snapshots and must match the live engine bit for bit. A failure
prints ``"correct": false`` and exits 1. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fixed-kernel", "durable-dba")
DEFAULT_SEED = 7
#: Rounds the traced pass repeats (the first ones of the untraced pass).
TRACED_ROUNDS = 3

# (name, unit, workloads it applies to). GATED ones go to BENCHMARK.json
# as end-to-end metrics; the rest are printed in the report (the JSON
# carries failures as "failed"/"attempted").
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "all"),
    ("throughput_sps", "statements/s", "all"),
    ("latency_p50_ms", "ms", "all"),
    ("latency_p95_ms", "ms", "all"),
    ("total_work", "cost", "all"),
    ("peak_rss_mb", "MiB", "all"),
    ("feedback_p50_ms", "ms", "durable-dba"),
    ("feedback_p90_ms", "ms", "durable-dba"),
    ("recover_s", "s", "durable-dba"),
    ("realized_total_work", "cost", "durable-dba"),
    ("error_rate", "fraction", "all"),
)
GATED = ("setup_s", "throughput_sps", "latency_p95_ms", "total_work",
         "peak_rss_mb")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("query.parse_ms_p50", "ms"),
    ("query.parse_calls", "count"),
    ("optimizer.statement_ibg_s", "s"),
    ("optimizer.whatif_calls", "count"),
    ("optimizer.plan_derivations", "count"),
    ("optimizer.statement_hit_rate", "ratio"),
    ("optimizer.template_hit_rate", "ratio"),
    ("optimizer.ibg_hit_rate", "ratio"),
    ("optimizer.ibg_evictions", "count"),
    ("ibg.max_benefit_s", "s"),
    ("ibg.doi_s", "s"),
    ("ibg.doi_calls", "count"),
    ("candidates.top_indices_s", "s"),
    ("partitioning.choose_partition_s", "s"),
    ("partitioning.calls", "count"),
    ("partitioning.refresh_ratio", "ratio"),
    ("partitioning.change_ratio", "ratio"),
    ("partitioning.loss_calls", "count"),
    ("wfit.analyze_s", "s"),
    ("wfit.self_s", "s"),
    ("wfit.attributed_share", "ratio"),
    ("wfit.repartitions", "count"),
    ("wfit.tracked_states_mean", "states"),
    ("wfit.feedback_s", "s"),
    ("wfa.prepare_s", "s"),
    ("wfa.relax_s", "s"),
    ("wfa.relax_calls", "count"),
    ("engine.queue_wait_ms_p50", "ms"),
    ("engine.queue_wait_ms_p95", "ms"),
    ("engine.batch_size_mean", "statements"),
    ("engine.recommendation_ms_p50", "ms"),
    ("wal.append_ms_p50", "ms"),
    ("wal.append_ms_p95", "ms"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_statement", "B"),
    ("checkpoint.ms_p50", "ms"),
    ("checkpoint.bytes_mean", "B"),
    ("recover.restore_s", "s"),
    ("recover.replay_s", "s"),
    ("recover.replayed_records", "count"),
    ("feedback_p50_ms", "ms"),
    ("feedback_p90_ms", "ms"),
    ("recover_s", "s"),
    ("realized_total_work", "cost"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.wfit_analyze_span_s", "s"),
    ("obs.engine_analyze_span_s", "s"),
)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class Outcome:
    """Metrics, sample counts and the operation tally of one run."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, problems: Sequence[str]) -> None:
        """Count one failed operation (when ``problems`` is non-empty)."""
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = float(value)
        self.samples[name] = samples


def _check_pass(bench, reference, measured, outcome: Outcome) -> None:
    """Tally operations and run the correctness checks of one pass."""
    for result in measured.rounds:
        outcome.attempted += result.attempted
        outcome.fail(result.failures)
    outcome.attempted += 1
    if reference is not None:
        outcome.fail(bench.reference_mismatches(reference, measured.rounds[0]))


def _end_to_end(measured, outcome: Outcome) -> None:
    latencies = measured.samples("latencies_s")
    feedback = measured.samples("feedback_s")
    recoveries = [r.recover_s for r in measured.rounds if r.recover_s is not None]
    first = measured.rounds[0]
    # Over the whole timed loop, not a median of round rates: durable-dba
    # rounds fall in two modes (~65 or ~100 statements/s, by how the
    # votes steer the tuner), and a median of a handful of them flips.
    outcome.put("throughput_sps", measured.statements / measured.elapsed_s,
                len(measured.rounds))
    outcome.put("latency_p50_ms", percentile(latencies, 0.50) * 1e3, len(latencies))
    outcome.put("latency_p95_ms", percentile(latencies, 0.95) * 1e3, len(latencies))
    outcome.put("total_work", first.total_work)
    if recoveries:
        outcome.put("feedback_p50_ms", percentile(feedback, 0.50) * 1e3, len(feedback))
        outcome.put("feedback_p90_ms", percentile(feedback, 0.90) * 1e3, len(feedback))
        outcome.put("recover_s", statistics.median(recoveries), len(recoveries))
        outcome.put("realized_total_work", first.realized_total_work)


def _per_layer(untraced, traced, tracer, spans: Dict[str, float],
               outcome: Outcome) -> None:
    inc, calls, counters = tracer.inclusive, tracer.calls, tracer.counters

    def ms_pct(layer: str, fraction: float) -> float:
        return percentile(tracer.samples.get(layer, []), fraction) * 1e3

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cache: Dict[str, float] = {}
    for result in traced.rounds:
        for key, value in result.cache.items():
            cache[key] = cache.get(key, 0.0) + value
    statements = traced.statements
    analyzed = calls["wfit.analyze"]
    searches = calls["partitioning.choose_partition"]
    waits = traced.samples("queue_waits_s")
    restore = inc["recover.restore"]
    recover_total = sum(r.recover_s or 0.0 for r in traced.rounds)
    put = outcome.put
    put("query.parse_ms_p50", ms_pct("query.parse", 0.5), calls["query.parse"])
    put("query.parse_calls", calls["query.parse"])
    put("optimizer.statement_ibg_s", inc["optimizer.statement_ibg"])
    put("optimizer.whatif_calls", cache.get("whatif_calls", 0))
    put("optimizer.plan_derivations", cache.get("optimizations", 0))
    put("optimizer.statement_hit_rate", ratio(
        cache.get("statement_hits", 0),
        cache.get("statement_hits", 0) + cache.get("statement_misses", 0)))
    put("optimizer.template_hit_rate", ratio(
        cache.get("template_hits", 0),
        cache.get("template_hits", 0) + cache.get("template_builds", 0)))
    put("optimizer.ibg_hit_rate", ratio(
        cache.get("ibg_graph_hits", 0),
        cache.get("ibg_graph_hits", 0) + cache.get("ibg_graph_builds", 0)))
    put("optimizer.ibg_evictions", cache.get("ibg_evictions", 0))
    put("ibg.max_benefit_s", inc["ibg.max_benefit"])
    put("ibg.doi_s", inc["ibg.doi"])
    put("ibg.doi_calls", calls["ibg.doi"])
    put("candidates.top_indices_s", inc["candidates.top_indices"])
    put("partitioning.choose_partition_s", inc["partitioning.choose_partition"])
    put("partitioning.calls", searches)
    put("partitioning.refresh_ratio", ratio(searches, analyzed))
    put("partitioning.change_ratio", ratio(counters["repartitions"], searches))
    put("partitioning.loss_calls", calls["partitioning.partition_loss"])
    put("wfit.analyze_s", inc["wfit.analyze"], analyzed)
    put("wfit.self_s", tracer.self_time["wfit.analyze"])
    put("wfit.attributed_share",
        1.0 - ratio(tracer.self_time["wfit.analyze"], inc["wfit.analyze"]))
    put("wfit.repartitions", counters["repartitions"])
    put("wfit.tracked_states_mean", ratio(counters["tracked_states"], analyzed))
    put("wfit.feedback_s", inc["wfit.feedback"], calls["wfit.feedback"])
    put("wfa.prepare_s", inc["wfa.prepare"])
    put("wfa.relax_s", inc["wfa.relax"])
    put("wfa.relax_calls", calls["wfa.relax"])
    put("engine.queue_wait_ms_p50", percentile(waits, 0.50) * 1e3, len(waits))
    put("engine.queue_wait_ms_p95", percentile(waits, 0.95) * 1e3, len(waits))
    put("engine.batch_size_mean",
        ratio(statements, sum(r.batches for r in traced.rounds)))
    put("engine.recommendation_ms_p50", ms_pct("engine.recommendation", 0.5),
        calls["engine.recommendation"])
    put("wal.append_ms_p50", ms_pct("wal.append", 0.5), calls["wal.append"])
    put("wal.append_ms_p95", ms_pct("wal.append", 0.95), calls["wal.append"])
    put("wal.fsyncs", counters["wal_fsyncs"])
    put("wal.bytes_per_statement",
        ratio(sum(r.wal_bytes for r in traced.rounds), statements))
    put("checkpoint.ms_p50", ms_pct("checkpoint", 0.5), calls["checkpoint"])
    put("checkpoint.bytes_mean",
        ratio(counters["checkpoint_bytes"], calls["checkpoint"]),
        calls["checkpoint"])
    put("recover.restore_s", restore, calls["recover.restore"])
    put("recover.replay_s", max(recover_total - restore, 0.0) if recover_total else 0.0)
    put("recover.replayed_records", counters["replayed_records"])
    for name in ("feedback_p50_ms", "feedback_p90_ms", "recover_s",
                 "realized_total_work"):
        put(name, outcome.values.get(name, 0.0), outcome.samples.get(name, 0))
    same_rounds = untraced.rounds[:len(traced.rounds)]
    put("obs.trace_overhead_ratio",
        ratio(sum(r.elapsed_s for r in same_rounds), traced.elapsed_s))
    put("obs.wfit_analyze_span_s", spans.get("wfit.analyze", 0.0))
    put("obs.engine_analyze_span_s", spans.get("engine.analyze", 0.0))


def _layer_table(tracer) -> List[str]:
    analyze = tracer.inclusive.get("wfit.analyze", 0.0)
    lines = [f"# {'layer span':32} {'calls':>9} {'inclusive_s':>12} "
             f"{'self_s':>10} {'self/analyze':>12}"]
    for layer in sorted(tracer.self_time, key=lambda k: -tracer.self_time[k]):
        share = tracer.self_time[layer] / analyze if analyze else 0.0
        lines.append(
            f"# {layer:32} {tracer.calls[layer]:9d} "
            f"{tracer.inclusive[layer]:12.4f} {tracer.self_time[layer]:10.4f} "
            f"{share:12.1%}"
        )
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool,
        config=None) -> Tuple[Outcome, List[str]]:
    """One benchmark run; returns the outcome and the report lines.

    ``config`` replaces the workload's size and cadence (self-tests cut
    runs down with it).
    """
    import workloads as bench

    config = config or bench.CONFIGS[workload]
    workdir = str(ROOT / ".perfbench_tmp" / f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    outcome = Outcome()
    report: List[str] = []
    try:
        catalog, stats = bench.load_catalog()
        first_sql = bench.generate_sql(catalog, stats, seed, 0, config.phase_len)
        # The reference replay of round 0 runs before the timer starts, so
        # it also warms the interpreter up on the code the rounds run.
        reference = None
        if not config.durable:
            reference = bench.reference_replay(stats, config, first_sql)
        setups: List[float] = []
        sample_setup = None
        if not trace:
            options = bench.engine_options(config, first_sql)

            def sample_setup() -> None:
                setups.extend(bench.time_setup(config, options, workdir))

            # Set-ups are sampled before the first round and after every
            # round, so the median spans the run like the other metrics
            # rather than one instant of a host whose speed drifts.
            sample_setup()
        measured = bench.run_rounds(config, seed, seconds, stats, catalog,
                                    workdir, after_round=sample_setup)
        if setups:
            outcome.put("setup_s", statistics.median(setups), len(setups))
        _check_pass(bench, reference, measured, outcome)
        _end_to_end(measured, outcome)
        report.append(
            f"# {workload} seed {seed}: {len(measured.rounds)} rounds, "
            f"{measured.statements} statements "
            f"({sum(r.distinct for r in measured.rounds)} distinct), "
            f"{measured.elapsed_s:.2f} s timed; statements/s by round: "
            + " ".join(f"{r.statements / r.elapsed_s:.1f}" for r in measured.rounds)
        )
        if trace:
            traced, tracer, spans = _traced_pass(
                bench, workload, config, seed, stats, catalog, workdir,
                min(len(measured.rounds), TRACED_ROUNDS),
            )
            outcome.attempted += 1
            outcome.fail([
                f"traced round {k} total_work differs from untraced"
                for k, (ours, theirs) in enumerate(
                    zip(traced.rounds, measured.rounds))
                if ours.total_work != theirs.total_work
            ])
            _per_layer(measured, traced, tracer, spans, outcome)
            report.extend(_layer_table(tracer))
    except Exception as exc:  # noqa: BLE001 - a failed operation is a result
        traceback.print_exc()
        outcome.attempted += 1
        outcome.fail([f"{type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome.put("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    outcome.attempted = max(outcome.attempted, 1)
    outcome.put("error_rate", outcome.failed / outcome.attempted,
                outcome.attempted)
    return outcome, report


def _traced_pass(bench, workload, config, seed, stats, catalog, workdir, rounds):
    import layers

    tracer = layers.LayerTracer()
    before = layers.span_sums()
    uninstall = layers.install(tracer)
    try:
        traced = bench.run_rounds(
            config, seed, 0.0, stats, catalog, workdir, rounds=rounds
        )
    finally:
        uninstall()
    after = layers.span_sums()
    spans = {name: after[name] - before.get(name, 0.0) for name in after}
    layers.write_chrome_trace(
        str(ROOT / ".perfbench_out" / f"trace-{workload}-seed{seed}.json"),
        tracer,
    )
    return traced, tracer, spans


def document(outcome: Outcome, trace: bool) -> Dict[str, object]:
    """The result object: end-to-end metrics, or per-layer ones when traced."""
    names = [name for name, _ in PER_LAYER] if trace else list(GATED)
    units = dict(PER_LAYER) if trace else {n: u for n, u, _ in END_TO_END}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.values.get(name, 0.0), "unit": units[name]}
            for name in names
        },
    }


def format_report(outcome: Outcome, trace: bool) -> List[str]:
    lines = [f"# {'metric':32} {'value':>16} {'unit':14} {'samples':>8}  workloads"]
    for name, unit, applies in END_TO_END:
        if outcome.samples.get(name):
            value = f"{outcome.values[name]:16.6g}"
            count = outcome.samples[name]
        else:
            value, count = f"{'n/a':>16}", 0
        lines.append(f"# {name:32} {value} {unit:14} {count:8d}  {applies}")
    if trace:
        for name, unit in PER_LAYER:
            lines.append(
                f"# {name:32} {outcome.values[name]:16.6g} {unit:14} "
                f"{outcome.samples[name]:8d}  layer"
            )
    for failure in outcome.failures:
        lines.append(f"# FAILED: {failure}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    outcome, report = run(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for line in report + format_report(outcome, bool(args.trace)):
        print(line)
    result = document(outcome, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Service throughput benchmark: shared engine vs independent sessions.

Measures the aggregate statements/sec of N clients with *overlapping*
workloads served two ways:

* **shared** — one :class:`~repro.service.engine.TuningEngine` (one WFIT
  core, one what-if optimizer) multiplexing all N sessions through the
  micro-batched ingest queue. Overlap means each client's statements hit
  the shared statement/IBG caches warmed by the other clients.
* **independent** — N legacy-shaped :class:`~repro.advisor.AdvisorSession`
  objects, each with its own optimizer and tuner (each now a thin client
  of its own private engine, so per-statement bookkeeping is identical to
  the shared mode and the ratio isolates cache sharing).

Both modes analyze the same 4×|W| statement stream under the same fixed
stable partition. The shared engine wins because each plan derivation
(template build + memo miss) is paid once instead of N times. The margin
is structurally smaller since ISSUE 4's batched plan templates: both modes
pay identical per-statement WFA work, and the optimizer work that sharing
amortizes collapsed from full re-planning to a menu argmin — the shared
engine now wins ~1.6x rather than the pre-template ~3.5x, because the
*absolute* per-statement cost dropped ~5x for everyone. The full run
enforces a recalibrated 1.25x floor.

A second section measures the **priority flood** QoS contract:
an interactive session trickles statements into a live engine while a
large background flood sits queued. Paired rounds pin the interactive
p95 submit→analyzed latency with and without the flood; the scheduler's
foreground-first drain and one-statement background lane must keep the
ratio ≤1.25× (enforced on full runs; the machine-independent invariant —
the interactive stream finishes while flood backlog remains — gates every
run, quick included).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py           # full run
    PYTHONPATH=src python benchmarks/bench_service.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from bench_kernel import candidate_pool, chunk_partition

from repro import obs
from repro.advisor import AdvisorSession
from repro.db import StatsTransitionCosts, build_catalog
from repro.ioutil import atomic_write_json
from repro.optimizer import WhatIfOptimizer
from repro.service import Durability, TuningEngine
from repro.workload import MultiClientTrace, generate_workload, scaled_phases

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Acceptance floor: shared-engine aggregate statements/sec over N
#: independent sessions on overlapping workloads. Originally 2.0 (ISSUE 2);
#: recalibrated to 1.25 after ISSUE 4's plan templates made the per-session
#: optimizer work that sharing amortizes ~5x cheaper in absolute terms (see
#: module docstring) — the gate still catches any loss of cache sharing.
SPEEDUP_FLOOR = 1.25

#: Priority-flood acceptance (ISSUE 10): with a large background flood
#: queued, an interactive session's p95 submit→analyzed wall latency must
#: stay within this factor of its no-flood baseline. The scheduler's
#: contract makes this achievable: foreground batches always form before
#: background ones, and background drains one statement per cycle
#: (``background_batch_size=1``), so head-of-line blocking is bounded by a
#: single (cache-warm, cheap) flood statement.
PRIORITY_FLOOD_FACTOR = 1.25


def _nearest_rank_p95(samples):
    ordered = sorted(samples)
    rank = -(-95 * len(ordered) // 100) - 1  # ceil(0.95·n) − 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def run_priority_flood(stats, partition, statements, args, *, rounds=3):
    """Interactive p95 latency with vs. without a queued background flood.

    Each round runs the same interactive trickle twice on fresh engines
    with the background drain thread live: once against an empty queue
    (baseline) and once with a flood of background statements pre-queued.
    The flood is ``--flood-count`` copies of one warm statement — a
    queued backlog whose per-statement cost is mostly cache hits, the
    worst case for *queueing* (depth) but not an artificial inflation of
    head-of-line blocking. Latency is wall-clock submit→analyzed per
    interactive statement, measured by polling the session's processed
    count. Paired rounds with a median-of-ratios, exactly like the
    WAL-overhead section: adjacent runs share a host-throughput regime.

    Also asserts the machine-independent scheduling invariants: every
    interactive statement is analyzed while flood backlog still remains
    (foreground never waits behind the flood), and nothing is rejected.
    """
    interactive_statements = statements[: args.flood_interactive]
    flood_statement = statements[0]

    def _run(flood_count):
        engine = TuningEngine(
            WhatIfOptimizer(stats),
            StatsTransitionCosts(stats),
            batch_size=args.batch_size,
            background_batch_size=1,
            fixed_partition=partition,
        )
        # Warm the flood statement's caches so queued copies are cheap —
        # the flood stresses queue depth, not first-touch plan derivation.
        engine.submit("bg", flood_statement, priority="background")
        engine.pump()
        session = engine.session("fg", priority="interactive")
        if flood_count:
            engine.submit_many(
                [("bg", flood_statement, "background")] * flood_count
            )
        engine.start(poll_interval=0.001)
        latencies = []
        processed = session.statements_processed
        for statement in interactive_statements:
            started = time.perf_counter()
            session.submit(statement)
            processed += 1
            while session.statements_processed < processed:
                time.sleep(0.0002)
            latencies.append(time.perf_counter() - started)
            # Trickle gap: decouples each submit from the completion of
            # the previous statement, so arrivals sample random phases of
            # the background drain cycle instead of synchronizing to its
            # worst case (a background statement starting the instant the
            # interactive one finished).
            time.sleep(0.001)
        flood_remaining = engine.queue_depths["background"]
        rejections = engine.backpressure_rejections
        engine.stop(drain=False)
        engine.close()
        return _nearest_rank_p95(latencies) * 1000.0, flood_remaining, rejections

    baseline_p95 = flood_p95 = None
    flood_remaining = rejections = 0
    ratios = []
    # A latency bench over ~0.5 ms statements cannot tolerate the default
    # 5 ms GIL switch interval: every submit→drain-thread handoff would
    # cost up to one full slice, drowning the scheduler's contribution.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        for _ in range(rounds):
            base, _, _ = _run(0)
            baseline_p95 = (
                base if baseline_p95 is None else min(baseline_p95, base)
            )
            flood, flood_remaining, rejections = _run(args.flood_count)
            flood_p95 = (
                flood if flood_p95 is None else min(flood_p95, flood)
            )
            ratios.append(flood / base)
    finally:
        sys.setswitchinterval(switch_interval)
    ratios.sort()
    return {
        "interactive_statements": len(interactive_statements),
        "flood_count": args.flood_count,
        "baseline_p95_ms": baseline_p95,
        "flood_p95_ms": flood_p95,
        "ratio": ratios[len(ratios) // 2],
        "pair_ratios": ratios,
        "flood_remaining_at_fg_done": flood_remaining,
        "backpressure_rejections": rejections,
        "foreground_first": flood_remaining > 0,
        "factor": PRIORITY_FLOOD_FACTOR,
    }


#: The WAL-overhead section drives at least this many *unique* statements
#: per mode. A quick trace (~100 statements, ~40 ms) is far too small to
#: measure a ~10 µs/append + group-committed-fsync overhead against —
#: startup costs and timer jitter dominate and the ratio swings ±30%.
#: Repeating the trace is no fix: repeats are statement-cache hits, which
#: shrinks the per-statement base cost and inflates the apparent relative
#: overhead instead of stabilizing it.
WAL_BENCH_MIN_STATEMENTS = 1200


def run_wal_overhead(stats, partition, statements, batch_size,
                     *, fsync_interval_ms):
    """Per-statement ingest throughput with and without a WAL attached.

    Both runs drive the identical single-client statement stream one
    ``submit`` at a time (so the durable run pays one WAL append per
    statement — ``submit_many`` would batch the whole stream into one
    record and hide the cost), then pump. The durable run uses a
    throwaway directory and the given group-commit interval; its
    recommendations and totWork must be bit-identical to the non-durable
    run (logging must never perturb tuning).
    """

    def _run(durable_dir):
        optimizer = WhatIfOptimizer(stats)
        engine = TuningEngine(
            optimizer,
            StatsTransitionCosts(stats),
            batch_size=batch_size,
            fixed_partition=partition,
        )
        durability = None
        if durable_dir is not None:
            durability = Durability(
                durable_dir, fsync_interval_ms=fsync_interval_ms
            )
            durability.attach(engine)
        started = time.perf_counter()
        for statement in statements:
            engine.submit("wal-bench", statement)
        engine.pump()
        elapsed = time.perf_counter() - started
        outcome = (
            tuple(sorted(ix.name for ix in engine.tuner.recommend())),
            engine.total_work,
        )
        wal_stats = None
        if durability is not None:
            wal = durability.wal
            wal_stats = {
                "records": wal.records_appended,
                "bytes": wal.bytes_appended,
            }
            durability.checkpoint(full=True)  # untimed: proves the full cycle
            durability.close()
        engine.close()
        return len(statements) / elapsed, outcome, wal_stats

    # Paired rounds, median per-pair ratio kept. The WAL's true cost is a
    # few percent of per-statement analysis time, but host throughput
    # drifts ±20% between CPU regimes on shared runners — comparing a
    # best-of max per mode lets the two maxima sample *different* regimes
    # and swing the ratio below any honest floor. Adjacent off/on runs
    # share a regime, so their per-pair ratio cancels the drift, and the
    # median across pairs shrugs off a single fsync spike or stall.
    off_rate = on_rate = 0.0
    off_outcome = on_outcome = wal_stats = None
    ratios = []
    for round_index in range(5):
        rate, off_outcome, _ = _run(None)
        off_rate = max(off_rate, rate)
        with tempfile.TemporaryDirectory(prefix="bench-wal-") as tmp:
            on, on_outcome, wal_stats = _run(os.path.join(tmp, "durable"))
            on_rate = max(on_rate, on)
            ratios.append(on / rate)
    ratios.sort()
    return {
        "fsync_interval_ms": fsync_interval_ms,
        "statements": len(statements),
        "off_stmts_per_sec": off_rate,
        "on_stmts_per_sec": on_rate,
        "ratio": ratios[len(ratios) // 2],
        "pair_ratios": ratios,
        "wal_records": wal_stats["records"],
        "wal_bytes": wal_stats["bytes"],
        "identical": off_outcome == on_outcome,
    }


def run_shared(stats, partition, trace, batch_size):
    optimizer = WhatIfOptimizer(stats)
    engine = TuningEngine(
        optimizer,
        StatsTransitionCosts(stats),
        batch_size=batch_size,
        fixed_partition=partition,
    )
    started = time.perf_counter()
    engine.submit_many(trace)
    engine.pump()
    elapsed = time.perf_counter() - started
    return elapsed, engine, optimizer


def run_independent(stats, partition, clients, statements):
    sessions = {}
    optimizers = {}
    for client in clients:
        optimizer = WhatIfOptimizer(stats)
        optimizers[client] = optimizer
        sessions[client] = AdvisorSession(
            optimizer,
            StatsTransitionCosts(stats),
            fixed_partition=partition,
        )
    started = time.perf_counter()
    for client in clients:
        sessions[client].execute_many(statements)
    elapsed = time.perf_counter() - started
    return elapsed, sessions, optimizers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: smaller catalog/workload, no floor gate")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale factor (default 0.05)")
    parser.add_argument("--per-phase", type=int, default=None,
                        help="statements per phase (default 8, quick 3)")
    parser.add_argument("--clients", type=int, default=4,
                        help="number of concurrent sessions (default 4)")
    parser.add_argument("--part-size", type=int, default=4,
                        help="fixed-partition part size (default 4)")
    parser.add_argument("--pool-limit", type=int, default=None,
                        help="candidate pool size (default 4×part-size)")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="shared-engine ingest micro-batch size")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--no-wal", action="store_true",
                        help="skip the WAL-overhead section")
    parser.add_argument("--no-flood", action="store_true",
                        help="skip the priority-flood section")
    parser.add_argument("--flood-count", type=int, default=None,
                        help="queued background statements in the flood "
                        "(default 4000, quick 1500)")
    parser.add_argument("--flood-interactive", type=int, default=None,
                        help="interactive statements trickled per run "
                        "(default 60, quick 20)")
    parser.add_argument("--wal-fsync-ms", type=float, default=5.0,
                        help="group-commit interval for the WAL-overhead "
                        "section (default 5.0 ms)")
    parser.add_argument("--no-check", action="store_true",
                        help="report only; do not enforce the 2x floor")
    parser.add_argument("--no-save", action="store_true",
                        help="do not write benchmarks/results/bench_service.json")
    parser.add_argument("--out", type=str, default=None,
                        help="result JSON path (default: "
                        "benchmarks/results/bench_service.json; point quick "
                        "runs elsewhere to keep the committed baseline clean)")
    args = parser.parse_args(argv)

    per_phase = args.per_phase or (3 if args.quick else 8)
    scale = 0.02 if args.quick and args.scale == 0.05 else args.scale
    if args.flood_count is None:
        args.flood_count = 1500 if args.quick else 4000
    if args.flood_interactive is None:
        args.flood_interactive = 20 if args.quick else 60

    print(f"building catalog (scale={scale}) and workload "
          f"({per_phase} statements/phase, seed={args.seed})…")
    catalog, stats = build_catalog(scale=scale)
    workload = generate_workload(
        catalog, stats, scaled_phases(per_phase), seed=args.seed
    )
    statements = list(workload.statements)
    pool = candidate_pool(statements, limit=args.pool_limit or 4 * args.part_size)
    partition = chunk_partition(pool, args.part_size)
    clients = [f"client-{i}" for i in range(args.clients)]
    # Overlapping workloads: every client streams the same statements; the
    # shared engine sees them round-robin interleaved.
    trace = MultiClientTrace.round_robin(
        {client: statements for client in clients}
    )
    total = len(trace)

    obs_shared_before = obs.default_registry().snapshot()
    shared_s, engine, shared_opt = run_shared(
        stats, partition, trace, args.batch_size
    )
    obs_shared = obs.diff_snapshots(
        obs_shared_before, obs.default_registry().snapshot()
    )
    obs_indep_before = obs.default_registry().snapshot()
    indep_s, sessions, indep_opts = run_independent(
        stats, partition, clients, statements
    )
    obs_indep = obs.diff_snapshots(
        obs_indep_before, obs.default_registry().snapshot()
    )

    # Windowed read: per-section counts, and the shared optimizer's
    # counters restart so any later section reports only its own work.
    shared_stats = shared_opt.cache_stats(reset=True)
    indep_optimizations = sum(o.optimizations for o in indep_opts.values())
    recs = {c: sessions[c].tuner.recommend() for c in clients}
    independents_agree = len(set(map(frozenset, recs.values()))) == 1

    def _session_latencies(metrics):
        return {
            client_id: {
                "p50_ms": entry["latency_p50_ms"],
                "p95_ms": entry["latency_p95_ms"],
            }
            for client_id, entry in metrics["sessions"].items()
        }

    shared_latencies = _session_latencies(engine.metrics())
    indep_latencies = {
        client: _session_latencies(sessions[client].engine.metrics())["dba"]
        for client in clients
    }

    result = {
        "scale": scale,
        "per_phase": per_phase,
        "seed": args.seed,
        "quick": args.quick,
        "clients": args.clients,
        "part_size": args.part_size,
        "batch_size": args.batch_size,
        "statements_per_client": len(statements),
        "total_statements": total,
        "shared": {
            "elapsed_seconds": shared_s,
            "stmts_per_sec": total / shared_s,
            "optimizations": shared_stats["optimizations"],
            "statement_hit_rate": shared_stats["statement_hit_rate"],
            "template_hit_rate": shared_stats["template_hit_rate"],
            "ibg_hit_rate": shared_stats["ibg_hit_rate"],
            "batches": engine.batches_processed,
            "session_latency": shared_latencies,
            "obs": obs_shared,
        },
        "independent": {
            "elapsed_seconds": indep_s,
            "stmts_per_sec": total / indep_s,
            "optimizations": indep_optimizations,
            "sessions_agree": independents_agree,
            "session_latency": indep_latencies,
            "obs": obs_indep,
        },
        "speedup": indep_s / shared_s,
        "obs_enabled": obs.enabled(),
    }

    wal = None
    if not args.no_wal:
        # A dedicated single-client stream of unique statements: enough
        # work per statement (fresh plan derivations, not cache hits) and
        # enough of them that the ~10 µs/append WAL cost is measured
        # against real analysis cost, not timer jitter.
        phases = max(1, len(statements) // per_phase)
        wal_per_phase = max(
            per_phase, -(-WAL_BENCH_MIN_STATEMENTS // phases)
        )
        wal_workload = generate_workload(
            catalog, stats, scaled_phases(wal_per_phase), seed=args.seed
        )
        wal_statements = list(wal_workload.statements)
        print(f"\nWAL overhead: {len(wal_statements)} single-client "
              f"statements, {args.wal_fsync_ms:g} ms group commit…")
        wal = run_wal_overhead(
            stats, partition, wal_statements, args.batch_size,
            fsync_interval_ms=args.wal_fsync_ms,
        )
        result["wal"] = wal

    flood = None
    if not args.no_flood:
        print(f"\npriority flood: {args.flood_count} background statements "
              f"queued, {args.flood_interactive} interactive trickled…")
        flood = run_priority_flood(stats, partition, statements, args)
        result["priority_flood"] = flood

    print()
    print(f"{args.clients} overlapping sessions × {len(statements)} statements "
          f"({total} total), part size {args.part_size}")
    print(f"{'mode':<12} {'st/s':>10} {'elapsed':>9} {'whatif opts':>12}")
    print("-" * 46)
    print(f"{'shared':<12} {result['shared']['stmts_per_sec']:>10.1f} "
          f"{shared_s:>8.2f}s {result['shared']['optimizations']:>12}")
    print(f"{'independent':<12} {result['independent']['stmts_per_sec']:>10.1f} "
          f"{indep_s:>8.2f}s {indep_optimizations:>12}")
    print(f"speedup {result['speedup']:.2f}x; shared statement-cache hit rate "
          f"{shared_stats['statement_hit_rate']:.2f}")
    shared_p95 = max(v["p95_ms"] for v in shared_latencies.values())
    indep_p95 = max(v["p95_ms"] for v in indep_latencies.values())
    print(f"per-session statement latency (worst client): "
          f"shared p95 {shared_p95:.3f} ms, independent p95 {indep_p95:.3f} ms")

    if wal is not None:
        print()
        print(f"WAL overhead ({wal['wal_records']} records, "
              f"{wal['wal_bytes']} bytes, "
              f"{wal['fsync_interval_ms']:g} ms group commit)")
        print(f"{'mode':<10} {'st/s':>10}")
        print("-" * 22)
        print(f"{'wal off':<10} {wal['off_stmts_per_sec']:>10.1f}")
        print(f"{'wal on':<10} {wal['on_stmts_per_sec']:>10.1f}")
        print(f"durable/non-durable throughput ratio {wal['ratio']:.3f}; "
              f"outcomes identical: {wal['identical']}")

    if flood is not None:
        print()
        print(f"priority flood ({flood['flood_count']} background queued, "
              f"{flood['interactive_statements']} interactive trickled)")
        print(f"{'mode':<10} {'p95 ms':>10}")
        print("-" * 22)
        print(f"{'no flood':<10} {flood['baseline_p95_ms']:>10.3f}")
        print(f"{'flood':<10} {flood['flood_p95_ms']:>10.3f}")
        print(f"interactive p95 flood/no-flood ratio {flood['ratio']:.3f}; "
              f"flood backlog remaining when interactive stream finished: "
              f"{flood['flood_remaining_at_fg_done']}")

    if not args.no_save:
        out = (
            pathlib.Path(args.out) if args.out
            else RESULTS_DIR / "bench_service.json"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out, result)
        print(f"saved {out}")

    if not independents_agree:
        print("FAIL: independent sessions diverged (determinism bug)")
        return 1
    if wal is not None and not wal["identical"]:
        # Correctness, not perf: attaching a WAL must never perturb the
        # tuner, so this gates every run, quick included. The throughput
        # ratio itself is gated by perf_gate.py --wal-overhead.
        print("FAIL: durable and non-durable runs produced different "
              "recommendations or totWork (WAL perturbed tuning)")
        return 1
    if flood is not None and not flood["foreground_first"]:
        # Correctness, not perf: the scheduler's contract is that the
        # interactive trickle never waits behind the flood, so the whole
        # backlog must still be queued (minus the one-per-idle-cycle
        # background drains) when the last interactive statement lands.
        # Gates every run, quick included; the p95 factor itself is gated
        # by perf_gate.py --priority-flood.
        print("FAIL: background flood fully drained before the interactive "
              "stream finished (priority scheduling broken)")
        return 1
    if flood is not None and flood["backpressure_rejections"]:
        print("FAIL: admission control rejected flood submissions sized "
              "within the queue limit")
        return 1
    if not args.quick and not args.no_check:
        if result["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: shared-engine speedup {result['speedup']:.2f}x "
                  f"< {SPEEDUP_FLOOR}x floor")
            return 1
        print(f"shared-engine speedup {result['speedup']:.2f}x "
              f"≥ {SPEEDUP_FLOOR}x floor")
        if flood is not None:
            if flood["ratio"] > PRIORITY_FLOOD_FACTOR:
                print(f"FAIL: interactive p95 under flood "
                      f"{flood['ratio']:.3f}x of no-flood baseline > "
                      f"{PRIORITY_FLOOD_FACTOR}x ceiling")
                return 1
            print(f"interactive p95 under flood {flood['ratio']:.3f}x "
                  f"≤ {PRIORITY_FLOOD_FACTOR}x ceiling")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

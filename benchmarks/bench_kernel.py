#!/usr/bin/env python
"""Bitset-kernel throughput benchmark: statements/sec for WFA⁺.

Measures the per-statement analysis throughput of the kernel-backed WFA⁺
against the seed implementation (``ReferenceWFA`` + a faithful replica of
the seed's frozenset-keyed what-if memo table over the scalar plan search,
both from ``tests/reference.py``) at partition sizes 4, 8, and 12 over the
figure-8 style benchmark workload, plus the total number of actual what-if
plan optimizations each run performed (the machine-independent overhead
metric of §6.2).

Both pipelines execute the same algorithm over the same workload with a
cold cache, so they pay for the same set of plan optimizations; the ratio
isolates the representation cost (frozenset hashing/decoding vs int
arithmetic) that the bitset kernel removes.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py           # full run
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick   # CI smoke

The full run records its table under ``benchmarks/results/`` and exits
non-zero if the size-8 speedup falls below the 3x acceptance floor
(disable with ``--no-check``). ``--quick`` times every kernel row and
every seed row as the median of ``QUICK_REPEATS`` runs: one run over its
32 statements takes ~50 ms, short enough for host noise alone to move
the perf gate's seed-relative ratio.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pathlib
import pstats
import statistics
import sys
import time
from collections import Counter
from typing import Dict, FrozenSet, List, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the seed rows' reference module

from repro import obs
from repro.ioutil import atomic_write_json
from repro.core import wfa_kernel
from repro.core.wfa_plus import WFAPlus
from repro.db import Index, StatsTransitionCosts, build_catalog
from repro.optimizer import WhatIfOptimizer, extract_indices
from repro.workload import generate_workload, scaled_phases
from reference import ReferenceCostModel, ReferenceWFA

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Acceptance floor: kernel statements/sec over seed statements/sec at the
#: partition-size-8 point.
SPEEDUP_FLOOR = 3.0

#: Timed runs per row under ``--quick``; the row reports their median.
QUICK_REPEATS = 5


class SeedWhatIfCache:
    """The seed's what-if memoization, preserved for the baseline.

    Keys the cache on ``(statement, relevant frozenset)`` — computing the
    relevant subset by scanning the configuration and hashing a container
    per lookup — exactly as the pre-kernel ``WhatIfOptimizer`` did.
    """

    def __init__(self, stats) -> None:
        self._model = ReferenceCostModel(stats)
        self._cache: Dict[object, float] = {}
        self.whatif_calls = 0
        self.optimizations = 0

    def cost(self, statement, config) -> float:
        self.whatif_calls += 1
        tables = set(statement.tables_referenced())
        relevant = frozenset(ix for ix in config if ix.table in tables)
        key = (statement, relevant)
        cached = self._cache.get(key)
        if cached is None:
            self.optimizations += 1
            cached = self._model.explain(statement, relevant).total_cost
            self._cache[key] = cached
        return cached


class ReferenceWFAPlus:
    """Seed WFA⁺: one ReferenceWFA per part (mirrors WFAPlus.analyze)."""

    def __init__(self, partition, initial, cost_fn, transitions) -> None:
        self._instances = [
            ReferenceWFA(sorted(part), frozenset(initial) & part, cost_fn, transitions)
            for part in partition
        ]

    def analyze_statement(self, statement) -> None:
        for instance in self._instances:
            instance.analyze_statement(statement)

    def recommend(self) -> FrozenSet[Index]:
        out: set = set()
        for instance in self._instances:
            out.update(instance.recommend())
        return frozenset(out)


def candidate_pool(statements, limit: int) -> List[Index]:
    """The ``limit`` most frequently extracted candidate indices."""
    counts: Counter = Counter()
    for statement in statements:
        counts.update(extract_indices(statement))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [index for index, _ in ranked[:limit]]


def chunk_partition(pool: Sequence[Index], part_size: int):
    """Disjoint parts of exactly ``part_size`` from the (sorted) pool."""
    ordered = sorted(pool)
    usable = (len(ordered) // part_size) * part_size
    return [
        frozenset(ordered[i:i + part_size])
        for i in range(0, usable, part_size)
    ]


def run_kernel(stats, partition, statements, transitions, backend=None):
    """One kernel-pipeline run; ``backend`` pins the work-function kernel
    (None: the size-aware default selection).

    The returned registry snapshot is taken after the timer stops but
    while the run's optimizer is still alive — its what-if counters are
    exported through a weak registry collector, so a snapshot taken after
    this function returns would no longer see them.
    """
    optimizer = WhatIfOptimizer(stats)
    if backend is None:
        tuner = WFAPlus(partition, frozenset(), optimizer.cost, transitions)
    else:
        with wfa_kernel.force_backend(backend):
            tuner = WFAPlus(partition, frozenset(), optimizer.cost, transitions)
    started = time.perf_counter()
    for statement in statements:
        tuner.analyze_statement(statement)
    elapsed = time.perf_counter() - started
    snapshot = obs.default_registry().snapshot()
    return elapsed, optimizer.optimizations, tuner.recommend(), snapshot


def run_seed(stats, partition, statements, transitions):
    cache = SeedWhatIfCache(stats)
    tuner = ReferenceWFAPlus(partition, frozenset(), cache.cost, transitions)
    started = time.perf_counter()
    for statement in statements:
        tuner.analyze_statement(statement)
    elapsed = time.perf_counter() - started
    return elapsed, cache.optimizations, tuner.recommend()


def profile_kernel(stats, partition, statements, transitions, top=20,
                   backend=None):
    """cProfile top-``top`` of a (separate, untimed) kernel run.

    Run *after* the timed measurement so profiler overhead never leaks into
    the reported statements/sec; the returned lines go into the result JSON
    so an optimizer-bound regression is diagnosable straight from the CI
    artifact.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    run_kernel(stats, partition, statements, transitions, backend=backend)
    profiler.disable()
    buffer = io.StringIO()
    stats_view = pstats.Stats(profiler, stream=buffer)
    stats_view.sort_stats("cumulative").print_stats(top)
    lines = [
        line.rstrip() for line in buffer.getvalue().splitlines() if line.strip()
    ]
    # Drop the profiler preamble up to the column header.
    for i, line in enumerate(lines):
        if line.lstrip().startswith("ncalls"):
            return lines[i:]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: part sizes 4/8, a shorter workload, no speedup gate",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale factor (default 0.05)")
    parser.add_argument("--per-phase", type=int, default=None,
                        help="statements per phase (default 12, quick 4)")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--no-check", action="store_true",
                        help="report only; do not enforce the 3x floor")
    parser.add_argument("--no-save", action="store_true",
                        help="do not write benchmarks/results/bench_kernel.json")
    parser.add_argument("--profile", action="store_true",
                        help="attach a cProfile top-20 (cumulative) of an "
                        "extra, untimed kernel run to every row")
    parser.add_argument("--backends", type=str, default=None,
                        help="comma-separated work-function kernel backends "
                        "to measure (default: every available backend — "
                        "'numpy,python' when numpy is importable)")
    parser.add_argument("--out", type=str, default=None,
                        help="result JSON path (default: "
                        "benchmarks/results/bench_kernel.json; point quick "
                        "runs elsewhere to keep the committed baseline clean)")
    args = parser.parse_args(argv)

    sizes = (4, 8) if args.quick else (4, 8, 12)
    repeats = QUICK_REPEATS if args.quick else 1
    per_phase = args.per_phase or (4 if args.quick else 12)
    scale = 0.02 if args.quick and args.scale == 0.05 else args.scale

    print(f"building catalog (scale={scale}) and workload "
          f"({per_phase} statements/phase, seed={args.seed})…")
    catalog, stats = build_catalog(scale=scale)
    workload = generate_workload(
        catalog, stats, scaled_phases(per_phase), seed=args.seed
    )
    statements = workload.statements
    transitions = StatsTransitionCosts(stats)
    pool = candidate_pool(statements, limit=2 * max(sizes))

    if args.backends:
        backends = [name.strip() for name in args.backends.split(",") if name.strip()]
        for name in backends:
            if name not in wfa_kernel.available_backends():
                parser.error(
                    f"backend {name!r} not available here "
                    f"(have {wfa_kernel.available_backends()})"
                )
    else:
        backends = wfa_kernel.available_backends()

    rows = []
    for part_size in sizes:
        partition = chunk_partition(pool, part_size)
        if not partition:
            print(f"part size {part_size}: not enough candidates "
                  f"({len(pool)}), skipped")
            continue
        # One seed-baseline measurement per size, shared by every backend
        # row: the seed pipeline has no kernel and re-measuring it would
        # only add noise to the seed-relative speedups. Each repeat runs
        # the seed and then every backend, so the medians of both sides
        # of a speedup span the same stretch of wall time.
        seed_runs = []
        kernel_runs: Dict[str, list] = {backend: [] for backend in backends}
        obs_deltas = {}
        for repeat in range(repeats):
            seed_runs.append(run_seed(stats, partition, statements, transitions))
            for backend in backends:
                # Registry delta around the first timed run (snapshots
                # taken outside the timer): perf_gate can gate on
                # counters, not just st/s.
                obs_before = obs.default_registry().snapshot()
                run = run_kernel(
                    stats, partition, statements, transitions, backend=backend
                )
                if repeat == 0:
                    obs_deltas[backend] = obs.diff_snapshots(obs_before, run[3])
                kernel_runs[backend].append(run)
        seed_s = statistics.median(run[0] for run in seed_runs)
        _, seed_opts, seed_rec = seed_runs[0]
        for backend in backends:
            kernel_s = statistics.median(run[0] for run in kernel_runs[backend])
            _, kernel_opts, kernel_rec, _ = kernel_runs[backend][0]
            obs_delta = obs_deltas[backend]
            row = {
                "part_size": part_size,
                "backend": backend,
                "parts": len(partition),
                "tracked_states": sum(1 << len(p) for p in partition),
                "statements": len(statements),
                "kernel_stmts_per_sec": len(statements) / kernel_s,
                "seed_stmts_per_sec": len(statements) / seed_s,
                "speedup": seed_s / kernel_s,
                "kernel_optimizations": kernel_opts,
                "seed_optimizations": seed_opts,
                "recommendations_match": kernel_rec == seed_rec,
                "obs": obs_delta,
            }
            if args.profile:
                row["profile_kernel_top20"] = profile_kernel(
                    stats, partition, statements, transitions, backend=backend
                )
            rows.append(row)

    header = (
        f"{'size':>4} {'backend':>7} {'parts':>5} {'states':>6} "
        f"{'kernel st/s':>12} {'seed st/s':>10} {'speedup':>8} "
        f"{'whatif opts':>11} {'rec==':>5}"
    )
    print()
    print("bitset kernel vs seed frozenset WFA+ "
          f"({len(statements)} statements, figure-8 workload)")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['part_size']:>4} {row['backend']:>7} "
            f"{row['parts']:>5} {row['tracked_states']:>6} "
            f"{row['kernel_stmts_per_sec']:>12.1f} "
            f"{row['seed_stmts_per_sec']:>10.1f} "
            f"{row['speedup']:>7.2f}x "
            f"{row['kernel_optimizations']:>11} "
            f"{str(row['recommendations_match']):>5}"
        )
    if args.profile:
        for row in rows:
            print(f"\ncProfile top-20 (cumulative), part size "
                  f"{row['part_size']}, backend {row['backend']}:")
            for line in row["profile_kernel_top20"]:
                print(f"  {line}")

    if not args.no_save:
        RESULTS_DIR.mkdir(exist_ok=True)
        payload = {
            "scale": scale,
            "per_phase": per_phase,
            "seed": args.seed,
            "quick": args.quick,
            "repeats": repeats,
            "obs_enabled": obs.enabled(),
            "rows": rows,
        }
        out = (
            pathlib.Path(args.out) if args.out
            else RESULTS_DIR / "bench_kernel.json"
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out, payload)
        print(f"\nsaved {out}")

    for row in rows:
        if not row["recommendations_match"]:
            print(f"FAIL: recommendations diverged at part size "
                  f"{row['part_size']} (backend {row['backend']})")
            return 1
    if not args.quick and not args.no_check:
        gates = [row for row in rows if row["part_size"] == 8]
        if not gates:
            print("FAIL: no size-8 measurement for the speedup gate")
            return 1
        for gate in gates:
            if gate["speedup"] < SPEEDUP_FLOOR:
                print(f"FAIL: size-8 speedup {gate['speedup']:.2f}x "
                      f"({gate['backend']}) < {SPEEDUP_FLOOR}x floor")
                return 1
            print(f"size-8 speedup {gate['speedup']:.2f}x "
                  f"({gate['backend']}) ≥ {SPEEDUP_FLOOR}x floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

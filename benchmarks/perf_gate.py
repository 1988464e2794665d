#!/usr/bin/env python
"""CI perf gate: fail on statements/sec regressions in bench_kernel runs.

Compares a fresh ``bench_kernel.py --quick`` result against the pinned
baseline committed under ``benchmarks/results/`` so perf drift can never
land silently. Rows are keyed by ``(part size, work-function kernel
backend)`` — the numpy kernel and its pure-Python twin are pinned and
gated independently, so a regression in the fallback cannot hide behind
the vectorized path (or vice versa). Two machine-independent checks
**fail** the gate per row (raw wall-clock is not comparable between the
machine that pinned the baseline and an arbitrary CI runner):

* **seed-relative throughput** — the ``speedup`` column (kernel st/s over
  the in-run seed-baseline st/s on the same machine) must not drop by more
  than ``--max-regression`` (default 25%). A kernel slowdown shows up here
  immediately because the seed pipeline is compiled from the same checkout.
* **plan-derivation count** — ``kernel_optimizations`` must not grow by
  more than the same fraction (the §6.2 machine-independent overhead
  metric; a caching/batching regression shows up here even if wall-clock
  happens to be quiet on the runner).

``recommendations_match`` must hold on every current row. Raw kernel
statements/sec drops are reported as *warnings* only.

With ``--wal-overhead`` (requires ``--service-current``) the gate also
checks the service payload's WAL-overhead section: durable ingest under
a group-committed WAL must hold ≥0.90× of the same trace's non-durable
throughput (same machine, same run) — below that FAILs full runs (quick
measurements WARN), 0.90–0.97× WARNs — and the durable run's
recommendations/totWork must be identical to the non-durable run's (a
divergence FAILs: logging must never perturb tuning).

With ``--priority-flood`` (requires ``--service-current``) the gate also
checks the service payload's priority-flood section: the interactive
session's p95 submit→analyzed latency with a background flood queued
must stay ≤1.25× of its no-flood baseline (full runs FAIL above that,
quick measurements WARN), and two machine-independent invariants always
gate — the interactive stream must finish while flood backlog remains,
and admission control must not reject a flood sized within its limit.

With ``--obs-overhead`` the gate compares two fresh quick runs of the
same checkout — one with telemetry enabled (the default), one with
``REPRO_OBS=0`` — row by row against each other and against the pinned
baseline: the disabled run regressing more than 5% in seed-relative
throughput vs the baseline **fails** (the no-op telemetry path must stay
within noise of the pre-telemetry kernel), and the enabled run falling
more than 2% behind the disabled run's raw st/s (a same-machine
comparison) **warns**.

Usage (what the CI job runs)::

    python benchmarks/bench_kernel.py --quick --out /tmp/quick.json
    python benchmarks/perf_gate.py --current /tmp/quick.json \
        [--service-current /tmp/service.json --wal-overhead --priority-flood]

    REPRO_OBS=0 python benchmarks/bench_kernel.py --quick --out /tmp/off.json
    python benchmarks/bench_kernel.py --quick --out /tmp/on.json
    python benchmarks/perf_gate.py --obs-overhead \
        --obs-disabled /tmp/off.json --obs-enabled /tmp/on.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_BASELINE = RESULTS_DIR / "bench_kernel_quick.json"


def _rows_by_key(payload):
    """Rows keyed by ``(part_size, backend)``.

    Pre-kernel baselines carry no ``backend`` field; those rows were the
    scalar pure-Python implementation, which the ``python`` work-function
    kernel succeeds, so they gate that backend.
    """
    return {
        (row["part_size"], row.get("backend", "python")): row
        for row in payload["rows"]
    }


def compare(baseline, current, max_regression):
    """Yields (level, message) pairs; level is "FAIL" or "WARN"."""
    base_rows = _rows_by_key(baseline)
    cur_rows = _rows_by_key(current)
    for key in ("scale", "per_phase", "seed"):
        if baseline.get(key) != current.get(key):
            yield ("FAIL", f"workload mismatch: {key} baseline="
                   f"{baseline.get(key)} current={current.get(key)} — "
                   f"rerun bench_kernel with the baseline's parameters")
            return
    shared = sorted(set(base_rows) & set(cur_rows))
    if not shared:
        yield ("FAIL", "no common (part size, backend) rows between "
               "baseline and current run")
        return
    for size, backend in sorted(base_rows):
        if (size, backend) not in cur_rows:
            # Legitimate on runners that cannot build the backend (no
            # numpy interpreter) — but surface every ungated baseline row
            # so a silently skipped measurement is at least visible.
            yield ("WARN", f"size {size}/{backend}: baseline row has no "
                   f"current measurement (not measured in this run; "
                   f"not gated)")
    floor = 1.0 - max_regression
    ceiling = 1.0 + max_regression
    for size, backend in shared:
        label = f"size {size}/{backend}"
        base, cur = base_rows[(size, backend)], cur_rows[(size, backend)]
        if not cur["recommendations_match"]:
            yield ("FAIL", f"{label}: kernel and seed recommendations "
                   f"diverged (correctness, not perf)")
        ratio = cur["speedup"] / base["speedup"]
        if ratio < floor:
            yield ("FAIL", f"{label}: seed-relative throughput fell to "
                   f"{ratio:.2f}x of baseline "
                   f"({cur['speedup']:.2f}x vs {base['speedup']:.2f}x; "
                   f"allowed floor {floor:.2f}x)")
        else:
            yield ("ok", f"{label}: seed-relative throughput "
                   f"{cur['speedup']:.2f}x vs baseline {base['speedup']:.2f}x")
        base_opts = max(1, base["kernel_optimizations"])
        opt_ratio = cur["kernel_optimizations"] / base_opts
        if opt_ratio > ceiling:
            yield ("FAIL", f"{label}: plan derivations grew "
                   f"{opt_ratio:.2f}x ({cur['kernel_optimizations']} vs "
                   f"{base['kernel_optimizations']})")
        raw_ratio = cur["kernel_stmts_per_sec"] / base["kernel_stmts_per_sec"]
        if raw_ratio < floor:
            yield ("WARN", f"{label}: raw kernel st/s at {raw_ratio:.2f}x "
                   f"of the pinned baseline (machine-dependent; not gated)")


#: --wal-overhead thresholds: durable-ingest throughput as a fraction of
#: the same trace without a WAL attached (same machine, same run — raw
#: rates are comparable). Below WAL_OVERHEAD_FAIL the group-committed log
#: is eating more than its budget and the gate FAILs; between the two it
#: WARNs. The constants live here, not in the bench JSON, so a bench edit
#: cannot quietly relax the gate.
WAL_OVERHEAD_FAIL = 0.90
WAL_OVERHEAD_WARN = 0.97


def compare_wal(payload):
    """Gate checks for a bench_service JSON's WAL-overhead section."""
    wal = payload.get("wal")
    if wal is None:
        yield ("WARN", "service run has no wal section (run "
               "bench_service.py without --no-wal); not gated")
        return
    if not wal.get("identical", False):
        yield ("FAIL", "wal overhead: durable and non-durable runs diverged "
               "in recommendations or totWork (correctness, not perf)")
    else:
        yield ("ok", "wal overhead: durable run bit-identical to the "
               "non-durable run")
    ratio = wal.get("ratio")
    if ratio is None:
        yield ("WARN", "wal overhead: no throughput ratio recorded; "
               "not gated")
        return
    detail = (f"durable ingest at {ratio:.3f}x of non-durable throughput "
              f"({wal.get('fsync_interval_ms')} ms group commit, "
              f"{wal.get('wal_records')} records)")
    if ratio < WAL_OVERHEAD_FAIL:
        if payload.get("quick", False):
            # Quick measurements are too short to hold a throughput ratio
            # steady on a noisy runner, so the floor only FAILs full runs.
            yield ("WARN", f"wal overhead: {detail}; below the "
                   f"{WAL_OVERHEAD_FAIL:.2f}x floor but this is a --quick "
                   f"measurement (not gated; rerun the full bench)")
            return
        yield ("FAIL", f"wal overhead: {detail}; floor "
               f"{WAL_OVERHEAD_FAIL:.2f}x")
    elif ratio < WAL_OVERHEAD_WARN:
        yield ("WARN", f"wal overhead: {detail}; below the "
               f"{WAL_OVERHEAD_WARN:.2f}x comfort line but above the "
               f"{WAL_OVERHEAD_FAIL:.2f}x floor")
    else:
        yield ("ok", f"wal overhead: {detail} "
               f"(≥ {WAL_OVERHEAD_WARN:.2f}x)")


#: --priority-flood threshold: with a background flood queued, the
#: interactive session's p95 submit→analyzed latency may be at most this
#: multiple of its no-flood baseline (same machine, same run — paired
#: rounds). The constant lives here, not in the bench JSON, so a bench
#: edit cannot quietly relax the gate.
PRIORITY_FLOOD_FACTOR = 1.25


def compare_flood(payload):
    """Gate checks for a bench_service JSON's priority-flood section."""
    flood = payload.get("priority_flood")
    if flood is None:
        yield ("WARN", "service run has no priority_flood section (run "
               "bench_service.py without --no-flood); not gated")
        return
    # Machine-independent scheduling invariants gate every measurement:
    # the interactive trickle must finish while flood backlog remains
    # (foreground never queues behind background), and a flood sized
    # within the class limit must never be rejected.
    if not flood.get("foreground_first", False):
        yield ("FAIL", "priority flood: background backlog fully drained "
               "before the interactive stream finished (priority "
               "scheduling broken, not perf)")
    else:
        yield ("ok", f"priority flood: interactive stream finished with "
               f"{flood.get('flood_remaining_at_fg_done')} background "
               f"statements still queued")
    if flood.get("backpressure_rejections", 0):
        yield ("FAIL", "priority flood: admission control rejected "
               "submissions sized within the queue limit")
    ratio = flood.get("ratio")
    if ratio is None:
        yield ("WARN", "priority flood: no latency ratio recorded; "
               "not gated")
        return
    detail = (f"interactive p95 at {ratio:.3f}x of its no-flood baseline "
              f"({flood.get('flood_count')} background statements queued)")
    if ratio > PRIORITY_FLOOD_FACTOR:
        if payload.get("quick", False):
            # Same convention as the WAL floor: quick measurements are too
            # short to hold a latency ratio steady on a noisy runner.
            yield ("WARN", f"priority flood: {detail}; above the "
                   f"{PRIORITY_FLOOD_FACTOR:.2f}x ceiling but this is a "
                   f"--quick measurement (not gated; rerun the full bench)")
            return
        yield ("FAIL", f"priority flood: {detail}; ceiling "
               f"{PRIORITY_FLOOD_FACTOR:.2f}x")
    else:
        yield ("ok", f"priority flood: {detail} "
               f"(≤ {PRIORITY_FLOOD_FACTOR:.2f}x)")


#: --obs-overhead thresholds: the REPRO_OBS=0 run may lose at most this
#: fraction of seed-relative throughput vs the pinned baseline (FAIL), and
#: the enabled run at most this fraction of the disabled run's raw st/s
#: (WARN; same-machine, so raw rates are comparable).
OBS_DISABLED_MAX_REGRESSION = 0.05
OBS_ENABLED_MAX_OVERHEAD = 0.02


def compare_obs_overhead(baseline, disabled, enabled):
    """Gate checks for telemetry overhead; yields (level, message) pairs.

    ``disabled``/``enabled`` are two quick bench_kernel payloads from the
    *same* checkout and machine; ``baseline`` is the pinned pre-telemetry
    quick baseline.
    """
    if disabled.get("obs_enabled", True):
        yield ("FAIL", "obs-overhead: the --obs-disabled payload was "
               "recorded with telemetry on (rerun it under REPRO_OBS=0)")
        return
    if not enabled.get("obs_enabled", False):
        yield ("FAIL", "obs-overhead: the --obs-enabled payload was "
               "recorded with telemetry off")
        return
    dis_rows = _rows_by_key(disabled)
    en_rows = _rows_by_key(enabled)
    base_rows = _rows_by_key(baseline)
    shared = sorted(set(dis_rows) & set(en_rows))
    if not shared:
        yield ("FAIL", "obs-overhead: no common (part size, backend) rows "
               "between the enabled and disabled runs")
        return
    floor = 1.0 - OBS_DISABLED_MAX_REGRESSION
    for size, backend in shared:
        label = f"size {size}/{backend}"
        dis, en = dis_rows[(size, backend)], en_rows[(size, backend)]
        base = base_rows.get((size, backend))
        if base is not None:
            # Machine-independent: the no-op path vs the pinned pre-PR
            # speedup. A >5% drop means the disabled branch is not free.
            ratio = dis["speedup"] / base["speedup"]
            if ratio < floor:
                yield ("FAIL", f"{label}: REPRO_OBS=0 seed-relative "
                       f"throughput at {ratio:.3f}x of the pinned baseline "
                       f"({dis['speedup']:.2f}x vs {base['speedup']:.2f}x; "
                       f"floor {floor:.2f}x)")
            else:
                yield ("ok", f"{label}: REPRO_OBS=0 at {ratio:.3f}x of the "
                       f"pinned seed-relative baseline")
        else:
            yield ("WARN", f"{label}: no pinned baseline row; disabled-path "
                   f"regression not gated")
        # Same-machine, same-run-pair: enabled vs disabled raw throughput.
        overhead = 1.0 - en["kernel_stmts_per_sec"] / dis["kernel_stmts_per_sec"]
        if overhead > OBS_ENABLED_MAX_OVERHEAD:
            yield ("WARN", f"{label}: telemetry-enabled run is "
                   f"{overhead:.1%} slower than REPRO_OBS=0 "
                   f"(> {OBS_ENABLED_MAX_OVERHEAD:.0%})")
        else:
            yield ("ok", f"{label}: enabled-vs-disabled overhead "
                   f"{overhead:+.1%} (≤ {OBS_ENABLED_MAX_OVERHEAD:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE,
                        help=f"pinned baseline JSON (default {DEFAULT_BASELINE})")
    parser.add_argument("--current", type=pathlib.Path, default=None,
                        help="freshly produced bench_kernel JSON to gate")
    parser.add_argument("--service-current", type=pathlib.Path, default=None,
                        help="freshly produced bench_service JSON, gated by "
                        "--wal-overhead and --priority-flood")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop/growth (default 0.25)")
    parser.add_argument("--wal-overhead", action="store_true",
                        help="also gate the --service-current payload's "
                        "WAL-overhead section (durable ingest ≥ "
                        f"{WAL_OVERHEAD_FAIL}x of non-durable throughput)")
    parser.add_argument("--priority-flood", action="store_true",
                        help="also gate the --service-current payload's "
                        "priority-flood section (interactive p95 ≤ "
                        f"{PRIORITY_FLOOD_FACTOR}x of its no-flood "
                        "baseline, foreground never starved)")
    parser.add_argument("--obs-overhead", action="store_true",
                        help="gate telemetry overhead: requires "
                        "--obs-disabled and --obs-enabled quick payloads")
    parser.add_argument("--obs-disabled", type=pathlib.Path, default=None,
                        help="bench_kernel quick JSON recorded under "
                        "REPRO_OBS=0")
    parser.add_argument("--obs-enabled", type=pathlib.Path, default=None,
                        help="bench_kernel quick JSON recorded with "
                        "telemetry on (the default)")
    args = parser.parse_args(argv)

    if args.obs_overhead and (args.obs_disabled is None
                              or args.obs_enabled is None):
        parser.error("--obs-overhead requires --obs-disabled and "
                     "--obs-enabled")
    if args.current is None and not args.obs_overhead:
        parser.error("provide --current (and/or --obs-overhead with its "
                     "two payloads)")
    if args.wal_overhead and args.service_current is None:
        parser.error("--wal-overhead requires --service-current")
    if args.priority_flood and args.service_current is None:
        parser.error("--priority-flood requires --service-current")

    baseline = json.loads(args.baseline.read_text())
    failures = 0
    if args.current is not None:
        current = json.loads(args.current.read_text())
        for level, message in compare(baseline, current, args.max_regression):
            print(f"{level}: {message}")
            if level == "FAIL":
                failures += 1
    if args.obs_overhead:
        disabled = json.loads(args.obs_disabled.read_text())
        enabled = json.loads(args.obs_enabled.read_text())
        for level, message in compare_obs_overhead(
            baseline, disabled, enabled
        ):
            print(f"{level}: {message}")
            if level == "FAIL":
                failures += 1
    if args.service_current is not None:
        service = json.loads(args.service_current.read_text())
        if args.wal_overhead:
            for level, message in compare_wal(service):
                print(f"{level}: {message}")
                if level == "FAIL":
                    failures += 1
        if args.priority_flood:
            for level, message in compare_flood(service):
                print(f"{level}: {message}")
                if level == "FAIL":
                    failures += 1
    if failures:
        print(f"\nperf gate: {failures} failing check(s) "
              f"(threshold {args.max_regression:.0%})")
        return 1
    print("\nperf gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

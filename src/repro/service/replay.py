"""Replay CLI: drive the tuning service over a generated multi-client trace.

Two subcommands::

    python -m repro.service replay  [trace options] \
        [--priority-map client-0=interactive,...] [--adopt-every T] \
        [--durable-dir DIR [--checkpoint-every K] [--wal-fsync-ms MS]] \
        [--metrics-out PATH]
    python -m repro.service recover --dir DIR [--verify]

``replay`` deterministically generates the paper's phase-shifting workload,
deals it across N simulated clients, and streams it through a
:class:`~repro.service.engine.TuningEngine` (micro-batched ingest).
``--priority-map`` assigns per-session priority classes (drain order is
priority-aware), and ``--adopt-every T`` simulates the Figure 11 lagged
DBA — every report carries a ``"lag"`` block with the recommended vs.
realized totWork series and adoption-lag counters. With ``--durable-dir``
the run is durable: an initial snapshot stashes the trace parameters,
the priority map and the run's chunking in the directory, every
submission is write-ahead logged before it enters the queue, and
``--checkpoint-every K`` publishes a crash-atomic, self-contained
snapshot every K statements — kill the process at any instant and
``recover`` rebuilds the engine from the directory. ``recover --verify``
additionally runs the uninterrupted engine over the same trace, through
the same chunked loop as ``replay`` (under mixed priority classes the
chunk boundaries decide the analysis order), and compares the
recommendation after each statement ``recover`` steps, the final
recommendation (votes replayed after the last statement change only
that) and the final totWork — exiting 1 on divergence. Exit 2 means
unusable input: out-of-range arguments, unusable durable state
(unreadable or unsupported snapshots, a WAL gap, a record that does not
decode), or a snapshot without trace parameters.

All subcommands emit a JSON metrics report (stdout or ``--metrics-out``);
the report embeds a full :mod:`repro.obs` registry snapshot under ``"obs"``
(validate/pretty-print with ``python -m repro.obs``), and ``--trace-out``
writes the recent pipeline spans as a Chrome ``trace_event`` JSON loadable
in ``chrome://tracing`` or Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .. import obs
from ..db import StatsTransitionCosts, build_catalog
from ..ioutil import atomic_write_json
from ..optimizer.whatif import WhatIfOptimizer
from ..query.parser import to_sql
from ..workload import MultiClientTrace, generate_workload, scaled_phases
from .engine import TuningEngine
from .scheduler import normalize_priority
from .snapshot import SnapshotError
from .wal import Durability, WalError, latest_snapshot_document

__all__ = ["main"]

#: totWork comparison tolerance for ``recover --verify``.
_VERIFY_TOL = 1e-6


def _trace_params(args: argparse.Namespace) -> Dict[str, object]:
    return {
        "scale": args.scale,
        "per_phase": args.per_phase,
        "seed": args.seed,
        "clients": args.clients,
        "split": args.split,
        "limit": args.limit,
        # Session priority classes ride along with the trace parameters:
        # drain order (and so the recommendation sequence) depends on
        # them, so recover verification must rebuild its reference
        # engine with the same classes.
        "priority_map": _parse_priority_map(args.priority_map),
    }


def _parse_priority_map(raw: Optional[str]) -> Dict[str, str]:
    """Parse ``client-0=interactive,client-1=background`` into a dict."""
    if not raw:
        return {}
    out: Dict[str, str] = {}
    for pair in raw.split(","):
        pair = pair.strip()
        if not pair:
            continue
        client, sep, priority = pair.partition("=")
        if not sep:
            raise ValueError(
                f"--priority-map entry {pair!r} is not CLIENT=PRIORITY"
            )
        out[client.strip()] = normalize_priority(priority.strip())
    return out


def _apply_priority_map(
    engine: TuningEngine, priority_map: Dict[str, str]
) -> None:
    for client, priority in sorted(priority_map.items()):
        engine.session(client, priority=priority)


def _lag_report(metrics: Dict[str, object]) -> Dict[str, object]:
    """The report's lagged-DBA accounting block (from engine metrics)."""
    return {
        "total_work_recommended": metrics["total_work"],
        "total_work_realized": metrics["realized_total_work"],
        "adoption": metrics["adoption"],
    }


def _build_trace(params: Dict[str, object]) -> Tuple[object, MultiClientTrace]:
    """Rebuild ``(stats, trace)`` deterministically from trace parameters."""
    catalog, stats = build_catalog(scale=float(params["scale"]))
    workload = generate_workload(
        catalog,
        stats,
        scaled_phases(int(params["per_phase"])),
        seed=int(params["seed"]),
    )
    statements = list(workload.statements)
    limit = params.get("limit")
    if limit is not None:
        statements = statements[: int(limit)]
    # Clients send SQL text, as they would to the middleware. The WAL logs
    # the rendered SQL of each submission, and rendering a generated AST
    # rounds its literals, so AST submissions would recover as slightly
    # different statements; text renders back to itself.
    statements = [to_sql(statement) for statement in statements]
    clients = [f"client-{i}" for i in range(int(params["clients"]))]
    trace = MultiClientTrace.split(
        statements, clients, mode=str(params["split"])
    )
    return stats, trace


def _emit(report: Dict[str, object], metrics_out: Optional[str]) -> None:
    if metrics_out:
        atomic_write_json(metrics_out, report)
        print(f"metrics written to {metrics_out}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _attach_obs(report: Dict[str, object], trace_out: Optional[str]) -> None:
    """Embed the registry snapshot; optionally write the Chrome trace."""
    report["obs"] = obs.default_registry().snapshot()
    if trace_out:
        document = obs.default_tracer().export_chrome()
        atomic_write_json(trace_out, document, indent=None)
        print(f"trace written to {trace_out}")


def _recommendation_names(engine: TuningEngine) -> Tuple[str, ...]:
    return tuple(ix.name for ix in sorted(engine.tuner.recommend()))


def _drive(
    engine: TuningEngine,
    trace: MultiClientTrace,
    chunk: Optional[int],
    adopt: bool,
    *,
    after_chunk: Optional[Callable[[], object]] = None,
    step_until: Optional[int] = None,
) -> List[Tuple[str, ...]]:
    """Stream ``trace`` through ``engine`` the way ``replay`` runs it.

    Each chunk of ``chunk`` statements (the whole trace when None) is
    submitted in one call and drained before the next; then, when
    ``adopt``, the DBA adopts the recommendation (``chunk`` 1 grants full
    autonomy and casts no lease votes, mirroring run_online), and
    ``after_chunk`` runs. Under mixed priority classes the chunk
    boundaries decide the analysis order, so ``recover --verify`` drives
    its reference through this same loop. With ``step_until`` the drain
    steps one statement at a time — the same order a full drain takes —
    stops once that many statements are analyzed, and returns the
    recommendation after every step.
    """
    size = chunk or max(1, len(trace))
    recs: List[Tuple[str, ...]] = []
    for start in range(0, len(trace), size):
        engine.submit_many(trace[start : start + size])
        if step_until is None:
            engine.pump()
        else:
            while engine.statements_processed < step_until and engine.pump(1):
                recs.append(_recommendation_names(engine))
            if engine.statements_processed >= step_until:
                break
        if adopt:
            engine.adopt("dba", lease=size > 1)
        if after_chunk is not None:
            after_chunk()
    return recs


def _cmd_replay(args: argparse.Namespace) -> int:
    for flag, value in (
        ("--clients", args.clients),
        ("--checkpoint-every", args.checkpoint_every),
        ("--adopt-every", args.adopt_every),
    ):
        if value is not None and value < 1:
            print(f"{flag} must be at least 1, got {value}", file=sys.stderr)
            return 2
    try:
        params = _trace_params(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    stats, trace = _build_trace(params)
    engine_options = {"idx_cnt": args.idx_cnt, "state_cnt": args.state_cnt}
    try:
        engine = TuningEngine.for_stats(
            stats, batch_size=args.batch_size, **engine_options
        )
    except ValueError as exc:
        print(f"invalid engine options: {exc}", file=sys.stderr)
        return 2
    _apply_priority_map(engine, params["priority_map"])

    if args.checkpoint_every is not None and not args.durable_dir:
        print("--checkpoint-every requires --durable-dir DIR", file=sys.stderr)
        return 2
    if args.adopt_every is not None and args.checkpoint_every is not None:
        print(
            "--adopt-every cannot be combined with --checkpoint-every "
            "(each imposes its own chunking)",
            file=sys.stderr,
        )
        return 2

    chunk = args.checkpoint_every or args.adopt_every
    adopt = args.adopt_every is not None
    durability = None
    after_chunk = None
    # The chunking rides along with the trace parameters: recover --verify
    # replays the run through the same loop.
    durable_extra = {
        "trace": params,
        "engine_options": engine_options,
        "chunk": chunk,
        "adopt": adopt,
    }
    if args.durable_dir:
        durability = Durability(
            args.durable_dir, fsync_interval_ms=args.wal_fsync_ms
        )
        durability.attach(engine)
        # An initial snapshot pins the trace parameters in the directory:
        # `recover` can rebuild the workload even if the process dies
        # before the first periodic checkpoint.
        durability.checkpoint(extra=durable_extra)
        if args.checkpoint_every is not None:
            after_chunk = partial(durability.checkpoint, extra=durable_extra)

    # --adopt-every is Figure 11's lagged DBA, live: the report's "lag"
    # block shows the realized-vs-recommended gap the lag cost.
    started = time.perf_counter()
    _drive(engine, trace, chunk, adopt, after_chunk=after_chunk)
    elapsed = time.perf_counter() - started

    metrics = engine.metrics()
    report = {
        "command": "replay",
        "trace": params,
        "statements": len(trace),
        "elapsed_seconds": elapsed,
        "statements_per_sec": len(trace) / elapsed if elapsed else 0.0,
        "adopt_every": args.adopt_every,
        "lag": _lag_report(metrics),
        "metrics": metrics,
    }
    if durability is not None:
        wal = durability.wal
        report["durability"] = {
            "directory": durability.directory,
            "wal_records": wal.records_appended,
            "wal_bytes": wal.bytes_appended,
            "wal_fsync_interval_ms": wal.fsync_interval_ms,
        }
        durability.close()
    _attach_obs(report, args.trace_out)
    _emit(report, args.metrics_out)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    document = latest_snapshot_document(args.dir)
    if document is None:
        print(
            f"no loadable snapshot in {args.dir} (was the directory written "
            "by `repro.service replay --durable-dir`?)",
            file=sys.stderr,
        )
        return 2
    extra = document.get("extra") or {}
    if "trace" not in extra:
        print("durable snapshot lacks trace parameters", file=sys.stderr)
        return 2
    params = dict(extra["trace"])
    engine_options = dict(extra.get("engine_options") or {})
    stats, trace = _build_trace(params)

    started = time.perf_counter()
    try:
        engine, recovery = TuningEngine.recover(
            args.dir,
            WhatIfOptimizer(stats),
            StatsTransitionCosts(stats),
            engine_options=engine_options,
        )
    except (SnapshotError, WalError) as exc:
        print(f"recover failed: {exc}", file=sys.stderr)
        return 2
    start_position = engine.statements_processed
    # Step the recovered backlog (snapshot pending + replayed WAL tail)
    # one statement at a time, recording each recommendation — the same
    # single-step discipline the verify reference uses.
    recovered_recs: List[Tuple[str, ...]] = []
    while engine.queue_depth > 0:
        engine.pump(1)
        recovered_recs.append(_recommendation_names(engine))
    end_position = engine.statements_processed
    elapsed = time.perf_counter() - started

    metrics = engine.metrics()
    report: Dict[str, object] = {
        "command": "recover",
        "directory": str(args.dir),
        "trace": params,
        "recovery": recovery,
        "recovered_at": start_position,
        "statements_replayed": end_position - start_position,
        "elapsed_seconds": elapsed,
        "lag": _lag_report(metrics),
        "metrics": metrics,
    }

    exit_code = 0
    if args.verify:
        if end_position > len(trace):
            print(
                "recovered engine is ahead of the generated trace — "
                "durable directory does not match the trace parameters",
                file=sys.stderr,
            )
            return 2
        reference = TuningEngine.for_stats(
            stats, batch_size=engine.batch_size, **engine_options
        )
        _apply_priority_map(reference, dict(params.get("priority_map") or {}))
        reference_recs = _drive(
            reference,
            trace,
            extra.get("chunk"),
            bool(extra.get("adopt")),
            step_until=end_position,
        )[start_position:]
        mismatches = [
            {"step": start_position + i, "recovered": list(a), "reference": list(b)}
            for i, (a, b) in enumerate(zip(recovered_recs, reference_recs))
            if a != b
        ]
        final_recovered = list(_recommendation_names(engine))
        final_reference = list(_recommendation_names(reference))
        work_delta = abs(engine.total_work - reference.total_work)
        verified = (
            len(recovered_recs) == len(reference_recs)
            and not mismatches
            and final_recovered == final_reference
            and work_delta
            <= _VERIFY_TOL * max(1.0, abs(reference.total_work))
        )
        report["verify"] = {
            "verified": verified,
            "recommendation_mismatches": mismatches,
            "final_recommendation_recovered": final_recovered,
            "final_recommendation_reference": final_reference,
            "total_work_recovered": engine.total_work,
            "total_work_reference": reference.total_work,
            "total_work_delta": work_delta,
        }
        if not verified:
            exit_code = 1
    _attach_obs(report, args.trace_out)
    _emit(report, args.metrics_out)
    if exit_code:
        print("VERIFY FAILED: recovered run diverged", file=sys.stderr)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser(
        "replay", help="generate a multi-client trace and stream it through "
        "a tuning engine",
    )
    replay.add_argument("--scale", type=float, default=0.02,
                        help="catalog scale factor (default 0.02)")
    replay.add_argument("--per-phase", type=int, default=4,
                        help="statements per workload phase (default 4)")
    replay.add_argument("--seed", type=int, default=7, help="workload seed")
    replay.add_argument("--clients", type=int, default=2,
                        help="number of simulated clients (default 2)")
    replay.add_argument("--split", choices=("round_robin", "random"),
                        default="round_robin",
                        help="statement-to-client assignment policy")
    replay.add_argument("--limit", type=int, default=None,
                        help="truncate the trace to this many statements")
    replay.add_argument("--batch-size", type=int, default=8,
                        help="ingest micro-batch size (default 8)")
    replay.add_argument("--idx-cnt", type=int, default=16,
                        help="WFIT monitored-index bound (default 16)")
    replay.add_argument("--state-cnt", type=int, default=128,
                        help="WFIT tracked-state bound (default 128)")
    replay.add_argument("--priority-map", type=str, default=None,
                        help="comma-separated CLIENT=PRIORITY session "
                        "classes (interactive/normal/background), e.g. "
                        "client-0=interactive,client-1=background")
    replay.add_argument("--adopt-every", type=int, default=None,
                        help="simulate a lagged DBA: adopt the current "
                        "recommendation every T statements (1 = full "
                        "autonomy); the report's \"lag\" block prices the "
                        "lag (realized vs recommended totWork)")
    replay.add_argument("--durable-dir", type=str, default=None,
                        help="run durably: write-ahead log every submission "
                        "into DIR and publish crash-atomic snapshots there "
                        "(recover with `recover --dir DIR`)")
    replay.add_argument("--checkpoint-every", type=int, default=None,
                        help="with --durable-dir: publish a snapshot every "
                        "K statements")
    replay.add_argument("--wal-fsync-ms", type=float, default=0.0,
                        help="WAL group-commit interval in ms (default 0 = "
                        "every acknowledged call waits for its record's "
                        "fsync)")
    replay.add_argument("--metrics-out", type=str, default=None,
                        help="write the JSON report here instead of stdout")
    replay.add_argument("--trace-out", type=str, default=None,
                        help="write recent pipeline spans as Chrome "
                        "trace_event JSON (chrome://tracing / Perfetto)")
    replay.set_defaults(func=_cmd_replay)

    recover = sub.add_parser(
        "recover", help="rebuild an engine from a durable directory "
        "(newest usable snapshot + WAL tail) and finish its backlog",
    )
    recover.add_argument("--dir", type=str, required=True,
                         help="durable directory written by "
                         "`replay --durable-dir`")
    recover.add_argument("--verify", action="store_true",
                         help="also run the uninterrupted engine and assert "
                         "step-identical recommendations and totWork")
    recover.add_argument("--metrics-out", type=str, default=None,
                         help="write the JSON report here instead of stdout")
    recover.add_argument("--trace-out", type=str, default=None,
                         help="write recent pipeline spans as Chrome "
                         "trace_event JSON (chrome://tracing / Perfetto)")
    recover.set_defaults(func=_cmd_recover)

    args = parser.parse_args(argv)
    return args.func(args)

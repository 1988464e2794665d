"""The benchmark workloads, their closed-loop drivers and checks.

Every workload runs the public API of ``repro`` in closed loop: a client
submits one statement and waits until the engine has analyzed it before
the next is sent. Workload generation (SQL text, the fixed partition of
``fixed-kernel``) happens before the timer starts.

Statement streams follow the 8-phase ``scaled_phases`` schedule over
``build_catalog(scale=0.05)``. The template schedule of each phase (which
templates exist, and which one each position draws) comes from the fixed
``SHAPE_SEED``; the workload seed draws every literal. Two seeds thus run
the same kind of work on different statements, which keeps a run's
figures comparable across seeds while the statements stay distinct.

A run repeats *rounds* until ``--seconds`` have elapsed (at least one).
Round ``r`` is a fresh engine over a fresh stream drawn from
``(seed, r)``; round 0 is the one whose ``total_work`` is reported and
checked, so that figure repeats exactly for a given seed.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import shutil
import threading
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from repro import (
    WFIT,
    StatsTransitionCosts,
    TuningEngine,
    WhatIfOptimizer,
    build_catalog,
    extract_indices,
    parse_statement,
    run_online,
    scaled_phases,
    to_sql,
)
from repro.service.wal import Durability
from repro.workload.generator import WorkloadGenerator

SCALE = 0.05
#: Seed of the per-phase template schedule, shared by every run.
SHAPE_SEED = 7
#: Client sessions of durable-dba, served round-robin.
SESSIONS = 4
#: Set-ups timed per call of ``time_setup``. A run calls it before its
#: first round and after every round; ``setup_s`` is the median of all.
SETUP_REPEATS = 5


@dataclasses.dataclass(frozen=True)
class Config:
    """Size and cadence of one workload's rounds."""

    phase_len: int          # statements per phase (8 phases per stream)
    fixed_partition: bool = False
    durable: bool = False
    vote_every: int = 0     # durable-dba: a DBA vote after every N statements
    adopt_every: int = 0
    checkpoint_every: int = 0
    fixed_pool: int = 24    # fixed-kernel: candidates in the partition
    fixed_part: int = 12    # fixed-kernel: indices per part


CONFIGS: Dict[str, Config] = {
    # 1600 statements: beyond every statement-keyed cache. Rounds are
    # short (~3 s), so a run spans many of them.
    "fixed-kernel": Config(phase_len=200, fixed_partition=True),
    # 400 statements: the last checkpoint follows statement 384, so
    # recovery replays a 16-statement WAL tail (with its votes and the
    # final adoption).
    "durable-dba": Config(
        phase_len=50, durable=True,
        vote_every=4, adopt_every=40, checkpoint_every=96,
    ),
}


class BenchmarkFailure(Exception):
    """An operation of the workload failed; the run counts it and stops."""


# -- workload generation ------------------------------------------------------


def load_catalog():
    return build_catalog(scale=SCALE)


def generate_sql(catalog, stats, seed: int, round_index: int,
                 phase_len: int) -> List[str]:
    """The SQL text of one stream: fixed template schedule, seeded literals.

    Mirrors ``WorkloadGenerator.generate`` with its single random stream
    split in three: templates and the per-position template choice come
    from ``SHAPE_SEED``, literals from ``(seed, round_index)``.
    """
    generator = WorkloadGenerator(catalog, stats, SHAPE_SEED)
    sql: List[str] = []
    for phase_index, phase in enumerate(scaled_phases(phase_len)):
        shape = random.Random(f"{SHAPE_SEED}:{phase_index}:{phase.name}")
        queries, updates = generator._phase_templates(shape, phase)
        choice = random.Random(f"{SHAPE_SEED}:{phase_index}:choice")
        literals = random.Random(f"{seed}:{round_index}:{phase_index}")
        for _ in range(phase.statement_count):
            if (updates and choice.random() < phase.update_fraction) or not queries:
                statement = generator._instantiate_write(
                    literals, choice.choice(updates)
                )
            else:
                statement = generator._instantiate_query(
                    literals, choice.choice(queries)
                )
            sql.append(to_sql(statement))
    return sql


def fixed_partition(sql: Sequence[str], pool_size: int, part_size: int):
    """Parts of the ``pool_size`` most often extracted candidates.

    The same selection as ``benchmarks/bench_kernel.py``'s
    ``candidate_pool`` + ``chunk_partition``: rank by extraction count
    (ties by index order), then cut the sorted pool into equal parts.
    """
    counts: Dict[object, int] = {}
    for text in sql:
        for index in extract_indices(parse_statement(text)):
            counts[index] = counts.get(index, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    pool = sorted(index for index, _ in ranked[:pool_size])
    usable = (len(pool) // part_size) * part_size
    return [
        frozenset(pool[i:i + part_size]) for i in range(0, usable, part_size)
    ]


def engine_options(config: Config, sql: Sequence[str]) -> Dict[str, object]:
    if config.fixed_partition:
        return {
            "fixed_partition": fixed_partition(
                sql, config.fixed_pool, config.fixed_part
            )
        }
    return {}


# -- results ------------------------------------------------------------------


@dataclasses.dataclass
class RoundResult:
    statements: int = 0
    distinct: int = 0
    elapsed_s: float = 0.0
    latencies_s: List[float] = dataclasses.field(default_factory=list)
    queue_waits_s: List[float] = dataclasses.field(default_factory=list)
    feedback_s: List[float] = dataclasses.field(default_factory=list)
    total_work: float = 0.0
    realized_total_work: float = 0.0
    recommendation: FrozenSet[object] = frozenset()
    recover_s: Optional[float] = None
    wal_bytes: int = 0
    cache: Dict[str, float] = dataclasses.field(default_factory=dict)
    batches: int = 0
    attempted: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)


# -- drivers ------------------------------------------------------------------


class _CompletionHook:
    """Times each analysis of one engine's tuner.

    Installed on the tuner *instance* (the only wrapper in an untraced
    run): records when ``WFIT.analyze_statement`` starts and returns, and
    wakes a client waiting for its statement.
    """

    def __init__(self, tuner) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.done = threading.Condition()
        original = tuner.analyze_statement

        def analyze_statement(statement):
            self.starts.append(time.perf_counter())
            recommendation = original(statement)
            with self.done:
                self.ends.append(time.perf_counter())
                self.done.notify_all()
            return recommendation

        tuner.analyze_statement = analyze_statement
        self._tuner = tuner

    def remove(self) -> None:
        """Drop the hook (it closes a reference cycle through the tuner)."""
        del self._tuner.analyze_statement

    def wait_for(self, count: int, timeout: float) -> bool:
        with self.done:
            return self.done.wait_for(lambda: len(self.ends) >= count, timeout)


def run_stream(stats, config: Config, sql: Sequence[str]) -> RoundResult:
    """fixed-kernel: submit one statement, pump, repeat."""
    result = RoundResult(statements=len(sql), distinct=len(set(sql)))
    engine = TuningEngine.for_stats(stats, **engine_options(config, sql))
    hook = _CompletionHook(engine.tuner)
    submits: List[float] = []
    started = time.perf_counter()
    for text in sql:
        submitted = time.perf_counter()
        result.attempted += 1
        engine.submit("client-0", text)
        if engine.pump() != 1:
            raise BenchmarkFailure("a submitted statement was not analyzed")
        submits.append(submitted)
    result.elapsed_s = time.perf_counter() - started
    _collect(result, engine, hook, submits)
    hook.remove()
    engine.close()
    return result


def _collect(result: RoundResult, engine, hook: _CompletionHook,
             submits: List[float]) -> None:
    result.latencies_s = [end - s for s, end in zip(submits, hook.ends)]
    result.queue_waits_s = [st - s for s, st in zip(submits, hook.starts)]
    result.total_work = engine.total_work
    result.realized_total_work = engine.realized_total_work
    result.recommendation = engine.recommendation("bench").recommended
    result.cache = engine.optimizer.cache_stats()
    result.batches = engine.batches_processed


def _ranked(indices, tuner) -> List[object]:
    """``indices`` by the tuner's current benefit, highest first."""
    now = tuner.statements_analyzed
    return sorted(
        sorted(indices),
        key=lambda ix: -tuner.statistics.current_benefit(ix, now),
    )


def choose_vote(engine, turn: int):
    """The DBA's vote on ``turn``: even turns veto the top recommended
    index, odd turns endorse the top monitored candidate that is not
    recommended; an empty side falls back to the other. None: no vote."""
    tuner = engine.tuner
    recommended = engine.recommendation("dba").recommended
    vetoes = _ranked(recommended, tuner)
    endorsements = _ranked(tuner.candidates - recommended, tuner)
    if vetoes and (turn % 2 == 0 or not endorsements):
        return frozenset(), frozenset(vetoes[:1])
    if endorsements:
        return frozenset(endorsements[:1]), frozenset()
    return None


def run_durable(stats, config: Config, sql: Sequence[str],
                directory: str) -> RoundResult:
    """durable-dba: WAL + checkpoints, drain thread, four sessions, a DBA.

    The client loop runs on the calling thread and keeps one statement
    outstanding: session ``i mod SESSIONS`` submits statement ``i`` and waits
    for its analysis. Every ``vote_every`` statements the DBA reads the
    recommendation and votes; it adopts every ``adopt_every`` and
    checkpoints every ``checkpoint_every``. Afterwards the engine is shut
    down and recovered from the directory, and ``recover_s`` times
    ``TuningEngine.recover`` + ``pump`` to the live statement count.
    """
    result = RoundResult(statements=len(sql), distinct=len(set(sql)))
    engine = TuningEngine.for_stats(stats)
    durability = Durability(directory)
    durability.attach(engine)
    hook = _CompletionHook(engine.tuner)
    sessions = [
        engine.session(f"client-{k}", priority="normal")
        for k in range(SESSIONS)
    ]
    submits: List[float] = []
    engine.start()
    try:
        started = time.perf_counter()
        for position, text in enumerate(sql, 1):
            submitted = time.perf_counter()
            result.attempted += 1
            sessions[(position - 1) % len(sessions)].submit(text)
            submits.append(submitted)
            if not hook.wait_for(position, timeout=30.0):
                raise BenchmarkFailure(
                    f"statement {position} was acknowledged but not analyzed"
                )
            # The analysis returned; wait for the writer to finish the
            # statement's accounting so the engine is idle before the DBA acts.
            while engine.statements_processed < position:
                time.sleep(0)
            if config.vote_every and position % config.vote_every == 0:
                vote = choose_vote(engine, position // config.vote_every)
                if vote is not None:
                    result.attempted += 1
                    cast = time.perf_counter()
                    engine.vote("dba", *vote)
                    result.feedback_s.append(time.perf_counter() - cast)
            if config.adopt_every and position % config.adopt_every == 0:
                result.attempted += 1
                engine.adopt("dba")
            if config.checkpoint_every and position % config.checkpoint_every == 0:
                result.attempted += 1
                durability.checkpoint()
        result.elapsed_s = time.perf_counter() - started
    finally:
        engine.stop()
    result.wal_bytes = durability.wal.bytes_appended
    durability.close()
    _collect(result, engine, hook, submits)
    hook.remove()
    live_count = engine.statements_processed
    engine.close()

    result.attempted += 1
    began = time.perf_counter()
    recovered, _ = TuningEngine.recover(
        directory, WhatIfOptimizer(stats), StatsTransitionCosts(stats)
    )
    recovered.pump()
    result.recover_s = time.perf_counter() - began
    result.failures.extend(durable_mismatches(engine, recovered, live_count))
    recovered.close()
    return result


# -- correctness checks --------------------------------------------------------


def durable_mismatches(live, recovered, live_count: int) -> List[str]:
    """Differences between a live engine and its recovered copy (exact)."""
    problems = []
    if recovered.statements_processed != live_count:
        problems.append(
            f"recovered engine analyzed {recovered.statements_processed} "
            f"statements, the live one {live_count}"
        )
    live_rec = live.recommendation("bench").recommended
    if recovered.recommendation("bench").recommended != live_rec:
        problems.append("recovered recommendation differs from the live one")
    for name in ("total_work", "realized_total_work"):
        ours, theirs = getattr(recovered, name), getattr(live, name)
        if ours != theirs:
            problems.append(f"recovered {name} {ours!r} != live {theirs!r}")
    return problems


def reference_replay(stats, config: Config, sql: Sequence[str]):
    """An untimed ``run_online`` replay of a stream round's SQL."""
    optimizer = WhatIfOptimizer(stats)
    transitions = StatsTransitionCosts(stats)
    tuner = WFIT(optimizer, transitions, **engine_options(config, sql))
    return run_online(
        tuner, [parse_statement(text) for text in sql],
        optimizer.cost, transitions, optimizer=optimizer,
    )


def reference_mismatches(reference, result: RoundResult) -> List[str]:
    """Compare a stream round against its ``reference_replay``."""
    problems = []
    if reference.total_work != result.total_work:
        problems.append(
            f"total_work {result.total_work!r} != run_online "
            f"{reference.total_work!r}"
        )
    if reference.final_configuration != result.recommendation:
        problems.append("final recommendation differs from run_online")
    return problems


# -- a measured run --------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    rounds: List[RoundResult]

    @property
    def statements(self) -> int:
        return sum(r.statements for r in self.rounds)

    @property
    def elapsed_s(self) -> float:
        return sum(r.elapsed_s for r in self.rounds)

    def samples(self, field: str) -> List[float]:
        out: List[float] = []
        for r in self.rounds:
            out.extend(getattr(r, field))
        return out


def run_rounds(config: Config, seed: int, seconds: float, stats, catalog,
               workdir: str, rounds: Optional[int] = None,
               after_round: Optional[Callable[[], None]] = None) -> Pass:
    """Repeat rounds until ``seconds`` of timed loop have passed (at least
    one), or exactly ``rounds`` of them when given. ``after_round`` runs,
    untimed, after each round."""
    done = Pass(rounds=[])
    while True:
        index = len(done.rounds)
        if rounds is not None and index >= rounds:
            break
        if rounds is None and index > 0 and done.elapsed_s >= seconds:
            break
        sql = generate_sql(catalog, stats, seed, index, config.phase_len)
        # The previous round's garbage is collected here, untimed, rather
        # than inside the next round's loop.
        gc.collect()
        if config.durable:
            directory = os.path.join(workdir, f"round-{index}")
            try:
                result = run_durable(stats, config, sql, directory)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
        else:
            result = run_stream(stats, config, sql)
        done.rounds.append(result)
        if after_round is not None:
            after_round()
    return done


def time_setup(config: Config, options: Dict[str, object],
               workdir: str) -> List[float]:
    """Wall time of catalog build + engine construction with ``options``
    (+ WAL attach and drain-thread start on durable-dba),
    ``SETUP_REPEATS`` times."""
    times = []
    for attempt in range(SETUP_REPEATS):
        directory = os.path.join(workdir, f"setup-{attempt}")
        started = time.perf_counter()
        catalog, stats = load_catalog()
        engine = TuningEngine.for_stats(stats, **options)
        durability = None
        if config.durable:
            durability = Durability(directory)
            durability.attach(engine)
            engine.start()
        times.append(time.perf_counter() - started)
        engine.close()
        if durability is not None:
            durability.close()
        shutil.rmtree(directory, ignore_errors=True)
    return times

"""Shared experiment context: the expensive setup every figure reuses.

Building a figure needs the catalog, a shared what-if optimizer (its cache
is the analogue of configuration-parametric optimization [8] and is what
keeps the experiments fast), the benchmark workload, the fixed candidate
set/partitions of §6.1, and the OPT reference schedule. All of that is
assembled once per parameter set and cached.

Scale knobs (environment variables, used by the ``benchmarks/`` tree):

* ``REPRO_BENCH_STATEMENTS`` — statements per phase (default 50; the paper
  runs 200).
* ``REPRO_BENCH_SCALE`` — dataset scale factor (default 0.05).
* ``REPRO_BENCH_SEED`` — workload seed (default 7).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..core.offline import FixedPartitionResult, compute_fixed_partition
from ..core.opt import OfflineOptimizer, OptimalSchedule
from ..core.partitioning import choose_partition
from ..db import Catalog, Index, StatsRepository, StatsTransitionCosts
from ..db.datagen import build_catalog
from ..optimizer import WhatIfOptimizer
from ..workload import Workload, generate_workload, scaled_phases

__all__ = ["ExperimentContext", "get_context", "bench_parameters"]


def bench_parameters() -> Tuple[int, float, int]:
    """(statements per phase, scale, seed) from the environment."""
    per_phase = int(os.environ.get("REPRO_BENCH_STATEMENTS", "50"))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "7"))
    return per_phase, scale, seed


@dataclass
class ExperimentContext:
    """Everything a figure experiment needs, built once."""

    per_phase: int
    scale: float
    seed: int
    idx_cnt: int                                     # monitored-index budget
    catalog: Catalog
    stats: StatsRepository
    optimizer: WhatIfOptimizer
    transitions: StatsTransitionCosts
    workload: Workload
    fixed: FixedPartitionResult                      # stateCnt=2000 reference
    partitions: Dict[int, Tuple[FrozenSet[Index], ...]]  # per stateCnt
    opt_schedule: OptimalSchedule
    checkpoints: Tuple[int, ...]

    @property
    def statements(self):
        return self.workload.statements

    def partition_for(self, state_cnt: int) -> Tuple[FrozenSet[Index], ...]:
        """The §6.1 fixed partition of C under a given stateCnt budget."""
        return self.partitions[state_cnt]

    def ratio_series(self, total_work_series: Sequence[float]) -> Dict[int, float]:
        """totWork(OPT, Q_n) / totWork(A, Q_n) at every checkpoint."""
        out: Dict[int, float] = {}
        for n in self.checkpoints:
            algorithm_work = total_work_series[n - 1]
            out[n] = (
                self.opt_schedule.optimum_at(n) / algorithm_work
                if algorithm_work > 0
                else float("nan")
            )
        return out


_CACHE: Dict[Tuple[int, float, int, int, Tuple[int, ...]], ExperimentContext] = {}

#: The paper's stateCnt settings for Figure 8, largest first (the reference
#: partition for OPT is the most detailed one).
STATE_COUNTS = (2000, 500, 100)


def get_context(
    per_phase: Optional[int] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    idx_cnt: int = 40,
    state_counts: Tuple[int, ...] = STATE_COUNTS,
) -> ExperimentContext:
    """Build (or fetch the cached) experiment context."""
    env_per_phase, env_scale, env_seed = bench_parameters()
    per_phase = env_per_phase if per_phase is None else per_phase
    scale = env_scale if scale is None else scale
    seed = env_seed if seed is None else seed
    key = (per_phase, scale, seed, idx_cnt, tuple(sorted(state_counts)))
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    catalog, stats = build_catalog(scale=scale)
    optimizer = WhatIfOptimizer(stats)
    transitions = StatsTransitionCosts(stats)
    workload = generate_workload(
        catalog, stats, scaled_phases(per_phase), seed=seed
    )
    reference_state_cnt = max(state_counts)
    fixed = compute_fixed_partition(
        workload.statements,
        optimizer,
        transitions,
        idx_cnt=idx_cnt,
        state_cnt=reference_state_cnt,
        seed=0,
    )
    partitions: Dict[int, Tuple[FrozenSet[Index], ...]] = {
        reference_state_cnt: fixed.partition
    }
    import random as _random
    for state_cnt in state_counts:
        if state_cnt in partitions:
            continue
        def doi_lookup(a, b, _avg=fixed.average_doi):
            pair = (a, b) if a <= b else (b, a)
            return _avg.get(pair, 0.0)
        partitions[state_cnt] = tuple(choose_partition(
            fixed.candidates,
            state_cnt,
            current_partition=[],
            doi=doi_lookup,
            rng=_random.Random(0),
        ))

    checkpoints = tuple(
        per_phase * k for k in range(1, len(workload.phase_boundaries) + 1)
    )
    opt_schedule = OfflineOptimizer(
        fixed.partition, frozenset(), optimizer.cost, transitions
    ).run(workload.statements, checkpoints=checkpoints)

    context = ExperimentContext(
        per_phase=per_phase,
        scale=scale,
        seed=seed,
        idx_cnt=idx_cnt,
        catalog=catalog,
        stats=stats,
        optimizer=optimizer,
        transitions=transitions,
        workload=workload,
        fixed=fixed,
        partitions=partitions,
        opt_schedule=opt_schedule,
        checkpoints=checkpoints,
    )
    _CACHE[key] = context
    return context

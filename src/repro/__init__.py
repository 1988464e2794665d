"""repro: reproduction of *Semi-Automatic Index Tuning: Keeping DBAs in the
Loop* (Schnaitter & Polyzotis, VLDB 2012).

The package provides the paper's WFIT online index advisor together with
every substrate it needs to run without a commercial DBMS: a statistics-only
catalog of the benchmark datasets, an analytical what-if optimizer, the
Index Benefit Graph machinery, the shifting benchmark workload, and the OPT
and BC baselines of the evaluation.

Quickstart
----------
>>> from repro import build_catalog, WhatIfOptimizer, StatsTransitionCosts, WFIT
>>> catalog, stats = build_catalog(scale=0.05)
>>> optimizer = WhatIfOptimizer(stats)
>>> tuner = WFIT(optimizer, StatsTransitionCosts(stats))
>>> # feed statements with tuner.analyze_statement(...), read
>>> # tuner.recommend(), and cast votes with tuner.feedback(...)
"""

from .core import (
    BC,
    FeedbackEvent,
    FixedPartitionResult,
    OfflineOptimizer,
    OptimalSchedule,
    TransitionCosts,
    TuningResult,
    WFA,
    WFAPlus,
    WFIT,
    compute_fixed_partition,
    run_online,
)
from .db import (
    Catalog,
    Index,
    StatsRepository,
    StatsTransitionCosts,
    build_catalog,
    build_toy_catalog,
)
from .ibg import IndexBenefitGraph, build_ibg, degree_of_interaction, max_benefit
from .optimizer import CostModelConfig, WhatIfOptimizer, extract_indices
from .query import parse_statement, select, to_sql, update
from .service import ClientSession, Recommendation, TuningEngine
from .workload import (
    DEFAULT_PHASES,
    MultiClientTrace,
    Workload,
    generate_workload,
    scaled_phases,
)

__version__ = "1.0.0"

__all__ = [
    "BC",
    "Catalog",
    "ClientSession",
    "CostModelConfig",
    "DEFAULT_PHASES",
    "FeedbackEvent",
    "FixedPartitionResult",
    "Index",
    "IndexBenefitGraph",
    "MultiClientTrace",
    "OfflineOptimizer",
    "OptimalSchedule",
    "StatsRepository",
    "StatsTransitionCosts",
    "TransitionCosts",
    "TuningEngine",
    "TuningResult",
    "WFA",
    "WFAPlus",
    "WFIT",
    "WhatIfOptimizer",
    "Recommendation",
    "Workload",
    "build_catalog",
    "build_ibg",
    "build_toy_catalog",
    "compute_fixed_partition",
    "degree_of_interaction",
    "extract_indices",
    "generate_workload",
    "max_benefit",
    "parse_statement",
    "run_online",
    "scaled_phases",
    "select",
    "to_sql",
    "update",
    "__version__",
]

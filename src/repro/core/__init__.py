# reprolint: zone=deterministic
"""The paper's algorithms: WFA, WFA⁺, WFIT, OPT, BC, and the tuning driver."""

from .bc import BC
from .candidates import IndexStatistics, RecencyStatistic, top_indices
from .driver import TuningPoint, TuningResult, run_online
from .offline import FixedPartitionResult, compute_fixed_partition
from .opt import FeedbackEvent, OfflineOptimizer, OptimalSchedule
from .partitioning import choose_partition, partition_loss, pairwise_loss, state_count
from .wfa import WFA, TransitionCosts
from .wfa_kernel import available_backends, default_backend, force_backend, make_kernel
from .wfa_plus import WFAPlus, validate_partition
from .wfit import WFIT

__all__ = [
    "BC",
    "FeedbackEvent",
    "FixedPartitionResult",
    "IndexStatistics",
    "OfflineOptimizer",
    "OptimalSchedule",
    "RecencyStatistic",
    "TransitionCosts",
    "TuningPoint",
    "TuningResult",
    "WFA",
    "WFAPlus",
    "WFIT",
    "available_backends",
    "choose_partition",
    "compute_fixed_partition",
    "default_backend",
    "force_backend",
    "make_kernel",
    "partition_loss",
    "pairwise_loss",
    "run_online",
    "state_count",
    "top_indices",
    "validate_partition",
]

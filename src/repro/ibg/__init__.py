# reprolint: zone=deterministic
"""Index Benefit Graph construction and interaction analysis (after [16])."""

from .analysis import (
    degree_of_interaction,
    interaction_pairs,
    max_benefit,
)
from .graph import IBGNode, IndexBenefitGraph, build_ibg

__all__ = [
    "IBGNode",
    "IndexBenefitGraph",
    "build_ibg",
    "degree_of_interaction",
    "interaction_pairs",
    "max_benefit",
]

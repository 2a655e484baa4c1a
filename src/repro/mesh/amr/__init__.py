"""Block-structured (2^d-tree) adaptive mesh refinement."""

from .blocks import BlockKey, BlockLayout, LeafBlock
from .criteria import GradientCriterion, scaled_gradient
from .forest import AMRForest
from .partition import (
    PARTITIONERS,
    Partition,
    morton_key,
    partition_random,
    partition_round_robin,
    partition_sfc,
    sfc_order,
)
from .reflux import apply_reflux, compile_reflux
from .transfer import (
    conservation_check,
    prolong_array,
    restrict_array,
)

__all__ = [
    "BlockKey",
    "BlockLayout",
    "LeafBlock",
    "AMRForest",
    "GradientCriterion",
    "scaled_gradient",
    "prolong_array",
    "restrict_array",
    "conservation_check",
    "apply_reflux",
    "compile_reflux",
    "morton_key",
    "sfc_order",
    "Partition",
    "partition_sfc",
    "partition_round_robin",
    "partition_random",
    "PARTITIONERS",
]

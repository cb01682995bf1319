"""Generation machinery: samplers, D&C-GEN, ordered search, the campaign
runner and its parallel backend."""

from .campaign import UnsupportedStrategy, run_strategy
from .dcgen import (
    DCGenConfig,
    DCGenStats,
    DCGenerator,
    LeafBatch,
    LeafTask,
    build_batches,
    execute_batch,
    leaf_rng,
    plan_digest,
    planned_execute_costs,
    remaining_search_space,
)
from .ordered import (
    OrderedConfig,
    OrderedGenerator,
    OrderedPrompt,
    OrderedStats,
    prompts_digest,
)
from .parallel import run_pool
from .sampler import (
    SamplerConfig,
    choose_constrained,
    constrained_distribution,
    free_chunks,
    logits_to_probs,
    sample,
    sample_constrained,
)

__all__ = [
    "UnsupportedStrategy",
    "run_strategy",
    "DCGenConfig",
    "DCGenStats",
    "DCGenerator",
    "LeafBatch",
    "LeafTask",
    "build_batches",
    "execute_batch",
    "leaf_rng",
    "plan_digest",
    "planned_execute_costs",
    "remaining_search_space",
    "OrderedConfig",
    "OrderedGenerator",
    "OrderedPrompt",
    "OrderedStats",
    "prompts_digest",
    "run_pool",
    "free_chunks",
    "SamplerConfig",
    "choose_constrained",
    "constrained_distribution",
    "logits_to_probs",
    "sample",
    "sample_constrained",
]

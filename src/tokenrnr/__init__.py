"""Token reduction and restoration for self-attention.

Library layout:

- core: matrices, softmax, 3D rotary embedding, seeded RNG
- matching: strided 3D partitioning, similarity metrics, bipartite matching
- rnr: reduction plans, reduce/restore, multi-head plain attention
- klnn: nearest-neighbor (k = 1) Kullback-Leibler divergence estimation
- schedule: similarity profiles, threshold schedules, matching cache, tuning
- pipeline: the symmetric and asymmetric RnR operators and the synthetic
  multi-block denoising pipeline over 3D token grids that runs them
- flops: analytical multiply-add cost model
- cli: profiling / benchmarking / ablation command line
"""
from .core import (Matrix, checksum_matrix, make_rng, pairwise_sq_dists,
                   spawn_rngs)
from .errors import ConfigError, InvariantError
from .flops import CostBreakdown, cost_asym, cost_plain, cost_sym, macs_to_flops
from .klnn import KlEstimate, kl_estimate, knn_distances, score_reduction
from .matching import MatchResult, Partition, partition_3d, pairwise_best_match
from .pipeline import (PipelineConfig, RunReport, attn_asym_rnr, attn_sym_rnr,
                       inject_duplicates, run_pipeline)
from .rnr import (ReductionPlan, attn_plain, build_plan, reduce_tokens,
                  restore_tokens)
from .schedule import (ScheduleConfig, SimilarityProfile, TuneResult, TuneStep,
                       cached_match, lookup_rate, record_profile,
                       standardize_profile, tune_schedule)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CostBreakdown", "InvariantError",
    "KlEstimate", "MatchResult", "Matrix", "Partition",
    "PipelineConfig", "ReductionPlan", "RunReport", "ScheduleConfig",
    "SimilarityProfile", "TuneResult", "TuneStep",
    "attn_asym_rnr", "attn_plain", "attn_sym_rnr", "build_plan",
    "cached_match", "checksum_matrix", "cost_asym", "cost_plain", "cost_sym",
    "inject_duplicates", "kl_estimate", "knn_distances", "lookup_rate",
    "macs_to_flops", "make_rng", "pairwise_best_match", "pairwise_sq_dists",
    "partition_3d", "record_profile", "reduce_tokens", "restore_tokens",
    "run_pipeline", "score_reduction", "spawn_rngs", "standardize_profile",
    "tune_schedule",
]

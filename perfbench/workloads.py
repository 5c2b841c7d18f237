"""The benchmark's workloads: seeded inputs, one timed pass, and the checks
every pass must satisfy.

Every input comes from the benchmark seed alone: the pipeline seed (grid and
weights), the profile seed, the k-NN token set, its partition and plans, and
the Gaussian samples are all children of one `numpy.random.SeedSequence`.
All pipeline workloads share grid (8, 32, 32) = 8192 tokens, feature_dim 64,
one head and four blocks: acceptance criterion 2 scaled down so one pass
takes seconds, while the dense score chunk (2^25 entries, 256 MiB) still
exceeds the last-level cache.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tokenrnr import (CostBreakdown, PipelineConfig, RunReport, ScheduleConfig,
                      build_plan, cost_asym, cost_plain, cost_sym, kl_estimate,
                      pairwise_best_match, partition_3d, run_pipeline,
                      score_reduction)
from tokenrnr.flops import matching_macs

GRID = (8, 32, 32)
FEATURE_DIM = 64
NUM_BLOCKS = 4
#: profiles come from a small grid with the same (timestep, block) lattice,
#: as in criterion 2; the 0.0 thresholds fire whatever the profiled values
PROFILE_GRID = (4, 8, 8)

KL_RATES = (0.3, 0.6)
#: criterion 5: mean-shift by e_1 in 4 dimensions, closed form 0.5 nats
KL_SEEDS = 10
KL_SAMPLES = 5000
KL_DIM = 4
KL_CLOSED_FORM = 0.5
KL_MAX_ABS_ERR = 0.1

REFERENCES = Path(__file__).with_name("references.json")
#: relative tolerance of the stored-reference comparison. Not bitwise:
#: reordered kernels (deferred softmax normalisation, fused projections)
#: legitimately move last-place bits.
REFERENCE_TOL = 1e-11
_FINGERPRINT_SEED = 20241217
_FINGERPRINT_PROJECTIONS = 8


def child_seeds(seed: int, count: int) -> list[int]:
    """Independent 32-bit seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _state_fingerprint(x: np.ndarray) -> list[float]:
    """Seeded random projections of the whole state, then its Frobenius norm.

    Every entry contributes to every projection, so a change of relative size
    above REFERENCE_TOL shows without storing the 4 MiB state itself.
    """
    flat = x.ravel()
    rng = np.random.default_rng(_FINGERPRINT_SEED)
    projections = [float(rng.standard_normal(flat.size) @ flat)
                   for _ in range(_FINGERPRINT_PROJECTIONS)]
    return projections + [float(np.linalg.norm(flat))]


def config_id(cfg: PipelineConfig) -> str:
    """Same id as the `config_id` column `tokenrnr bench` writes."""
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()[:12]


@dataclass
class PipelineState:
    cfg: PipelineConfig
    profile: object
    n_src: int
    n_dst: int


@dataclass(frozen=True)
class PipelineWorkload:
    name: str
    rnr_mode: str
    num_timesteps: int
    schedule: ScheduleConfig | None = None
    #: exact share of cached_match calls the cache serves; None: never called
    hit_ratio: float | None = None
    kind = "pipeline"

    def setup(self, seed: int) -> PipelineState:
        pipeline_seed, profile_seed = child_seeds(seed, 2)
        cfg = PipelineConfig(grid_shape=GRID, feature_dim=FEATURE_DIM,
                             num_blocks=NUM_BLOCKS, num_heads=1,
                             num_timesteps=self.num_timesteps, seed=pipeline_seed,
                             rnr_mode=self.rnr_mode, schedule=self.schedule)
        profile = None
        if self.schedule is not None:
            profile = run_pipeline(replace(
                cfg, grid_shape=PROFILE_GRID, seed=profile_seed, rnr_mode="none",
                profiling=True)).profile
        # n_src and n_dst depend on the grid and stride alone, not on the draw
        stride = self.schedule.stride if self.schedule else (2, 2, 2)
        part = partition_3d(GRID, stride, np.random.default_rng(0))
        return PipelineState(cfg=cfg, profile=profile, n_src=part.n_src, n_dst=part.n_dst)

    def run(self, state: PipelineState) -> RunReport:
        return run_pipeline(state.cfg, profile=state.profile)

    def digest(self, report: RunReport) -> str:
        return report.checksum

    def fingerprint(self, report: RunReport) -> list[float]:
        return _state_fingerprint(report.final_tokens)

    def predicted_macs(self, state: PipelineState, report: RunReport) -> CostBreakdown:
        """The cost model applied from outside to what each block recorded."""
        cfg = state.cfg
        n, d, heads = cfg.n_tokens, cfg.feature_dim, cfg.num_heads
        per_match = matching_macs(state.n_src, state.n_dst, d)
        total = CostBreakdown()
        for rec in report.records:
            if cfg.rnr_mode == "sym":
                total.add(cost_sym(n, d, rec.m_q, heads))
            elif cfg.rnr_mode == "asym":
                total.add(cost_asym(n, d, rec.m_q, rec.m_kv, False, 0.0, heads))
            else:
                total.add(cost_plain(n, d, heads))
            total.add(CostBreakdown(matching=per_match * len(rec.recomputed)))
        return total

    def check(self, state: PipelineState, report: RunReport) -> list[str]:
        errors = []
        predicted = self.predicted_macs(state, report).as_dict()
        if predicted != report.measured.as_dict():
            errors.append(f"MACs {report.measured.as_dict()} differ from the cost "
                          f"model applied to the block records {predicted}")
        if not np.isfinite(report.final_tokens).all():
            errors.append("final state is not finite")
        return errors

    def reference(self, state: PipelineState, report: RunReport) -> dict:
        """Deviation from the same config without reduction (as `tokenrnr bench`)."""
        if self.rnr_mode == "none":
            return {"rnr.max_row_dev": 0.0}
        base_cfg = replace(state.cfg, rnr_mode="none", schedule=None)
        t0 = time.perf_counter()
        base = run_pipeline(base_cfg)
        wall = time.perf_counter() - t0
        return {"rnr.max_row_dev": float(np.abs(report.final_tokens - base.final_tokens).max()),
                "reference_wall_s": wall,
                "mac_ratio": report.total_macs / base.total_macs}

    def describe(self, state: PipelineState) -> dict:
        return {"config_id": config_id(state.cfg),
                "schedule_digest": self.schedule.digest() if self.schedule else None,
                "config": json.loads(state.cfg.to_json())}


@dataclass
class KlState:
    tokens: np.ndarray
    plans: tuple
    samples: list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class KlOutput:
    scores: tuple[float, ...]
    estimates: tuple[float, ...]

    @property
    def abs_err(self) -> float:
        return abs(statistics.fmean(self.estimates) - KL_CLOSED_FORM)


@dataclass(frozen=True)
class KlWorkload:
    name: str
    hit_ratio = None
    kind = "kl"

    def setup(self, seed: int) -> KlState:
        token_seed, part_seed, *gauss_seeds = child_seeds(seed, 2 + KL_SEEDS)
        n = GRID[0] * GRID[1] * GRID[2]
        tokens = np.random.default_rng(token_seed).standard_normal((n, FEATURE_DIM))
        part = partition_3d(GRID, (2, 2, 2), np.random.default_rng(part_seed))
        match = pairwise_best_match(tokens, part, "neg_euclidean")
        plans = tuple(build_plan(match, part, rate) for rate in KL_RATES)
        mu = np.zeros(KL_DIM)
        mu[0] = 1.0
        samples = []
        for s in gauss_seeds:
            rng = np.random.default_rng(s)
            original = rng.standard_normal((KL_SAMPLES, KL_DIM))
            reduced = rng.standard_normal((KL_SAMPLES, KL_DIM)) + mu
            samples.append((reduced, original))
        return KlState(tokens=tokens, plans=plans, samples=samples)

    def run(self, state: KlState) -> KlOutput:
        scores = tuple(score_reduction(state.tokens, plan, k=1) for plan in state.plans)
        estimates = tuple(kl_estimate(reduced, original, k=1).value
                          for reduced, original in state.samples)
        return KlOutput(scores=scores, estimates=estimates)

    def digest(self, out: KlOutput) -> str:
        return hashlib.sha256(np.array(out.scores + out.estimates).tobytes()).hexdigest()

    def fingerprint(self, out: KlOutput) -> list[float]:
        return list(out.scores + out.estimates)

    def check(self, state: KlState, out: KlOutput) -> list[str]:
        errors = []
        if not all(math.isfinite(v) for v in out.scores + out.estimates):
            errors.append("a divergence estimate is not finite")
        if not out.abs_err <= KL_MAX_ABS_ERR:
            errors.append(f"kl_abs_err {out.abs_err:.4f} exceeds {KL_MAX_ABS_ERR}")
        return errors

    def reference(self, state: KlState, out: KlOutput) -> dict:
        return {"klnn.kl_abs_err": out.abs_err}

    def describe(self, state: KlState) -> dict:
        return {"rates": list(KL_RATES), "plan_m": [p.m for p in state.plans],
                "gaussian": {"seeds": KL_SEEDS, "samples": KL_SAMPLES, "dim": KL_DIM}}


WORKLOADS = {w.name: w for w in (
    PipelineWorkload("dense", rnr_mode="none", num_timesteps=1),
    # num_timesteps must stay a multiple of cache_step for the 0.8 hit ratio
    PipelineWorkload("asym-cached", rnr_mode="asym", num_timesteps=5,
                     schedule=ScheduleConfig(rules={"Q": [(0.0, 0.8)], "V": [(0.0, 0.5)]},
                                             cache_step=5, stride=(2, 2, 2)),
                     hit_ratio=0.8),
    PipelineWorkload("sym-fresh", rnr_mode="sym", num_timesteps=2,
                     schedule=ScheduleConfig(rules={"Q": [(0.0, 0.8)]},
                                             cache_step=1, stride=(2, 2, 2)),
                     hit_ratio=0.0),
    KlWorkload("kl"),
)}


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def compare_reference(fingerprint: list[float], stored: list[float]) -> str | None:
    """None when within REFERENCE_TOL of the stored values' scale, else why not."""
    got = np.asarray(fingerprint)
    want = np.asarray(stored)
    if got.shape != want.shape:
        return f"fingerprint has {got.size} values, the stored reference {want.size}"
    worst = float(np.abs(got - want).max())
    limit = REFERENCE_TOL * float(np.abs(want).max())
    if not worst <= limit:
        return f"output deviates from the stored reference by {worst:.3e} (limit {limit:.3e})"
    return None

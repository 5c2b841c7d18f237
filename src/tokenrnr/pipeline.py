"""The two RnR attention operators and the synthetic multi-block denoising
pipeline over 3D token grids that runs them.

`attn_sym_rnr` reduces the shared input before projection, so one plan
governs Q, K and V, and restores after attention. `attn_asym_rnr` reduces Q
and K/V by separate plans after projection and rotary, and restores Q only.
With no plan either one is plain attention. Every pipeline block runs one of
them.

The model is deliberately untrained: projection weights are drawn once from
the seed, each block adds its attention output to a residual stream, and each
denoising step applies the contraction x <- x - 0.1 * block_stack(x). That is
enough structure to exercise scheduling, caching, and reduction across blocks
and timesteps with fully deterministic, checksummable outputs.

Multiply-adds are instrumented where the work happens (projection, attention,
matching call sites). After the loop the cost model, applied to each block's
record (m_q, m_kv and the recomputed matchings), predicts them independently;
the two breakdowns must agree exactly and a run fails its report invariant
otherwise.
"""
from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import flops
from .core import (Matrix, apply_rope_tables, checksum_matrix, rope3d_tables,
                   spawn_rngs)
from .errors import (SCHEMA_VERSION, ConfigError, InvariantError, config_bool,
                     config_int, config_int_triple, config_real, json_object)
from .matching import partition_3d, pairwise_best_match
from .rnr import (REDUCE_OPS, ReductionPlan, attn_plain, build_plan,
                  reduce_tokens, restore_tokens)
from .schedule import (PROFILE_FEATURES, ScheduleConfig, SimilarityProfile,
                       cached_match, lookup_rate, record_profile)

#: per mode, the (matched feature, schedule rule) pairs a block reduces by;
#: a symmetric run matches the shared input H and thresholds it by the Q rule
REDUCTION_PAIRS = {"none": (), "sym": (("H", "Q"),), "asym": (("Q", "Q"), ("V", "V"))}
RNR_MODES = tuple(REDUCTION_PAIRS)

#: residual blend factor of the denoising recurrence; any contraction works,
#: 0.1 keeps the state bounded so similarity statistics settle
BLEND = 0.1

#: most entries a config may ask for in its token matrix (n_tokens x feature_dim)
#: or its weights (3 x num_blocks x feature_dim^2): 2^28 float64 are 2 GiB
MAX_TOKEN_ENTRIES = 1 << 28

#: most (timestep, block) points a config may ask for; a run keeps up to
#: about 3.6 KB of records per point, and three weight objects per block
MAX_LATTICE_POINTS = 1 << 16


@dataclass
class PipelineConfig:
    grid_shape: tuple[int, int, int] = (8, 16, 16)
    feature_dim: int = 64
    num_blocks: int = 8
    num_heads: int = 4
    num_timesteps: int = 30
    seed: int = 0
    rnr_mode: str = "none"
    schedule: ScheduleConfig | None = None
    profiling: bool = False
    rope: bool = True
    reduce_op: str = "discard"
    duplicate_fraction: float = 0.0
    collect_norms: bool = False

    # every check that needs the config alone; a run checks only the profile
    def __post_init__(self):
        self.grid_shape = config_int_triple("grid_shape", self.grid_shape)
        for name in ("feature_dim", "num_blocks", "num_heads", "num_timesteps", "seed"):
            setattr(self, name, config_int(name, getattr(self, name)))
        if min(self.feature_dim, self.num_blocks, self.num_heads, self.num_timesteps) < 1:
            raise ConfigError("all size fields must be >= 1")
        if self.num_timesteps * self.num_blocks > MAX_LATTICE_POINTS:
            raise ConfigError(f"num_timesteps {self.num_timesteps} x num_blocks "
                              f"{self.num_blocks} exceeds {MAX_LATTICE_POINTS} (2^16) "
                              "(timestep, block) points")
        for what, entries in (("token", self.n_tokens * self.feature_dim),
                              ("weight", 3 * self.num_blocks * self.feature_dim ** 2)):
            if entries > MAX_TOKEN_ENTRIES:
                raise ConfigError(
                    f"grid_shape {self.grid_shape}, feature_dim {self.feature_dim} and "
                    f"num_blocks {self.num_blocks} ask for {entries} {what} entries; "
                    f"at most {MAX_TOKEN_ENTRIES} (2^28) are allowed")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("profiling", "rope", "collect_norms"):
            setattr(self, name, config_bool(name, getattr(self, name)))
        if self.feature_dim % self.num_heads != 0:
            raise ConfigError(
                f"feature_dim {self.feature_dim} not divisible by num_heads {self.num_heads}")
        if self.rope and (self.feature_dim % 2 != 0 or self.feature_dim < 6):
            raise ConfigError("rotary embedding needs an even feature_dim >= 6")
        if self.rnr_mode not in RNR_MODES:
            raise ConfigError(f"rnr_mode must be one of {RNR_MODES}, got {self.rnr_mode!r}")
        if self.reduce_op not in REDUCE_OPS:
            raise ConfigError(f"reduce_op must be one of {REDUCE_OPS}")
        if not 0.0 <= config_real("duplicate_fraction", self.duplicate_fraction) < 1.0:
            raise ConfigError("duplicate_fraction must lie in [0, 1)")
        if ((self.scheduled or self.profiling)
                and any(g < s for g, s in zip(self.grid_shape, self.stride))):
            raise ConfigError(
                f"stride {self.stride} leaves no complete chunk in grid_shape "
                f"{self.grid_shape}, so matching has no destinations; use a "
                "smaller stride")
        if (self.rnr_mode == "sym" and self.schedule is not None
                and "V" in self.schedule.rules):
            warnings.warn("symmetric mode reduces the shared input; the V entry "
                          "is ignored (the Q entry drives the reduction)",
                          stacklevel=3)
        if self.sym:
            for flag in ("profiling", "collect_norms"):
                if getattr(self, flag):
                    raise ConfigError(f"{flag} needs the full feature set; run it "
                                      "with reduction off or in asymmetric mode")

    @property
    def n_tokens(self) -> int:
        t, h, w = self.grid_shape
        return t * h * w

    @property
    def stride(self) -> tuple[int, int, int]:
        return (self.schedule or ScheduleConfig()).stride

    @property
    def metric(self) -> str:
        return (self.schedule or ScheduleConfig()).metric

    @property
    def reductions(self) -> tuple[tuple[str, str], ...]:
        """The mode's (matched feature, schedule rule) pairs whose rule has an
        entry; a rule with no entries never reduces, so nothing is matched."""
        rules = self.schedule.rules if self.schedule else {}
        return tuple(p for p in REDUCTION_PAIRS[self.rnr_mode] if rules.get(p[1]))

    @property
    def scheduled(self) -> bool:
        """Whether the run reduces anything."""
        return bool(self.reductions)

    @property
    def sym(self) -> bool:
        return self.scheduled and self.rnr_mode == "sym"

    def to_json(self) -> str:
        """Every field in order, the schedule (when there is one) last."""
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update((f.name, getattr(self, f.name))
                       for f in fields(self) if f.name != "schedule")
        if self.schedule is not None:
            payload["schedule"] = self.schedule.to_dict()
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        payload = json_object(text, "config")
        unknown = set(payload) - {f.name for f in fields(PipelineConfig)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if payload.get("schedule") is not None:
            payload["schedule"] = ScheduleConfig.from_dict(payload["schedule"])
        return PipelineConfig(**payload)

    @staticmethod
    def from_file(path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return PipelineConfig.from_json(fh.read())


@dataclass(frozen=True)
class BlockRecord:
    """Per (timestep, block) accounting."""

    t: int
    b: int
    wall_s: float
    rates: dict
    m_q: int
    m_kv: int
    recomputed: tuple[str, ...]
    macs: int


@dataclass
class RunReport:
    checksum: str
    records: list[BlockRecord]
    measured: flops.CostBreakdown
    predicted: flops.CostBreakdown
    total_wall_s: float
    profile: SimilarityProfile | None = None
    norm_records: list[dict] = field(default_factory=list)
    final_tokens: Matrix | None = None  # kept in memory only, never serialized

    @property
    def total_macs(self) -> int:
        return self.measured.total

    @property
    def total_flops(self) -> int:
        return flops.macs_to_flops(self.measured.total)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "checksum": self.checksum,
            "total_macs": self.total_macs,
            "total_flops": self.total_flops,
            "total_wall_s": self.total_wall_s,
            "measured": self.measured.as_dict(),
            "predicted": self.predicted.as_dict(),
            "records": [asdict(r) for r in self.records],
        }
        if self.norm_records:
            payload["norm_records"] = self.norm_records
        return json.dumps(payload, indent=2)


def inject_duplicates(tokens: Matrix, fraction: float,
                      rng: np.random.Generator) -> Matrix:
    """Overwrite a fraction of token rows with copies of surviving other rows.

    Copy sources are drawn from the non-overwritten rows only, so each
    overwritten row is guaranteed an exact duplicate in the result. The
    input is not modified.
    """
    if not (0.0 <= fraction < 1.0):
        raise ConfigError(f"fraction must lie in [0, 1), got {fraction}")
    n = tokens.shape[0]
    k = int(fraction * n)
    if k == 0:
        return tokens
    targets = rng.choice(n, size=k, replace=False)
    mask = np.ones(n, dtype=bool)
    mask[targets] = False
    survivors = np.nonzero(mask)[0]
    sources = survivors[rng.integers(0, len(survivors), size=k)]
    tokens = tokens.copy()
    tokens[targets] = tokens[sources]
    return tokens


def seeded_inputs(cfg: PipelineConfig):
    """The run's initial tokens and its weight, partition and random-matching
    streams, all drawn from cfg.seed in one fixed order."""
    rng_init, rng_weights, rng_parts, rng_dup, rng_match = spawn_rngs(cfg.seed, 5)
    x = rng_init.standard_normal((cfg.n_tokens, cfg.feature_dim))
    if cfg.duplicate_fraction > 0.0:
        x = inject_duplicates(x, cfg.duplicate_fraction, rng_dup)
    return x, rng_weights, rng_parts, rng_match


def row_norm_percentiles(mat: Matrix) -> dict:
    norms = np.linalg.norm(mat, axis=1)
    p5, p50, p95, p99 = np.percentile(norms, [5, 50, 95, 99])
    return {"p5": float(p5), "p50": float(p50), "p95": float(p95), "p99": float(p99)}


# The RnR operators live here, not in rnr, and call attn_plain, reduce_tokens,
# restore_tokens and apply_rope_tables through this module's namespace: the
# benchmark's tracer patches those boundaries here and fails a traced pass
# whose workload does not enter them.

def _project(h: Matrix, weights, rope: np.ndarray | None, rows,
             counter: flops.CostBreakdown | None):
    """Q, K and V of the rows of h under the (w_q, w_k, w_v) weights, Q and K
    rotated by `rope` (when given) at the rows' original positions `rows`.
    The one place a block forms Q, K and V."""
    if counter is not None:
        d = h.shape[1]
        counter.add(flops.CostBreakdown(projections=3 * h.shape[0] * d * d))
    w_q, w_k, w_v = weights
    q, k, v = h @ w_q, h @ w_k, h @ w_v
    if rope is not None:
        rot = rope[rows]
        q, k = apply_rope_tables(q, rot), apply_rope_tables(k, rot)
    return q, k, v


def attn_sym_rnr(h: Matrix, weights, plan: ReductionPlan | None,
                 op: str = "discard", rope_tables: np.ndarray | None = None,
                 num_heads: int = 1,
                 counter: flops.CostBreakdown | None = None) -> Matrix:
    """Symmetric variant: reduce the shared input, project, attend, restore.

    Q, K, V are projected from the already-shortened sequence with the
    (w_q, w_k, w_v) weights, so one plan governs all three. When the complex
    rotary table of `rope3d_tables` is given, the kept rows are rotated by
    their original positions' angles. A None plan reduces nothing.
    """
    rows = slice(None)
    if plan is not None:
        h = reduce_tokens(h, plan, op)
        rows = plan.kept
    q, k, v = _project(h, weights, rope_tables, rows, counter)
    out = attn_plain(q, k, v, num_heads=num_heads, counter=counter)
    return out if plan is None else restore_tokens(out, plan)


def attn_asym_rnr(q: Matrix, k: Matrix, v: Matrix, plan_q: ReductionPlan | None,
                  plan_kv: ReductionPlan | None, op: str = "discard",
                  num_heads: int = 1,
                  counter: flops.CostBreakdown | None = None) -> Matrix:
    """Asymmetric variant: reduce Q and K/V independently, restore Q only.

    K and V share plan_kv (their rows correspond one-to-one); the output is
    re-expanded along the query axis alone, since key/value information is
    already folded into the attention mix. A None plan reduces nothing on
    its side.
    """
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"K and V row counts differ: {k.shape[0]} vs {v.shape[0]}")
    if plan_q is not None:
        q = reduce_tokens(q, plan_q, op)
    if plan_kv is not None:
        k = reduce_tokens(k, plan_kv, op)
        v = reduce_tokens(v, plan_kv, op)
    out = attn_plain(q, k, v, num_heads=num_heads, counter=counter)
    return out if plan_q is None else restore_tokens(out, plan_q)


def _matching_cost(match, d: int, metric: str) -> flops.CostBreakdown:
    """MACs of one matching as it ran: a length-d comparison per evaluated
    entry; the random baseline does no arithmetic on the tokens."""
    return flops.CostBreakdown(
        matching=0 if metric == "random" else match.num_evals * d)


def _profile_stats(match) -> tuple[float, float, float]:
    sims = match.best_sim
    return (float(sims.mean()),
            float(np.percentile(sims, 10)),
            float(np.percentile(sims, 90)))


def unreduced_profile(cfg: PipelineConfig) -> SimilarityProfile:
    """The similarity profile of cfg's run with reduction off: the profile a
    scheduled run of cfg thresholds against."""
    pre = replace(cfg, profiling=True, rnr_mode="none", collect_norms=False)
    return run_pipeline(pre).profile


def run_pipeline(cfg: PipelineConfig,
                 profile: SimilarityProfile | None = None) -> RunReport:
    """Run the denoising loop and return deterministic accounting.

    A scheduled run needs a similarity profile to threshold against. If none
    is supplied, `unreduced_profile` records one first; its cost is not part
    of the reported wall time.
    """
    schedule, stride, metric, sym = cfg.schedule, cfg.stride, cfg.metric, cfg.sym
    if cfg.scheduled:
        if profile is None:
            profile = unreduced_profile(cfg)
        if (profile.num_timesteps != cfg.num_timesteps
                or profile.num_blocks != cfg.num_blocks):
            raise ConfigError(
                f"profile lattice ({profile.num_timesteps} steps x "
                f"{profile.num_blocks} blocks) does not match the run "
                f"({cfg.num_timesteps} x {cfg.num_blocks})")
        # a grid mismatch is allowed: a small grid can profile a large run
        if profile.metric != metric or profile.stride != stride:
            raise ConfigError(
                f"profile was recorded with metric {profile.metric!r} and stride "
                f"{profile.stride}; the schedule uses {metric!r} and {stride}")
        missing = {rule for _, rule in cfg.reductions} - set(profile.features)
        if missing:
            raise ConfigError(f"profile lacks features {sorted(missing)}")

    n = cfg.n_tokens
    d = cfg.feature_dim
    x, rng_weights, rng_parts, rng_match = seeded_inputs(cfg)

    weights = [(rng_weights.standard_normal((d, d)) / np.sqrt(d),
                rng_weights.standard_normal((d, d)) / np.sqrt(d),
                rng_weights.standard_normal((d, d)) / np.sqrt(d))
               for _ in range(cfg.num_blocks)]
    rope = rope3d_tables(cfg.grid_shape, d) if cfg.rope else None

    # one partition per block, drawn once: cached match results index it
    parts = None
    if cfg.scheduled or cfg.profiling:
        parts = [partition_3d(cfg.grid_shape, stride, rng_parts)
                 for _ in range(cfg.num_blocks)]

    cache: dict = {}
    measured = flops.CostBreakdown()
    records: list[BlockRecord] = []
    norm_records: list[dict] = []
    profile_entries: list[tuple] = []

    loop_start = time.perf_counter()
    for t in range(cfg.num_timesteps):
        y = x
        for b in range(cfg.num_blocks):
            t0 = time.perf_counter()
            macs_before = measured.total
            part = parts[b] if parts else None

            # rebound before projecting, so the last block's Q, K, V are freed
            feats = {"H": y}
            if not sym:
                feats.update(zip("QKV", _project(y, weights[b], rope, slice(None),
                                                 measured)))

            if cfg.profiling:
                for feature, toks in feats.items():
                    match = pairwise_best_match(toks, part, metric, rng_match)
                    measured.add(_matching_cost(match, d, metric))
                    profile_entries.append((feature, t, b, *_profile_stats(match)))

            if cfg.collect_norms:
                for feature in ("H", "V"):
                    norm_records.append({"feature": feature, "t": t, "b": b,
                                         **row_norm_percentiles(feats[feature])})

            rates: dict = {}
            recomputed: list[str] = []
            plans: dict = {}
            for feature, rule in cfg.reductions:
                rate = rates[feature] = lookup_rate(schedule, profile, rule, t, b)
                match, fresh = cached_match(cache, schedule.cache_step, feature, b,
                                            t, feats[feature], part, metric,
                                            rng_match)
                if fresh:
                    recomputed.append(feature)
                    measured.add(_matching_cost(match, d, metric))
                if rate > 0.0:
                    plans[feature] = build_plan(match, part, rate)

            if sym:
                plan_q = plan_kv = plans.get("H")
                out = attn_sym_rnr(y, weights[b], plan_q, cfg.reduce_op,
                                   rope, cfg.num_heads, measured)
            else:
                plan_q, plan_kv = plans.get("Q"), plans.get("V")
                out = attn_asym_rnr(feats["Q"], feats["K"], feats["V"], plan_q,
                                    plan_kv, cfg.reduce_op, cfg.num_heads, measured)

            if out.shape[0] != n:
                raise InvariantError(f"block (t={t}, b={b}) output has "
                                     f"{out.shape[0]} rows, expected {n}")
            y = y + out
            if not np.isfinite(y).all():
                raise InvariantError(f"non-finite state after block (t={t}, b={b})")
            records.append(BlockRecord(
                t=t, b=b, wall_s=time.perf_counter() - t0, rates=rates,
                m_q=plan_q.m if plan_q else n, m_kv=plan_kv.m if plan_kv else n,
                recomputed=tuple(recomputed), macs=measured.total - macs_before))
        x = x - BLEND * y
    total_wall = time.perf_counter() - loop_start

    # every partition of one grid and stride has the same n_src and n_dst
    per_match = (flops.matching_macs(part.n_src, part.n_dst, d)
                 if part is not None and metric != "random" else 0)
    profiled = len(PROFILE_FEATURES) if cfg.profiling else 0
    predicted = flops.CostBreakdown()
    for rec in records:
        predicted.add(flops.cost_sym(n, d, rec.m_q, cfg.num_heads) if sym else
                      flops.cost_asym(n, d, rec.m_q, rec.m_kv, False, 0.0, cfg.num_heads))
        predicted.add(flops.CostBreakdown(
            matching=per_match * (len(rec.recomputed) + profiled)))
    if measured.as_dict() != predicted.as_dict():
        raise InvariantError(
            f"instrumented MACs {measured.as_dict()} diverge from the cost-model "
            f"prediction {predicted.as_dict()}")

    run_profile = None
    if cfg.profiling:
        run_profile = record_profile(
            profile_entries, num_timesteps=cfg.num_timesteps,
            num_blocks=cfg.num_blocks, grid_shape=cfg.grid_shape,
            stride=stride, metric=metric)

    return RunReport(checksum=checksum_matrix(x), records=records,
                     measured=measured, predicted=predicted,
                     total_wall_s=total_wall, profile=run_profile,
                     norm_records=norm_records, final_tokens=x)


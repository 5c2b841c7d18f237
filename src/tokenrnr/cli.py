"""Command line harness: profiling, benchmarking, ablations, divergence
checks, and norm statistics. Everything emits CSV or JSON for external
plotting; nothing is rendered in-process.

Exit codes: 0 success, 2 configuration error or unreadable/unwritable file,
3 runtime invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from .core import make_rng
from .errors import SCHEMA_VERSION, ConfigError, InvariantError
from .klnn import kl_estimate
from .matching import METRICS, partition_3d, pairwise_best_match
from .pipeline import (MAX_TOKEN_ENTRIES, RNR_MODES, PipelineConfig, RunReport,
                       run_pipeline, seeded_inputs, unreduced_profile)
from .rnr import build_plan
from .schedule import ScheduleConfig, SimilarityProfile

#: stride grid swept by the partition ablation
STRIDE_GRID = [(1, 2, 2), (2, 2, 2), (3, 2, 2), (4, 2, 2), (2, 3, 3), (2, 4, 4)]
CACHE_STEP_GRID = [1, 2, 3, 4, 5, 6]
ABLATE_DIMENSIONS = ("metric", "reduce_op", "cache_step", "stride", "feature")


def _load_config(args, **overrides) -> PipelineConfig:
    """The --config file (else the defaults), with --seed, --mode and
    --schedule, then `overrides`, replacing its fields before the config
    checks them.

    Its `profiling` is always off: only `profile` records a profile, through
    `unreduced_profile`, and a timed run must not spend matchings on one.
    """
    fields = {"profiling": False}
    if getattr(args, "seed", None) is not None:
        fields["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        fields["rnr_mode"] = args.mode
    if getattr(args, "schedule", None):
        fields["schedule"] = ScheduleConfig.from_file(args.schedule)
    fields.update(overrides)
    if args.config:
        return PipelineConfig.from_file(args.config, **fields)
    return PipelineConfig(**fields)


def _config_id(cfg: PipelineConfig) -> str:
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()[:12]


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _timed_runs(cfg: PipelineConfig, profile, repeat: int, warmup: int
                ) -> tuple[RunReport, list[float]]:
    """Run `warmup` unrecorded passes, then `repeat` timed ones.

    All passes must agree on the output checksum; wall times are the only
    nondeterministic quantity.
    """
    for _ in range(warmup):
        run_pipeline(cfg, profile)
    walls = []
    checksums = set()
    for _ in range(repeat):
        t0 = time.perf_counter()
        report = run_pipeline(cfg, profile)
        walls.append(time.perf_counter() - t0)
        checksums.add(report.checksum)
    if len(checksums) != 1:
        raise InvariantError("checksum drifted between repeated runs")
    return report, walls


def cmd_profile(args) -> int:
    profile = unreduced_profile(_load_config(args))
    profile.to_file(args.out)
    print(f"wrote {len(profile.records)} profile records to {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    schedule = cfg.schedule or ScheduleConfig()
    # a config without reduction is benchmarked in asymmetric mode, unless
    # --mode asks for none
    mode = args.mode or ("asym" if cfg.rnr_mode == "none" else cfg.rnr_mode)
    sched_cfg = replace(cfg, rnr_mode=mode, schedule=schedule)
    if args.profile:
        profile = SimilarityProfile.from_file(args.profile)
    elif sched_cfg.scheduled:
        print("no profile supplied; recording one with a profiling pre-run")
        profile = unreduced_profile(sched_cfg)
    else:
        profile = None

    base_cfg = replace(cfg, rnr_mode="none", schedule=None)
    base_report, base_walls = _timed_runs(base_cfg, None, args.repeat, args.warmup)
    sched_report, sched_walls = _timed_runs(sched_cfg, profile, args.repeat, args.warmup)

    base_ms = statistics.median(base_walls) * 1e3
    sched_ms = statistics.median(sched_walls) * 1e3
    deviation = float(np.abs(sched_report.final_tokens - base_report.final_tokens).max())

    def row(run_cfg, digest, report, walls, speedup, row_deviation):
        return [SCHEMA_VERSION, _config_id(run_cfg), run_cfg.rnr_mode, digest,
                report.total_macs, report.total_flops,
                *(f"{ms:.3f}" for ms in (statistics.median(walls) * 1e3,
                                          min(walls) * 1e3, max(walls) * 1e3)),
                speedup, report.checksum[:16], row_deviation]

    header = ["schema_version", "config_id", "rnr_mode", "schedule_hash",
              "total_macs", "total_flops", "wall_ms", "wall_ms_min",
              "wall_ms_max", "speedup", "checksum", "max_row_deviation"]
    rows = [row(base_cfg, "-", base_report, base_walls, "1.000", "0"),
            row(sched_cfg, schedule.digest(), sched_report, sched_walls,
                f"{base_ms / sched_ms:.3f}", f"{deviation:.6e}")]
    _write_csv(args.out, header, rows)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(sched_report.to_json() + "\n")
    print(f"baseline {base_ms:.1f} ms, scheduled {sched_ms:.1f} ms, "
          f"speedup {base_ms / sched_ms:.2f}x -> {args.out}")
    return 0


_KL_SCORE_CAP = 2048


def _kl_score_for(cfg: PipelineConfig, rate: float) -> tuple[float, float]:
    """Diagnostic divergence of a one-shot reduction of the initial tokens,
    and the destination ratio of the partition it drew.

    The initial tokens and the partition come from the pipeline's own seeded
    inputs, matched with the config's stride and metric. On large grids both
    sample sets are thinned by a deterministic stride to keep the brute-force
    neighbor search bounded; the score is comparative across sweep points,
    not a calibrated divergence.
    """
    original, _, rng_parts, rng_match = seeded_inputs(cfg)
    part = partition_3d(cfg.grid_shape, cfg.stride, rng_parts)
    match = pairwise_best_match(original, part, cfg.metric, rng_match)
    plan = build_plan(match, part, rate)
    kept = original[plan.kept]
    if len(kept) > _KL_SCORE_CAP:
        kept = kept[::math.ceil(len(kept) / _KL_SCORE_CAP)]
    if len(original) > 2 * _KL_SCORE_CAP:
        original = original[::math.ceil(len(original) / (2 * _KL_SCORE_CAP))]
    return kl_estimate(kept, original).value, part.dst_ratio


def cmd_ablate(args) -> int:
    cfg = _load_config(args, collect_norms=False)  # it writes no norms
    rate = args.rate

    def point(label, features="V", reduce_op=cfg.reduce_op,
              **matching) -> tuple[str, PipelineConfig]:
        """An asymmetric run reducing `features` (joined by +) at `rate`."""
        sched = ScheduleConfig(rules={f: [(0.0, rate)] for f in features.split("+")},
                               **matching)
        return label, replace(cfg, rnr_mode="asym", schedule=sched, reduce_op=reduce_op)

    # every point is built, and so checked, before anything runs
    if args.dimension == "metric":
        points = [point(m, metric=m) for m in METRICS]
    elif args.dimension == "reduce_op":
        points = [point(op, reduce_op=op) for op in ("discard", "mean")]
    elif args.dimension == "cache_step":
        points = [point(str(s), cache_step=s) for s in CACHE_STEP_GRID]
    elif args.dimension == "stride":
        points = [point("x".join(map(str, s)), stride=s) for s in STRIDE_GRID]
    else:  # feature
        points = [point(f, features=f) for f in ("Q", "V", "Q+V")]
    base_report = run_pipeline(replace(cfg, rnr_mode="none", schedule=None))

    def run_point(item):
        label, point_cfg = item
        # the profile pre-run stays outside the timed run
        profile = unreduced_profile(point_cfg)
        t0 = time.perf_counter()
        report = run_pipeline(point_cfg, profile)
        wall_ms = (time.perf_counter() - t0) * 1e3
        kl, dst_ratio = _kl_score_for(point_cfg, rate)
        deviation = float(np.abs(report.final_tokens - base_report.final_tokens).max())
        bsm_counts = {}
        for rec in report.records:
            for feature in rec.recomputed:
                key = (feature, rec.b)
                bsm_counts[key] = bsm_counts.get(key, 0) + 1
        bsm_per_fb = max(bsm_counts.values()) if bsm_counts else 0
        return [SCHEMA_VERSION, args.dimension, label, report.total_macs,
                f"{wall_ms:.3f}", f"{kl:.6f}", f"{deviation:.6e}",
                bsm_per_fb, f"{100.0 * dst_ratio:.2f}"]

    # one point at a time, so wall_ms is not measured under BLAS contention
    rows = [run_point(p) for p in points]

    header = ["schema_version", "dimension", "value", "total_macs", "wall_ms",
              "kl_score", "max_row_deviation", "bsm_per_feature_block",
              "dst_ratio_pct"]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return 0


def cmd_klcheck(args) -> int:
    d = args.dim
    sweep_sizes = [500, 1000, 2000, 4000]
    entries = max(args.samples, *sweep_sizes) * d
    if entries > MAX_TOKEN_ENTRIES:
        raise ConfigError(
            f"--samples {args.samples} and --dim {d} ask for {entries} entries per "
            f"sample matrix; at most {MAX_TOKEN_ENTRIES} (2^28) are allowed")
    mu = np.zeros(d)
    mu[0] = 1.0
    closed_shift = 0.5
    sigma2 = np.linspace(0.5, 1.5, d)
    closed_diag = 0.5 * float(sigma2.sum() - d - np.log(sigma2).sum())

    def mean_estimate(seed_offset, transform) -> float:
        """Mean over --seeds of the estimate for N(0, I) samples mapped by
        `transform` against plain N(0, I) samples."""
        ests = []
        for seed in range(args.seeds):
            rng = make_rng(args.seed_base + seed_offset + seed)
            original = rng.standard_normal((args.samples, d))
            reduced = transform(rng.standard_normal((args.samples, d)))
            ests.append(kl_estimate(reduced, original).value)
        return float(np.mean(ests))

    shift_mean = mean_estimate(0, lambda z: z + mu)
    diag_mean = mean_estimate(1000, lambda z: z * np.sqrt(sigma2))

    sweep_errs = {l: [] for l in sweep_sizes}
    for seed in range(args.sweep_seeds):
        rng = make_rng(args.seed_base + 2000 + seed)
        orig_full = rng.standard_normal((max(sweep_sizes), d))
        red_full = rng.standard_normal((max(sweep_sizes), d)) + mu
        for l in sweep_sizes:
            est = kl_estimate(red_full[:l], orig_full[:l]).value
            sweep_errs[l].append(abs(est - closed_shift))
    sweep = {str(l): float(np.mean(v)) for l, v in sweep_errs.items()}

    report = {
        "schema_version": SCHEMA_VERSION,
        "dim": d, "samples": args.samples, "seeds": args.seeds,
        "mean_shift": {"closed_form": closed_shift, "estimate_mean": shift_mean,
                       "abs_error": abs(shift_mean - closed_shift)},
        "diagonal": {"closed_form": closed_diag, "estimate_mean": diag_mean,
                     "abs_error": abs(diag_mean - closed_diag)},
        "bias_sweep_mean_abs_error": sweep,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"mean-shift: estimate {shift_mean:.4f} vs closed form {closed_shift}")
    print(f"diagonal:   estimate {diag_mean:.4f} vs closed form {closed_diag:.4f}")
    print("bias sweep (mean |error|):")
    for l in sweep_sizes:
        print(f"  l={l:>5}: {sweep[str(l)]:.4f}")
    return 0


def cmd_normstats(args) -> int:
    cfg = _load_config(args, collect_norms=True, rnr_mode="none", schedule=None)
    steps = None
    if args.steps:
        try:
            steps = {int(s) for s in args.steps.split(",")}
        except ValueError as exc:
            raise ConfigError(f"--steps must be comma-separated ints: {exc}") from exc
    report = run_pipeline(cfg)
    rows = [[SCHEMA_VERSION, *(f"{v:.6f}" if isinstance(v, float) else v
                               for v in rec.values())]
            for rec in report.norm_records if steps is None or rec["t"] in steps]
    _write_csv(args.out, ["schema_version", *report.norm_records[0]], rows)
    print(f"wrote {len(rows)} norm rows to {args.out}")
    return 0


def _int_at_least(low: int):
    """An argparse type: an int >= `low`, else a usage error (exit code 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenrnr",
        description="Benchmark harness for token reduction-and-restoration attention")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, schedule=False):
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if schedule:
            p.add_argument("--schedule", help="schedule JSON")
            p.add_argument("--mode", choices=RNR_MODES, default=None)

    p = sub.add_parser("profile", help="record a similarity profile")
    common(p, schedule=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("bench", help="baseline vs scheduled wall-clock comparison")
    common(p, schedule=True)
    p.add_argument("--profile", help="similarity profile JSON (else pre-run records one)")
    p.add_argument("--repeat", type=_int_at_least(1), default=5,
                   help="timed runs per variant")
    p.add_argument("--warmup", type=_int_at_least(0), default=1,
                   help="untimed warmup runs")
    p.add_argument("--report", help="also write the scheduled run's report JSON")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", help="sweep one design dimension")
    common(p)
    p.add_argument("--dimension", required=True, choices=ABLATE_DIMENSIONS)
    p.add_argument("--rate", type=float, default=0.3, help="reduction rate for sweeps")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("klcheck", help="divergence estimator vs Gaussian closed forms")
    p.add_argument("--dim", type=_int_at_least(1), default=4)
    p.add_argument("--samples", type=_int_at_least(2), default=5000)
    p.add_argument("--seeds", type=_int_at_least(1), default=10)
    p.add_argument("--sweep-seeds", type=_int_at_least(1), default=20, dest="sweep_seeds")
    p.add_argument("--seed-base", type=_int_at_least(0), default=1000, dest="seed_base")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_klcheck)

    p = sub.add_parser("normstats", help="row-norm percentiles per feature/step/block")
    common(p)
    p.add_argument("--steps", help="comma-separated timestep filter")
    p.set_defaults(func=cmd_normstats)

    return parser


def _check_writable(path: str) -> None:
    """Raise an OSError unless `path` names a file in a writable directory."""
    folder = os.path.dirname(os.path.abspath(path))
    code = (errno.EISDIR if os.path.isdir(path) else
            errno.ENOENT if not os.path.isdir(folder) else
            errno.EACCES if not os.access(folder, os.W_OK) else 0)
    if code:
        raise OSError(code, os.strerror(code), path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every output is checked before anything runs
        for path in filter(None, (args.out, getattr(args, "report", None))):
            _check_writable(path)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

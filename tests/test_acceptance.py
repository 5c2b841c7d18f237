"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and runtime budget is asserted as stated; nothing is deferred
or recalibrated here. Criterion 2 is the heavy one: it runs the full
16384-token pipeline end to end and measures real wall-clock speedup.
"""
import math
import time

import numpy as np

from tokenrnr.core import make_rng
from tokenrnr.klnn import kl_estimate, score_reduction
from tokenrnr.matching import partition_3d, pairwise_best_match
from tokenrnr.pipeline import (PipelineConfig, attn_asym_rnr, attn_sym_rnr,
                               run_pipeline)
from tokenrnr.rnr import attn_plain, build_plan
from tokenrnr.schedule import (MatchingCache, ScheduleConfig, TuneStep,
                               cached_match, lookup_rate, tune_schedule)

from oracles import direct_similarities, exhaustive_match, identity_plan
from test_schedule import fixed_profile


class Budget:
    """Wall-clock guard asserting the criterion's stated runtime budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds the stated budget "
                f"{self.limit:.0f}s")
        return False


def report(num, name, detail=""):
    print(f"\n[criterion {num:2d}] PASS - {name}" + (f" ({detail})" if detail else ""))


def test_criterion_01_partition_ratio_reproduction():
    table = [((1, 2, 2), 24.44), ((2, 2, 2), 11.28), ((3, 2, 2), 7.52),
             ((4, 2, 2), 5.64), ((2, 3, 3), 5.13), ((2, 4, 4), 2.63)]
    with Budget(1.0) as budget:
        for stride, expected_pct in table:
            part = partition_3d((13, 30, 45), stride, make_rng(0))
            got = 100.0 * part.dst_ratio
            assert abs(got - expected_pct) <= 0.005, (stride, got)
    report(1, "destination ratios match the reference six-row table",
           f"{budget.elapsed:.2f}s")


def test_criterion_02_toy_pipeline_speedup_and_mac_parity():
    # Model-level speedups from full video models are not reproducible at
    # desk scale; the substitute is the pinned 16384-token pipeline. The
    # similarity profile comes from a small-grid run with the same
    # (timestep, block) lattice: profiles are context-agnostic, and the
    # schedule's 0.0 thresholds fire regardless of the profiled values.
    schedule = ScheduleConfig(rules={"Q": [(0.0, 0.8)], "V": [(0.0, 0.5)]},
                              cache_step=5, stride=(2, 2, 2))
    with Budget(300.0) as budget:
        profile_cfg = PipelineConfig(grid_shape=(4, 8, 8), feature_dim=64,
                                     num_blocks=4, num_heads=1, num_timesteps=30,
                                     seed=11, profiling=True, schedule=schedule)
        profile = run_pipeline(profile_cfg).profile

        base_cfg = PipelineConfig(grid_shape=(16, 32, 32), feature_dim=64,
                                  num_blocks=4, num_heads=1, num_timesteps=30,
                                  seed=11)
        t0 = time.perf_counter()
        base = run_pipeline(base_cfg)
        base_wall = time.perf_counter() - t0

        sched_cfg = PipelineConfig(grid_shape=(16, 32, 32), feature_dim=64,
                                   num_blocks=4, num_heads=1, num_timesteps=30,
                                   seed=11, rnr_mode="asym", schedule=schedule)
        t0 = time.perf_counter()
        reduced = run_pipeline(sched_cfg, profile=profile)
        sched_wall = time.perf_counter() - t0

        speedup = base_wall / sched_wall
        print(f"\n  baseline {base_wall:.1f}s, scheduled {sched_wall:.1f}s, "
              f"speedup {speedup:.2f}x")
        print(f"  MACs: baseline {base.total_macs:,}, "
              f"scheduled {reduced.total_macs:,}")
        assert speedup > 1.0
        assert base.measured.as_dict() == base.predicted.as_dict()
        assert reduced.measured.as_dict() == reduced.predicted.as_dict()
        assert reduced.total_macs < base.total_macs
    report(2, "aggressive schedule beats baseline wall-clock with exact "
              "MAC accounting", f"{budget.elapsed:.0f}s, speedup {speedup:.2f}x")


def test_criterion_03_zero_rate_equivalence():
    with Budget(30.0) as budget:
        worst = 0.0
        for case in range(100):
            rng = make_rng(10_000 + case)
            n = int(rng.integers(2, 257))
            d = int(rng.integers(2, 17)) * 2
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            ident = identity_plan(n)
            plain = attn_plain(q, k, v)
            asym = attn_asym_rnr(q, k, v, ident, ident)
            worst = max(worst, float(np.abs(asym - plain).max()))
            h = rng.standard_normal((n, d))
            w_q, w_k, w_v = (rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(3))
            sym = attn_sym_rnr(h, (w_q, w_k, w_v), ident)
            plain_h = attn_plain(h @ w_q, h @ w_k, h @ w_v)
            worst = max(worst, float(np.abs(sym - plain_h).max()))
            assert worst <= 1e-12
    report(3, "zero-rate sym/asym attention equals plain attention",
           f"max |diff| {worst:.1e}, {budget.elapsed:.1f}s")


def test_criterion_04_exact_redundancy_losslessness():
    with Budget(30.0) as budget:
        worst = 0.0
        for seed in range(50):
            rng = make_rng(20_000 + seed)
            part = partition_3d((2, 4, 4), (2, 2, 2), rng)
            n, d = part.n_tokens, 8
            q = rng.standard_normal((n, d))
            dup_src = rng.choice(part.src_indices, size=10, replace=False)
            q[dup_src] = q[rng.choice(part.dst_indices, size=10)]
            k, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
            match = pairwise_best_match(q, part, "neg_euclidean")
            plan_q = build_plan(match, part, (len(dup_src) + 0.5) / part.n_src)
            assert set(plan_q.discarded) == set(dup_src)
            out = attn_asym_rnr(q, k, v, plan_q, build_plan(match, part, 0.0))
            dev = float(np.abs(out - attn_plain(q, k, v)).max())
            worst = max(worst, dev)
            assert dev <= 1e-9
    report(4, "bit-identical discards replicate plain attention",
           f"max |diff| {worst:.1e}, {budget.elapsed:.1f}s")


def test_criterion_05_kl_estimator_validation():
    mu = np.array([1.0, 0.0, 0.0, 0.0])
    with Budget(120.0) as budget:
        estimates = []
        for seed in range(10):
            rng = make_rng(1000 + seed)
            original = rng.standard_normal((5000, 4))
            reduced = rng.standard_normal((5000, 4)) + mu
            estimates.append(kl_estimate(reduced, original, k=1).value)
        mean_est = float(np.mean(estimates))
        assert abs(mean_est - 0.5) <= 0.1

        # bias sweep with nested common-random-number samples per seed
        sizes = [500, 1000, 2000, 4000]
        errs = {l: [] for l in sizes}
        for seed in range(20):
            rng = make_rng(7000 + seed)
            orig_full = rng.standard_normal((4000, 4))
            red_full = rng.standard_normal((4000, 4)) + mu
            for l in sizes:
                est = kl_estimate(red_full[:l], orig_full[:l], k=1).value
                errs[l].append(abs(est - 0.5))
        seq = [float(np.mean(errs[l])) for l in sizes]
        inversions = [(i, seq[i + 1] - seq[i]) for i in range(3)
                      if seq[i + 1] > seq[i]]
        assert len(inversions) == 0 or (
            len(inversions) == 1 and inversions[0][1] <= 0.1 * seq[inversions[0][0]]
        ), f"bias sequence {seq} has inadmissible inversions"
    report(5, "divergence estimator matches the Gaussian closed form",
           f"mean {mean_est:.3f} vs 0.5, bias seq "
           + "/".join(f"{b:.3f}" for b in seq) + f", {budget.elapsed:.0f}s")


def test_criterion_06_bsm_oracle_equivalence():
    metrics = ("neg_euclidean", "cosine", "dot", "random")
    with Budget(30.0) as budget:
        checked = 0
        for case in range(200):
            rng = make_rng(30_000 + case)
            shape = tuple(int(x) for x in rng.integers(1, 6, size=3) + 1)
            stride = tuple(int(x) for x in rng.integers(1, 4, size=3))
            part = partition_3d(shape, stride, rng)
            n = part.n_tokens
            if part.n_dst == 0 or part.n_src == 0 or n > 128:
                part = partition_3d((2, 4, 4), (2, 2, 2), rng)
                n = part.n_tokens
            tokens = rng.standard_normal((n, int(rng.integers(2, 9))))
            metric = metrics[case % len(metrics)]
            sim_rng = make_rng(60_000 + case)
            match = pairwise_best_match(tokens, part, metric, sim_rng)
            oracle_rng = make_rng(60_000 + case)
            sims = direct_similarities(tokens[part.src_indices],
                                       tokens[part.dst_indices], metric,
                                       oracle_rng)
            best_dst, best_sim, order = exhaustive_match(sims)
            assert np.array_equal(match.best_dst, best_dst)
            assert np.array_equal(match.best_sim, best_sim)
            assert np.array_equal(match.reduce_order, order)
            checked += 1
        assert checked == 200
    report(6, "matching equals the exhaustive all-pairs oracle on 200 instances",
           f"{budget.elapsed:.1f}s")


def test_criterion_07_matching_cache_law():
    with Budget(60.0) as budget:
        rng = make_rng(4)
        part = partition_3d((2, 4, 4), (2, 2, 2), rng)
        step_tokens = [make_rng(500 + t).standard_normal((part.n_tokens, 6))
                       for t in range(30)]
        for s in range(1, 7):
            cache = MatchingCache(cache_step=s)
            for feature in ("Q", "V"):
                for block in range(2):
                    fresh_count = 0
                    for t in range(30):
                        res, fresh = cached_match(cache, feature, block, t,
                                                  step_tokens[t], part,
                                                  "neg_euclidean")
                        fresh_count += fresh
                        if t % s == 0:
                            assert fresh
                            direct = pairwise_best_match(step_tokens[t], part,
                                                         "neg_euclidean")
                            assert np.array_equal(res.best_dst, direct.best_dst)
                            assert np.array_equal(res.best_sim, direct.best_sim)
                            assert np.array_equal(res.reduce_order,
                                                  direct.reduce_order)
                    assert fresh_count == math.ceil(30 / s)

        # the pipeline exhibits the same cadence end to end
        schedule = ScheduleConfig(rules={"Q": [(0.0, 0.5)], "V": [(0.0, 0.4)]},
                                  cache_step=3)
        cfg = PipelineConfig(grid_shape=(2, 4, 4), feature_dim=8, num_blocks=2,
                             num_heads=1, num_timesteps=30, seed=9,
                             rnr_mode="asym", schedule=schedule)
        run = run_pipeline(cfg)
        for feature in ("Q", "V"):
            for block in range(2):
                count = sum(1 for rec in run.records
                            if rec.b == block and feature in rec.recomputed)
                assert count == math.ceil(30 / 3)
    report(7, "cache recomputes exactly ceil(T/s) times and matches fresh "
              "results", f"{budget.elapsed:.1f}s")


def test_criterion_08_schedule_lookup_example():
    with Budget(1.0) as budget:
        cfg = ScheduleConfig(rules={"Q": [(0.6, 0.4), (0.7, 0.8)],
                                    "V": [(0.8, 0.3)]})
        assert lookup_rate(cfg, fixed_profile(q=0.59), "Q", 0, 0) == 0.0
        assert lookup_rate(cfg, fixed_profile(q=0.65), "Q", 0, 0) == 0.4
        assert lookup_rate(cfg, fixed_profile(q=0.75), "Q", 0, 0) == 0.8
        assert lookup_rate(cfg, fixed_profile(v=0.8), "V", 0, 0) == 0.3
    report(8, "threshold lookup reproduces the reference schedule example",
           f"{budget.elapsed:.2f}s")


def test_criterion_09_matched_vs_random_reduction_ordering():
    # video-like fixture: half the stride chunks hold near-identical tokens,
    # the rest are fully unique; equal kept counts for both plans
    def chunk_cluster_tokens(rng, d=8, sigma=1e-3):
        n = 4 * 8 * 8
        tokens = rng.standard_normal((n, d))
        chunk_of = np.empty(n, dtype=int)
        for t in range(4):
            for h in range(8):
                for w in range(8):
                    chunk_of[(t * 8 + h) * 8 + w] = \
                        ((t // 2) * 4 + (h // 2)) * 4 + (w // 2)
        for c in rng.permutation(32)[:16]:
            members = np.nonzero(chunk_of == c)[0]
            tokens[members] = rng.standard_normal(d) \
                + sigma * rng.standard_normal((len(members), d))
        return tokens

    with Budget(120.0) as budget:
        wins = 0
        for seed in range(50):
            rng = make_rng(9000 + seed)
            tokens = chunk_cluster_tokens(rng)
            part = partition_3d((4, 8, 8), (2, 2, 2), rng)
            matched_plan = build_plan(
                pairwise_best_match(tokens, part, "neg_euclidean"), part, 0.45)
            random_plan = build_plan(
                pairwise_best_match(tokens, part, "random", rng), part, 0.45)
            assert matched_plan.m == random_plan.m
            matched_score = score_reduction(tokens, matched_plan, k=1)
            random_score = score_reduction(tokens, random_plan, k=1)
            wins += matched_score < random_score
        assert wins >= 40, f"matched plans won only {wins}/50 trials"
    report(9, "matched reduction scores lower divergence than random",
           f"{wins}/50 trials, {budget.elapsed:.1f}s")


def test_criterion_10_tuning_heuristic_trajectories():
    with Budget(1.0) as budget:
        # scenario 1: every configuration acceptable -> rate climbs to its cap
        res = tune_schedule(lambda cfg: True)
        assert res.accepted
        assert res.trace == (TuneStep(0.5, 0.3, True), TuneStep(0.5, 0.5, True),
                             TuneStep(0.5, 0.7, True), TuneStep(0.5, 0.9, True))
        assert res.config.rules["Q"] == [(0.5, 0.9)]

        # scenario 2: quality breaks above rate 0.5 -> one lift, then stop
        res = tune_schedule(
            lambda cfg: cfg.rules["Q"][0][1] <= 0.5)
        assert res.accepted
        assert res.trace == (TuneStep(0.5, 0.3, True), TuneStep(0.5, 0.5, True),
                             TuneStep(0.5, 0.7, False), TuneStep(0.6, 0.5, True),
                             TuneStep(0.6, 0.7, False))
        assert res.config.rules["Q"] == [(0.6, 0.5)]

        # scenario 3: nothing is acceptable -> flagged identity schedule
        res = tune_schedule(lambda cfg: False)
        assert not res.accepted
        assert res.config.rules == {}
        assert res.trace == (TuneStep(0.5, 0.3, False),)
    report(10, "tuning walk reproduces all three hand-derived trajectories",
           f"{budget.elapsed:.2f}s")

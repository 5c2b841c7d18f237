import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokenrnr
from tokenrnr import pipeline as pipeline_mod
from tokenrnr import schedule as schedule_mod
from tokenrnr.core import make_rng
from tokenrnr.errors import ConfigError, InvariantError
from tokenrnr.pipeline import (PipelineConfig, inject_duplicates,
                               row_norm_percentiles, run_pipeline,
                               unreduced_profile)
from tokenrnr.schedule import ScheduleConfig

from oracles import reference_pipeline


def small_cfg(**overrides):
    base = dict(grid_shape=(2, 4, 4), feature_dim=8, num_blocks=2, num_heads=2,
                num_timesteps=4, seed=7)
    base.update(overrides)
    return PipelineConfig(**base)


def aggressive_schedule(**overrides):
    kw = dict(rules={"Q": [(0.0, 0.8)], "V": [(0.0, 0.5)]}, cache_step=5,
              stride=(2, 2, 2), metric="neg_euclidean")
    kw.update(overrides)
    return ScheduleConfig(**kw)


RATES = st.sampled_from([0.0, 0.25, 0.5, 0.8])

#: one small asym run in a fresh process: it prints each record's (t, b,
#: m_q, m_kv) as JSON and saves the final tokens to the path it is given
THREADED_RUN = """
import json, sys
import numpy as np
from tokenrnr.pipeline import PipelineConfig, run_pipeline
from tokenrnr.schedule import ScheduleConfig
cfg = PipelineConfig(grid_shape=(4, 16, 16), feature_dim=64, num_heads=2,
                     num_blocks=2, num_timesteps=4, seed=3, rnr_mode="asym",
                     schedule=ScheduleConfig(rules={"Q": [(0.0, 0.5)], "V": [(0.0, 0.3)]},
                                             cache_step=2))
report = run_pipeline(cfg)
np.save(sys.argv[1], report.final_tokens)
print(json.dumps([[r.t, r.b, r.m_q, r.m_kv] for r in report.records]))
"""


@given(mode=st.sampled_from(["none", "sym", "asym"]), num_heads=st.integers(1, 2),
       rope=st.booleans(), reduce_op=st.sampled_from(["discard", "mean"]),
       metric=st.sampled_from(["neg_euclidean", "cosine", "dot", "random"]),
       duplicates=st.sampled_from([0.0, 0.3]), cache_step=st.integers(1, 3),
       q_rates=st.lists(RATES, min_size=2, max_size=2), v_rate=RATES,
       v_threshold=st.sampled_from([0.0, 0.4, 0.7]), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_run_matches_reference_pipeline(mode, num_heads, rope, reduce_op, metric,
                                        duplicates, cache_step, q_rates, v_rate,
                                        v_threshold, seed):
    """Final tokens lie within 1e-10 of the reference and the records are
    equal. The run's plans go to the reference, which takes one over its own
    only where the two differ by ties: duplicate rows, which rounding in
    attention can leave one last bit apart, tie like that."""
    rules = {"Q": list(zip((0.0, 0.5), sorted(q_rates)))}
    if mode != "sym":
        rules["V"] = [(v_threshold, v_rate)]
    cfg = small_cfg(num_timesteps=5, num_heads=num_heads, seed=seed, rnr_mode=mode,
                    rope=rope, reduce_op=reduce_op, duplicate_fraction=duplicates,
                    schedule=ScheduleConfig(rules=rules, cache_step=cache_step,
                                            metric=metric))
    profile = unreduced_profile(cfg) if cfg.scheduled else None
    plans = []
    real_build_plan = pipeline_mod.build_plan

    def recording_build_plan(*args):
        plans.append(real_build_plan(*args))
        return plans[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_mod, "build_plan", recording_build_plan)
        report = run_pipeline(cfg, profile)
    final_tokens, records = reference_pipeline(cfg, profile, plans)
    assert np.abs(report.final_tokens - final_tokens).max() <= 1e-10
    assert [{"t": r.t, "b": r.b, "rates": r.rates, "m_q": r.m_q, "m_kv": r.m_kv,
             "recomputed": r.recomputed} for r in report.records] == records


class TestDeterminismAndEquivalence:
    def test_same_config_same_checksum(self):
        a = run_pipeline(small_cfg())
        b = run_pipeline(small_cfg())
        assert a.checksum == b.checksum
        assert a.total_macs == b.total_macs

    def test_seed_changes_output(self):
        a = run_pipeline(small_cfg(seed=1))
        b = run_pipeline(small_cfg(seed=2))
        assert a.checksum != b.checksum

    def test_none_vs_asym_with_empty_schedule_identical(self):
        plain = run_pipeline(small_cfg())
        empty = run_pipeline(small_cfg(rnr_mode="asym",
                                       schedule=ScheduleConfig()))
        assert plain.checksum == empty.checksum

    def test_rope_flag_changes_result(self):
        a = run_pipeline(small_cfg(rope=True))
        b = run_pipeline(small_cfg(rope=False))
        assert a.checksum != b.checksum

    def test_blas_thread_count_keeps_every_plan(self, tmp_path):
        # the BLAS thread count changes the last bits of some GEMM shapes, so
        # a checksum holds per build and thread count. What must not move is
        # a plan: one small asym config (seed fixed up front) run at 1 and 2
        # OpenBLAS threads, each in its own process since the count is read
        # at import, keeps every record's row counts, and its final tokens
        # agree to rounding
        src = str(Path(tokenrnr.__file__).resolve().parents[1])
        runs = []
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
            out = tmp_path / f"final_{threads}.npy"
            done = subprocess.run([sys.executable, "-c", THREADED_RUN, str(out)],
                                  env=env, capture_output=True, text=True, check=True,
                                  timeout=120)
            runs.append((json.loads(done.stdout), np.load(out)))
        (records_1, final_1), (records_2, final_2) = runs
        assert len(records_1) == 2 * 4
        assert records_1 == records_2
        assert np.abs(final_1 - final_2).max() <= 1e-12 * np.abs(final_1).max()


class TestScheduledRuns:
    def test_q_only_reduction_lowers_macs(self):
        baseline = run_pipeline(small_cfg())
        sched = ScheduleConfig(rules={"Q": [(0.0, 0.8)]})
        reduced = run_pipeline(small_cfg(rnr_mode="asym", schedule=sched))
        assert reduced.total_macs < baseline.total_macs

    def test_qv_reduction_lowers_macs_further(self):
        sched_q = ScheduleConfig(rules={"Q": [(0.0, 0.8)]})
        sched_qv = aggressive_schedule()
        q_only = run_pipeline(small_cfg(rnr_mode="asym", schedule=sched_q))
        both = run_pipeline(small_cfg(rnr_mode="asym", schedule=sched_qv))
        assert both.total_macs < q_only.total_macs

    def test_mac_parity_breakdowns_agree(self):
        report = run_pipeline(small_cfg(rnr_mode="asym",
                                        schedule=aggressive_schedule(),
                                        num_timesteps=6))
        assert report.measured.as_dict() == report.predicted.as_dict()

    def test_output_length_preserved_and_rates_recorded(self):
        report = run_pipeline(small_cfg(rnr_mode="asym",
                                        schedule=aggressive_schedule()))
        n_src = 32 - 4  # grid (2,4,4) with stride (2,2,2) has 4 destinations
        for rec in report.records:
            assert rec.rates == {"Q": 0.8, "V": 0.5}
            assert rec.m_q == 32 - math.floor(0.8 * n_src)
            assert rec.m_kv == 32 - math.floor(0.5 * n_src)

    def test_cache_cadence_in_records(self):
        report = run_pipeline(small_cfg(rnr_mode="asym", num_timesteps=6,
                                        schedule=aggressive_schedule(cache_step=3)))
        for b in range(2):
            fresh_steps = [rec.t for rec in report.records
                           if rec.b == b and "Q" in rec.recomputed]
            assert fresh_steps == [0, 3]

    def test_selective_threshold_applies_partially(self):
        # threshold 2.0 can never fire; threshold 0.0 always fires
        sched = ScheduleConfig(rules={"Q": [(2.0, 0.8)], "V": [(0.0, 0.5)]})
        report = run_pipeline(small_cfg(rnr_mode="asym", schedule=sched))
        for rec in report.records:
            assert rec.rates["Q"] == 0.0
            assert rec.rates["V"] == 0.5
            assert rec.m_q == 32

    def test_sym_mode_reduces_and_restores(self):
        sched = ScheduleConfig(rules={"Q": [(0.0, 0.5)]})
        baseline = run_pipeline(small_cfg())
        sym = run_pipeline(small_cfg(rnr_mode="sym", schedule=sched))
        assert sym.total_macs < baseline.total_macs
        assert sym.measured.as_dict() == sym.predicted.as_dict()
        for rec in sym.records:
            assert rec.m_q == rec.m_kv < 32

    def test_sym_mode_warns_on_v_entry(self):
        sched = ScheduleConfig(rules={"Q": [(0.0, 0.5)], "V": [(0.0, 0.3)]})
        with pytest.warns(UserWarning, match="V entry"):
            run_pipeline(small_cfg(rnr_mode="sym", schedule=sched))

    @pytest.mark.parametrize("flag", ["profiling", "collect_norms"])
    def test_sym_run_rejects_full_feature_flags(self, flag):
        # a scheduled symmetric run never projects the full-length input
        sched = ScheduleConfig(rules={"Q": [(0.0, 0.5)]})
        with pytest.raises(ConfigError, match=f"{flag} needs the full feature set"):
            run_pipeline(small_cfg(rnr_mode="sym", schedule=sched, **{flag: True}))

    def test_profile_lattice_mismatch_rejected(self):
        profiled = run_pipeline(small_cfg(profiling=True, num_timesteps=3))
        with pytest.raises(ConfigError, match="lattice"):
            run_pipeline(small_cfg(rnr_mode="asym", num_timesteps=4,
                                   schedule=aggressive_schedule()),
                         profile=profiled.profile)

    @pytest.mark.parametrize("metric, stride", [("cosine", (2, 2, 2)),
                                                ("neg_euclidean", (1, 2, 2))])
    def test_profile_metric_or_stride_mismatch_rejected(self, metric, stride):
        # the profile is recorded with neg_euclidean and stride (2, 2, 2)
        profile = run_pipeline(small_cfg(profiling=True)).profile
        with pytest.raises(ConfigError, match="profile was recorded with"):
            run_pipeline(small_cfg(rnr_mode="asym", schedule=aggressive_schedule(
                metric=metric, stride=stride)), profile=profile)

    def test_matching_work_is_counted_as_it_ran(self, monkeypatch):
        # a matching that reports one evaluation fewer than the cost model
        # predicts must break measured-vs-predicted parity
        real = schedule_mod.pairwise_best_match

        def under_reported(*args, **kwargs):
            match = real(*args, **kwargs)
            return dataclasses.replace(match, num_evals=match.num_evals - 1)

        monkeypatch.setattr(schedule_mod, "pairwise_best_match", under_reported)
        with pytest.raises(InvariantError, match="diverge"):
            run_pipeline(small_cfg(rnr_mode="asym", schedule=aggressive_schedule()))

    def test_non_finite_block_output_names_the_block(self, monkeypatch):
        real = pipeline_mod.attn_plain
        calls = []

        def nan_at_t1_b1(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 4:  # 2 blocks per step: the 4th is (t=1, b=1)
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(pipeline_mod, "attn_plain", nan_at_t1_b1)
        with pytest.raises(InvariantError, match=r"block \(t=1, b=1\)"):
            run_pipeline(small_cfg(rnr_mode="asym", schedule=aggressive_schedule()))

    def test_sym_run_thresholds_the_q_profile(self):
        # a symmetric run reads the Q entries of the profile, and only those
        full = run_pipeline(small_cfg(profiling=True)).profile

        def only(feature):
            return dataclasses.replace(full, features=(feature,), records=[
                r for r in full.records if r.feature == feature])

        cfg = small_cfg(rnr_mode="sym", schedule=ScheduleConfig(rules={"Q": [(0.3, 0.5)]}))
        with pytest.raises(ConfigError, match=r"profile lacks features \['Q'\]"):
            run_pipeline(cfg, profile=only("H"))
        assert (run_pipeline(cfg, profile=only("Q")).checksum
                == run_pipeline(cfg, profile=full).checksum)

    def test_sym_v_only_schedule_matches_nothing(self):
        sched = ScheduleConfig(rules={"V": [(0.0, 0.5)]})
        with pytest.warns(UserWarning, match="V entry"):
            report = run_pipeline(small_cfg(rnr_mode="sym", schedule=sched))
        assert all(rec.rates == {} and rec.recomputed == () for rec in report.records)
        assert report.measured.matching == 0
        assert report.checksum == run_pipeline(small_cfg()).checksum

    def test_empty_rule_is_not_matched(self):
        v_only = run_pipeline(small_cfg(rnr_mode="asym", schedule=ScheduleConfig(
            rules={"V": [(0.0, 0.5)]})))
        empty_q = run_pipeline(small_cfg(rnr_mode="asym", schedule=ScheduleConfig(
            rules={"Q": [], "V": [(0.0, 0.5)]})))
        for rec in empty_q.records:
            assert rec.rates == {"V": 0.5}
            assert rec.recomputed == (("V",) if rec.t == 0 else ())
        assert empty_q.measured.as_dict() == v_only.measured.as_dict()
        assert empty_q.checksum == v_only.checksum

    def test_mean_reduce_op_runs(self):
        report = run_pipeline(small_cfg(rnr_mode="asym", reduce_op="mean",
                                        schedule=aggressive_schedule()))
        assert report.total_macs > 0


class TestProfiling:
    def test_profile_lattice_complete(self):
        report = run_pipeline(small_cfg(profiling=True))
        prof = report.profile
        assert prof is not None
        assert len(prof.records) == 4 * 2 * 4  # steps x blocks x features
        assert set(prof.features) == {"H", "Q", "K", "V"}

    def test_profile_values_standardized(self):
        prof = run_pipeline(small_cfg(profiling=True, num_timesteps=6)).profile
        stds = [r.sim_std for r in prof.records]
        assert min(stds) >= 0.0 and max(stds) <= 1.0

    def test_profile_byte_stable_across_runs(self):
        a = run_pipeline(small_cfg(profiling=True)).profile.to_json()
        b = run_pipeline(small_cfg(profiling=True)).profile.to_json()
        assert a == b

    def test_duplicates_raise_raw_similarity(self):
        clean = run_pipeline(small_cfg(profiling=True)).profile
        dup = run_pipeline(small_cfg(profiling=True,
                                     duplicate_fraction=0.5)).profile
        mean_raw = lambda p: np.mean([r.sim_raw for r in p.records
                                      if r.feature == "H"])
        assert mean_raw(dup) > mean_raw(clean)

    def test_scheduled_run_auto_profiles_when_missing(self):
        report = run_pipeline(small_cfg(rnr_mode="asym",
                                        schedule=aggressive_schedule()))
        assert report.total_macs > 0  # pre-pass happened internally


class TestInjectDuplicates:
    def test_zero_fraction_is_identity(self):
        tokens = make_rng(0).standard_normal((18, 4))
        out = inject_duplicates(tokens, 0.0, make_rng(1))
        assert np.array_equal(out, tokens)

    def test_half_fraction_produces_duplicates(self):
        tokens = make_rng(2).standard_normal((100, 4))
        before = tokens.copy()
        out = inject_duplicates(tokens, 0.5, make_rng(3))
        assert out.shape == (100, 4)
        assert np.array_equal(tokens, before)  # the input is left as it was
        rounded = [tuple(row) for row in out]
        from collections import Counter
        counts = Counter(rounded)
        duplicated = sum(c for c in counts.values() if c > 1)
        assert duplicated >= 50

    def test_deviation_shrinks_with_duplicate_fraction(self):
        # With more exact redundancy, more of the discarded queries replicate
        # their representative exactly, so the mean row deviation from plain
        # attention falls. One step and one block isolate the attention-level
        # effect from trajectory compounding.
        sched = ScheduleConfig(rules={"Q": [(0.0, 0.3)]})
        mean_devs = []
        for fraction in (0.0, 0.25, 0.5):
            devs = []
            for seed in range(10):
                kw = dict(grid_shape=(4, 8, 8), feature_dim=16, num_blocks=1,
                          num_heads=1, num_timesteps=1, seed=300 + seed,
                          duplicate_fraction=fraction)
                base = run_pipeline(PipelineConfig(**kw))
                red = run_pipeline(PipelineConfig(**kw, rnr_mode="asym",
                                                  schedule=sched))
                devs.append(np.linalg.norm(
                    red.final_tokens - base.final_tokens, axis=1).mean())
            mean_devs.append(float(np.mean(devs)))
        assert mean_devs[0] > mean_devs[1] > mean_devs[2]


class TestConfigHandling:
    def test_json_round_trip(self):
        cfg = small_cfg(rnr_mode="asym", schedule=aggressive_schedule())
        again = PipelineConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            PipelineConfig.from_json(json.dumps({"grid": [2, 2, 2]}))

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            small_cfg(feature_dim=10, num_heads=4)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="rnr_mode"):
            small_cfg(rnr_mode="fast")

    def test_weight_entries_are_bounded(self):
        below = dict(grid_shape=(1, 1, 1), feature_dim=1 << 13, num_blocks=1,
                     num_heads=1, num_timesteps=1)
        PipelineConfig(**below)  # 3 x 2^26 entries
        with pytest.raises(ConfigError, match="weight entries"):
            PipelineConfig(**{**below, "num_blocks": 2})  # 6 x 2^26 > 2^28

    def test_token_entries_are_bounded(self):
        # construction allocates nothing, so the bound is checked cheaply
        at_bound = dict(grid_shape=(1 << 16, 8, 8), feature_dim=64, num_heads=1)
        PipelineConfig(**at_bound)
        with pytest.raises(ConfigError, match="token entries"):
            PipelineConfig(**{**at_bound, "feature_dim": 66})
        with pytest.raises(ConfigError, match="token entries"):
            PipelineConfig(grid_shape=(10**300, 1, 1))

    def test_stride_needs_a_complete_chunk_when_matching_runs(self):
        flat = dict(grid_shape=(1, 8, 8), feature_dim=8, num_heads=1)
        PipelineConfig(**flat)  # nothing is matched: accepted
        PipelineConfig(**flat, rnr_mode="asym",
                       schedule=aggressive_schedule(stride=(1, 2, 2)))
        with pytest.raises(ConfigError, match="no complete chunk"):
            PipelineConfig(**flat, profiling=True)
        with pytest.raises(ConfigError, match="no complete chunk"):
            PipelineConfig(**flat, rnr_mode="asym", schedule=aggressive_schedule())

    def test_from_json_checks_the_embedded_schedule(self):
        sched = ScheduleConfig(rules={"Q": [(0.0, 0.5)]})
        payload = json.loads(small_cfg(rnr_mode="sym", schedule=sched).to_json())
        payload["profiling"] = True
        with pytest.raises(ConfigError, match="profiling needs the full feature set"):
            PipelineConfig.from_json(json.dumps(payload))

    def test_rope_needs_even_width(self):
        with pytest.raises(ConfigError, match="rotary"):
            run_pipeline(PipelineConfig(grid_shape=(2, 2, 2), feature_dim=5,
                                        num_blocks=1, num_heads=1,
                                        num_timesteps=1, rope=True))


class TestNormStats:
    def test_unit_rows_give_unit_percentiles(self):
        mat = make_rng(4).standard_normal((50, 6))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        stats = row_norm_percentiles(mat)
        for key in ("p5", "p50", "p95", "p99"):
            assert stats[key] == pytest.approx(1.0, abs=1e-12)

    def test_heavy_tail_shows_in_p99(self):
        rng = make_rng(5)
        mat = rng.standard_normal((500, 4))
        mat[:10] *= 100.0
        stats = row_norm_percentiles(mat)
        assert stats["p99"] > 10 * stats["p50"]

    def test_collect_norms_covers_lattice(self):
        report = run_pipeline(small_cfg(collect_norms=True))
        assert len(report.norm_records) == 4 * 2 * 2  # steps x blocks x {H, V}
        keys = {(r["feature"], r["t"], r["b"]) for r in report.norm_records}
        assert ("H", 0, 0) in keys and ("V", 3, 1) in keys


class TestReportSerialization:
    def test_report_json_schema(self):
        report = run_pipeline(small_cfg())
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert payload["total_flops"] == 2 * payload["total_macs"]
        assert len(payload["records"]) == 4 * 2

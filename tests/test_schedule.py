import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenrnr.core import make_rng
from tokenrnr.errors import ConfigError
from tokenrnr.matching import partition_3d, pairwise_best_match
from tokenrnr.schedule import (ScheduleConfig, SimilarityProfile,
                               TuneStep, cached_match, lookup_rate,
                               record_profile, tune_schedule)

REFERENCE_SCHEDULE_JSON = """
{"Q": {"0.6": 0.4, "0.7": 0.8}, "V": {"0.8": 0.3},
 "cache_step": 5, "stride": [2, 2, 2], "metric": "neg_euclidean"}
"""


def profile_with(values):
    """Build a 1-step, 1-block profile per feature from given std values."""
    records = []
    for feature in ("H", "Q", "K", "V"):
        raw = values.get(feature, 0.5)
        records.append((feature, 0, 0, raw, raw, raw))
    prof = record_profile(records, num_timesteps=1, num_blocks=1,
                          grid_shape=(2, 2, 2), stride=(2, 2, 2),
                          metric="neg_euclidean")
    return prof


def fixed_profile(q=0.5, v=0.5):
    """Profile whose standardized values are pinned directly."""
    from tokenrnr.schedule import ProfileRecord
    records = [ProfileRecord(f, 0, 0, 0.0, std, 0.0, 0.0)
               for f, std in (("H", 0.5), ("Q", q), ("K", 0.5), ("V", v))]
    return SimilarityProfile(num_timesteps=1, num_blocks=1,
                             features=("H", "Q", "K", "V"),
                             grid_shape=(2, 2, 2), stride=(2, 2, 2),
                             metric="neg_euclidean", records=records)


class TestScheduleConfig:
    def test_reference_json_round_trip(self):
        cfg = ScheduleConfig.from_json(REFERENCE_SCHEDULE_JSON)
        assert cfg.rules["Q"] == [(0.6, 0.4), (0.7, 0.8)]
        assert cfg.rules["V"] == [(0.8, 0.3)]
        assert cfg.cache_step == 5
        again = ScheduleConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_threshold_keys_are_decimal_strings(self):
        cfg = ScheduleConfig(rules={"Q": [(0.6, 0.4)]})
        payload = json.loads(cfg.to_json())
        assert payload["Q"] == {"0.6": 0.4}

    def test_only_q_and_v_allowed(self):
        with pytest.raises(ConfigError, match="K always follows V"):
            ScheduleConfig(rules={"K": [(0.5, 0.2)]})

    def test_rate_range_enforced(self):
        with pytest.raises(ConfigError, match="rates"):
            ScheduleConfig(rules={"Q": [(0.5, 1.0)]})

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ScheduleConfig(rules={"Q": [(0.5, 0.2), (0.5, 0.4)]})

    def test_decreasing_rates_warn(self):
        with pytest.warns(UserWarning, match="decrease"):
            ScheduleConfig(rules={"Q": [(0.5, 0.8), (0.7, 0.3)]})


class TestLookupRate:
    def setup_method(self):
        self.cfg = ScheduleConfig.from_json(REFERENCE_SCHEDULE_JSON)

    @pytest.mark.parametrize("sim,expected", [
        (0.59, 0.0), (0.60, 0.4), (0.65, 0.4), (0.70, 0.8), (0.75, 0.8),
    ])
    def test_q_thresholds(self, sim, expected):
        assert lookup_rate(self.cfg, fixed_profile(q=sim), "Q", 0, 0) == expected

    def test_v_threshold(self):
        assert lookup_rate(self.cfg, fixed_profile(v=0.8), "V", 0, 0) == 0.3
        assert lookup_rate(self.cfg, fixed_profile(v=0.79), "V", 0, 0) == 0.0

    def test_missing_lattice_point_is_an_error(self):
        with pytest.raises(KeyError, match="no entry"):
            lookup_rate(self.cfg, fixed_profile(), "Q", 3, 0)

    def test_feature_without_rules_gives_identity(self):
        cfg = ScheduleConfig(rules={"Q": [(0.5, 0.4)]})
        assert lookup_rate(cfg, fixed_profile(v=0.9), "V", 0, 0) == 0.0

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.99)),
                    min_size=1, max_size=5, unique_by=lambda p: round(p[0], 3)),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_similarity(self, rules, s_low, s_high):
        rules = sorted((round(t, 3), r) for t, r in rules)
        rates = [r for _, r in rules]
        rules = [(t, r) for (t, _), r in zip(rules, sorted(rates))]
        cfg = ScheduleConfig(rules={"Q": rules})
        lo, hi = min(s_low, s_high), max(s_low, s_high)
        assert (lookup_rate(cfg, fixed_profile(q=lo), "Q", 0, 0)
                <= lookup_rate(cfg, fixed_profile(q=hi), "Q", 0, 0))


class TestProfile:
    def test_lattice_completeness_and_counts(self):
        entries = [(f, t, b, 0.1 * t + 0.01 * b, 0.0, 1.0)
                   for f in ("H", "Q", "K", "V")
                   for t in range(3) for b in range(2)]
        prof = record_profile(entries, num_timesteps=3, num_blocks=2,
                              grid_shape=(2, 2, 2), stride=(2, 2, 2),
                              metric="neg_euclidean")
        assert len(prof.records) == 3 * 2 * 4

    def test_single_point_maps_to_half(self):
        prof = profile_with({"Q": -3.7})
        assert prof.get("Q", 0, 0) == 0.5

    def test_standardization_runs_per_feature(self):
        entries = []
        for t in range(21):
            entries.append(("Q", t, 0, float(t), 0.0, 1.0))
            entries.append(("H", t, 0, 5.0, 0.0, 1.0))       # constant
            entries.append(("K", t, 0, -float(t), 0.0, 1.0))
            entries.append(("V", t, 0, float(t % 3), 0.0, 1.0))
        prof = record_profile(entries, num_timesteps=21, num_blocks=1,
                              grid_shape=(2, 2, 2), stride=(2, 2, 2),
                              metric="neg_euclidean")
        assert prof.get("H", 10, 0) == 0.5
        assert prof.get("Q", 0, 0) == 0.0
        assert prof.get("Q", 20, 0) == 1.0
        assert prof.get("K", 0, 0) == 1.0  # negated ramp standardizes reversed

    def test_empty_run_rejected(self):
        with pytest.raises(ConfigError, match="0 records"):
            record_profile([], num_timesteps=1, num_blocks=1,
                           grid_shape=(2, 2, 2), stride=(2, 2, 2),
                           metric="neg_euclidean")

    def test_incomplete_lattice_rejected(self):
        entries = [("Q", 0, 0, 1.0, 0.0, 1.0)]
        with pytest.raises(ConfigError, match="feature"):
            record_profile(entries, num_timesteps=1, num_blocks=1,
                           grid_shape=(2, 2, 2), stride=(2, 2, 2),
                           metric="neg_euclidean")
        full = [(f, 0, 0, 1.0, 0.0, 1.0) for f in ("H", "Q", "K", "V")]
        with pytest.raises(ConfigError, match="lattice"):
            record_profile(full, num_timesteps=2, num_blocks=1,
                           grid_shape=(2, 2, 2), stride=(2, 2, 2),
                           metric="neg_euclidean")

    def test_unknown_feature_rejected_even_when_records_match(self):
        prof = fixed_profile()
        records = [dataclasses.replace(r, feature="X") if r.feature == "V" else r
                   for r in prof.records]
        with pytest.raises(ConfigError, match="features"):
            dataclasses.replace(prof, features=("H", "Q", "K", "X"), records=records)

    @pytest.mark.parametrize("field, value", [
        ("metric", "bogus"), ("features", "HQKV"), ("num_timesteps", "3")])
    def test_python_built_profile_checks_its_fields(self, field, value):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(fixed_profile(), **{field: value})

    @pytest.mark.parametrize("field, value", [("t", 0.5), ("sim_std", math.nan)])
    def test_python_built_record_checks_its_fields(self, field, value):
        record = fixed_profile().records[0]
        with pytest.raises(ConfigError, match=f"^{field} must"):
            dataclasses.replace(record, **{field: value})

    def test_nan_mean_rejected(self):
        # one NaN would make the feature's whole standardized profile NaN,
        # where lookup_rate's bisect gives the top rate at every step
        entries = [(f, t, 0, math.nan if (f, t) == ("Q", 1) else 0.1 * t, 0.0, 1.0)
                   for f in ("H", "Q", "K", "V") for t in range(3)]
        with pytest.raises(ConfigError, match="finite"):
            record_profile(entries, num_timesteps=3, num_blocks=1,
                           grid_shape=(2, 2, 2), stride=(2, 2, 2),
                           metric="neg_euclidean")

    def test_unknown_top_level_key_rejected(self):
        payload = json.loads(profile_with({"Q": 0.25}).to_json())
        payload["note"] = "x"
        with pytest.raises(ConfigError, match="note"):
            SimilarityProfile.from_json(json.dumps(payload))

    def test_json_round_trip_is_byte_stable(self, tmp_path):
        prof = profile_with({"Q": 0.25})
        text = prof.to_json()
        again = SimilarityProfile.from_json(text)
        assert again.to_json() == text
        path = tmp_path / "p.json"
        prof.to_file(path)
        prof.to_file(path.with_suffix(".2.json"))
        assert path.read_bytes() == path.with_suffix(".2.json").read_bytes()


class TestMatchingCache:
    def run_steps(self, cache_step, num_steps, redraw_tokens=False):
        rng = make_rng(0)
        part = partition_3d((2, 4, 4), (2, 2, 2), rng)
        cache = {}
        results = []
        for t in range(num_steps):
            tokens = make_rng(1000 + (t if redraw_tokens else 0)).standard_normal(
                (part.n_tokens, 4))
            res, fresh = cached_match(cache, cache_step, "V", 0, t, tokens,
                                      part, "neg_euclidean")
            results.append((res, fresh, tokens))
        return cache, results, part

    def test_step_one_recomputes_every_step(self):
        cache, results, _ = self.run_steps(1, 6)
        assert all(fresh for _, fresh, _ in results)
        assert sum(fresh for _, fresh, _ in results) == 6

    def test_reuse_within_window(self):
        cache, results, _ = self.run_steps(5, 8, redraw_tokens=True)
        # t=7 must reuse the entry computed at t=5
        assert results[7][1] is False
        assert results[7][0] is results[5][0]
        assert results[5][1] is True

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_invocation_count_law(self, s):
        cache, results, _ = self.run_steps(s, 30, redraw_tokens=True)
        assert sum(fresh for _, fresh, _ in results) == math.ceil(30 / s)

    def test_cached_equals_fresh_at_multiples(self):
        cache, results, part = self.run_steps(3, 12, redraw_tokens=True)
        for t in range(0, 12, 3):
            res, fresh, tokens = results[t]
            assert fresh
            fresh_res = pairwise_best_match(tokens, part, "neg_euclidean")
            assert np.array_equal(res.best_dst, fresh_res.best_dst)
            assert np.array_equal(res.best_sim, fresh_res.best_sim)
            assert np.array_equal(res.reduce_order, fresh_res.reduce_order)

    def test_second_call_at_window_start_is_served(self):
        rng = make_rng(3)
        part = partition_3d((2, 2, 2), (2, 2, 2), rng)
        tokens = rng.standard_normal((part.n_tokens, 3))
        cache = {}
        first, fresh = cached_match(cache, 5, "Q", 0, 5, tokens, part, "neg_euclidean")
        assert fresh
        again, fresh = cached_match(cache, 5, "Q", 0, 5, tokens, part, "neg_euclidean")
        assert not fresh and again is first

    def test_out_of_band_entry_heals(self):
        rng = make_rng(2)
        part = partition_3d((2, 2, 2), (2, 2, 2), rng)
        tokens = rng.standard_normal((part.n_tokens, 3))
        cache = {}
        _, fresh = cached_match(cache, 5, "Q", 0, 7, tokens, part, "neg_euclidean")
        assert fresh  # nothing stored yet
        _, fresh = cached_match(cache, 5, "Q", 0, 8, tokens, part, "neg_euclidean")
        assert fresh  # stored entry is not from this window's start
        _, fresh = cached_match(cache, 5, "Q", 0, 9, tokens, part, "neg_euclidean")
        assert fresh


class TestTuneSchedule:
    def test_always_good_stops_at_rate_cap(self):
        calls = []

        def oracle(cfg):
            calls.append(cfg.rules["Q"][0])
            return True

        result = tune_schedule(oracle)
        assert result.accepted
        assert result.config.rules["Q"] == [(0.5, 0.9)]
        assert result.trace == (
            TuneStep(0.5, 0.3, True), TuneStep(0.5, 0.5, True),
            TuneStep(0.5, 0.7, True), TuneStep(0.5, 0.9, True))

    def test_rate_ceiling_lifts_threshold_once_then_stops(self):
        def oracle(cfg):
            (_, rate), = cfg.rules["Q"]
            return rate <= 0.5

        result = tune_schedule(oracle)
        assert result.accepted
        assert result.config.rules["Q"] == [(0.6, 0.5)]
        assert result.trace == (
            TuneStep(0.5, 0.3, True), TuneStep(0.5, 0.5, True),
            TuneStep(0.5, 0.7, False), TuneStep(0.6, 0.5, True),
            TuneStep(0.6, 0.7, False))

    def test_always_bad_returns_flagged_identity(self):
        result = tune_schedule(lambda cfg: False)
        assert not result.accepted
        assert result.config.rules == {}
        assert result.trace == (TuneStep(0.5, 0.3, False),)

    def test_threshold_sensitive_oracle_walks_up(self):
        # good when the reduction is gated strictly enough: rate - threshold <= 0.2
        def oracle(cfg):
            (thr, rate), = cfg.rules["Q"]
            return rate - thr <= 0.2

        result = tune_schedule(oracle)
        assert result.accepted
        (thr, rate), = result.config.rules["Q"]
        assert rate - thr <= 0.2
        # every trace step follows the walk rule: rates move in 0.2 steps,
        # thresholds in 0.1 lifts
        for step in result.trace:
            assert round(step.rate * 10) in range(3, 10, 2)

    def test_call_budget_respected(self):
        calls = []

        def oracle(cfg):
            calls.append(1)
            (thr, rate), = cfg.rules["Q"]
            return rate <= 0.31 or thr >= 0.89  # forces a long walk

        tune_schedule(oracle)
        assert len(calls) <= 10

    def test_tuned_feature_is_configurable(self):
        result = tune_schedule(lambda cfg: True, feature="V")
        assert "V" in result.config.rules

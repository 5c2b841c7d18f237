import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenrnr import rnr
from tokenrnr.core import apply_rope_tables, make_rng, rope3d_tables
from tokenrnr.flops import CostBreakdown, cost_plain
from tokenrnr.matching import partition_3d, pairwise_best_match
from tokenrnr.pipeline import attn_asym_rnr, attn_sym_rnr
from tokenrnr.rnr import (ReductionPlan, attn_plain, build_plan, reduce_tokens,
                          restore_tokens)

from oracles import (check_plan, gather_rows, identity_plan, mean_merge_rows,
                     naive_attention)


def toy_match(seed=0, shape=(2, 2, 2), stride=(2, 2, 1), d=4,
              metric="neg_euclidean"):
    rng = make_rng(seed)
    part = partition_3d(shape, stride, rng)
    tokens = rng.standard_normal((part.n_tokens, d))
    return tokens, part, pairwise_best_match(tokens, part, metric, rng)


def single_rep_plan(n, discard, rep):
    kept = np.array([i for i in range(n) if i != discard])
    return ReductionPlan(kept=kept, discarded=np.array([discard]),
                         reps=np.array([rep]), original_len=n)


class TestBuildPlan:
    def test_zero_rate_is_identity(self):
        tokens, part, match = toy_match()
        plan = build_plan(match, part, 0.0)
        assert np.array_equal(plan.kept, np.arange(part.n_tokens))
        assert len(plan.discarded) == 0
        check_plan(plan)

    def test_discard_count_arithmetic_at_scale(self):
        # grid (13,30,45) with stride (2,2,2): 15570 sources, rate 0.3 -> 4671
        rng = make_rng(0)
        part = partition_3d((13, 30, 45), (2, 2, 2), rng)
        assert part.n_src == 15570
        tokens = rng.standard_normal((part.n_tokens, 2))
        match = pairwise_best_match(tokens, part, "neg_euclidean")
        plan = build_plan(match, part, 0.3)
        assert len(plan.discarded) == math.floor(0.3 * 15570) == 4671
        assert plan.m == 17550 - 4671

    def test_rate_bounds(self):
        tokens, part, match = toy_match()
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="rate"):
                build_plan(match, part, bad)

    def test_discards_are_top_similarity_sources(self):
        tokens, part, match = toy_match(seed=3, shape=(1, 2, 3), stride=(1, 1, 3))
        rate = 0.5
        plan = build_plan(match, part, rate)
        n_discard = math.floor(rate * part.n_src)
        sims = sorted(match.best_sim, reverse=True)
        threshold = sims[n_discard - 1]
        discarded_sims = {float(match.best_sim[list(part.src_indices).index(i)])
                          for i in plan.discarded}
        assert all(s >= threshold for s in discarded_sims)
        check_plan(plan)

    def test_only_sources_discarded(self):
        tokens, part, match = toy_match(seed=4, shape=(4, 3, 3), stride=(2, 3, 3))
        plan = build_plan(match, part, 0.9)
        assert not set(plan.discarded) & set(part.dst_indices)
        assert set(plan.reps) <= set(part.dst_indices)


class TestCheckPlanOracle:
    """check_plan stands in for a library check, so it is tested itself."""

    @pytest.mark.parametrize("kept, discarded, reps, message", [
        ([0, 2, 3], [1], [1], "representative"),    # the rep was discarded
        ([0, 2], [1], [0], "partition"),            # index 3 is missing
        ([0, 2, 3], [1], [0, 2], "align"),          # reps longer than discarded
    ])
    def test_rejects_bad_plans(self, kept, discarded, reps, message):
        plan = ReductionPlan(kept=np.array(kept), discarded=np.array(discarded),
                             reps=np.array(reps), original_len=4)
        with pytest.raises(AssertionError, match=message):
            check_plan(plan)

    def test_accepts_the_identity_and_a_built_plan(self):
        tokens, part, match = toy_match(seed=2, shape=(2, 3, 2), stride=(2, 1, 2))
        check_plan(identity_plan(part.n_tokens))
        check_plan(build_plan(match, part, 0.6))


class TestReduceRestore:
    def test_zero_rate_roundtrip_identity(self):
        rng = make_rng(5)
        tokens = rng.standard_normal((10, 3))
        plan = identity_plan(10)
        assert np.array_equal(reduce_tokens(tokens, plan), tokens)
        assert np.array_equal(restore_tokens(tokens, plan), tokens)

    def test_mean_of_identical_tokens_is_unchanged(self):
        rng = make_rng(6)
        tokens = rng.standard_normal((6, 4))
        tokens[4] = tokens[1]
        plan = single_rep_plan(6, discard=4, rep=1)
        reduced = reduce_tokens(tokens, plan, "mean")
        kept_pos = list(plan.kept).index(1)
        assert np.array_equal(reduced[kept_pos], tokens[1])

    def test_row_map_is_shared_and_inputs_stay_untouched(self):
        rng = make_rng(8)
        tokens = rng.standard_normal((6, 3))
        plan = single_rep_plan(6, discard=4, rep=1)
        assert plan.row_map is plan.row_map
        assert list(plan.row_map) == [0, 1, 2, 3, 1, 4]
        with pytest.raises(ValueError):
            plan.row_map[0] = 1
        before = tokens.copy()
        reduced = reduce_tokens(tokens, plan, "mean")
        restore_tokens(reduced, plan)
        assert np.array_equal(tokens, before)

    def test_reduce_against_gather_and_mean_oracles(self):
        rng = make_rng(7)
        tokens = rng.standard_normal((9, 5))
        kept = np.array([0, 2, 3, 5, 8])
        discarded = np.array([1, 4, 6, 7])
        reps = np.array([0, 3, 3, 8])
        plan = ReductionPlan(kept=kept, discarded=discarded, reps=reps,
                             original_len=9)
        assert np.array_equal(reduce_tokens(tokens, plan, "discard"),
                              gather_rows(tokens, kept))
        expected = mean_merge_rows(tokens, kept, dict(zip(discarded, reps)))
        assert np.abs(reduce_tokens(tokens, plan, "mean") - expected).max() <= 1e-12

    def test_restore_replicates_representatives(self):
        rng = make_rng(8)
        tokens = rng.standard_normal((7, 3))
        plan = ReductionPlan(kept=np.array([0, 2, 4, 5, 6]),
                             discarded=np.array([1, 3]),
                             reps=np.array([4, 4]), original_len=7)
        reduced = reduce_tokens(tokens, plan)
        restored = restore_tokens(reduced, plan)
        rep_row = tokens[4]
        assert np.array_equal(restored[1], rep_row)
        assert np.array_equal(restored[3], rep_row)
        for i in plan.kept:
            assert np.array_equal(restored[i], tokens[i])

    def test_restore_of_reduce_composition(self):
        tokens, part, match = toy_match(seed=9, shape=(2, 3, 2), stride=(2, 1, 2))
        plan = build_plan(match, part, 0.6)
        roundtrip = restore_tokens(reduce_tokens(tokens, plan), plan)
        rep_of = dict(zip(plan.discarded, plan.reps))
        for i in range(part.n_tokens):
            expected = tokens[rep_of[i]] if i in rep_of else tokens[i]
            assert np.array_equal(roundtrip[i], expected)

    def test_shape_validation(self):
        plan = identity_plan(4)
        with pytest.raises(ValueError, match="token count"):
            reduce_tokens(np.ones((5, 2)), plan)
        with pytest.raises(ValueError, match="rows"):
            restore_tokens(np.ones((3, 2)), plan)
        with pytest.raises(ValueError, match="op"):
            reduce_tokens(np.ones((4, 2)), plan, "median")


class TestAttnPlain:
    def test_single_token_returns_value(self):
        rng = make_rng(10)
        q = rng.standard_normal((1, 4))
        k = rng.standard_normal((1, 4))
        v = rng.standard_normal((1, 4))
        assert np.array_equal(attn_plain(q, k, v), v)

    def test_identical_keys_give_uniform_mixing(self):
        rng = make_rng(11)
        q = rng.standard_normal((5, 4))
        k = np.tile(rng.standard_normal((1, 4)), (6, 1))
        v = rng.standard_normal((6, 4))
        out = attn_plain(q, k, v)
        expected = np.tile(v.mean(axis=0), (5, 1))
        assert np.abs(out - expected).max() <= 1e-12

    def test_against_naive_oracle(self):
        rng = make_rng(12)
        q = rng.standard_normal((8, 4))
        k = rng.standard_normal((8, 4))
        v = rng.standard_normal((8, 4))
        assert np.abs(attn_plain(q, k, v) - naive_attention(q, k, v)).max() <= 1e-12

    def test_chunk_seams_match_dense_softmax(self):
        chunk = rnr._ATTN_CHUNK_ELEMS // 16384
        assert 600 // chunk >= 2 and 600 % chunk > 0   # a short last chunk
        rng = make_rng(14)
        q = rng.standard_normal((600, 16))
        k = rng.standard_normal((16384, 16))
        v = rng.standard_normal((16384, 16))
        scores = (q @ k.T) / math.sqrt(16)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        want = (weights / weights.sum(axis=1, keepdims=True)) @ v
        assert np.abs(attn_plain(q, k, v) - want).max() <= 1e-12

    def test_counter_categories(self):
        counter = CostBreakdown()
        rng = make_rng(13)
        attn_plain(rng.standard_normal((6, 4)), rng.standard_normal((10, 4)),
                   rng.standard_normal((10, 4)), counter=counter)
        assert counter.qk_matmul == 6 * 10 * 4
        assert counter.av_matmul == 6 * 10 * 4
        assert counter.softmax == 5 * 6 * 10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            attn_plain(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            attn_plain(np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="heads"):
            attn_plain(np.ones((2, 8)), np.ones((2, 8)), np.ones((2, 8)), num_heads=3)


class TestMultiHead:
    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    def test_against_per_head_oracle(self, num_heads):
        rng = make_rng(15)
        q = rng.standard_normal((9, 8))
        k = rng.standard_normal((13, 8))
        v = rng.standard_normal((13, 12))
        d_h, dv_h = 8 // num_heads, 12 // num_heads
        want = np.concatenate(
            [naive_attention(q[:, h * d_h:(h + 1) * d_h], k[:, h * d_h:(h + 1) * d_h],
                             v[:, h * dv_h:(h + 1) * dv_h])
             for h in range(num_heads)], axis=1)
        got = attn_plain(q, k, v, num_heads=num_heads)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    def test_counter_matches_cost_model(self, num_heads):
        rng = make_rng(16)
        q, k, v = (rng.standard_normal((10, 8)) for _ in range(3))
        counter = CostBreakdown()
        attn_plain(q, k, v, num_heads=num_heads, counter=counter)
        model = cost_plain(10, 8, num_heads)
        assert (counter.qk_matmul, counter.av_matmul, counter.softmax) == \
            (model.qk_matmul, model.av_matmul, model.softmax)
        assert counter.projections == counter.matching == 0

    def test_operators_without_plans_are_plain_attention(self):
        rng = make_rng(17)
        grid, n, d = (2, 2, 3), 12, 8
        q, k, v, h = (rng.standard_normal((n, d)) for _ in range(4))
        w_q, w_k, w_v = (rng.standard_normal((d, d)) for _ in range(3))
        assert np.array_equal(attn_asym_rnr(q, k, v, None, None, num_heads=2),
                              attn_plain(q, k, v, num_heads=2))
        rot = rope3d_tables(grid, d)
        plain = attn_plain(apply_rope_tables(h @ w_q, rot),
                           apply_rope_tables(h @ w_k, rot), h @ w_v, num_heads=2)
        assert np.array_equal(attn_sym_rnr(h, (w_q, w_k, w_v), None,
                                           rope_tables=rot, num_heads=2), plain)


class TestSymRnr:
    def setup_method(self):
        rng = make_rng(20)
        self.d = 6
        self.weights = tuple(rng.standard_normal((self.d, self.d)) / np.sqrt(self.d)
                             for _ in range(3))

    def plain_reference(self, h):
        w_q, w_k, w_v = self.weights
        return attn_plain(h @ w_q, h @ w_k, h @ w_v)

    def test_zero_rate_equals_plain(self):
        rng = make_rng(21)
        h = rng.standard_normal((24, self.d))
        out = attn_sym_rnr(h, self.weights, identity_plan(24))
        assert np.abs(out - self.plain_reference(h)).max() <= 1e-12

    def test_restoration_contract(self):
        rng = make_rng(22)
        h = rng.standard_normal((12, self.d))
        plan = single_rep_plan(12, discard=5, rep=2)
        out = attn_sym_rnr(h, self.weights, plan)
        assert np.array_equal(out[5], out[2])

    def test_duplicate_discard_beats_unique_discard(self):
        # Discarding a duplicated token perturbs the output far less than
        # discarding an informative one, but the softmax renormalization
        # still shifts weights by O(1/n): deviations are small, not 1e-9.
        wins = 0
        for seed in range(30):
            rng = make_rng(2000 + seed)
            h = rng.standard_normal((48, self.d))
            h[9] = h[3]
            plain = self.plain_reference(h)
            dup_dev = np.abs(
                attn_sym_rnr(h, self.weights, single_rep_plan(48, 9, 3)) - plain).max()
            dists = np.linalg.norm(h - h[10], axis=1)
            dists[10] = np.inf
            rep = int(np.argmin(dists))
            uniq_dev = np.abs(
                attn_sym_rnr(h, self.weights, single_rep_plan(48, 10, rep)) - plain).max()
            assert dup_dev <= 1.0  # oracle-derived scale bound at n=48
            wins += dup_dev < uniq_dev
        assert wins >= 24  # >= 80% of trials


class TestAsymRnr:
    def test_zero_rates_equal_plain(self):
        rng = make_rng(30)
        n, d = 32, 8
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        ident = identity_plan(n)
        out = attn_asym_rnr(q, k, v, ident, ident)
        assert np.abs(out - attn_plain(q, k, v)).max() <= 1e-12

    def test_duplicate_query_row_is_exact(self):
        for seed in range(10):
            rng = make_rng(40 + seed)
            n, d = 24, 8
            q = rng.standard_normal((n, d))
            q[7] = q[2]
            k, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
            plain = attn_plain(q, k, v)
            out = attn_asym_rnr(q, k, v, single_rep_plan(n, 7, 2),
                                identity_plan(n))
            assert np.abs(out[7] - plain[7]).max() <= 1e-9

    def test_duplicate_kv_pair_deviation_is_oracle_bounded(self):
        # Removing a bit-identical K/V pair renormalizes the softmax over one
        # fewer key: the weight mass of the duplicate halves, so the output
        # moves by O(weight * value spread). Measured over these seeds the
        # deviation sits in roughly [1e-2, 6e-1]; it is NOT a near-lossless
        # operation at small n, and the bounds below are frozen from the
        # unreduced-attention oracle.
        devs = []
        for seed in range(50):
            rng = make_rng(seed)
            n, d = 24, 8
            q = rng.standard_normal((n, d))
            k = rng.standard_normal((n, d))
            v = rng.standard_normal((n, d))
            k[11] = k[5]
            v[11] = v[5]
            plain = attn_plain(q, k, v)
            out = attn_asym_rnr(q, k, v, identity_plan(n),
                                single_rep_plan(n, 11, 5))
            devs.append(float(np.abs(out - plain).max()))
        assert max(devs) <= 1.0
        assert min(devs) >= 1e-4

    def test_replication_law_exact(self):
        tokens, part, match = toy_match(seed=50, shape=(2, 2, 4), stride=(2, 2, 2), d=8)
        rng = make_rng(51)
        n = part.n_tokens
        q = rng.standard_normal((n, 8))
        k, v = rng.standard_normal((n, 8)), rng.standard_normal((n, 8))
        q_match = pairwise_best_match(q, part, "neg_euclidean")
        plan_q = build_plan(q_match, part, 0.5)
        out = attn_asym_rnr(q, k, v, plan_q, build_plan(q_match, part, 0.0))
        for disc, rep in zip(plan_q.discarded, plan_q.reps):
            assert np.array_equal(out[disc], out[rep])

    def test_output_always_has_original_length(self):
        tokens, part, match = toy_match(seed=52, shape=(2, 3, 4), stride=(2, 3, 2), d=4)
        n = part.n_tokens
        rng = make_rng(53)
        q, k, v = (rng.standard_normal((n, 4)) for _ in range(3))
        for rate_q in (0.0, 0.4, 0.8):
            for rate_kv in (0.0, 0.5):
                pq = build_plan(pairwise_best_match(q, part, "neg_euclidean"), part, rate_q)
                pkv = build_plan(pairwise_best_match(v, part, "neg_euclidean"), part, rate_kv)
                out = attn_asym_rnr(q, k, v, pq, pkv)
                assert out.shape == (n, 4)

    def test_cost_strictly_decreases_with_rate(self):
        tokens, part, match = toy_match(seed=54, shape=(4, 4, 4), stride=(2, 2, 2), d=8)
        n = part.n_tokens
        rng = make_rng(55)
        q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
        q_match = pairwise_best_match(q, part, "neg_euclidean")
        v_match = pairwise_best_match(v, part, "neg_euclidean")
        prev_macs, prev_m = None, None
        for rate in (0.0, 0.2, 0.4, 0.6, 0.8):
            counter = CostBreakdown()
            pq = build_plan(q_match, part, rate)
            pkv = build_plan(v_match, part, rate)
            attn_asym_rnr(q, k, v, pq, pkv, counter=counter)
            macs = counter.total
            if prev_macs is not None:
                if pq.m == prev_m:
                    assert macs == prev_macs
                else:
                    assert macs < prev_macs
            prev_macs, prev_m = macs, pq.m

    def test_exact_redundancy_losslessness(self):
        # every discarded token bit-identical to its representative ->
        # the asymmetric output replicates the plain output
        for seed in range(10):
            rng = make_rng(60 + seed)
            part = partition_3d((2, 4, 4), (2, 2, 2), rng)
            n, d = part.n_tokens, 8
            q = rng.standard_normal((n, d))
            dup_src = rng.choice(part.src_indices, size=10, replace=False)
            q[dup_src] = q[rng.choice(part.dst_indices, size=10)]
            k, v = rng.standard_normal((n, d)), rng.standard_normal((n, d))
            match = pairwise_best_match(q, part, "neg_euclidean")
            rate = (len(dup_src) + 0.5) / part.n_src
            plan_q = build_plan(match, part, rate)
            assert set(plan_q.discarded) == set(dup_src)
            out = attn_asym_rnr(q, k, v, plan_q, build_plan(match, part, 0.0))
            assert np.abs(out - attn_plain(q, k, v)).max() <= 1e-9

    def test_kv_plan_shape_validation(self):
        rng = make_rng(70)
        q = rng.standard_normal((6, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((5, 4))
        ident = identity_plan(6)
        with pytest.raises(ValueError, match="row counts"):
            attn_asym_rnr(q, k, v, ident, ident)


@given(st.integers(0, 10_000), st.integers(2, 20), st.floats(0.0, 0.95))
@settings(max_examples=40, deadline=None)
def test_plan_partition_property(seed, n_src_target, rate):
    rng = make_rng(seed)
    shape = (1, 2, max(2, n_src_target))
    part = partition_3d(shape, (1, 2, 2), rng)
    tokens = rng.standard_normal((part.n_tokens, 3))
    match = pairwise_best_match(tokens, part, "neg_euclidean")
    plan = build_plan(match, part, rate)
    check_plan(plan)
    assert plan.m == part.n_tokens - math.floor(rate * part.n_src)
    restored = restore_tokens(reduce_tokens(tokens, plan), plan)
    assert restored.shape == tokens.shape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenrnr import matching
from tokenrnr.core import make_rng
from tokenrnr.matching import Partition, partition_3d, pairwise_best_match
from tokenrnr.schedule import standardize_profile

from oracles import (direct_similarities, exhaustive_match,
                     sorted_percentile_standardize)

RATIO_TABLE = [
    ((1, 2, 2), 24.44),
    ((2, 2, 2), 11.28),
    ((3, 2, 2), 7.52),
    ((4, 2, 2), 5.64),
    ((2, 3, 3), 5.13),
    ((2, 4, 4), 2.63),
]


class TestPartition:
    @pytest.mark.parametrize("stride,expected_pct", RATIO_TABLE)
    def test_destination_ratio_table(self, stride, expected_pct):
        part = partition_3d((13, 30, 45), stride, make_rng(0))
        assert abs(100 * part.dst_ratio - expected_pct) <= 0.005

    def test_known_counts(self):
        part = partition_3d((13, 30, 45), (2, 2, 2), make_rng(0))
        assert part.n_dst == 1980
        assert part.n_tokens == 17550

    def test_single_complete_chunk(self):
        part = partition_3d((2, 2, 2), (2, 2, 2), make_rng(5))
        assert part.n_dst == 1
        assert part.n_src == 7

    def test_zero_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            partition_3d((4, 4, 4), (0, 2, 2), make_rng(0))

    @given(st.integers(0, 5000), st.integers(1, 7), st.integers(1, 7),
           st.integers(1, 7), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, seed, t, h, w, st_, sh, sw):
        part = partition_3d((t, h, w), (st_, sh, sw), make_rng(seed))
        n = t * h * w
        merged = np.concatenate([part.dst_indices, part.src_indices])
        assert np.array_equal(np.sort(merged), np.arange(n))
        assert part.n_dst == (t // st_) * (h // sh) * (w // sw)

    def test_destinations_fall_in_their_chunks(self):
        part = partition_3d((5, 6, 7), (2, 3, 2), make_rng(11))
        covered = set()
        for flat in part.dst_indices:
            t, rem = divmod(int(flat), 6 * 7)
            h, w = divmod(rem, 7)
            chunk = (t // 2, h // 3, w // 2)
            assert t // 2 < 2 and h // 3 < 2 and w // 2 < 3
            covered.add(chunk)
        assert len(covered) == part.n_dst


class TestBestMatch:
    def test_source_coinciding_with_destination(self):
        rng = make_rng(0)
        tokens = rng.standard_normal((8, 5))
        part = partition_3d((2, 2, 2), (2, 2, 1), rng)
        src_pos = 3
        tokens[part.src_indices[src_pos]] = tokens[part.dst_indices[1]]
        match = pairwise_best_match(tokens, part, "neg_euclidean")
        assert match.best_sim[src_pos] == 0.0
        assert match.best_dst[src_pos] == 1
        assert match.reduce_order[0] == src_pos
        # integer tokens are taken as float64 (neg_euclidean used to fail
        # at its in-place sqrt of an int64 block)
        ints = rng.integers(-5, 6, size=(8, 5))
        ints[part.src_indices[src_pos]] = ints[part.dst_indices[1]]
        for metric in ("neg_euclidean", "cosine", "dot"):
            got = pairwise_best_match(ints, part, metric)
            want = pairwise_best_match(ints.astype(np.float64), part, metric)
            assert np.array_equal(got.best_dst, want.best_dst)
            assert np.array_equal(got.best_sim, want.best_sim)

    def test_small_case_against_exhaustive_oracle(self):
        rng = make_rng(1)
        tokens = rng.standard_normal((6, 4))
        part = partition_3d((1, 2, 3), (1, 1, 3), rng)  # 2 dst / 4 src
        match = pairwise_best_match(tokens, part, "neg_euclidean")
        sims = direct_similarities(tokens[part.src_indices],
                                   tokens[part.dst_indices], "neg_euclidean")
        best_dst, best_sim, order = exhaustive_match(sims)
        assert np.array_equal(match.best_dst, best_dst)
        assert np.array_equal(match.best_sim, best_sim)
        assert np.array_equal(match.reduce_order, order)

    @pytest.mark.parametrize("metric", ["neg_euclidean", "cosine", "dot"])
    def test_random_instances_match_oracle(self, metric):
        for seed in range(30):
            rng = make_rng(100 + seed)
            dims = rng.integers(1, 5, size=3)
            shape = tuple(int(x) for x in (dims + 1))
            part = partition_3d(shape, (1, 1, 2), rng)
            if part.n_dst == 0 or part.n_src == 0:
                continue
            tokens = rng.standard_normal((part.n_tokens, 6))
            match = pairwise_best_match(tokens, part, metric, rng)
            sims = direct_similarities(tokens[part.src_indices],
                                       tokens[part.dst_indices], metric, rng)
            best_dst, best_sim, order = exhaustive_match(sims)
            assert np.array_equal(match.best_dst, best_dst)
            assert np.array_equal(match.best_sim, best_sim)
            assert np.array_equal(match.reduce_order, order)
        # sources spanning more than one matching chunk, one of them coinciding
        # with a destination in the last chunk
        rng = make_rng(130)
        part = partition_3d((2, 10, 60), (1, 1, 2), rng)
        assert part.n_src > matching._MATCH_CHUNK_ELEMS // part.n_dst
        tokens = rng.standard_normal((part.n_tokens, 6))
        tokens[part.src_indices[-1]] = tokens[part.dst_indices[5]]
        match = pairwise_best_match(tokens, part, metric)
        sims = direct_similarities(tokens[part.src_indices],
                                   tokens[part.dst_indices], metric)
        best_dst, best_sim, order = exhaustive_match(sims)
        assert np.array_equal(match.best_dst, best_dst)
        assert np.array_equal(match.best_sim, best_sim)
        assert np.array_equal(match.reduce_order, order)

    def test_equidistant_tie_prefers_lower_destination(self):
        # source at origin, two destinations mirrored across it
        tokens = np.array([
            [1.0, 0.0],    # dst 0
            [-1.0, 0.0],   # dst 1
            [0.0, 0.0],    # src, equidistant
            [5.0, 5.0],    # src, far away
        ])
        part = Partition(dst_indices=np.array([0, 1]), src_indices=np.array([2, 3]))
        match = pairwise_best_match(tokens, part, "neg_euclidean")
        assert match.best_dst[0] == 0

    def test_reduce_order_tie_break_is_stable(self):
        tokens = np.array([
            [0.0, 0.0],   # dst
            [2.0, 0.0],   # src 0
            [2.0, 0.0],   # src 1, identical similarity
            [1.0, 0.0],   # src 2, closer
        ])
        part = Partition(dst_indices=np.array([0]), src_indices=np.array([1, 2, 3]))
        match = pairwise_best_match(tokens, part, "neg_euclidean")
        assert list(match.reduce_order) == [2, 0, 1]

    def test_random_metric_is_seeded_and_counted(self):
        rng = make_rng(9)
        tokens = rng.standard_normal((12, 4))
        part = partition_3d((3, 2, 2), (3, 2, 2), make_rng(1))
        m1 = pairwise_best_match(tokens, part, "random", make_rng(55))
        m2 = pairwise_best_match(tokens, part, "random", make_rng(55))
        assert np.array_equal(m1.best_sim, m2.best_sim)
        assert m1.num_evals == part.n_src * part.n_dst
        with pytest.raises(ValueError, match="rng"):
            pairwise_best_match(tokens, part, "random", None)
        # matched in more than one chunk, the draws follow one whole-matrix draw
        big = partition_3d((2, 10, 60), (1, 1, 2), make_rng(2))
        assert big.n_src > matching._MATCH_CHUNK_ELEMS // big.n_dst
        tokens = rng.standard_normal((big.n_tokens, 4))
        match = pairwise_best_match(tokens, big, "random", make_rng(56))
        sims = direct_similarities(tokens[big.src_indices], tokens[big.dst_indices],
                                   "random", make_rng(56))
        best_dst, best_sim, _ = exhaustive_match(sims)
        assert np.array_equal(match.best_dst, best_dst)
        assert np.array_equal(match.best_sim, best_sim)

    def test_cosine_zero_norm_diagnostic(self):
        tokens = np.array([
            [1.0, 0.0],
            [0.0, 0.0],   # zero-norm destination
            [0.0, 1.0],
            [0.0, 0.0],   # zero-norm source
            [1.0, 1.0],
            [2.0, 2.0],
        ])
        part = Partition(dst_indices=np.array([0, 1]), src_indices=np.array([2, 3, 4, 5]))
        match = pairwise_best_match(tokens, part, "cosine")
        assert np.isfinite(match.best_sim[[0, 2, 3]]).all()
        assert match.best_sim[1] == -np.inf            # zero-norm source
        assert match.reduce_order[-1] == 1             # ranked least redundant
        assert match.best_dst[1] == 0                  # tie of -inf -> lowest
        # matched in more than one chunk: zero-norm destinations still count once
        big = partition_3d((2, 10, 60), (1, 1, 2), make_rng(3))
        assert big.n_src > matching._MATCH_CHUNK_ELEMS // big.n_dst
        tokens = make_rng(4).standard_normal((big.n_tokens, 3))
        tokens[big.dst_indices[[0, 7, 9]]] = 0.0
        tokens[big.src_indices[[1, -1]]] = 0.0
        match = pairwise_best_match(tokens, big, "cosine")
        assert match.best_sim[-1] == -np.inf and match.best_dst[-1] == 0
        assert np.isfinite(np.delete(match.best_sim, [1, big.n_src - 1])).all()

    def test_reduce_order_invariant_to_destination_storage_order(self):
        # best_sim is a max over destinations, so reshuffling how the
        # destination list is stored must not change the reduction order
        rng = make_rng(12)
        tokens = rng.standard_normal((10, 4))
        fwd = Partition(dst_indices=np.array([1, 4, 7]),
                        src_indices=np.array([0, 2, 3, 5, 6, 8, 9]))
        rev = Partition(dst_indices=np.array([7, 4, 1]),
                        src_indices=fwd.src_indices)
        m_fwd = pairwise_best_match(tokens, fwd, "neg_euclidean")
        m_rev = pairwise_best_match(tokens, rev, "neg_euclidean")
        assert np.array_equal(m_fwd.reduce_order, m_rev.reduce_order)
        assert np.array_equal(m_fwd.best_sim, m_rev.best_sim)
        assert np.array_equal(fwd.dst_indices[m_fwd.best_dst],
                              rev.dst_indices[m_rev.best_dst])

    def test_eval_count_matches_pair_count(self):
        rng = make_rng(10)
        part = partition_3d((4, 4, 4), (2, 2, 2), rng)
        tokens = rng.standard_normal((64, 8))
        match = pairwise_best_match(tokens, part, "neg_euclidean")
        assert match.num_evals == part.n_src * part.n_dst == 56 * 8

    def test_token_count_validation(self):
        part = partition_3d((2, 2, 2), (2, 2, 2), make_rng(0))
        with pytest.raises(ValueError, match="token count"):
            pairwise_best_match(np.ones((5, 3)), part, "neg_euclidean")

    def test_unknown_metric(self):
        part = partition_3d((2, 2, 2), (2, 2, 2), make_rng(0))
        with pytest.raises(ValueError, match="metric"):
            pairwise_best_match(np.ones((8, 3)), part, "manhattan")


class TestStandardize:
    def test_evenly_spaced_values(self):
        raw = np.arange(101, dtype=float)
        out = standardize_profile(raw)
        assert out[5] == pytest.approx(0.0, abs=1e-12)
        assert out[95] == pytest.approx(1.0, abs=1e-12)
        assert out[50] == pytest.approx(0.5, abs=1e-12)
        assert out[0] == 0.0 and out[100] == 1.0

    def test_constant_input(self):
        assert np.array_equal(standardize_profile([3.3] * 7), np.full(7, 0.5))

    def test_against_sort_based_oracle(self):
        rng = make_rng(17)
        raw = rng.standard_normal(37) * 4
        out = standardize_profile(raw)
        expected = sorted_percentile_standardize(raw)
        assert np.abs(out - expected).max() <= 1e-12

    @given(st.integers(0, 10_000), st.integers(2, 60))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_interior_order(self, seed, n):
        raw = make_rng(seed).standard_normal(n)
        out = standardize_profile(raw)
        assert out.min() == pytest.approx(0.0, abs=1e-12)
        assert out.max() == pytest.approx(1.0, abs=1e-12)
        interior = (out > 0) & (out < 1)
        idx = np.nonzero(interior)[0]
        for i in idx:
            for j in idx:
                if raw[i] < raw[j]:
                    assert out[i] < out[j]

    def test_single_value_maps_to_half(self):
        # no contrast, as with a constant input
        assert np.array_equal(standardize_profile([-3.7]), np.full(1, 0.5))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            standardize_profile([])

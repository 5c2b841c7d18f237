import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenrnr.core import (apply_rope_tables, checksum_matrix,
                           grid_coordinates, make_rng, pairwise_sq_dists,
                           rope3d_tables, row_softmax, spawn_rngs,
                           sq_dist_refine_scale)


def softmax(a):
    """The normalized softmax: row_softmax's numerators over their row sums."""
    num = row_softmax(a)
    return num / num.sum(axis=1, keepdims=True)


class TestRowSoftmax:
    def test_uniform_row(self):
        out = softmax(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1 / 3, atol=1e-15)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_magnitude_stays_finite(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] >= 0.0

    def test_against_extended_precision(self):
        row = np.array([[1.0, 2.0, 3.0]])
        wide = np.exp(np.array([1, 2, 3], dtype=np.longdouble))
        expected = (wide / wide.sum()).astype(np.float64)
        assert np.abs(softmax(row) - expected).max() <= 1e-12

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 8),
           st.floats(0.1, 500.0))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_probability_vectors(self, seed, rows, cols, magnitude):
        a = make_rng(seed).standard_normal((rows, cols)) * magnitude
        out = softmax(a)
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        in_place = row_softmax(a, out=a)
        assert in_place is a
        assert np.abs(in_place / in_place.sum(axis=1, keepdims=True) - out).max() <= 1e-12

    def test_numerators_normalize_to_the_softmax(self):
        a = make_rng(5).standard_normal((4, 9)) * 30.0
        num = row_softmax(a)
        assert np.array_equal(num.max(axis=1), np.ones(4))
        wide = np.exp(a.astype(np.longdouble))
        expected = (wide / wide.sum(axis=1, keepdims=True)).astype(np.float64)
        assert np.abs(num / num.sum(axis=1, keepdims=True) - expected).max() <= 1e-12


class TestRope:
    def test_origin_token_unchanged(self):
        rng = make_rng(1)
        mat = rng.standard_normal((8, 8))
        out = apply_rope_tables(mat, *rope3d_tables((2, 2, 2), 8))
        assert np.array_equal(out[0], mat[0])

    def test_pair_norms_preserved(self):
        rng = make_rng(2)
        mat = rng.standard_normal((27, 10))
        out = apply_rope_tables(mat, *rope3d_tables((3, 3, 3), 10))
        before = np.hypot(mat[:, 0::2], mat[:, 1::2])
        after = np.hypot(out[:, 0::2], out[:, 1::2])
        assert np.abs(before - after).max() <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_token_norms_preserved(self, seed):
        rng = make_rng(seed)
        mat = rng.standard_normal((12, 16)) * 3.0
        out = apply_rope_tables(mat, *rope3d_tables((3, 2, 2), 16))
        assert np.abs(np.linalg.norm(out, axis=1)
                      - np.linalg.norm(mat, axis=1)).max() <= 1e-10

    def test_rotation_depends_only_on_coordinates(self):
        # the same (t, h, w) coordinate gets the same angles in any grid
        cos_a, sin_a = rope3d_tables((3, 4, 5), 12)
        cos_b, sin_b = rope3d_tables((2, 3, 4), 12)
        coords_a = grid_coordinates((3, 4, 5))
        coords_b = grid_coordinates((2, 3, 4))
        lookup = {tuple(c): i for i, c in enumerate(coords_a)}
        for i, c in enumerate(coords_b):
            j = lookup[tuple(c)]
            assert np.array_equal(cos_a[j], cos_b[i])
            assert np.array_equal(sin_a[j], sin_b[i])

    def test_odd_feature_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            rope3d_tables((2, 2, 2), 7)

    def test_tiny_feature_dim_rejected(self):
        with pytest.raises(ValueError, match="three axes"):
            rope3d_tables((2, 2, 2), 4)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(16)
        b = make_rng(123).standard_normal(16)
        assert np.array_equal(a, b)

    def test_spawned_streams_differ_but_are_reproducible(self):
        first = [r.standard_normal(4) for r in spawn_rngs(7, 3)]
        second = [r.standard_normal(4) for r in spawn_rngs(7, 3)]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert not np.array_equal(first[0], first[1])


class TestPairwiseSqDists:
    def test_coincident_rows_give_exact_zero(self):
        rng = make_rng(3)
        a = rng.standard_normal((6, 5))
        b = a.copy()
        d2 = pairwise_sq_dists(a, b)
        assert np.array_equal(np.diag(d2), np.zeros(6))

    def test_against_difference_formula(self):
        rng = make_rng(4)
        a = rng.standard_normal((10, 7))
        b = rng.standard_normal((8, 7))
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        d2 = pairwise_sq_dists(a, b)
        assert np.abs(d2 - expected).max() <= 1e-12 * max(1.0, expected.max())

    def test_row_blocks_with_whole_set_scale_stack_to_whole_matrix(self):
        rng = make_rng(5)
        a = rng.standard_normal((11, 4))
        b = rng.standard_normal((7, 4))
        a[[2, 9]] = b[[0, 6]]          # coincident rows, refined to exact zero
        a[7] = b[3] + 1e-2             # near zero only against the whole-set scale
        a[5] *= 1e3                    # sets the whole-set refine scale
        whole = pairwise_sq_dists(a, b)
        scale = sq_dist_refine_scale(a, b)
        blocks = [pairwise_sq_dists(a[i:i + 3], b, scale) for i in range(0, 11, 3)]
        assert np.array_equal(np.vstack(blocks), whole)
        assert whole[2, 0] == whole[9, 6] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_sq_dists(np.ones((2, 3)), np.ones((2, 4)))


class TestGridAndValidation:
    def test_flattening_order(self):
        # grid position (t, h, w) sits at flat index (t * h_dim + h) * w_dim + w
        coords = grid_coordinates((2, 3, 4))
        for i, (t, h, w) in enumerate(coords):
            assert (t * 3 + h) * 4 + w == i

    def test_checksum_sensitivity(self):
        a = np.ones((3, 3))
        b = a.copy()
        assert checksum_matrix(a) == checksum_matrix(b)
        b[0, 0] += 1e-15
        assert checksum_matrix(a) != checksum_matrix(b)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenrnr.core import (apply_rope_tables, checksum_matrix,
                           grid_coordinates, make_rng, pairwise_sq_dists,
                           rope3d_tables, row_softmax, row_sq_norms,
                           spawn_rngs)

from oracles import _reference_rope, _rotate_rows, expansion_sq_dists


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
        out = apply_rope_tables(mat, rope3d_tables((2, 2, 2), 8))
        assert np.array_equal(out[0], mat[0])

    def test_pair_norms_preserved(self):
        rng = make_rng(2)
        mat = rng.standard_normal((27, 10))
        out = apply_rope_tables(mat, rope3d_tables((3, 3, 3), 10))
        before = np.hypot(mat[:, 0::2], mat[:, 1::2])
        after = np.hypot(out[:, 0::2], out[:, 1::2])
        assert np.abs(before - after).max() <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_token_norms_preserved(self, seed):
        rng = make_rng(seed)
        mat = rng.standard_normal((12, 16)) * 3.0
        out = apply_rope_tables(mat, rope3d_tables((3, 2, 2), 16))
        assert np.abs(np.linalg.norm(out, axis=1)
                      - np.linalg.norm(mat, axis=1)).max() <= 1e-10

    def test_rotation_depends_only_on_coordinates(self):
        # the same (t, h, w) coordinate gets the same angles in any grid
        rot_a = rope3d_tables((3, 4, 5), 12)
        rot_b = rope3d_tables((2, 3, 4), 12)
        coords_a = grid_coordinates((3, 4, 5))
        coords_b = grid_coordinates((2, 3, 4))
        lookup = {tuple(c): i for i, c in enumerate(coords_a)}
        for i, c in enumerate(coords_b):
            assert np.array_equal(rot_a[lookup[tuple(c)]], rot_b[i])

    @pytest.mark.parametrize("d", [6, 10, 64])
    @pytest.mark.parametrize("grid", [(1, 1, 4), (2, 3, 4), (5, 2, 3)])
    def test_matches_complex_rotation_oracle(self, grid, d):
        # d=6 is the smallest split (1, 1, 1); d=10 splits (3, 1, 1)
        rng = make_rng(d)
        n = grid[0] * grid[1] * grid[2]
        rot, reference = rope3d_tables(grid, d), _reference_rope(grid, d)
        every = np.arange(n)
        subset = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        for rows in (every, subset):
            x = rng.standard_normal((len(rows), d)) * 4.0
            out = apply_rope_tables(x, rot[rows])
            expected = _rotate_rows(x, reference, rows)
            assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_input_layout_and_contents_do_not_matter(self):
        rng = make_rng(3)
        rot = rope3d_tables((2, 2, 3), 8)
        wide = rng.standard_normal((12, 11))
        column_view = wide[:, 2:10]
        expected = apply_rope_tables(column_view.copy(), rot)
        before = wide.copy()
        assert np.array_equal(apply_rope_tables(column_view, rot), expected)
        assert np.array_equal(apply_rope_tables(np.asfortranarray(column_view), rot),
                              expected)
        assert np.array_equal(wide, before)

    def test_shape_mismatch_rejected(self):
        rot = rope3d_tables((2, 2, 2), 8)
        with pytest.raises(ValueError, match="does not match"):
            apply_rope_tables(np.zeros((8, 6)), rot)
        with pytest.raises(ValueError, match="does not match"):
            apply_rope_tables(np.zeros((7, 8)), rot)

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
        b2 = row_sq_norms(b)
        scale = row_sq_norms(a).max() + b2.max()
        blocks = [pairwise_sq_dists(a[i:i + 3], b, b2, scale) for i in range(0, 11, 3)]
        assert np.array_equal(np.vstack(blocks), whole)
        assert whole[2, 0] == whole[9, 6] == 0.0

    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 9), st.floats(-3.0, 3.0), st.integers(0, 3),
           st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_expansion_oracle(self, seed, m, n, d, log_mag,
                                                   n_special, block):
        # magnitudes 1e-3 to 1e3; some rows of `a` copy a row of `b`, sit
        # within 1e-9 of one, or are all zero. Each row block gets the norms
        # and the whole-set scale passed in and is checked against the oracle
        # on the same block: BLAS may round a short block's GEMM differently
        # from the whole one's, in the parent kernel as in this one
        rng = make_rng(seed)
        mag = 10.0 ** log_mag
        a = rng.standard_normal((m, d)) * mag
        b = rng.standard_normal((n, d)) * mag
        for i in rng.choice(m, size=min(n_special, m), replace=False):
            kind = rng.integers(3)
            if kind == 0:
                a[i] = b[rng.integers(n)]
            elif kind == 1:
                a[i] = b[rng.integers(n)] * (1.0 + 1e-9 * rng.standard_normal(d))
            else:
                a[i] = 0.0
        if rng.integers(4) == 0:
            b[rng.integers(n)] = 0.0
        want = expansion_sq_dists(a, b)
        assert np.array_equal(pairwise_sq_dists(a, b), want)
        b2 = row_sq_norms(b)
        scale = row_sq_norms(a).max() + b2.max()
        for i in range(0, m, block):
            assert np.array_equal(pairwise_sq_dists(a[i:i + block], b, b2, scale),
                                  expansion_sq_dists(a[i:i + block], b, scale))

    @pytest.mark.parametrize("m, n, d", [(52, 5000, 4), (43, 6042, 64),
                                         (32, 8192, 64), (256, 1024, 64)])
    def test_bitwise_equal_to_the_oracle_at_the_callers_chunk_shapes(self, m, n, d):
        # the row blocks the callers run: k-NN chunks of the d=4 Gaussian
        # check (5000 points) and of plan scores (6042 and 8192 tokens), and
        # matching's chunks against 1024 destinations; each as a full block
        # and as 1-row and 3-row tails, with the whole-set norms and scale.
        # BLAS may take other code paths here than at the property's sizes
        rng = make_rng(m * n * d)
        b = rng.standard_normal((n, d))
        a = rng.standard_normal((m + 4, d))
        coincident = [0, m // 2, m, m + 2]     # refined to exact zero
        a[coincident] = b[rng.choice(n, size=4, replace=False)]
        b2 = row_sq_norms(b)
        scale = row_sq_norms(a).max() + b2.max()
        zeros = 0
        for lo, hi in ((0, m), (m, m + 1), (m + 1, m + 4)):
            got = pairwise_sq_dists(a[lo:hi], b, b2, scale)
            assert np.array_equal(got, expansion_sq_dists(a[lo:hi], b, scale))
            zeros += np.count_nonzero(got == 0.0)
        assert zeros == 4

    def test_negative_expansion_entries_match_the_oracle(self):
        # rows that coincide in 64 dimensions at magnitude 1e3: the expansion
        # leaves cancellation noise of both signs, and every entry, the
        # negative ones included, comes back as the oracle's exact 0.0
        rng = make_rng(12)
        b = rng.standard_normal((50, 64)) * 1e3
        a = b[rng.permutation(50)]
        raw = (row_sq_norms(a)[:, None] + row_sq_norms(b)[None, :]) - 2.0 * (a @ b.T)
        assert (raw < 0).any()
        got = pairwise_sq_dists(a, b)
        assert np.array_equal(got, expansion_sq_dists(a, b))
        assert (got >= 0).all() and np.count_nonzero(got == 0.0) == 50

    def test_all_zero_rows_have_scale_zero(self):
        a = np.zeros((3, 4))
        b = np.vstack([np.zeros((1, 4)), np.ones((2, 4))])
        got = pairwise_sq_dists(a, b)
        assert np.array_equal(got, expansion_sq_dists(a, b))
        assert np.array_equal(got, np.tile([0.0, 4.0, 4.0], (3, 1)))

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

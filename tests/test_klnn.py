import math

import numpy as np
import pytest

from tokenrnr import klnn
from tokenrnr.core import make_rng, pairwise_sq_dists
from tokenrnr.klnn import DISTANCE_FLOOR, kl_estimate, knn_distances, score_reduction
from tokenrnr.matching import partition_3d, pairwise_best_match
from tokenrnr.rnr import ReductionPlan, build_plan

from oracles import knn_density_kl, naive_distances, sort_based_knn


def gaussian_pair(seed, l, d, mu):
    rng = make_rng(seed)
    original = rng.standard_normal((l, d))
    reduced = rng.standard_normal((l, d)) + mu
    return reduced, original


class TestKnnDistance:
    def test_coincident_query_without_exclusion(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        assert knn_distances(np.array([[0.0, 0.0]]), points)[0] == 0.0

    def test_hand_countable_line(self):
        points = np.array([[0.0], [1.0], [3.0]])
        assert np.array_equal(knn_distances(points, points, exclude_self=True),
                              [1.0, 1.0, 2.0])
        assert knn_distances(np.array([[2.5]]), points)[0] == 0.5
        # integer coordinates are taken as float64: an int64 block could not
        # take the inf of the diagonal (OverflowError), and 4e9^2 = 1.6e19
        # wraps in int64; in float64 every value here is exact
        far = np.array([[0], [4_000_000_000], [9_000_000_000]])
        assert np.array_equal(knn_distances(far, far, exclude_self=True),
                              [4e9, 4e9, 5e9])
        assert knn_distances(far[:1], far[1:])[0] == 4e9

    def test_against_sort_oracle(self):
        rng = make_rng(1)
        points = rng.standard_normal((40, 5))
        for seed in range(20):
            q = make_rng(100 + seed).standard_normal(5)
            assert knn_distances(q[None], points)[0] == sort_based_knn(points, q)

    def test_self_exclusion_against_sort_oracle(self):
        # the triangle's one-GEMM block and the oracle's kernel round
        # differently, so they agree to rounding, not bitwise
        rng = make_rng(2)
        points = rng.standard_normal((25, 3))
        got = knn_distances(points, points, exclude_self=True)
        for i in range(25):
            assert got[i] == pytest.approx(
                sort_based_knn(points, points[i], exclude_self=True), rel=1e-12)

    def test_distance_values_match_naive_formula(self):
        rng = make_rng(15)
        points = rng.standard_normal((60, 6))
        for seed in range(10):
            q = make_rng(500 + seed).standard_normal(6)
            assert knn_distances(q[None], points)[0] == pytest.approx(
                float(naive_distances(points, q).min()), rel=1e-12, abs=1e-12)

    def test_k_out_of_range(self):
        # the one neighbor searched for (k = 1) must exist: one point, two
        # when a row's own entry is skipped
        with pytest.raises(ValueError, match="no neighbor to find among 0 points"):
            knn_distances(np.zeros((1, 2)), np.ones((0, 2)))
        one = np.ones((1, 2))
        with pytest.raises(ValueError, match="no neighbor to find among 1 points"):
            knn_distances(one, one, exclude_self=True)
        assert knn_distances(np.zeros((1, 2)), one)[0] == math.sqrt(2.0)

    @pytest.mark.parametrize("queries, points, k, match", [
        (np.zeros(2), np.ones((3, 2)), 1, "queries must be a 2-D matrix"),
        (np.zeros((1, 1, 2)), np.ones((3, 2)), 1, "queries must be a 2-D matrix"),
        (np.zeros((1, 2)), np.ones(6), 1, "points must be a 2-D matrix"),
        (np.zeros((1, 3)), np.ones((3, 2)), 1, "3 columns, points 2"),
        (np.full((1, 2), np.nan), np.ones((3, 2)), 1, "queries entries must be finite"),
        (np.zeros((1, 2)), np.array([[0.0, np.inf], [1.0, 1.0]]), 1,
         "points entries must be finite"),
        (np.zeros((1, 2)), np.ones((3, 2)), 1.5, "k must be an integer"),
        (np.zeros((1, 2)), np.ones((3, 2)), True, "k must be an integer"),
        (np.array([[1e200, 0.0]]), np.ones((3, 2)), 1, "squared row norms must be finite"),
        (np.zeros((1, 2)), np.array([[1.0, 1.0], [0.0, -1e200]]), 1,
         "squared row norms must be finite"),
        (np.zeros((1, 2)), np.ones((3, 2)), (1, "no"), "exclude_self must be a bool"),
        (np.zeros((1, 2)), np.ones((3, 2)), (1, 2), "exclude_self must be a bool"),
        (np.zeros((1, 2)), np.ones((3, 2)), (1, None), "exclude_self must be a bool"),
        (np.zeros((1, 2)), np.ones((3, 2)), (1, np.int64(1)),
         "exclude_self must be a bool"),
        (np.zeros((1, 0)), np.ones((3, 0)), 1, "queries must be a 2-D matrix"),
        (np.ones((3, 2)), np.ones((3, 2)), (1, True),
         "exclude_self needs queries to be points itself"),
    ])
    def test_malformed_inputs_rejected(self, monkeypatch, queries, points, k, match):
        # each is refused by name before any distance work starts, and all
        # but an overflowing norm before any norm is computed. k is the
        # neighbor rank asked for: a row at k = 1 searches, and a (1,
        # exclude_self) pair passes exclude_self too (the last row's two
        # sets are equal but not the same object); any other k goes to
        # kl_estimate, the one place a k is still taken
        def refuse(what):
            def fail(*_):
                raise AssertionError(f"{what} computed before the input checks")
            return fail
        monkeypatch.setattr(klnn, "pairwise_sq_dists", refuse("distances"))
        if "norms" not in match:
            monkeypatch.setattr(klnn, "row_sq_norms", refuse("norms"))
        k, exclude_self = k if isinstance(k, tuple) else (k, False)
        with pytest.raises(ValueError, match=match):
            if k == 1 and not isinstance(k, bool):
                knn_distances(queries, points, exclude_self=exclude_self)
            else:
                kl_estimate(queries, points, k=k)

    def test_numpy_bool_exclude_self_accepted(self):
        points = np.array([[0.0], [1.0], [3.0]])
        assert knn_distances(points, points, exclude_self=np.True_)[0] == 1.0

    def test_numpy_integer_k_accepted(self):
        # kl_estimate and score_reduction take k = 1 only, as any integer type
        tokens = np.array([[0.0], [1.0], [3.0]])
        plan = ReductionPlan(kept=np.array([0, 1]), discarded=np.array([2]),
                             reps=np.array([1]), original_len=3)
        one = np.int64(1)
        assert kl_estimate(tokens, tokens[:2], k=one) == kl_estimate(tokens, tokens[:2])
        assert score_reduction(tokens, plan, k=one) == score_reduction(tokens, plan)

    def test_batch_matches_single(self):
        # batched and single-query calls hit different BLAS kernel shapes,
        # so agreement is to rounding, not bitwise
        rng = make_rng(3)
        points = rng.standard_normal((30, 4))
        queries = rng.standard_normal((8, 4))
        batch = knn_distances(queries, points)
        for i in range(len(queries)):
            assert batch[i] == pytest.approx(
                knn_distances(queries[i:i + 1], points)[0], rel=1e-12)

    @pytest.mark.parametrize("chunk_rows", [2, 7, 20])
    def test_near_zero_refine_does_not_depend_on_chunking(self, monkeypatch,
                                                          chunk_rows):
        # query 3 sits 3e-3 from points[11]; query 15, scaled by 1e3, raises
        # the refine scale of the whole set, so query 3's nearest distance is
        # recomputed exactly whichever chunk it shares
        rng = make_rng(0)
        points = rng.standard_normal((300, 8))
        queries = rng.standard_normal((20, 8))
        queries[3] = points[11] + 3e-3 * rng.standard_normal(8)
        queries[15] *= 1e3
        monkeypatch.setattr(klnn, "_SWEEP_ROWS", chunk_rows)
        monkeypatch.setattr(klnn, "_SWEEP_WINDOW", 64)
        want = np.sqrt(((queries[3] - points) ** 2).sum(1)).min()
        assert knn_distances(queries, points)[3] == want

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_selection_is_exact_with_ties_across_chunks(self, monkeypatch,
                                                        exclude_self):
        # integer coordinates make every distance exact, and each point is
        # present 2-3 times, so every row has ties. Without exclude_self 23
        # queries meet the points in sweep chunks of 5 rows; with it the
        # points meet themselves in triangle chunks of 5 rows against the
        # columns right of them, which split the runs of copies. Both give
        # four or more full chunks and a short last one. The int64 sets
        # themselves give the same bits as their float64 copies.
        rng = make_rng(11)
        uniq = rng.integers(-3, 4, size=(12, 3))
        int_points = np.repeat(uniq, rng.integers(2, 4, size=12), axis=0)
        int_queries = (int_points if exclude_self else
                       np.vstack([int_points[:17], rng.integers(-3, 4, size=(6, 3))]))
        points = int_points.astype(np.float64)
        queries = points if exclude_self else int_queries.astype(np.float64)
        assert len(queries) % 5 != 0
        monkeypatch.setattr(klnn, "_KNN_CHUNK_ELEMS", 5 * len(points))
        monkeypatch.setattr(klnn, "_SWEEP_ROWS", 5)
        skip = 1 if exclude_self else 0
        direct = np.sort(np.sqrt(((queries[:, None, :] - points[None]) ** 2).sum(2)),
                         axis=1)
        got = knn_distances(queries, points, exclude_self=exclude_self)
        assert np.array_equal(got, direct[:, skip])
        assert np.array_equal(
            knn_distances(int_queries, int_points, exclude_self=exclude_self), got)

    def test_self_search_computes_each_pair_once(self, monkeypatch):
        # rows x cols summed over the distance calls of each kernel: a self
        # search visits the upper triangle in chunks of h rows through the
        # one-GEMM block, at most n(n + h)/2 entries, also on an integer set,
        # whose cast keeps it one object; it never calls pairwise_sq_dists,
        # and no call holds more than a row chunk
        calls = {"_augmented_sq_dists": [], "pairwise_sq_dists": []}

        def counting(name):
            kernel = getattr(klnn, name)

            def count(a, b, *rest):
                calls[name].append(a.shape[0] * b.shape[0])
                return kernel(a, b, *rest)
            return count

        for name in calls:
            monkeypatch.setattr(klnn, name, counting(name))
        rng = make_rng(21)
        points = rng.standard_normal((1000, 3))
        n = len(points)
        h = klnn._KNN_CHUNK_ELEMS // n
        ints = np.rint(100 * points).astype(np.int64)
        for pts in (points, ints):
            for counted in calls.values():
                counted.clear()
            knn_distances(pts, pts, exclude_self=True)
            assert sum(calls["_augmented_sq_dists"]) <= n * (n + h) // 2
            assert max(calls["_augmented_sq_dists"]) <= h * n
            assert not calls["pairwise_sq_dists"]

    @pytest.mark.parametrize("window, rows", [(8, 3), (1024, 26)])
    def test_sweep_equals_the_sort_on_integer_ties(self, monkeypatch, window, rows):
        # integer coordinates make every distance exact and every point has
        # 2-3 copies, so projections and distances tie; a window of 8 points
        # and chunks of 3 rows make most chunks meet both side ranges
        monkeypatch.setattr(klnn, "_SWEEP_WINDOW", window)
        monkeypatch.setattr(klnn, "_SWEEP_ROWS", rows)
        rng = make_rng(31)
        uniq = rng.integers(-4, 5, size=(40, 3))
        points = np.repeat(uniq, rng.integers(2, 4, size=40), axis=0)
        queries = np.vstack([points[::3], rng.integers(-6, 7, size=(30, 3))])
        direct = np.sqrt(((queries[:, None, :] - points[None]) ** 2).sum(2))
        assert np.array_equal(knn_distances(queries, points), direct.min(axis=1))

    def test_sweep_groups_equal_the_sort_on_integer_ties(self, monkeypatch):
        # the same tied integer sets as above, with one group per side, a
        # group per row, and counts between; every distance is exact, so
        # however the rows are grouped the minima are the sort's bits
        rng = make_rng(31)
        uniq = rng.integers(-4, 5, size=(40, 3))
        points = np.repeat(uniq, rng.integers(2, 4, size=40), axis=0)
        queries = np.vstack([points[::3], rng.integers(-6, 7, size=(30, 3))])
        want = np.sqrt(((queries[:, None, :] - points[None]) ** 2).sum(2)).min(axis=1)
        for window, rows, groups in ((8, 3, 1), (8, 3, 3), (8, 12, 1), (8, 12, 5),
                                     (16, 12, 12), (4, 40, 7), (1024, 104, 3)):
            monkeypatch.setattr(klnn, "_SWEEP_WINDOW", window)
            monkeypatch.setattr(klnn, "_SWEEP_ROWS", rows)
            monkeypatch.setattr(klnn, "_SWEEP_GROUPS", groups)
            assert np.array_equal(knn_distances(queries, points), want)

    def test_sweep_groups_meet_fewer_entries_than_the_union(self, monkeypatch):
        # points on the integers -100..100 of one axis; eight queries sit
        # half a step from two of them and reach a few points past a window
        # of 2, and one sits 40 off the axis, so its bound reaches about 40
        # points each side. One chunk of 9 rows in 3 groups per side: only
        # the far row's group meets the far points, and no pair is met twice.
        # Both kernels are counted: the one-GEMM sides' points are
        # -b_aug[:, :d] / 2, which is exact
        met = []

        def recording(a, b, *rest):
            met.extend((tuple(x), tuple(y)) for x in a for y in b)
            return pairwise_sq_dists(a, b, *rest)

        def recording_aug(a, b_aug, *rest):
            b = -b_aug[:, :a.shape[1]] / 2
            met.extend((tuple(x), tuple(y)) for x in a for y in b)
            return augmented(a, b_aug, *rest)

        augmented = klnn._augmented_sq_dists
        monkeypatch.setattr(klnn, "pairwise_sq_dists", recording)
        monkeypatch.setattr(klnn, "_augmented_sq_dists", recording_aug)
        monkeypatch.setattr(klnn, "_SWEEP_WINDOW", 2)
        monkeypatch.setattr(klnn, "_SWEEP_ROWS", 9)
        monkeypatch.setattr(klnn, "_SWEEP_GROUPS", 3)
        points = np.column_stack([np.arange(-100.0, 101.0), np.zeros(201)])
        queries = np.vstack([np.column_stack([np.arange(-3.5, 4.0), np.zeros(8)]),
                             [[0.0, 40.0]]])
        assert np.array_equal(knn_distances(queries, points), [0.5] * 8 + [40.0])
        assert len(met) == len(set(met))
        columns = {y for _, y in met}
        assert len(columns) >= 2 + 2 * 38  # the far row's sides were met
        # the union of the sides would meet every column met for every row
        assert len(met) < len(queries) * len(columns) / 2

    def test_sweep_matches_naive_distances_on_gaussians(self):
        reduced, original = gaussian_pair(41, 2000, 4, np.array([1.0, 0.0, 0.0, 0.0]))
        want = [naive_distances(original, q).min() for q in reduced]
        np.testing.assert_allclose(knn_distances(reduced, original), want,
                                   rtol=1e-12, atol=0)

    def test_sweep_meets_a_point_at_the_bound(self, monkeypatch):
        # along the one axis the window of one point holds 3, so the query's
        # bound is 3 and -3 lies on it, left of the window: it is met, by
        # the one-GEMM kernel, whose points are -b_aug[:, :d] / 2
        met = []

        def recording(a, b, *rest):
            met.extend(b[:, 0])
            return pairwise_sq_dists(a, b, *rest)

        def recording_aug(a, b_aug, *rest):
            met.extend(-b_aug[:, 0] / 2)
            return augmented(a, b_aug, *rest)

        augmented = klnn._augmented_sq_dists
        monkeypatch.setattr(klnn, "pairwise_sq_dists", recording)
        monkeypatch.setattr(klnn, "_augmented_sq_dists", recording_aug)
        monkeypatch.setattr(klnn, "_SWEEP_WINDOW", 1)
        points = np.array([[-10.0], [-3.0], [3.0], [10.0]])
        assert knn_distances(np.zeros((1, 1)), points)[0] == 3.0
        assert sorted(met) == [-3.0, 3.0]

    def test_sweep_degenerate_sets(self, monkeypatch):
        # integer coordinates keep every distance exact
        monkeypatch.setattr(klnn, "_SWEEP_WINDOW", 16)
        rng = make_rng(42)
        queries = rng.integers(-5, 6, size=(40, 3))
        assert knn_distances(queries[:0], queries).shape == (0,)
        # every point on one projection value: the scatter is 0
        same = np.tile([1, -2, 3], (100, 1))
        assert np.array_equal(knn_distances(queries, same),
                              np.sqrt(((queries - same[0]) ** 2).sum(1)))
        # d = 1
        line = rng.integers(-50, 51, size=(300, 1))
        assert np.array_equal(knn_distances(queries[:, :1], line),
                              np.abs(queries[:, :1] - line.T).min(axis=1))
        # entries near 1e153 over 2000 rows overflow the scatter, and the
        # sweep falls back to the first coordinate axis
        big = rng.standard_normal((2000, 3)) * 1e153
        near = rng.standard_normal((30, 3)) * 1e153
        np.testing.assert_allclose(knn_distances(near, big),
                                   np.sqrt(pairwise_sq_dists(near, big).min(axis=1)),
                                   rtol=1e-12, atol=0)

    def test_sweep_prunes_and_meets_each_pair_at_most_once(self, monkeypatch):
        # rows x cols summed over the distance calls of both kernels; the
        # wrappers take positional arguments only, as every call in klnn
        # passes them
        calls = []

        def counting(a, b, *rest):
            calls.append(a.shape[0] * b.shape[0])
            return pairwise_sq_dists(a, b, *rest)

        def counting_aug(a, b_aug, *rest):
            calls.append(a.shape[0] * b_aug.shape[0])
            return augmented(a, b_aug, *rest)

        augmented = klnn._augmented_sq_dists
        monkeypatch.setattr(klnn, "pairwise_sq_dists", counting)
        monkeypatch.setattr(klnn, "_augmented_sq_dists", counting_aug)
        reduced, original = gaussian_pair(43, 3000, 4, np.array([1.0, 0.0, 0.0, 0.0]))
        knn_distances(reduced, original)
        assert sum(calls) < len(reduced) * len(original)
        # queries 100 off the points' plane: every bound spans all points
        flat = np.hstack([original[:, :2], np.zeros((3000, 1))])
        lifted = np.hstack([reduced[:500, :2], np.full((500, 1), 100.0)])
        calls.clear()
        knn_distances(lifted, flat)
        assert sum(calls) == 500 * 3000

    def test_sweep_window_and_sides_take_their_own_kernels(self, monkeypatch):
        # the window calls pairwise_sq_dists and the sides the one-GEMM
        # block: on the lifted case, where every bound spans all points, both
        # run and their entries sum to every pair once; a set no larger than
        # the window has no sides, so it meets pairwise_sq_dists alone
        calls = {"pairwise_sq_dists": [], "_augmented_sq_dists": []}

        def counting(name):
            kernel = getattr(klnn, name)

            def count(a, b, *rest):
                calls[name].append(a.shape[0] * b.shape[0])
                return kernel(a, b, *rest)
            return count

        for name in calls:
            monkeypatch.setattr(klnn, name, counting(name))
        reduced, original = gaussian_pair(43, 3000, 4, np.array([1.0, 0.0, 0.0, 0.0]))
        flat = np.hstack([original[:, :2], np.zeros((3000, 1))])
        lifted = np.hstack([reduced[:500, :2], np.full((500, 1), 100.0)])
        knn_distances(lifted, flat)
        assert sum(calls["pairwise_sq_dists"]) == 500 * klnn._SWEEP_WINDOW
        assert calls["_augmented_sq_dists"]
        assert sum(map(sum, calls.values())) == 500 * 3000
        for counted in calls.values():
            counted.clear()
        small = original[:klnn._SWEEP_WINDOW]
        knn_distances(reduced[:300], small)
        assert sum(calls["pairwise_sq_dists"]) == 300 * len(small)
        assert not calls["_augmented_sq_dists"]

    def test_sweep_refines_only_the_row_of_a_copy_beyond_the_window(self,
                                                                    monkeypatch):
        # points on the integers -100..100 of one axis plus a copy of the
        # query c = (50 + 1/3, 0.7); one chunk holds c and eight queries half
        # a step from the axis's middle points, so its window of 2 points
        # sits there and c's copy lies right of it. Only c's side minimum is
        # near zero, so its row alone passes the refine gate, and its nu
        # reads exactly 0
        refined = []
        refine = klnn._refine_near_zero

        def recording(d2, a, *rest):
            refined.extend(tuple(row) for row in a)
            return refine(d2, a, *rest)

        monkeypatch.setattr(klnn, "_refine_near_zero", recording)
        monkeypatch.setattr(klnn, "_SWEEP_WINDOW", 2)
        copy = np.array([50 + 1 / 3, 0.7])
        points = np.vstack([np.column_stack([np.arange(-100.0, 101.0), np.zeros(201)]),
                            copy])
        queries = np.vstack([np.column_stack([np.arange(-3.5, 4.0), np.zeros(8)]),
                             copy])
        nu = knn_distances(queries, points)
        assert np.array_equal(nu, [0.5] * 8 + [0.0])
        assert refined == [tuple(copy)]

    def test_dense_plan_scores_build_no_side_operand(self, monkeypatch):
        # the kept rows of a rate-0.3 plan are 756 of the 1024 tokens, so
        # each sweep chunk's copies lie inside its window and no row reaches
        # a side: the only operand built is the rho triangle's, of the kept
        # rows, and the sweep never builds one of all the tokens
        built = []
        augmented_points = klnn._augmented_points

        def recording(b, *rest):
            built.append(b.shape[0])
            return augmented_points(b, *rest)

        monkeypatch.setattr(klnn, "_augmented_points", recording)
        grid = (4, 16, 16)
        rng = make_rng(47)
        tokens = rng.standard_normal((4 * 16 * 16, 64))
        part = partition_3d(grid, (2, 2, 2), rng)
        plan = build_plan(pairwise_best_match(tokens, part, "neg_euclidean"), part, 0.3)
        assert np.isfinite(score_reduction(tokens, plan))
        assert built == [plan.m]

    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 12, 20])
    def test_triangle_near_zero_refine_does_not_depend_on_chunking(
            self, monkeypatch, chunk_rows):
        # row 3 sits 3e-3 from row 11, and row 15, scaled by 1e3, raises the
        # refine scale of the whole set, so the pair is recomputed exactly
        # whether rows 3 and 11 share a chunk (12 and 20 rows) or not
        rng = make_rng(0)
        points = rng.standard_normal((300, 8))
        points[3] = points[11] + 3e-3 * rng.standard_normal(8)
        points[15] *= 1e3
        monkeypatch.setattr(klnn, "_KNN_CHUNK_ELEMS", chunk_rows * len(points))
        want = np.sqrt(((points[3] - points[11]) ** 2).sum())
        rho = knn_distances(points, points, exclude_self=True)
        assert rho[3] == want
        assert rho[11] == want

    def test_triangle_refines_only_rows_with_a_near_zero_minimum(self, monkeypatch):
        # each block's diagonal is knocked out before its row minima are
        # taken, so only a row whose nearest other point lies within the
        # refine cutoff is refined; taking the minima first would refine
        # every row, since each row's distance to itself is near 0
        refined = []
        refine = klnn._refine_near_zero

        def recording(d2, a, *rest):
            refined.extend(tuple(row) for row in a)
            return refine(d2, a, *rest)

        monkeypatch.setattr(klnn, "_refine_near_zero", recording)
        points = make_rng(45).standard_normal((2000, 4))
        knn_distances(points, points, exclude_self=True)
        assert not refined
        h = klnn._KNN_CHUNK_ELEMS // len(points)
        # rows 5 and 7 share a chunk, so both blocks hold the pair; row 1500
        # lies in a later chunk, whose columns start right of row 5
        for i, j, rows in ((5, 7, 2), (5, 1500, 1)):
            assert (i // h == j // h) == (rows == 2)
            dup = points.copy()
            dup[j] = dup[i]
            refined.clear()
            rho = knn_distances(dup, dup, exclude_self=True)
            assert rho[i] == 0.0 and rho[j] == 0.0
            assert refined == [tuple(dup[i])] * rows

    @pytest.mark.parametrize("n, d", [(2000, 4), (500, 64), (5000, 4), (600, 64)])
    def test_triangle_matches_naive_distances_on_gaussians(self, n, d):
        points = make_rng(44).standard_normal((n, d))
        want = [np.delete(naive_distances(points, q), i).min()
                for i, q in enumerate(points)]
        np.testing.assert_allclose(knn_distances(points, points, exclude_self=True),
                                   want, rtol=1e-12, atol=0)

    def test_self_search_degenerate_sets(self):
        # all-zero rows make the refine scale 0 and every distance exactly 0;
        # two rows leave one pair
        zeros = np.zeros((7, 3))
        assert np.array_equal(knn_distances(zeros, zeros, exclude_self=True),
                              np.zeros(7))
        two = np.array([[0.0, 1.0], [3.0, 5.0]])
        assert np.array_equal(knn_distances(two, two, exclude_self=True),
                              [5.0, 5.0])


class TestKlEstimate:
    def test_iid_subsample_estimates_near_zero(self):
        rng = make_rng(4)
        original = rng.standard_normal((4000, 3))
        reduced = rng.standard_normal((2000, 3))
        est = kl_estimate(reduced, original)
        assert abs(est.value) < 0.15

    def test_mean_shift_gaussian_oracle(self):
        # closed form: KL(N(mu, I) || N(0, I)) = |mu|^2 / 2
        mu = np.array([1.0, 0.0, 0.0, 0.0])
        ests = [kl_estimate(*gaussian_pair(1000 + s, 2000, 4, mu)).value
                for s in range(5)]
        assert abs(float(np.mean(ests)) - 0.5) <= 0.12

    def test_diagonal_gaussian_oracle(self):
        # closed form: 0.5 * (sum(s2) - d - sum(log s2))
        d = 4
        sigma2 = np.array([0.5, 0.75, 1.25, 1.5])
        closed = 0.5 * float(sigma2.sum() - d - np.log(sigma2).sum())
        ests = []
        for s in range(5):
            rng = make_rng(3000 + s)
            original = rng.standard_normal((2000, d))
            reduced = rng.standard_normal((2000, d)) * np.sqrt(sigma2)
            ests.append(kl_estimate(reduced, original).value)
        assert abs(float(np.mean(ests)) - closed) <= 0.12

    def test_permutation_invariance(self):
        rng = make_rng(6)
        reduced = rng.standard_normal((60, 3))
        original = rng.standard_normal((80, 3))
        base = kl_estimate(reduced, original).value
        perm = kl_estimate(reduced[rng.permutation(60)],
                           original[rng.permutation(80)]).value
        assert base == pytest.approx(perm, abs=1e-12)

    def test_reassembles_from_density_estimates(self):
        # the estimator equals the mean log density ratio of the 1-NN estimates
        rng = make_rng(7)
        reduced = rng.standard_normal((15, 3))
        original = rng.standard_normal((20, 3))
        est = kl_estimate(reduced, original).value
        assert est == pytest.approx(knn_density_kl(reduced, original), abs=1e-9)
        # integer samples are taken as float64 (they used to raise OverflowError)
        ints = [np.rint(1000 * s).astype(np.int64) for s in (reduced, original)]
        assert kl_estimate(*ints).value == pytest.approx(knn_density_kl(*ints),
                                                         abs=1e-9)

    def test_nested_and_integer_lists_accepted(self):
        # reduced [0, 1, 3] against original [0, 2, 3] on a line: rho is
        # 1, 1, 2 and nu 0 (floored), 1, 0 (floored)
        want = (math.log(DISTANCE_FLOOR) + math.log(DISTANCE_FLOOR / 2)) / 3 \
            + math.log(3 / 2)
        for reduced, original in (([[0.0], [1.0], [3.0]], [[0.0], [2.0], [3.0]]),
                                  ([[0], [1], [3]], [[0], [2], [3]])):
            assert kl_estimate(reduced, original).value == pytest.approx(want, rel=1e-12)
        tokens = [[0, 0], [1, 0], [3, 0], [0, 2]]
        plan = ReductionPlan(kept=np.array([0, 1, 2]), discarded=np.array([3]),
                             reps=np.array([0]), original_len=4)
        assert score_reduction(tokens, plan) == kl_estimate(
            np.array(tokens[:3], dtype=np.float64), tokens).value

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ValueError):
            kl_estimate(np.ones((1, 2)), np.ones((5, 2)))
        with pytest.raises(ValueError):
            kl_estimate(np.ones((5, 2)), np.ones((5, 3)))
        # the search finds nearest neighbors only, so any k but 1 is refused
        tokens = make_rng(12).standard_normal((8, 2))
        plan = ReductionPlan(kept=np.arange(6), discarded=np.array([6, 7]),
                             reps=np.array([0, 1]), original_len=8)
        for k in (2, True, 1.5):
            with pytest.raises(ValueError, match="k must be an integer equal to 1"):
                kl_estimate(tokens[:6], tokens, k=k)
            with pytest.raises(ValueError, match="k must be an integer equal to 1"):
                score_reduction(tokens, plan, k=k)

    def test_coincident_sets_hit_the_floor_without_nan(self):
        rng = make_rng(8)
        pts = rng.standard_normal((30, 3))
        est = kl_estimate(pts, pts)
        assert np.isfinite(est.value)
        assert est.value < 0  # floored nu makes the value strongly negative


def clustered_grid_tokens(rng, d=8, redundant_chunks=16, sigma=1e-3):
    """(4,8,8) grid whose chunks are either near-constant or fully unique."""
    shape = (4, 8, 8)
    part = partition_3d(shape, (2, 2, 2), rng)
    n = part.n_tokens
    tokens = rng.standard_normal((n, d))
    chunk_of = np.empty(n, dtype=int)
    for t in range(4):
        for h in range(8):
            for w in range(8):
                chunk_of[(t * 8 + h) * 8 + w] = ((t // 2) * 4 + (h // 2)) * 4 + (w // 2)
    chosen = rng.permutation(32)[:redundant_chunks]
    for c in chosen:
        members = np.nonzero(chunk_of == c)[0]
        base = rng.standard_normal(d)
        tokens[members] = base + sigma * rng.standard_normal((len(members), d))
    return tokens, part


class TestScoreReduction:
    def test_rate_zero_regression_value(self):
        rng = make_rng(9)
        part = partition_3d((2, 4, 4), (2, 2, 2), rng)
        tokens = rng.standard_normal((part.n_tokens, 4))
        plan = build_plan(pairwise_best_match(tokens, part), part, 0.0)
        value = score_reduction(tokens, plan)
        # self-comparison: every nu hits the floor; tracked for regression only
        assert np.isfinite(value) and value < 0
        assert value == pytest.approx(score_reduction(tokens, plan))

    def test_discarding_duplicates_scores_lower_than_discarding_unique(self):
        rng = make_rng(10)
        part = partition_3d((2, 8, 8), (2, 2, 2), rng)  # 16 destinations
        n = part.n_tokens
        tokens = rng.standard_normal((n, 6))
        dup_src = part.src_indices[:8]
        tokens[dup_src] = tokens[part.dst_indices[:8]]
        uniq_src = part.src_indices[10:18]
        reps = part.dst_indices[:8]

        def plan_for(discard):
            mask = np.ones(n, dtype=bool)
            mask[discard] = False
            return ReductionPlan(kept=np.nonzero(mask)[0],
                                 discarded=np.sort(np.asarray(discard)),
                                 reps=reps, original_len=n)

        dup_score = score_reduction(tokens, plan_for(dup_src))
        uniq_score = score_reduction(tokens, plan_for(uniq_src))
        assert dup_score < uniq_score

    def test_matched_beats_random_on_clustered_tokens(self):
        wins = 0
        for seed in range(20):
            rng = make_rng(9000 + seed)
            tokens, part = clustered_grid_tokens(rng)
            matched = build_plan(
                pairwise_best_match(tokens, part, "neg_euclidean"), part, 0.45)
            random_plan = build_plan(
                pairwise_best_match(tokens, part, "random", rng), part, 0.45)
            wins += (score_reduction(tokens, matched)
                     < score_reduction(tokens, random_plan))
        assert wins >= 16

    def test_random_scores_highest_among_metrics_on_clusters(self):
        # random matching keeps redundant near-copies that every real metric
        # would have removed, so its kept set diverges most from the original
        metrics = ("neg_euclidean", "cosine", "dot")
        wins = {m: 0 for m in metrics}
        for seed in range(20):
            rng = make_rng(9500 + seed)
            part = partition_3d((4, 8, 8), (2, 2, 2), rng)
            uniq = rng.standard_normal((26, 8))
            tokens = uniq[rng.integers(0, 26, part.n_tokens)] \
                + 1e-3 * rng.standard_normal((part.n_tokens, 8))
            rand_score = score_reduction(tokens, build_plan(
                pairwise_best_match(tokens, part, "random", make_rng(99)),
                part, 0.45))
            for m in metrics:
                plan = build_plan(pairwise_best_match(tokens, part, m), part, 0.45)
                wins[m] += rand_score > score_reduction(tokens, plan)
        for m in metrics:
            assert wins[m] >= 16

    def test_m_not_larger_than_k_rejected(self):
        tokens = np.ones((4, 2))
        plan = ReductionPlan(kept=np.array([0]), discarded=np.array([1, 2, 3]),
                             reps=np.array([0, 0, 0]), original_len=4)
        with pytest.raises(ValueError, match="m="):
            score_reduction(tokens, plan)

import numpy as np
import pytest

from tokenrnr import klnn
from tokenrnr.core import make_rng
from tokenrnr.klnn import kl_estimate, knn_distances, score_reduction
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
        assert knn_distances(np.array([[0.0, 0.0]]), points, k=1)[0] == 0.0

    def test_hand_countable_line(self):
        points = np.array([[0.0], [1.0], [3.0]])
        q = np.array([[0.0]])
        assert knn_distances(q, points, k=2, exclude_self=True)[0] == 3.0
        assert knn_distances(q, points, k=1, exclude_self=True)[0] == 1.0
        assert knn_distances(q, points, k=2, exclude_self=False)[0] == 1.0

    def test_against_sort_oracle(self):
        rng = make_rng(1)
        points = rng.standard_normal((40, 5))
        for seed in range(20):
            q = make_rng(100 + seed).standard_normal(5)
            for k in (1, 3, 7):
                got = knn_distances(q[None], points, k)[0]
                want = sort_based_knn(points, q, k)
                assert got == want

    def test_self_exclusion_against_sort_oracle(self):
        rng = make_rng(2)
        points = rng.standard_normal((25, 3))
        for i in range(25):
            got = knn_distances(points[i:i + 1], points, k=2, exclude_self=True)[0]
            want = sort_based_knn(points, points[i], k=2, exclude_self=True)
            assert got == want

    def test_distance_values_match_naive_formula(self):
        rng = make_rng(15)
        points = rng.standard_normal((60, 6))
        for seed in range(10):
            q = make_rng(500 + seed).standard_normal(6)
            naive_sorted = np.sort(naive_distances(points, q))
            for k in (1, 4):
                assert knn_distances(q[None], points, k)[0] == pytest.approx(
                    float(naive_sorted[k - 1]), rel=1e-12, abs=1e-12)

    def test_k_out_of_range(self):
        points = np.ones((3, 2))
        q = np.zeros((1, 2))
        with pytest.raises(ValueError, match="k="):
            knn_distances(q, points, k=4)
        with pytest.raises(ValueError, match="k="):
            knn_distances(q, points, k=3, exclude_self=True)

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
    ])
    def test_malformed_inputs_rejected(self, monkeypatch, queries, points, k, match):
        # each is refused by name before any distance work starts
        def no_norms(*_):
            raise AssertionError("norms computed before the input checks")
        monkeypatch.setattr(klnn, "row_sq_norms", no_norms)
        with pytest.raises(ValueError, match=match):
            knn_distances(queries, points, k)

    def test_numpy_integer_k_accepted(self):
        points = np.array([[0.0], [1.0], [3.0]])
        assert knn_distances(np.zeros((1, 1)), points, np.int64(2))[0] == 1.0

    def test_batch_matches_single(self):
        # batched and single-query calls hit different BLAS kernel shapes,
        # so agreement is to rounding, not bitwise
        rng = make_rng(3)
        points = rng.standard_normal((30, 4))
        queries = rng.standard_normal((8, 4))
        batch = knn_distances(queries, points, k=2)
        for i in range(len(queries)):
            assert batch[i] == pytest.approx(
                knn_distances(queries[i:i + 1], points, k=2)[0], rel=1e-12)

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
        monkeypatch.setattr(klnn, "_KNN_CHUNK_ELEMS", chunk_rows * len(points))
        want = np.sqrt(((queries[3] - points) ** 2).sum(1)).min()
        assert knn_distances(queries, points, 1)[3] == want

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_selection_is_exact_with_ties_across_chunks(self, monkeypatch,
                                                        exclude_self):
        # integer coordinates make every distance exact, and each point is
        # present 2-3 times, so every row has ties; 23 queries in chunks of 5
        # rows give four full chunks and a short last one
        rng = make_rng(11)
        uniq = rng.integers(-3, 4, size=(12, 3)).astype(np.float64)
        points = np.repeat(uniq, rng.integers(2, 4, size=12), axis=0)
        queries = np.vstack([points[:17],
                             rng.integers(-3, 4, size=(6, 3)).astype(np.float64)])
        monkeypatch.setattr(klnn, "_KNN_CHUNK_ELEMS", 5 * len(points))
        skip = 1 if exclude_self else 0
        direct = np.sort(np.sqrt(((queries[:, None, :] - points[None]) ** 2).sum(2)),
                         axis=1)
        for k in range(1, 5):
            got = knn_distances(queries, points, k, exclude_self=exclude_self)
            assert np.array_equal(got, direct[:, k - 1 + skip])


class TestKlEstimate:
    def test_iid_subsample_estimates_near_zero(self):
        rng = make_rng(4)
        original = rng.standard_normal((4000, 3))
        reduced = rng.standard_normal((2000, 3))
        est = kl_estimate(reduced, original, k=1)
        assert abs(est.value) < 0.15

    def test_mean_shift_gaussian_oracle(self):
        # closed form: KL(N(mu, I) || N(0, I)) = |mu|^2 / 2
        mu = np.array([1.0, 0.0, 0.0, 0.0])
        ests = [kl_estimate(*gaussian_pair(1000 + s, 2000, 4, mu), k=1).value
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
            ests.append(kl_estimate(reduced, original, k=1).value)
        assert abs(float(np.mean(ests)) - closed) <= 0.12

    def test_higher_k_also_tracks_closed_form(self):
        mu = np.array([1.0, 0.0, 0.0, 0.0])
        ests = [kl_estimate(*gaussian_pair(5000 + s, 2000, 4, mu), k=4).value
                for s in range(5)]
        assert abs(float(np.mean(ests)) - 0.5) <= 0.12

    def test_permutation_invariance(self):
        rng = make_rng(6)
        reduced = rng.standard_normal((60, 3))
        original = rng.standard_normal((80, 3))
        base = kl_estimate(reduced, original, k=2).value
        perm = kl_estimate(reduced[rng.permutation(60)],
                           original[rng.permutation(80)], k=2).value
        assert base == pytest.approx(perm, abs=1e-12)

    def test_reassembles_from_density_estimates(self):
        # the estimator equals the mean log density ratio of the k-NN estimates
        rng = make_rng(7)
        reduced = rng.standard_normal((15, 3))
        original = rng.standard_normal((20, 3))
        est = kl_estimate(reduced, original, k=2).value
        assert est == pytest.approx(knn_density_kl(reduced, original, k=2), abs=1e-9)

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ValueError):
            kl_estimate(np.ones((1, 2)), np.ones((5, 2)), k=1)
        with pytest.raises(ValueError):
            kl_estimate(np.ones((5, 2)), np.ones((5, 3)), k=1)

    def test_coincident_sets_hit_the_floor_without_nan(self):
        rng = make_rng(8)
        pts = rng.standard_normal((30, 3))
        est = kl_estimate(pts, pts, k=1)
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
        value = score_reduction(tokens, plan, k=1)
        # self-comparison: every nu hits the floor; tracked for regression only
        assert np.isfinite(value) and value < 0
        assert value == pytest.approx(score_reduction(tokens, plan, k=1))

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

        dup_score = score_reduction(tokens, plan_for(dup_src), k=1)
        uniq_score = score_reduction(tokens, plan_for(uniq_src), k=1)
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
            wins += (score_reduction(tokens, matched, k=1)
                     < score_reduction(tokens, random_plan, k=1))
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
                part, 0.45), k=1)
            for m in metrics:
                plan = build_plan(pairwise_best_match(tokens, part, m), part, 0.45)
                wins[m] += rand_score > score_reduction(tokens, plan, k=1)
        for m in metrics:
            assert wins[m] >= 16

    def test_m_not_larger_than_k_rejected(self):
        tokens = np.ones((4, 2))
        plan = ReductionPlan(kept=np.array([0]), discarded=np.array([1, 2, 3]),
                             reps=np.array([0, 0, 0]), original_len=4)
        with pytest.raises(ValueError, match="m="):
            score_reduction(tokens, plan, k=1)

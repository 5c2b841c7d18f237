"""Brute-force reference implementations the tests check against.

These deliberately use the dumbest possible formulation (explicit loops,
full sorts, exhaustive argmax, Python sets) and stay independent of the
library's own matching/selection/ordering logic. The whole similarity
matrix and the plan check have no library counterpart; they are written
here from their definitions. `direct_similarities` and `sort_based_knn`
share one kernel with the library, its squared distances, because the
bitwise checks on matching need exactly its rounding.
"""
from __future__ import annotations

import math

import numpy as np

from tokenrnr.core import pairwise_sq_dists
from tokenrnr.rnr import ReductionPlan


def naive_attention(q, k, v):
    """Row-by-row softmax attention with explicit normalization."""
    s = 1.0 / np.sqrt(q.shape[1])
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        scores = np.array([s * float(np.dot(q[i], k[j])) for j in range(k.shape[0])])
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        out[i] = weights @ v
    return out


def exhaustive_match(sims):
    """Argmax per source and descending-similarity order, via explicit loops.

    Ties in the best destination go to the lowest destination position; ties
    in the ordering go to the lowest source position.
    """
    n_src, n_dst = sims.shape
    best_dst = np.zeros(n_src, dtype=np.int64)
    best_sim = np.zeros(n_src)
    for i in range(n_src):
        bj, bs = 0, sims[i, 0]
        for j in range(1, n_dst):
            if sims[i, j] > bs:
                bj, bs = j, sims[i, j]
        best_dst[i] = bj
        best_sim[i] = bs
    order = sorted(range(n_src), key=lambda i: (-best_sim[i], i))
    return best_dst, best_sim, np.array(order, dtype=np.int64)


def direct_similarities(src, dst, metric, rng=None):
    """The whole (n_src, n_dst) similarity matrix, each metric from its
    definition: the negative L2 distance, the dot product, the cosine (with
    -inf wherever a zero-norm row takes part) and, for `random`, one draw of
    i.i.d. uniforms from `rng`."""
    if metric == "neg_euclidean":
        return -np.sqrt(pairwise_sq_dists(src, dst))
    if metric == "dot":
        return src @ dst.T
    if metric == "cosine":
        src_norm = np.linalg.norm(src, axis=1)
        dst_norm = np.linalg.norm(dst, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = (src / src_norm[:, None]) @ (dst / dst_norm[:, None]).T
        sims[src_norm == 0.0, :] = -np.inf
        sims[:, dst_norm == 0.0] = -np.inf
        return sims
    if metric == "random":
        return rng.random((len(src), len(dst)))
    raise ValueError(f"unknown metric {metric!r}")


def sort_based_knn(points, query, k, exclude_self=False):
    """k-th order statistic by fully sorting all distances.

    Shares the library's distance kernel and checks the selection logic
    independently (a full sort vs the library's argmin knockouts);
    `naive_distances` below provides the independent-arithmetic route, which
    is tolerance-checked.
    """
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    dists = np.sort(np.sqrt(pairwise_sq_dists(q, points)[0]))
    if exclude_self:
        dists = dists[1:]
    return float(dists[k - 1])


def knn_density_kl(reduced, original, k):
    """Mean log ratio of the k-NN density estimates at the reduced samples.

    The density estimate at x is k / (count * V_d * r^d), with r the k-th
    neighbor distance (from `sort_based_knn`), V_d the unit-ball volume and
    count l' - 1 within `reduced` (x itself excluded) or l within `original`.
    """
    d = reduced.shape[1]
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    logs = []
    for x in reduced:
        rho = sort_based_knn(reduced, x, k, exclude_self=True)
        nu = sort_based_knn(original, x, k)
        p_hat = k / ((len(reduced) - 1) * ball * rho ** d)
        q_hat = k / (len(original) * ball * nu ** d)
        logs.append(math.log(p_hat / q_hat))
    return float(np.mean(logs))


def naive_distances(points, query):
    return np.sqrt(((points - np.asarray(query)) ** 2).sum(axis=1))


def sorted_percentile_standardize(raw):
    """Percentile clamp + min-max rescale, built on an explicit sort."""
    raw = np.asarray(raw, dtype=np.float64)
    lo = np.percentile(np.sort(raw), 5)
    hi = np.percentile(np.sort(raw), 95)
    if hi == lo:
        return np.full(len(raw), 0.5)
    return (np.clip(raw, lo, hi) - lo) / (hi - lo)


def gather_rows(tokens, kept):
    return np.stack([tokens[i] for i in kept])


def mean_merge_rows(tokens, kept, rep_of):
    out = []
    for kidx in kept:
        group = [tokens[kidx]] + [tokens[d] for d, r in rep_of.items() if r == kidx]
        out.append(np.mean(group, axis=0))
    return np.stack(out)


def identity_plan(n):
    """The plan over n tokens that discards nothing, written out."""
    return ReductionPlan(kept=np.arange(n), discarded=np.array([], dtype=int),
                         reps=np.array([], dtype=int), original_len=n)


def check_plan(plan):
    """Assert that kept and discarded split 0..n-1 between them, that reps
    pairs up with discarded, and that every representative is kept."""
    kept = [int(i) for i in plan.kept]
    discarded = [int(i) for i in plan.discarded]
    assert not set(kept) & set(discarded), "kept and discarded must be disjoint"
    assert sorted(kept + discarded) == list(range(plan.original_len)), \
        "kept and discarded must partition 0..n-1"
    assert len(plan.reps) == len(discarded), "reps must align with discarded"
    assert {int(r) for r in plan.reps} <= set(kept), \
        "every representative must be a kept index"

"""Brute-force reference implementations the tests check against.

These deliberately use the dumbest possible formulation (explicit loops,
full sorts, exhaustive argmax) and stay independent of the library's own
matching/selection/ordering logic.
"""
from __future__ import annotations

import math

import numpy as np


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


def sort_based_knn(points, query, k, exclude_self=False):
    """k-th order statistic by fully sorting all distances.

    Shares the library's distance kernel and checks the selection logic
    independently (a full sort vs the library's argmin knockouts);
    `naive_distances` below provides the independent-arithmetic route, which
    is tolerance-checked.
    """
    from tokenrnr.core import pairwise_sq_dists

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

"""k-nearest-neighbor Kullback-Leibler divergence estimation.

Given samples X' ~ P' (l' rows) and X ~ P (l rows), the estimate is

    D(P'||P) ~= (d / l') * sum_i log(nu_k(i) / rho_k(i)) + log(l / (l' - 1))

where rho_k(i) is the distance from X'_i to its k-th nearest neighbor within
X' (excluding itself) and nu_k(i) the distance to its k-th nearest neighbor
in X. Neighbor search is exact brute force: desk-scale sample counts make
index structures unnecessary. Queries are processed in chunks of 2^18
squared distances, small enough to stay in cache. The squared norms of both
sets and the refine scale are computed once per search, so a chunk costs the
five passes of `pairwise_sq_dists` (broadcast add, GEMM, x2, subtract, one
compare against the refine cutoff) plus direct differences on the near-zero
entries. Each row's k-th smallest distance is then selected by argmin
knockouts (the current minimum is set to inf, k - 1 times, or k times when
self is excluded) and one min pass, so the selection cost grows linearly
with k. The package's callers use k = 1: no knockout for nu, one for rho.

Exact zero distances (coincident points) are floored at DISTANCE_FLOOR; the
underlying theory assumes continuous densities where that event has measure
zero. Scoring a reduction plan compares kept rows against the full token set,
which always trips the floor on nu (every kept row coincides with itself in
the original set), so those scores are comparative diagnostics, not
calibrated divergences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Matrix, pairwise_sq_dists, row_sq_norms
from .rnr import ReductionPlan

DISTANCE_FLOOR = 1e-12

# squared distances per query chunk, as in matching
_KNN_CHUNK_ELEMS = 1 << 18


@dataclass(frozen=True)
class KlEstimate:
    """Estimated divergence in nats."""

    value: float


def _validate_samples(points: Matrix, min_rows: int = 2) -> None:
    if points.ndim != 2 or points.shape[0] < min_rows:
        raise ValueError(f"need a 2-D sample set with at least {min_rows} rows")
    if not np.isfinite(points).all():
        raise ValueError("sample entries must be finite")


def knn_distances(queries: Matrix, points: Matrix, k: int,
                  exclude_self: bool = False) -> np.ndarray:
    """Exact k-th nearest-neighbor L2 distance for each query row.

    With exclude_self, the single closest point is skipped for every query
    (the convention for queries drawn from `points` itself). Distances are
    selected on squared values and square-rooted afterwards; sqrt is monotone,
    so the order statistic is unchanged.

    Queries are handled in chunks of `_KNN_CHUNK_ELEMS` distance entries, and
    every chunk refines near-zero distances against the scale of the whole
    query and point sets, so the result does not depend on how the queries
    are chunked. Within a chunk the k-th smallest entry of each row is found
    in place: k - 1 times (k with exclude_self) the row's argmin entry is set
    to inf, then the row minimum is taken. Each knockout removes exactly one
    occurrence, so ties count with their multiplicity, as in a sort.

    Both sets must be finite 2-D matrices with the same number of columns,
    and k an integer (not a bool) from 1 to the number of usable points.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    for what, mat in (("queries", queries), ("points", points)):
        if mat.ndim != 2:
            raise ValueError(f"{what} must be a 2-D matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError(f"{what} entries must be finite")
    if queries.shape[1] != points.shape[1]:
        raise ValueError(f"queries have {queries.shape[1]} columns, "
                         f"points {points.shape[1]}")
    usable = points.shape[0] - (1 if exclude_self else 0)
    if k < 1 or k > usable:
        raise ValueError(f"k={k} out of range for {points.shape[0]} points"
                         f"{' (self-excluded)' if exclude_self else ''}")
    kth = k + (1 if exclude_self else 0)
    p2 = row_sq_norms(points)
    q2 = p2 if queries is points else row_sq_norms(queries)
    scale = q2.max(initial=0.0) + p2.max(initial=0.0)
    chunk = max(1, _KNN_CHUNK_ELEMS // points.shape[0])
    out = np.empty(queries.shape[0])
    for i in range(0, queries.shape[0], chunk):
        d2 = pairwise_sq_dists(queries[i:i + chunk], points, p2, scale)
        rows = np.arange(d2.shape[0])
        for _ in range(kth - 1):
            d2[rows, d2.argmin(axis=1)] = np.inf
        out[i:i + chunk] = d2.min(axis=1)
    return np.sqrt(out)


def kl_estimate(reduced: Matrix, original: Matrix, k: int = 1) -> KlEstimate:
    """Estimate D(P'||P) from reduced ~ P' and original ~ P."""
    _validate_samples(reduced, min_rows=k + 1)
    _validate_samples(original, min_rows=k)
    if reduced.shape[1] != original.shape[1]:
        raise ValueError("sample sets must share a dimension")
    l_prime, d = reduced.shape
    l = original.shape[0]
    rho = np.maximum(knn_distances(reduced, reduced, k, exclude_self=True),
                     DISTANCE_FLOOR)
    nu = np.maximum(knn_distances(reduced, original, k, exclude_self=False),
                    DISTANCE_FLOOR)
    value = (d / l_prime) * float(np.log(nu / rho).sum()) + math.log(l / (l_prime - 1))
    return KlEstimate(value=value)


def score_reduction(tokens: Matrix, plan: ReductionPlan, k: int = 1) -> float:
    """Divergence score of a reduction plan: kept rows vs the full token set.

    Lower is better (the kept rows look more like the original distribution).
    See the module note on the coincident-point floor.
    """
    if tokens.shape[0] != plan.original_len:
        raise ValueError(
            f"token count {tokens.shape[0]} does not match plan over {plan.original_len}")
    if plan.m <= k:
        raise ValueError(f"plan keeps m={plan.m} rows, need more than k={k}")
    return kl_estimate(tokens[plan.kept], tokens, k=k).value

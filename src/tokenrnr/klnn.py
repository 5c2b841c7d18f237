"""k-nearest-neighbor Kullback-Leibler divergence estimation.

Given samples X' ~ P' (l' rows) and X ~ P (l rows), the estimate is

    D(P'||P) ~= (d / l') * sum_i log(nu_k(i) / rho_k(i)) + log(l / (l' - 1))

where rho_k(i) is the distance from X'_i to its k-th nearest neighbor within
X' (excluding itself) and nu_k(i) the distance to its k-th nearest neighbor
in X. Neighbor search is exact brute force: desk-scale sample counts make
index structures unnecessary. The squared norms of both sets and the refine
scale are computed once per search, and one loop takes the queries in row
chunks of at most 2^18 squared entries, small enough to stay in cache; each
chunk costs one `pairwise_sq_dists` call (broadcast add, GEMM with the 2 of
2 x.y folded into its operand, subtract, one compare against the refine
cutoff, then direct differences on the near-zero entries) and one row-min
pass.

- A k = 1 self search (rho: `exclude_self` with `queries is points`) uses
  the symmetry of the distance matrix: chunk [lo, hi) meets columns [lo, n)
  only, n(n + h)/2 entries for chunk height h instead of n^2, and the column
  minima right of its square block update the rows below. A column minimum
  is the nearest neighbor those rows need; the k-th would need the k
  smallest of each column kept across chunks, so the triangle is k = 1 only.
- Every other search meets all points, n_q x n entries, and takes each
  row's k-th smallest by argmin knockouts: the row minimum is set to inf
  k - 1 times (k with exclude_self) before the row-min pass.

The package's callers use k = 1. At k = 1 `X` and `X.copy()` meet in
differently shaped GEMMs, so they agree to rounding, not bitwise; at k >= 2
both take the same chunks and agree bitwise.

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

# squared distances per query chunk (rows x columns met), as in matching
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
    so the order statistic is unchanged. Both sets are taken as float64;
    whether `queries is points` is decided before that cast.

    Queries are handled in row chunks of `_KNN_CHUNK_ELEMS` entries, and
    every chunk refines near-zero entries against the scale of the whole
    query and point sets, so the result does not depend on how the search is
    split (module note):

    - `queries is points` with exclude_self and k = 1 meets the upper
      triangle, n(n + h)/2 entries for chunk height h. Each row's distance to
      itself refines to exactly 0 (its expansion noise is far below the
      cutoff, and the direct difference is 0) and no distance is negative,
      so skipping the closest point removes one 0 from the row; setting the
      diagonal of the chunk's square block to inf removes the same value, so
      a duplicate's 0 stays in.
    - Otherwise each chunk meets all points, n_q x n entries in all, and the
      k-th smallest entry of each row is found in place: k - 1 times (k with
      exclude_self) the row's argmin entry is set to inf, then the row
      minimum is taken. Ties count with their multiplicity, as in a sort.

    Both sets must be finite 2-D matrices with the same number of columns
    and finite squared row norms, k an integer (not a bool) from 1 to the
    number of usable points, and exclude_self a bool.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not isinstance(exclude_self, (bool, np.bool_)):
        raise ValueError(f"exclude_self must be a bool, got {exclude_self!r}")
    same = queries is points
    points = np.asarray(points, dtype=np.float64)
    queries = points if same else np.asarray(queries, dtype=np.float64)
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
    p2 = row_sq_norms(points)
    q2 = p2 if same else row_sq_norms(queries)
    scale = q2.max(initial=0.0) + p2.max(initial=0.0)
    if not math.isfinite(scale):
        raise ValueError("squared row norms must be finite; entries near 1e154 "
                         "or larger overflow them")
    triangle = exclude_self and same and k == 1
    kth = k + (1 if exclude_self else 0)
    chunk = max(1, _KNN_CHUNK_ELEMS // points.shape[0])
    best = np.full(queries.shape[0], np.inf)
    for lo in range(0, queries.shape[0], chunk):
        hi = min(lo + chunk, queries.shape[0])
        rows = np.arange(hi - lo)
        if triangle:
            d2 = pairwise_sq_dists(points[lo:hi], points[lo:], p2[lo:], scale)
            d2[rows, rows] = np.inf  # each row's distance to itself
            np.minimum(best[hi:], d2[:, hi - lo:].min(axis=0), out=best[hi:])
        else:
            d2 = pairwise_sq_dists(queries[lo:hi], points, p2, scale)
            for _ in range(kth - 1):
                d2[rows, d2.argmin(axis=1)] = np.inf
        np.minimum(best[lo:hi], d2.min(axis=1), out=best[lo:hi])
    return np.sqrt(best)


def kl_estimate(reduced: Matrix, original: Matrix, k: int = 1) -> KlEstimate:
    """Estimate D(P'||P) from reduced ~ P' and original ~ P.

    rho passes `reduced` as both queries and points, so at k = 1 it is a
    self search that computes each pair once; nu, and rho at k >= 2, meet
    every pair of their two sets (module note).
    """
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

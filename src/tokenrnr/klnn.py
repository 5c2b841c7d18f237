"""k-nearest-neighbor Kullback-Leibler divergence estimation.

Given samples X' ~ P' (l' rows) and X ~ P (l rows), the estimate is

    D(P'||P) ~= (d / l') * sum_i log(nu_k(i) / rho_k(i)) + log(l / (l' - 1))

where rho_k(i) is the distance from X'_i to its k-th nearest neighbor within
X' (excluding itself) and nu_k(i) the distance to its k-th nearest neighbor
in X. Neighbor search is exact. Every distance comes from one
`pairwise_sq_dists` call per block of rows and columns (broadcast add, GEMM
with the 2 of 2 x.y folded into its operand, subtract, one compare against
the refine cutoff, then direct differences on the near-zero entries), made
with the squared norms of both sets and the refine scale computed once per
search, so which entries are refined does not depend on how a search is
split. A search takes one of three routes:

- The sweep, for k = 1 without exclude_self (every nu), after Friedman,
  Baskett and Shustek (1975). Both sets are projected on the points'
  leading principal axis u, the top eigenvector of their d x d scatter, and
  the points are sorted by projection once. The queries are taken in
  projection order, `_SWEEP_ROWS` at a time. Each chunk first meets a
  window of the `_SWEEP_WINDOW` points nearest to it in projection order,
  whose minimum gives every row i an upper bound beta_i on its nearest
  distance, and then only the points left and right of the window whose
  projection lies within beta_i + margin of some row i. A point left out
  lies farther than beta_i + margin from every row i along u, so farther
  than beta_i from it, since |x - y| >= |u.x - u.y|. The margin, 2 sqrt(_SQDIST_REFINE_REL * scale),
  covers rounding: the kernel's error on a squared distance stays below its
  refine cutoff, _SQDIST_REFINE_REL * scale (the bound its refine rests
  on), so a distance moves by at most half the margin, and the rounding of
  the projections, about d eps sqrt(scale), fits in the other half. A pair
  left out therefore never computes below the row's minimum. The window
  and the two side ranges are disjoint, so the sweep meets each pair at
  most once: from n_q x min(n, `_SWEEP_WINDOW`) entries up to n_q x n
  when nothing can be pruned.
- The triangle, for a k = 1 self search (rho: `exclude_self` with
  `queries is points`), uses the symmetry of the distance matrix: row
  chunks of at most `_KNN_CHUNK_ELEMS` entries, chunk [lo, hi) meeting
  columns [lo, n) only, n(n + h)/2 entries for chunk height h instead of
  n^2; the column minima right of its square block update the rows below.
  A column minimum is the nearest neighbor those rows need; the k-th would
  need the k smallest of each column kept across chunks, so the triangle
  is k = 1 only. It prunes nothing, so it needs no margin.
- The knockouts, for every other search (k >= 2, or exclude_self across
  two sets), meet all points in the same row chunks, n_q x n entries, and
  take each row's k-th smallest in place: the row minimum is set to inf
  k - 1 times (k with exclude_self) before the row-min pass. No bound, no
  margin.

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

from .core import _SQDIST_REFINE_REL, Matrix, pairwise_sq_dists, row_sq_norms
from .rnr import ReductionPlan

DISTANCE_FLOOR = 1e-12

# squared distances per query chunk (rows x columns met), as in matching
_KNN_CHUNK_ELEMS = 1 << 18
# the sweep's query rows per chunk and the points each chunk meets first;
# windows of 512-1536 points and chunks of 20-78 rows timed within noise of
# each other on the kl benchmark, and this pair fastest at its minimum
_SWEEP_ROWS = 26
_SWEEP_WINDOW = 1024


@dataclass(frozen=True)
class KlEstimate:
    """Estimated divergence in nats."""

    value: float


def _sweep_nearest(queries: np.ndarray, points: np.ndarray, p2: np.ndarray,
                   scale: float) -> np.ndarray:
    """Squared distance from each query row to its nearest point, by the
    projection sweep of the module note."""
    n, d = points.shape
    mean = points.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        scatter = points.T @ points - n * np.outer(mean, mean)
    # any unit axis keeps the sweep exact; one that overflowed (entries near
    # 1e150 summed over many rows) falls back to the first coordinate
    u = (np.linalg.eigh(scatter)[1][:, -1] if np.isfinite(scatter).all()
         else np.eye(d)[0])
    proj = points @ u
    order = np.argsort(proj, kind="stable")
    proj, points, p2 = proj[order], points[order], p2[order]
    qproj = queries @ u
    qorder = np.argsort(qproj, kind="stable")
    margin = 2.0 * math.sqrt(_SQDIST_REFINE_REL * scale)
    width = min(_SWEEP_WINDOW, n)
    best = np.empty(queries.shape[0])
    for lo in range(0, queries.shape[0], _SWEEP_ROWS):
        rows = qorder[lo:lo + _SWEEP_ROWS]
        q, qp = queries[rows], qproj[rows]
        a = int(np.searchsorted(proj, qp[len(rows) // 2])) - width // 2
        a = min(max(a, 0), n - width)
        b = a + width
        d2 = pairwise_sq_dists(q, points[a:b], p2[a:b], scale).min(axis=1)
        reach = np.sqrt(d2) + margin
        left = int(np.searchsorted(proj[:a], (qp - reach).min()))
        right = b + int(np.searchsorted(proj[b:], (qp + reach).max(), side="right"))
        for c0, c1 in ((left, a), (b, right)):
            if c0 < c1:
                np.minimum(d2, pairwise_sq_dists(q, points[c0:c1], p2[c0:c1],
                                                 scale).min(axis=1), out=d2)
        best[rows] = d2
    return best


def knn_distances(queries: Matrix, points: Matrix, k: int,
                  exclude_self: bool = False) -> np.ndarray:
    """Exact k-th nearest-neighbor L2 distance for each query row.

    With exclude_self, the single closest point is skipped for every query
    (the convention for queries drawn from `points` itself). Distances are
    selected on squared values and square-rooted afterwards; sqrt is monotone,
    so the order statistic is unchanged. Both sets are taken as float64;
    whether `queries is points` is decided before that cast.

    Every distance is refined against the scale of the whole query and
    point sets, so the result does not depend on how the search is split.
    The three routes of the module note:

    - k = 1 without exclude_self sweeps the points in the order of their
      projection on their leading principal axis, `_SWEEP_ROWS` query rows
      at a time: a window of `_SWEEP_WINDOW` points, then the points beyond
      it within each row's window distance plus a margin of
      2 sqrt(_SQDIST_REFINE_REL * scale) along that axis; from
      n_q x min(n, `_SWEEP_WINDOW`) to n_q x n entries, none twice. A pair it leaves out computes no
      smaller than the row's minimum, so the result is that of a search of
      all pairs, up to the rounding of differently shaped GEMMs.
    - `queries is points` with exclude_self and k = 1 meets the upper
      triangle in row chunks of `_KNN_CHUNK_ELEMS` entries, n(n + h)/2
      entries for chunk height h. Each row's distance to itself refines to
      exactly 0 (its expansion noise is far below the cutoff, and the
      direct difference is 0) and no distance is negative, so skipping the
      closest point removes one 0 from the row; setting the diagonal of the
      chunk's square block to inf removes the same value, so a duplicate's
      0 stays in.
    - Otherwise each row chunk meets all points, n_q x n entries in all, and
      the k-th smallest entry of each row is found in place: k - 1 times (k
      with exclude_self) the row's argmin entry is set to inf, then the row
      minimum is taken. Ties count with their multiplicity, as in a sort.
      The triangle and the knockouts prune nothing, so they need no margin.

    Both sets must be finite 2-D matrices with at least one column, the
    same number of columns and finite squared row norms, k an integer (not
    a bool) from 1 to the number of usable points, and exclude_self a bool.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not isinstance(exclude_self, (bool, np.bool_)):
        raise ValueError(f"exclude_self must be a bool, got {exclude_self!r}")
    same = queries is points
    points = np.asarray(points, dtype=np.float64)
    queries = points if same else np.asarray(queries, dtype=np.float64)
    for what, mat in (("queries", queries), ("points", points)):
        if mat.ndim != 2 or mat.shape[1] == 0:
            raise ValueError(f"{what} must be a 2-D matrix with at least one "
                             f"column, got shape {mat.shape}")
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
    if k == 1 and not exclude_self:
        return np.sqrt(_sweep_nearest(queries, points, p2, scale))
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

    Both sets are taken as float64 once, and `knn_distances` checks them:
    rho passes `reduced` as both queries and points, so at k = 1 it is a
    self search that computes each pair once, and it needs l' >= k + 1; nu
    searches `original`, by the projection sweep at k = 1, and needs l >= k
    (module note).
    """
    reduced = np.asarray(reduced, dtype=np.float64)
    original = np.asarray(original, dtype=np.float64)
    rho = np.maximum(knn_distances(reduced, reduced, k, exclude_self=True),
                     DISTANCE_FLOOR)
    nu = np.maximum(knn_distances(reduced, original, k, exclude_self=False),
                    DISTANCE_FLOOR)
    l_prime, d = reduced.shape
    l = original.shape[0]
    value = (d / l_prime) * float(np.log(nu / rho).sum()) + math.log(l / (l_prime - 1))
    return KlEstimate(value=value)


def score_reduction(tokens: Matrix, plan: ReductionPlan, k: int = 1) -> float:
    """Divergence score of a reduction plan: kept rows vs the full token set.

    Lower is better (the kept rows look more like the original distribution).
    See the module note on the coincident-point floor.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.shape[0] != plan.original_len:
        raise ValueError(
            f"token count {tokens.shape[0]} does not match plan over {plan.original_len}")
    if plan.m <= k:
        raise ValueError(f"plan keeps m={plan.m} rows, need more than k={k}")
    return kl_estimate(tokens[plan.kept], tokens, k=k).value

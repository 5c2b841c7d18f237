"""Nearest-neighbor Kullback-Leibler divergence estimation.

Given samples X' ~ P' (l' rows) and X ~ P (l rows), the estimate at k = 1 is

    D(P'||P) ~= (d / l') * sum_i log(nu(i) / rho(i)) + log(l / (l' - 1))

where rho(i) is the distance from X'_i to its nearest neighbor within X'
(excluding itself) and nu(i) the distance to its nearest neighbor in X.
Every caller uses k = 1, so the search finds nearest neighbors only.
Neighbor search is exact. Every distance comes from one kernel call
per block of rows and columns, made with the squared norms of both sets and
the refine scale computed once per search, and every entry a result can
read at or below `_SQDIST_REFINE_REL * scale` is recomputed by direct
differences, so coincident rows read exactly 0 and which entries are
refined does not depend on how a search is split. Two kernels serve the
two routes below. The sweep's window calls
`pairwise_sq_dists` (broadcast add, GEMM with the 2 of 2 x.y folded into
its operand, subtract, refine compare). The window is the one part every
sweep runs, small sets included, so it keeps that kernel: the benchmark's
tracer times every `kl` pass's distances at
`tokenrnr.klnn.pairwise_sq_dists` and requires the pass to enter it, the
sort oracle checks the window bitwise against sorted `pairwise_sq_dists`
rows, and moving it onto the other kernel waits for the benchmark to
retarget that span (ROADMAP item 1). The sweep's sides and the triangle
call `_augmented_sq_dists`, one GEMM of the rows [x, 1, |x|^2] against the
points [-2y, |y|^2, 1] per block, off by about 2 (d + 3) eps scale at
most, far below the refine cutoff; `_gated_row_minima` then refines only
the rows whose minimum is at or below the cutoff. Every entry at or below
the cutoff lies in such a row, so the same entries are refined as by a
compare over the whole block, and a block of distinct points skips the
compare. A search takes one of two
routes:

- The sweep, without exclude_self (every nu), after Friedman,
  Baskett and Shustek (1975). Both sets are projected on the points'
  leading principal axis u, the top eigenvector of their d x d scatter, and
  the points are sorted by projection once. The queries are taken in
  projection order, `_SWEEP_ROWS` at a time. Each chunk first meets a
  window of the `_SWEEP_WINDOW` points nearest to it in projection order,
  whose minimum gives every row i an upper bound beta_i on its nearest
  distance, and then, on each side of the window, the points whose
  projection lies within beta_i + margin of row i. A point left out lies
  farther than beta_i + margin from row i along u, so farther than beta_i
  from it, since |x - y| >= |u.x - u.y|. The margin,
  2 sqrt(_SQDIST_REFINE_REL * scale), covers rounding: either kernel's
  error on a squared distance stays below the refine cutoff,
  _SQDIST_REFINE_REL * scale (the bound the refine rests on), so a
  distance moves by at most half the margin, and the rounding of the
  projections, about d eps sqrt(scale), fits in the other half. A pair
  left out therefore never computes below the row's minimum.
  Each row's extent on a side is the run of sorted points from the window
  edge out to its bound, found by `searchsorted`. Per side, the rows with
  a nonzero extent are ordered by it and split into `_SWEEP_GROUPS`
  groups of near-equal count; each group meets, in one
  `_augmented_sq_dists` GEMM against the sorted points' operand, its own
  rows against the run out to its farthest extent, which holds every
  row's own run. That operand is
  built at the first group that needs one: queries that are rows of the
  points (a plan's kept tokens) find themselves in the window, and when
  every chunk's rows fit in it no row reaches a side and the search builds
  none. A row sits in one group per side, and the window and the two sides
  are disjoint, so the sweep meets each pair at most once: from
  n_q x min(n, `_SWEEP_WINDOW`) entries up to n_q x n when nothing can be
  pruned. On the `kl` benchmark's ten 5000 x 4 Gaussian pairs the window
  meets 16.0M entries, at four passes each, and the groups 60.4M side
  entries, at one pass each, where the rows' own runs hold 37.4M.
- The triangle, for a self search (every rho: `exclude_self`, which takes
  `queries is points`), uses the symmetry of the distance matrix: row
  chunks of at most `_KNN_CHUNK_ELEMS` entries, chunk [lo, hi) meeting
  columns [lo, n) only, n(n + h)/2 entries for chunk height h instead of
  n^2; the column minima right of its square block update the rows below,
  since a column minimum is the nearest neighbor those rows need. Each
  block is one `_augmented_sq_dists` GEMM, whose points' operand is built
  once per search; the chunk's rows go into one reused (h, d + 2) buffer.
  The triangle prunes nothing, so it needs no margin.
  The block's diagonal (each row against itself, always near 0) is set to
  inf before the refine gate takes the row minima, so only rows with a
  near-zero off-diagonal entry are refined; knocking it out after the row
  minima would put every row under the gate. Each row's distance to itself
  would refine to exactly 0 and no distance is negative, so skipping the
  closest point removes one 0 from the row; the inf removes the same
  value, so a duplicate's 0 stays in. The column minima are taken last,
  from the refined block, so every result is bitwise what a compare over
  the whole block gives.

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

from .core import (_SQDIST_REFINE_REL, Matrix, _augmented_points,
                   _augmented_sq_dists, _refine_near_zero, pairwise_sq_dists,
                   row_sq_norms)
from .rnr import ReductionPlan

DISTANCE_FLOOR = 1e-12

# squared distances per triangle row chunk (rows x columns met), as in matching
_KNN_CHUNK_ELEMS = 1 << 18
# the sweep's query rows per chunk, the points each chunk's window meets
# through pairwise_sq_dists, and the groups its rows are split into on each
# side of it, met by the one-GEMM block. The twelve nu searches of a kl
# benchmark pass at seed 1009 (104-row chunks; seconds, min / median of 9
# interleaved passes, 2 BLAS threads on a 2-vCPU Xeon):
#   window  groups  window + side entries  seconds
#      128       4         7.7M + 105.0M   0.34 / 0.41
#      256       3        15.3M +  76.8M   0.22 / 0.26
#      256       4        15.3M +  67.3M   0.23 / 0.27
#      320       3        19.2M +  69.4M   0.22 / 0.27
#      320       4        19.2M +  60.4M   0.22 / 0.26
#      384       4        23.0M +  54.5M   0.21 / 0.25
#      512       4        30.7M +  43.7M   0.25 / 0.30
#     1024       3        61.4M +  17.0M   0.29 / 0.32
# Windows of 256-384 in 3-4 groups time within noise, as do chunks of
# 78-156 rows at (320, 4); six groups cost more in calls than they save in
# entries. On that plateau a window of 320 holds every chunk of the
# sparser benchmark plan (3892 kept of 8192 tokens), so neither plan search
# reaches a side or builds its 4.1 MiB points operand; at 256, 46 of its
# rows reach one.
_SWEEP_ROWS = 104
_SWEEP_WINDOW = 320
_SWEEP_GROUPS = 4


@dataclass(frozen=True)
class KlEstimate:
    """Estimated divergence in nats."""

    value: float


def _gated_row_minima(d2: np.ndarray, a: np.ndarray, b: np.ndarray,
                      scale: float) -> np.ndarray:
    """Row minima of the raw `_augmented_sq_dists` block `d2` between the
    rows of `a` and `b`, after `_refine_near_zero` has refined, in place,
    only the rows whose minimum is at or below `_SQDIST_REFINE_REL * scale`.
    Every entry at or below that cutoff lies in such a row, so the entries
    refined are those of a compare over the whole block."""
    row_min = d2.min(axis=1)
    near = np.flatnonzero(row_min <= _SQDIST_REFINE_REL * scale)
    if near.size:
        refined = _refine_near_zero(d2[near], a[near], b, scale)
        d2[near] = refined
        row_min[near] = refined.min(axis=1)
    return row_min


def _sweep_nearest(queries: np.ndarray, q2: np.ndarray, points: np.ndarray,
                   p2: np.ndarray, scale: float) -> np.ndarray:
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
    points_aug = rows_buf = None
    best = np.empty(queries.shape[0])
    for lo in range(0, queries.shape[0], _SWEEP_ROWS):
        rows = qorder[lo:lo + _SWEEP_ROWS]
        q, qp = queries[rows], qproj[rows]
        a = int(np.searchsorted(proj, qp[len(rows) // 2])) - width // 2
        a = min(max(a, 0), n - width)
        b = a + width
        d2 = pairwise_sq_dists(q, points[a:b], p2[a:b], scale).min(axis=1)
        reach = np.sqrt(d2) + margin
        # each row's own extent left of the window and right of it
        left = a - np.searchsorted(proj[:a], qp - reach)
        right = np.searchsorted(proj[b:], qp + reach, side="right")
        for extent, side in ((left, -1), (right, 1)):
            # the rows that need points on this side, ordered by extent
            need = np.argsort(extent, kind="stable")[
                len(rows) - np.count_nonzero(extent):]
            if not need.size:
                continue
            if points_aug is None:  # the first chunk to reach a side
                points_aug = _augmented_points(points, p2)
                rows_buf = np.empty((_SWEEP_ROWS, d + 2))
            qs, q2s, ends = q[need], q2[rows[need]], extent[need]
            side_min = np.empty(len(need))
            for g in range(_SWEEP_GROUPS):
                g0 = g * len(need) // _SWEEP_GROUPS
                g1 = (g + 1) * len(need) // _SWEEP_GROUPS
                if g1 > g0:
                    e = int(ends[g1 - 1])
                    c0, c1 = (a - e, a) if side < 0 else (b, b + e)
                    side_min[g0:g1] = _gated_row_minima(
                        _augmented_sq_dists(qs[g0:g1], points_aug[c0:c1],
                                            q2s[g0:g1], rows_buf),
                        qs[g0:g1], points[c0:c1], scale)
            d2[need] = np.minimum(d2[need], side_min)
        best[rows] = d2
    return best


def knn_distances(queries: Matrix, points: Matrix,
                  exclude_self: bool = False) -> np.ndarray:
    """Exact nearest-neighbor L2 distance from each query row to `points`.

    With exclude_self, each row's own entry is skipped: `queries` must then
    be `points` itself (the same object, decided before the float64 cast),
    and the result is each row's distance to its nearest other row, so a
    duplicate row reads 0. Both sets are taken as float64.

    Both sets must be finite 2-D matrices with at least one column, the
    same number of columns and finite squared row norms; `points` needs at
    least one row, two with exclude_self, and exclude_self must be a bool.
    Anything else raises ValueError before any distance is computed.

    The result is exact: every distance is refined against the scale of the
    whole query and point sets, so coincident rows read exactly 0 and the
    result does not depend on how the search is split, and it is that of a
    search of all pairs up to the rounding of differently shaped GEMMs. The
    module note describes the two routes, the sweep and the triangle.
    """
    if not isinstance(exclude_self, (bool, np.bool_)):
        raise ValueError(f"exclude_self must be a bool, got {exclude_self!r}")
    same = queries is points
    if exclude_self and not same:
        raise ValueError("exclude_self needs queries to be points itself")
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
    n, d = points.shape
    if n < 1 + exclude_self:
        raise ValueError(f"no neighbor to find among {n} points")
    p2 = row_sq_norms(points)
    q2 = p2 if same else row_sq_norms(queries)
    scale = q2.max(initial=0.0) + p2.max(initial=0.0)
    if not math.isfinite(scale):
        raise ValueError("squared row norms must be finite; entries near 1e154 "
                         "or larger overflow them")
    if not exclude_self:
        return np.sqrt(_sweep_nearest(queries, q2, points, p2, scale))
    chunk = max(1, _KNN_CHUNK_ELEMS // n)
    points_aug = _augmented_points(points, p2)
    rows_buf = np.empty((chunk, d + 2))
    best = np.full(n, np.inf)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        rows = np.arange(hi - lo)
        d2 = _augmented_sq_dists(points[lo:hi], points_aug[lo:], p2[lo:hi],
                                 rows_buf)
        d2[rows, rows] = np.inf  # each row's distance to itself
        row_min = _gated_row_minima(d2, points[lo:hi], points[lo:], scale)
        np.minimum(best[hi:], d2[:, hi - lo:].min(axis=0), out=best[hi:])
        np.minimum(best[lo:hi], row_min, out=best[lo:hi])
    return np.sqrt(best)


def kl_estimate(reduced: Matrix, original: Matrix, k: int = 1) -> KlEstimate:
    """Estimate D(P'||P) from reduced ~ P' and original ~ P.

    k must be 1, the only neighbor rank the search finds; any other value,
    a bool included, raises ValueError. Both sets are taken as float64
    once, and `knn_distances` checks them: rho is the self search of
    `reduced` and needs l' >= 2, nu searches `original` and needs l >= 1.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k != 1:
        raise ValueError("k must be an integer equal to 1 (nearest "
                         f"neighbors only), got {k!r}")
    reduced = np.asarray(reduced, dtype=np.float64)
    original = np.asarray(original, dtype=np.float64)
    rho = np.maximum(knn_distances(reduced, reduced, exclude_self=True),
                     DISTANCE_FLOOR)
    nu = np.maximum(knn_distances(reduced, original), DISTANCE_FLOOR)
    l_prime, d = reduced.shape
    l = original.shape[0]
    value = (d / l_prime) * float(np.log(nu / rho).sum()) + math.log(l / (l_prime - 1))
    return KlEstimate(value=value)


def score_reduction(tokens: Matrix, plan: ReductionPlan, k: int = 1) -> float:
    """Divergence score of a reduction plan: kept rows vs the full token set.

    Lower is better (the kept rows look more like the original distribution).
    k must be 1, as in `kl_estimate`. See the module note on the
    coincident-point floor.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.shape[0] != plan.original_len:
        raise ValueError(
            f"token count {tokens.shape[0]} does not match plan over {plan.original_len}")
    if plan.m < 2:
        raise ValueError(f"plan keeps m={plan.m} rows, need at least 2")
    return kl_estimate(tokens[plan.kept], tokens, k=k).value

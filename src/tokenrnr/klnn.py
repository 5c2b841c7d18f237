"""k-nearest-neighbor Kullback-Leibler divergence estimation.

Given samples X' ~ P' (l' rows) and X ~ P (l rows), the estimate is

    D(P'||P) ~= (d / l') * sum_i log(nu_k(i) / rho_k(i)) + log(l / (l' - 1))

where rho_k(i) is the distance from X'_i to its k-th nearest neighbor within
X' (excluding itself) and nu_k(i) the distance to its k-th nearest neighbor
in X. Neighbor search is exact brute force: desk-scale sample counts make
index structures unnecessary. The squared norms of both sets and the refine
scale are computed once per search, and distances come in blocks of at most
2^18 squared entries, small enough to stay in cache; each block costs the
four passes of `pairwise_sq_dists` (broadcast add, GEMM with the 2 of 2 x.y
folded into its operand, subtract, one compare against the refine cutoff)
plus direct differences on the near-zero entries. A search takes one of two
paths:

- Cross search (nu, and any call whose `queries` is not the `points`
  object): row chunks of queries against all points. Each row's k-th
  smallest distance is selected by argmin knockouts (the current minimum is
  set to inf, k - 1 times, or k times when self is excluded) and one min
  pass, so the selection cost grows linearly with k.
- Self search (rho: `exclude_self` with `queries is points`): the distance
  matrix is symmetric, so each pair is computed once. Strip [lo, hi) of rows,
  max(1, 2^18 // n) high, meets columns [lo, n) only: n(n + h)/2 entries for
  strip height h, instead of n^2. An entry counts for its row and, right of
  the strip's square block, for its column's row. At k = 1 a strip costs a
  row-min and a column-min pass besides the four; at k >= 2 a compare pass
  per side, after which the few entries below their row's k-th smallest so
  far are partitioned into a running (k, n) array.

The package's callers use k = 1. `X` and `X.copy()` take different paths with
differently shaped GEMMs, so they agree to rounding, not bitwise.

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

# squared distances per query chunk or self-search strip, as in matching
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

    Every block of distances refines near-zero entries against the scale of
    the whole query and point sets, so the result does not depend on how the
    search is split. Object identity picks the path (module note):

    - `queries is points` with exclude_self walks upper-triangle strips and
      computes each pair once. Each row's distance to itself refines to
      exactly 0 (its expansion noise is far below the cutoff, and the direct
      difference is 0) and no distance is negative, so skipping the closest
      point removes one 0 from the row; knocking out the diagonal of the
      strip's square block removes the same value, so a duplicate's 0 stays
      in as before.
    - Otherwise queries are handled in row chunks of `_KNN_CHUNK_ELEMS`
      entries, and the k-th smallest entry of each row is found in place:
      k - 1 times (k with exclude_self) the row's argmin entry is set to inf,
      then the row minimum is taken.

    Either way ties count with their multiplicity, as in a sort.

    Both sets must be finite 2-D matrices with the same number of columns
    and finite squared row norms, k an integer (not a bool) from 1 to the
    number of usable points, and exclude_self a bool.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not isinstance(exclude_self, (bool, np.bool_)):
        raise ValueError(f"exclude_self must be a bool, got {exclude_self!r}")
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
    q2 = p2 if queries is points else row_sq_norms(queries)
    scale = q2.max(initial=0.0) + p2.max(initial=0.0)
    if not math.isfinite(scale):
        raise ValueError("squared row norms must be finite; entries near 1e154 "
                         "or larger overflow them")
    if exclude_self and queries is points:
        return np.sqrt(_self_kth_sq_dists(points, p2, scale, k))
    kth = k + (1 if exclude_self else 0)
    chunk = max(1, _KNN_CHUNK_ELEMS // points.shape[0])
    out = np.empty(queries.shape[0])
    for i in range(0, queries.shape[0], chunk):
        d2 = pairwise_sq_dists(queries[i:i + chunk], points, p2, scale)
        rows = np.arange(d2.shape[0])
        for _ in range(kth - 1):
            d2[rows, d2.argmin(axis=1)] = np.inf
        out[i:i + chunk] = d2.min(axis=1)
    return np.sqrt(out)


def _self_kth_sq_dists(points: Matrix, p2: np.ndarray, scale: float,
                       k: int) -> np.ndarray:
    """k-th smallest squared distance from each row of `points` to the other
    rows, computing each pair once: strip [lo, hi) of rows meets columns
    [lo, n) only, and an entry right of the strip's square block also counts
    for its column's row."""
    n = points.shape[0]
    height = max(1, _KNN_CHUNK_ELEMS // n)
    best = np.full((k, n), np.inf)  # each row's k smallest so far, unordered
    for lo in range(0, n, height):
        hi = min(lo + height, n)
        d2 = pairwise_sq_dists(points[lo:hi], points[lo:], p2[lo:], scale)
        rows = np.arange(hi - lo)
        d2[rows, rows] = np.inf  # each row's distance to itself
        # the strip's rows, then the columns right of its square block
        for kept, lines in ((best[:, lo:hi], d2), (best[:, hi:], d2[:, hi - lo:].T)):
            if k == 1:
                np.minimum(kept[0], lines.min(axis=1), out=kept[0])
            else:
                _fold_k_smallest(kept, lines)
    return best.max(axis=0)


def _fold_k_smallest(kept: np.ndarray, lines: np.ndarray) -> None:
    """Fold each row of `lines` into the same column of `kept`, the k
    smallest entries seen so far, in place: one partition of a pad that holds
    the kept entries and then the new ones keeps the k smallest, ties with
    their multiplicity. While some row has seen fewer than k entries the pad
    is all of `lines`. After that only entries below their row's largest kept
    one can enter, and few do, so just those are gathered into the pad."""
    k = kept.shape[0]
    bound = kept.max(axis=0)
    if np.isinf(bound).any():
        pad, touched = np.concatenate((kept.T, lines), axis=1), slice(None)
    else:
        flat = np.flatnonzero(lines < bound[:, None])
        if not flat.size:
            return
        line, col = np.divmod(flat, lines.shape[1])  # sorted by line
        touched, seg, count = np.unique(line, return_inverse=True,
                                        return_counts=True)
        pad = np.full((touched.size, k + count.max()), np.inf)
        pad[:, :k] = kept[:, touched].T
        pad[seg, k + np.arange(line.size) - np.searchsorted(line, line)] = \
            lines[line, col]
    pad.partition(k - 1, axis=1)
    kept[:, touched] = pad[:, :k].T


def kl_estimate(reduced: Matrix, original: Matrix, k: int = 1) -> KlEstimate:
    """Estimate D(P'||P) from reduced ~ P' and original ~ P.

    rho passes `reduced` as both queries and points, so it is a self search
    that computes each pair once; nu is a cross search (module note).
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

"""Bipartite soft matching: strided 3D partitioning, similarity metrics and
best-destination matching.

Tokens are split into destinations (one random token per complete stride
chunk) and sources (everything else, including all tokens of incomplete
chunks). Each source is matched to its most similar destination; sources are
then ranked most-redundant-first by that similarity.

Determinism contract: both index lists are sorted ascending by flat index,
best-destination ties resolve to the lowest destination position, and the
reduction order breaks similarity ties by lowest source position.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import pairwise_sq_dists, row_sq_norms

METRICS = ("neg_euclidean", "cosine", "dot", "random")
DEFAULT_METRIC = "neg_euclidean"


@dataclass(frozen=True)
class Partition:
    """Destination/source split of a flattened (T, H, W) grid."""

    dst_indices: np.ndarray
    src_indices: np.ndarray

    @property
    def n_tokens(self) -> int:
        return len(self.dst_indices) + len(self.src_indices)

    @property
    def n_dst(self) -> int:
        return len(self.dst_indices)

    @property
    def n_src(self) -> int:
        return len(self.src_indices)

    @property
    def dst_ratio(self) -> float:
        return self.n_dst / self.n_tokens


@dataclass(frozen=True)
class MatchResult:
    """Per-source best destination and the derived reduction order.

    best_dst[i] is a position into Partition.dst_indices; reduce_order is a
    permutation of source positions sorted by best_sim descending (ties by
    lowest source position). num_evals counts the similarity entries
    evaluated, summed over the row chunks (n_src * n_dst when every source
    meets every destination).
    """

    best_dst: np.ndarray
    best_sim: np.ndarray
    reduce_order: np.ndarray
    num_evals: int


def partition_3d(grid_shape: tuple[int, int, int], stride: tuple[int, int, int],
                 rng: np.random.Generator) -> Partition:
    """Partition grid positions into one random destination per complete chunk.

    The destination count is floor(T/s_t) * floor(H/s_h) * floor(W/s_w); tokens
    in chunks truncated at any grid edge are all sources. One uniform draw is
    made per chunk, in t-major chunk order.
    """
    t_dim, h_dim, w_dim = grid_shape
    s_t, s_h, s_w = stride
    if min(s_t, s_h, s_w) < 1:
        raise ValueError(f"stride components must be >= 1, got {stride}")
    if min(t_dim, h_dim, w_dim) < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {grid_shape}")

    c_t, c_h, c_w = t_dim // s_t, h_dim // s_h, w_dim // s_w
    n_chunks = c_t * c_h * c_w
    dst = np.empty(0, dtype=np.int64)
    if n_chunks > 0:
        cells = rng.integers(0, s_t * s_h * s_w, size=n_chunks)
        ct, ch, cw = np.unravel_index(np.arange(n_chunks), (c_t, c_h, c_w))
        dt, dh, dw = np.unravel_index(cells, (s_t, s_h, s_w))
        t = ct * s_t + dt
        h = ch * s_h + dh
        w = cw * s_w + dw
        dst = np.sort((t * h_dim + h) * w_dim + w)

    mask = np.ones(t_dim * h_dim * w_dim, dtype=bool)
    mask[dst] = False
    src = np.nonzero(mask)[0]
    return Partition(dst_indices=dst, src_indices=src)


#: cap on similarity entries held at once while matching
_MATCH_CHUNK_ELEMS = 1 << 18


def _similarity_rows(src: np.ndarray, dst: np.ndarray, metric: str,
                     rng: np.random.Generator | None):
    """A function of (lo, hi) giving the similarities of src[lo:hi] to every
    destination.

    Blocks taken in ascending row order stack bit for bit into the whole
    matrix: an entry depends only on its own source and destination rows
    (the destination norms and the squared-distance refine cutoff come from
    the whole sets, once per call), and `random` draws row after row in C
    order.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "neg_euclidean":
        dst2 = row_sq_norms(dst)
        scale = row_sq_norms(src).max(initial=0.0) + dst2.max(initial=0.0)

        def rows(lo, hi):
            sims = pairwise_sq_dists(src[lo:hi], dst, dst2, scale)
            np.sqrt(sims, out=sims)
            return np.negative(sims, out=sims)
        return rows
    if metric == "dot":
        return lambda lo, hi: src[lo:hi] @ dst.T
    if metric == "cosine":
        src_n = np.linalg.norm(src, axis=1)
        dst_n = np.linalg.norm(dst, axis=1)
        src_zero = src_n == 0.0
        dst_zero = dst_n == 0.0
        su = src / np.where(src_zero, 1.0, src_n)[:, None]
        du = dst / np.where(dst_zero, 1.0, dst_n)[:, None]

        def rows(lo, hi):
            sims = su[lo:hi] @ du.T
            sims[src_zero[lo:hi], :] = -np.inf
            sims[:, dst_zero] = -np.inf
            return sims
        return rows
    if rng is None:
        raise ValueError("the random metric needs an rng")
    return lambda lo, hi: rng.random((min(hi, len(src)) - lo, len(dst)))


def pairwise_best_match(tokens: np.ndarray, part: Partition, metric: str = DEFAULT_METRIC,
                        rng: np.random.Generator | None = None) -> MatchResult:
    """Match every source token to its most similar destination token.

    neg_euclidean is the negative L2 distance (not squared), so a source
    coinciding with a destination scores exactly 0, its maximum; cosine is
    -inf, not NaN, for a zero-norm row; `random` ignores the tokens and draws
    i.i.d. uniforms from `rng`. Sources are matched in row blocks, so the
    (n_src, n_dst) similarity matrix is never held whole; the result equals
    its row argmax.
    """
    if tokens.shape[0] != part.n_tokens:
        raise ValueError(
            f"token count {tokens.shape[0]} does not match partition over {part.n_tokens}")
    if part.n_dst == 0:
        raise ValueError("partition has no destinations; use a smaller stride")
    rows = _similarity_rows(tokens[part.src_indices], tokens[part.dst_indices],
                            metric, rng)
    chunk = max(1, _MATCH_CHUNK_ELEMS // part.n_dst)
    best_dst = np.empty(part.n_src, dtype=np.intp)
    best_sim = np.empty(part.n_src)
    num_evals = 0
    for lo in range(0, part.n_src, chunk):
        sims = rows(lo, lo + chunk)
        num_evals += sims.size
        best = np.argmax(sims, axis=1)
        best_dst[lo:lo + chunk] = best
        best_sim[lo:lo + chunk] = sims[np.arange(len(best)), best]
    reduce_order = np.argsort(-best_sim, kind="stable")
    return MatchResult(best_dst=best_dst, best_sim=best_sim,
                       reduce_order=reduce_order, num_evals=num_evals)


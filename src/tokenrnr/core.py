"""Dense numeric substrate: token matrices, row softmax, 3D rotary embedding.

Matrices are plain 2-D numpy arrays (row-major, float64 by default). Operations
validate shapes eagerly, and the stabilized operations keep finite inputs
finite. The tokens of a (T, H, W) grid are the rows of one matrix, flattened
t-major: grid position (t, h, w) is row ((t * H) + h) * W + w. All
partitioning and stride logic in this package relies on that order. The 3D
rotary embedding is a complex rotation: column pair (2j, 2j+1) of a row is the
complex number x_2j + i x_2j+1, turned by an angle of the row's coordinate.

Randomness goes through `make_rng` / `spawn_rngs`, which wrap numpy's PCG64
generator: the same seed yields the same stream on every platform.
"""
from __future__ import annotations

import hashlib

import numpy as np

Matrix = np.ndarray

#: relative cutoff below which squared distances are recomputed exactly,
#: so coincident rows report a distance of exactly 0.0
_SQDIST_REFINE_REL = 1e-8


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child generators derived from one seed, in a fixed order."""
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child)) for child in root.spawn(n)]


def row_softmax(a: Matrix, out: Matrix | None = None, shift: bool = True) -> Matrix:
    """Row-wise softmax numerators exp(a - rowmax): each row's largest entry
    is exactly 1, so large inputs cannot overflow.

    With shift=False the caller has already shifted each row by an upper bound
    of its max (no entry is above 0), and only the exp is taken: one pass
    instead of three. The rows are left unnormalized; a caller that multiplies
    them by a matrix divides the product's rows by the row sums instead, on far
    fewer entries: softmax(a) @ v == (e @ v) / e.sum(axis=1, keepdims=True).
    The result goes to `out` when given; `out=a` computes it in place. The
    softmax's name stays because the benchmark's tracer patches
    `tokenrnr.rnr.row_softmax`.
    """
    if a.ndim != 2:
        raise ValueError("row_softmax expects a 2-D matrix")
    if shift:
        a = out = np.subtract(a, a.max(axis=1, keepdims=True), out=out)
    return np.exp(a, out=out)


def grid_coordinates(shape: tuple[int, int, int]) -> np.ndarray:
    """(n, 3) array of (t, h, w) coordinates in flat (t-major) order."""
    t_dim, h_dim, w_dim = shape
    idx = np.arange(t_dim * h_dim * w_dim)
    t = idx // (h_dim * w_dim)
    h = (idx // w_dim) % h_dim
    w = idx % w_dim
    return np.stack([t, h, w], axis=1)


def _rope_axis_pairs(feature_dim: int) -> tuple[int, int, int]:
    """Split d/2 rotation pairs across (t, h, w) roughly proportional to (2, 1, 1).

    Each axis gets at least one pair, so feature_dim must be an even number >= 6.
    """
    if feature_dim % 2 != 0:
        raise ValueError(f"feature_dim must be even for rotary embedding, got {feature_dim}")
    pairs = feature_dim // 2
    p_h = max(1, pairs // 4)
    p_w = max(1, pairs // 4)
    p_t = pairs - p_h - p_w
    if p_t < 1:
        raise ValueError(f"feature_dim={feature_dim} too small to split across three axes (need >= 6)")
    return p_t, p_h, p_w


def rope3d_tables(shape: tuple[int, int, int], feature_dim: int,
                  base: float = 10000.0) -> np.ndarray:
    """Per-token complex rotations cos + i sin, shape (n, d/2), one angle per
    column pair.

    Angles depend only on the (t, h, w) coordinate of each token: pair j of an
    axis group with p pairs rotates by coordinate * base**(-j / p).
    """
    p_t, p_h, p_w = _rope_axis_pairs(feature_dim)
    coords = grid_coordinates(shape).astype(np.float64)
    angle_cols = []
    for axis, p_axis in enumerate((p_t, p_h, p_w)):
        inv_freq = base ** (-np.arange(p_axis) / p_axis)
        angle_cols.append(coords[:, axis:axis + 1] * inv_freq[None, :])
    angles = np.concatenate(angle_cols, axis=1)
    return np.cos(angles) + 1j * np.sin(angles)


def apply_rope_tables(mat: Matrix, rot: np.ndarray) -> Matrix:
    """Rotary embedding: each column pair (2j, 2j+1) of a row, read as the
    complex number x_2j + i x_2j+1, times the row's rotation rot[:, j].

    Returns a new float64 matrix; `mat` is left as it was.
    """
    if mat.shape[0] != rot.shape[0] or mat.shape[1] != 2 * rot.shape[1]:
        raise ValueError(f"table shape {rot.shape} does not match matrix {mat.shape}")
    pairs = np.ascontiguousarray(mat, dtype=np.float64).view(np.complex128)
    return (pairs * rot).view(np.float64)


def row_sq_norms(a: Matrix) -> np.ndarray:
    """Squared L2 norm of each row of `a`: the norms `pairwise_sq_dists`
    expands with, so a caller that passes them in gets the same bits."""
    return np.einsum("ij,ij->i", a, a)


def pairwise_sq_dists(a: Matrix, b: Matrix, b_sq_norms: np.ndarray | None = None,
                      refine_scale: float | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances between rows of `a` and rows of `b`.

    Uses the (|x|^2 + |y|^2) - 2 x.y expansion for speed, then recomputes
    near-zero entries with the direct difference formula so that coincident
    rows yield exactly 0.0 (the expansion alone can leave cancellation noise).
    An entry counts as near zero at or below `_SQDIST_REFINE_REL` times
    `refine_scale`, which defaults to the largest squared row norm of `a` plus
    that of `b`, the magnitude the cancellation noise scales with. Every entry
    the expansion leaves negative lies below that cutoff, so it is replaced
    too and needs no clamp.

    Pass budget over the (m, n) result: the broadcast add, the GEMM, the
    subtract and one compare against the cutoff, then direct differences on
    the entries it finds only. The 2 of 2 x.y rides in the GEMM operand:
    `(a + a) @ b.T` costs m x d, and doubling is exact, so each entry has the
    bits of 2 * (a @ b.T) unless a product or partial sum inside the GEMM is
    subnormal (nonzero and below 2.2e-308 in magnitude) or overflows. Finite
    squared norms rule out the overflow; nonzero entries of magnitude 1e-150
    or more keep every product normal, so only a partial sum that cancels to
    within 2.2e-308 of zero can differ, in its last place. The row norms of
    `a` cost m x d. A caller that splits `a` into row blocks passes
    `b_sq_norms` (`row_sq_norms(b)`) and the scale of the whole set, computed
    once: then no block re-reads all of `b` for its norms, and every block
    refines the same entries.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"row dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    a2 = row_sq_norms(a)
    b2 = row_sq_norms(b) if b_sq_norms is None else b_sq_norms
    d2 = a2[:, None] + b2[None, :]
    d2 -= (a + a) @ b.T
    if refine_scale is None:
        refine_scale = a2.max(initial=0.0) + b2.max(initial=0.0)
    return _refine_near_zero(d2, a, b, refine_scale)


def _refine_near_zero(d2: np.ndarray, a: Matrix, b: Matrix,
                      refine_scale: float) -> np.ndarray:
    """Recompute, by direct differences, the entries of the fresh (m, n)
    squared distances `d2` between rows of `a` and `b` that lie at or below
    `_SQDIST_REFINE_REL * refine_scale`; returns `d2`, changed in place."""
    flat = np.flatnonzero(d2 <= _SQDIST_REFINE_REL * refine_scale)
    if flat.size:
        ii, jj = np.divmod(flat, d2.shape[1])
        diff = a[ii] - b[jj]
        d2.reshape(-1)[flat] = row_sq_norms(diff)
    return d2


def _augmented_points(b: Matrix, b_sq_norms: np.ndarray) -> np.ndarray:
    """(n, d + 2) operand `[-2y, |y|^2, 1]` of the rows y of `b`, for
    `_augmented_sq_dists`; -2y is exact."""
    n, d = b.shape
    out = np.empty((n, d + 2))
    np.multiply(b, -2.0, out=out[:, :d])
    out[:, d] = b_sq_norms
    out[:, d + 1] = 1.0
    return out


def _augmented_sq_dists(a: Matrix, b_aug: np.ndarray, a_sq_norms: np.ndarray,
                        rows_buf: np.ndarray) -> np.ndarray:
    """Squared distances between rows of `a` and `b` in one GEMM: the rows
    `[x, 1, |x|^2]`, written into the first len(a) rows of `rows_buf` (d + 2
    columns, at least len(a) rows), against
    `b_aug = _augmented_points(b, row_sq_norms(b))`.

    Each entry is one (d + 2)-term dot product |x|^2 + |y|^2 - 2 x.y, off by
    at most about 2 (d + 3) eps times the largest squared row norms of both
    sets summed, far below `pairwise_sq_dists`'s near-zero cutoff. No refine
    runs inside: the block is returned as the GEMM left it, and the caller
    passes the rows it needs exact to `_refine_near_zero`, after which
    coincident rows read exactly 0 and no refined entry stays negative. One
    pass over the (m, n) result, against four for `pairwise_sq_dists`.
    """
    m, d = a.shape
    x = rows_buf[:m]
    x[:, :d] = a
    x[:, d] = 1.0
    x[:, d + 1] = a_sq_norms
    return x @ b_aug.T


def checksum_matrix(mat: Matrix) -> str:
    """Stable hex digest of a matrix's shape and float64 contents."""
    h = hashlib.sha256()
    h.update(str(mat.shape).encode())
    h.update(np.ascontiguousarray(mat, dtype=np.float64).tobytes())
    return h.hexdigest()

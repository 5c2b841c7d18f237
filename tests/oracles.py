"""Brute-force reference implementations the tests check against.

These deliberately use the dumbest possible formulation (explicit loops,
full sorts, exhaustive argmax, Python sets) and stay independent of the
library's own matching/selection/ordering logic. The whole similarity
matrix and the plan check have no library counterpart; they are written
here from their definitions. `direct_similarities` and `sort_based_knn`
share one kernel with the library, its squared distances, because the
bitwise checks on matching need exactly its rounding. `expansion_sq_dists`
is a frozen copy of that kernel as it first shipped, so a faster kernel can
be checked to give the same bits. `reference_pipeline` shares none: it is
checked to a tolerance.
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


def expansion_sq_dists(a, b, refine_scale=None):
    """Squared distances as the library's kernel first computed them, step
    by step: broadcast add of the squared row norms, GEMM, x2, subtract,
    clamp at 0, then direct differences for every entry at or below 1e-8
    times the scale (by default the largest squared row norm of `a` plus
    that of `b`)."""
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = np.einsum("ij,ij->i", b, b)
    d2 = a2[:, None] + b2[None, :]
    ab = a @ b.T
    ab *= 2.0
    d2 -= ab
    if refine_scale is None:
        refine_scale = float(a2.max(initial=0.0) + b2.max(initial=0.0))
    cutoff = 1e-8 * refine_scale
    if d2.size and d2.min() <= cutoff:
        np.maximum(d2, 0.0, out=d2)
        flat = np.flatnonzero(d2 <= cutoff)
        ii, jj = np.divmod(flat, d2.shape[1])
        diff = a[ii] - b[jj]
        d2.reshape(-1)[flat] = np.einsum("ij,ij->i", diff, diff)
    return d2


def sort_based_knn(points, query, exclude_self=False):
    """Nearest-neighbor distance by fully sorting all distances.

    Shares the library's distance kernel and checks the selection logic
    independently (a full sort vs the library's sweep and triangle minima);
    `naive_distances` below provides the independent-arithmetic route, which
    is tolerance-checked.
    """
    q = np.asarray(query, dtype=np.float64).reshape(1, -1)
    dists = np.sort(np.sqrt(pairwise_sq_dists(q, points)[0]))
    return float(dists[1 if exclude_self else 0])


def knn_density_kl(reduced, original):
    """Mean log ratio of the 1-NN density estimates at the reduced samples.

    The density estimate at x is 1 / (count * V_d * r^d), with r the nearest
    neighbor distance (from `sort_based_knn`), V_d the unit-ball volume and
    count l' - 1 within `reduced` (x itself excluded) or l within `original`.
    """
    d = reduced.shape[1]
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    logs = []
    for x in reduced:
        rho = sort_based_knn(reduced, x, exclude_self=True)
        nu = sort_based_knn(original, x)
        p_hat = 1 / ((len(reduced) - 1) * ball * rho ** d)
        q_hat = 1 / (len(original) * ball * nu ** d)
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


def _reference_inputs(cfg):
    """The initial tokens and the weight, partition and matching streams,
    drawn in the pipeline's order: five children of one SeedSequence for
    init, weights, partitions, duplicates and matching."""
    rng_init, rng_weights, rng_parts, rng_dup, rng_match = [
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(cfg.seed).spawn(5)]
    n, d = cfg.n_tokens, cfg.feature_dim
    x = rng_init.standard_normal((n, d))
    k = int(cfg.duplicate_fraction * n)
    if k:
        # each target row becomes a copy of a row that is not a target
        targets = rng_dup.choice(n, size=k, replace=False)
        survivors = sorted(set(range(n)) - {int(i) for i in targets})
        picks = rng_dup.integers(0, len(survivors), size=k)
        x = x.copy()
        for target, pick in zip(targets, picks):
            x[target] = x[survivors[pick]]
    weights = [[rng_weights.standard_normal((d, d)) / np.sqrt(d) for _ in range(3)]
               for _ in range(cfg.num_blocks)]
    return x, weights, rng_parts, rng_match


def _reference_partition(grid_shape, stride, rng):
    """One destination per complete stride chunk, at a uniformly drawn cell
    of it (one draw per chunk, t-major); every other position is a source."""
    (t_dim, h_dim, w_dim), (s_t, s_h, s_w) = grid_shape, stride
    chunks = [(ct, ch, cw) for ct in range(t_dim // s_t)
              for ch in range(h_dim // s_h) for cw in range(w_dim // s_w)]
    cells = rng.integers(0, s_t * s_h * s_w, size=len(chunks))
    dst = []
    for (ct, ch, cw), cell in zip(chunks, cells):
        dt, rest = divmod(int(cell), s_h * s_w)
        dh, dw = divmod(rest, s_w)
        dst.append(((ct * s_t + dt) * h_dim + ch * s_h + dh) * w_dim + cw * s_w + dw)
    dst = sorted(dst)
    src = sorted(set(range(t_dim * h_dim * w_dim)) - set(dst))
    return dst, src


def _reference_rope(grid_shape, d, base=10000.0):
    """exp(i * angle) per token and column pair: the pairs split (t, h, w) as
    (rest, d/8, d/8) (at least one each), and pair j of an axis group of p
    pairs turns by coordinate * base**(-j / p)."""
    pairs = d // 2
    p_h = p_w = max(1, pairs // 4)
    groups = ((0, pairs - p_h - p_w), (1, p_h), (2, p_w))
    _, h_dim, w_dim = grid_shape
    turns = []
    for i in range(grid_shape[0] * h_dim * w_dim):
        coords = (i // (h_dim * w_dim), (i // w_dim) % h_dim, i % w_dim)
        turns.append([coords[axis] * base ** (-j / p)
                      for axis, p in groups for j in range(p)])
    return np.exp(1j * np.array(turns))


def _rotate_rows(mat, rope, rows):
    """Column pairs (2j, 2j+1) of each row as complex numbers, turned by the
    angles of the row's original position."""
    if rope is None:
        return mat
    z = (mat[:, 0::2] + 1j * mat[:, 1::2]) * rope[rows]
    out = np.empty_like(mat)
    out[:, 0::2], out[:, 1::2] = z.real, z.imag
    return out


#: similarity gap within which two choices of a plan count as tied: rounding
#: may order them either way
TIE_MARGIN = 1e-9


def _reference_match(tokens, dst, src, metric, rng):
    """The whole (n_src, n_dst) similarity matrix (neg_euclidean by direct
    differences) with `exhaustive_match`'s best destinations, best
    similarities and reduction order."""
    if metric == "neg_euclidean":
        sims = np.array([-naive_distances(tokens[dst], tokens[i]) for i in src])
    else:
        sims = direct_similarities(tokens[src], tokens[dst], metric, rng)
    return (sims, *exhaustive_match(sims))


def _reference_plan(match, dst, src, rate, n, library_plan=None):
    """Discard the floor(rate * n_src) sources ranked first; each stands in
    for its best destination. Returns (kept, {discarded: representative}).

    A `library_plan` that differs is adopted instead when it differs only
    by ties within TIE_MARGIN: each of its discarded sources ranks within
    the margin of the best kept one, and each representative within the
    margin of its source's best destination. Rows that are equal up to
    rounding tie like that, and rounding decides between them.
    """
    sims, best_dst, best_sim, order = match
    rep_of = {src[i]: dst[best_dst[i]]
              for i in order[:math.floor(rate * len(src))]}
    if library_plan is not None:
        theirs = {int(i): int(r) for i, r in zip(library_plan.discarded,
                                                  library_plan.reps)}
        if theirs != rep_of:
            position = {idx: pos for pos, idx in enumerate(src)}
            dst_position = {idx: pos for pos, idx in enumerate(dst)}
            floor = max([best_sim[position[i]] for i in src if i not in theirs],
                        default=-np.inf) - TIE_MARGIN
            assert len(theirs) == len(rep_of), "plan discards the wrong count"
            for i, r in theirs.items():
                row = position[i]
                assert best_sim[row] >= floor, f"plan discards {i} out of order"
                assert sims[row, dst_position[r]] >= best_sim[row] - TIE_MARGIN, \
                    f"plan gives {i} a representative {r} it does not tie with"
            rep_of = theirs
    return [i for i in range(n) if i not in rep_of], rep_of


def _reference_reduce(tokens, plan, op):
    kept, rep_of = plan
    if op == "mean":
        return mean_merge_rows(tokens, kept, rep_of)
    return gather_rows(tokens, kept)


def _reference_restore(reduced, plan, n):
    """Row i of the result is the reduced row of i, or of its representative."""
    kept, rep_of = plan
    position = {idx: pos for pos, idx in enumerate(kept)}
    out = np.empty((n, reduced.shape[1]))
    for i in range(n):
        out[i] = reduced[position[rep_of.get(i, i)]]
    return out


def _reference_attention(q, k, v, num_heads):
    d_h, dv_h = q.shape[1] // num_heads, v.shape[1] // num_heads
    return np.hstack([naive_attention(q[:, h * d_h:(h + 1) * d_h],
                                      k[:, h * d_h:(h + 1) * d_h],
                                      v[:, h * dv_h:(h + 1) * dv_h])
                      for h in range(num_heads)])


def reference_pipeline(cfg, profile, library_plans=None):
    """The denoising loop of `run_pipeline`, written from its definitions.

    Each step sets y = x, adds every block's attention output to y and then
    sets x = x - 0.1 * y. Asymmetric blocks project y, rotate Q and K, match
    and reduce Q by its plan and K/V by V's, attend and restore Q's rows;
    symmetric blocks match and reduce y itself by the Q rule, project the
    kept rows and rotate them by their original positions. A rule with no
    entries reduces nothing and matches nothing; a rate is the one of the
    largest threshold <= the profiled similarity (0 below all of them); a
    matching is recomputed when t % cache_step == 0 and reused otherwise.

    `library_plans`, when given, are the plans the library built, in the
    order it built them; a reference plan gives way to one that differs
    from it only by ties (see `_reference_plan`). Returns the final tokens
    and one record per (t, b): its rates, m_q, m_kv and recomputed features.
    """
    x, weights, rng_parts, rng_match = _reference_inputs(cfg)
    n = cfg.n_tokens
    rules = cfg.schedule.rules if cfg.schedule is not None else {}
    pairs = {"none": [], "sym": [("H", "Q")],
             "asym": [("Q", "Q"), ("V", "V")]}[cfg.rnr_mode]
    pairs = [(feature, rule) for feature, rule in pairs if rules.get(rule)]
    sym = cfg.rnr_mode == "sym" and bool(pairs)
    parts = [_reference_partition(cfg.grid_shape, cfg.stride, rng_parts)
             for _ in range(cfg.num_blocks)] if pairs else None
    rope = _reference_rope(cfg.grid_shape, cfg.feature_dim) if cfg.rope else None
    everything = list(range(n))
    matches = {}
    records = []
    library_plans = iter(library_plans or [])
    for t in range(cfg.num_timesteps):
        y = x
        for b in range(cfg.num_blocks):
            w_q, w_k, w_v = weights[b]
            feats = {"H": y}
            if not sym:
                feats.update(Q=_rotate_rows(y @ w_q, rope, everything),
                             K=_rotate_rows(y @ w_k, rope, everything), V=y @ w_v)
            rates, recomputed, plans = {}, [], {}
            for feature, rule in pairs:
                sim = profile.get(rule, t, b)
                passed = [(thr, r) for thr, r in rules[rule] if thr <= sim]
                rates[feature] = max(passed)[1] if passed else 0.0
                if t % cfg.schedule.cache_step == 0:
                    matches[feature, b] = _reference_match(
                        feats[feature], *parts[b], cfg.metric, rng_match)
                    recomputed.append(feature)
                if rates[feature] > 0.0:
                    plans[feature] = _reference_plan(
                        matches[feature, b], *parts[b], rates[feature], n,
                        next(library_plans, None))
            if sym:
                plan_q = plans.get("H")
                h, rows = y, everything
                if plan_q is not None:
                    h, rows = _reference_reduce(y, plan_q, cfg.reduce_op), plan_q[0]
                q = _rotate_rows(h @ w_q, rope, rows)
                k = _rotate_rows(h @ w_k, rope, rows)
                v = h @ w_v
            else:
                plan_q, plan_kv = plans.get("Q"), plans.get("V")
                q, k, v = feats["Q"], feats["K"], feats["V"]
                if plan_q is not None:
                    q = _reference_reduce(q, plan_q, cfg.reduce_op)
                if plan_kv is not None:
                    k = _reference_reduce(k, plan_kv, cfg.reduce_op)
                    v = _reference_reduce(v, plan_kv, cfg.reduce_op)
            out = _reference_attention(q, k, v, cfg.num_heads)
            if plan_q is not None:
                out = _reference_restore(out, plan_q, n)
            y = y + out
            records.append({"t": t, "b": b, "rates": rates,
                            "m_q": len(q), "m_kv": len(k),
                            "recomputed": tuple(recomputed)})
        x = x - 0.1 * y
    return x, records

"""Reduction plans, reduce/restore, and the multi-head attention core.

A ReductionPlan discards the most redundant source tokens (per a MatchResult)
and remembers each discarded token's kept representative. Attention runs on
the shortened sequences; restoration re-expands to the original length by
replicating representative rows, which keeps the layer drop-in compatible
with fixed-length pipelines.

The two RnR operators built from these pieces (`attn_sym_rnr`,
`attn_asym_rnr`) live in `pipeline`, which runs them for every block. Both
end in `attn_plain`, so with no plan they are bitwise identical to plain
attention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Matrix, row_softmax, row_sums
from .flops import SOFTMAX_COST_PER_ENTRY, CostBreakdown
from .matching import MatchResult, Partition

REDUCE_OPS = ("discard", "mean")

#: cap on score-matrix entries held at once by the chunked attention core
#: (2^22 float64 entries = 32 MiB; 2^25 and 2^18 were both slower on a
#: 2-core AVX-512 host with OpenBLAS)
_ATTN_CHUNK_ELEMS = 1 << 22


@dataclass(frozen=True)
class ReductionPlan:
    """Kept-index set plus the discarded-to-representative map.

    kept and discarded are ascending original indices; reps[i] is the kept
    original index standing in for discarded[i]. Only source tokens are ever
    discarded, so every destination survives and restoration is total.
    """

    kept: np.ndarray
    discarded: np.ndarray
    reps: np.ndarray
    original_len: int

    @property
    def m(self) -> int:
        return len(self.kept)

    @cached_property
    def row_map(self) -> np.ndarray:
        """Each original row's position in the reduced sequence: a kept row's
        own, a discarded row's representative's. Built once per plan and
        read-only, since every caller shares it."""
        row_map = np.empty(self.original_len, dtype=np.int64)
        row_map[self.kept] = np.arange(self.m)
        row_map[self.discarded] = row_map[self.reps]
        row_map.flags.writeable = False
        return row_map


def build_plan(match: MatchResult, part: Partition, rate: float) -> ReductionPlan:
    """Discard the floor(rate * n_src) most redundant sources.

    The reduced length is m = n - floor(rate * n_src): the rate counts over
    reducible (source) tokens only, which guarantees destinations survive.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"rate must lie in [0, 1), got {rate}")
    n = part.n_tokens
    n_discard = int(math.floor(rate * part.n_src))
    top_positions = match.reduce_order[:n_discard]
    discarded = part.src_indices[top_positions]
    reps = part.dst_indices[match.best_dst[top_positions]]
    order = np.argsort(discarded)
    discarded = discarded[order]
    reps = reps[order]
    mask = np.ones(n, dtype=bool)
    mask[discarded] = False
    kept = np.nonzero(mask)[0]
    return ReductionPlan(kept=kept, discarded=discarded, reps=reps,
                         original_len=n)


def reduce_tokens(tokens: Matrix, plan: ReductionPlan, op: str = "discard") -> Matrix:
    """Shorten a token matrix to the plan's kept rows.

    discard copies kept rows verbatim; mean replaces each kept row by the
    unweighted average of itself and all rows it represents.
    """
    if op not in REDUCE_OPS:
        raise ValueError(f"unknown reduction op {op!r}, expected one of {REDUCE_OPS}")
    if tokens.shape[0] != plan.original_len:
        raise ValueError(
            f"token count {tokens.shape[0]} does not match plan over {plan.original_len}")
    out = tokens[plan.kept]
    if op == "mean" and len(plan.discarded):
        targets = plan.row_map[plan.discarded]
        counts = np.ones(plan.m)
        np.add.at(counts, targets, 1.0)
        np.add.at(out, targets, tokens[plan.discarded])
        out /= counts[:, None]
    return out


def restore_tokens(reduced_out: Matrix, plan: ReductionPlan) -> Matrix:
    """Re-expand to the original length, replicating representatives' rows."""
    if reduced_out.shape[0] != plan.m:
        raise ValueError(
            f"reduced matrix has {reduced_out.shape[0]} rows, plan expects {plan.m}")
    return reduced_out[plan.row_map]


def attn_plain(q: Matrix, k: Matrix, v: Matrix, num_heads: int = 1,
               counter: CostBreakdown | None = None) -> Matrix:
    """Multi-head softmax(Q_h K_h^T / sqrt(d_head)) V_h; head h owns the h-th
    equal column block of Q, K and V.

    Computed in row chunks so the full score matrix is never materialized;
    chunk size is a function of the shapes alone, keeping runs reproducible.
    Every chunk of every head reuses one score buffer, the softmax numerators
    are formed in place on it, and the rows are normalized after the product
    with V, on m_q x d_v entries instead of m_q x m_kv.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("attention expects 2-D Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"Q and K widths differ: {q.shape[1]} vs {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"K and V row counts differ: {k.shape[0]} vs {v.shape[0]}")
    if num_heads < 1 or q.shape[1] % num_heads or v.shape[1] % num_heads:
        raise ValueError(f"widths {q.shape[1]} and {v.shape[1]} do not split "
                         f"into {num_heads} heads")
    m_q, d = q.shape
    m_kv, d_v = v.shape
    if counter is not None:
        counter.add(CostBreakdown(qk_matmul=m_q * m_kv * d,
                                  av_matmul=m_q * m_kv * d_v,
                                  softmax=SOFTMAX_COST_PER_ENTRY * m_q * m_kv * num_heads))
    d_h, dv_h = d // num_heads, d_v // num_heads
    chunk = max(1, min(m_q, _ATTN_CHUNK_ELEMS // max(1, m_kv)))
    scores = np.empty((chunk, m_kv), dtype=np.result_type(q, k))
    out = np.empty((m_q, d_v), dtype=np.result_type(q, k, v))
    for h in range(num_heads):
        q_h = q[:, h * d_h:(h + 1) * d_h] * (1.0 / math.sqrt(d_h))
        kt = k[:, h * d_h:(h + 1) * d_h].T
        v_h = v[:, h * dv_h:(h + 1) * dv_h]
        out_h = out[:, h * dv_h:(h + 1) * dv_h]
        for i in range(0, m_q, chunk):
            s = scores[:min(chunk, m_q - i)]
            o = out_h[i:i + chunk]
            np.matmul(q_h[i:i + chunk], kt, out=s)
            np.matmul(row_softmax(s, out=s), v_h, out=o)
            o /= row_sums(s)[:, None]
    return out

"""Analytical multiply-add cost model for plain and reduced attention.

The unit is the multiply-add (MAC). Reported "FLOPs" are 2 x MACs; see
`macs_to_flops`. The model covers projections, the two attention matmuls,
softmax bookkeeping, and bipartite matching. Elementwise extras (rotary
embedding, residual adds, gathers) are deliberately out of model, and the
pipeline's instrumented counters follow the same convention so predictions
and measurements agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

#: bookkeeping cost charged per attention-score entry: max-subtract, exp,
#: sum, divide, compare. Adjustable in one place since conventions vary.
SOFTMAX_COST_PER_ENTRY = 5


@dataclass
class CostBreakdown:
    """Multiply-add counts by category. Also usable as a mutable accumulator."""

    qk_matmul: int = 0
    av_matmul: int = 0
    projections: int = 0
    matching: int = 0
    softmax: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def add(self, other: "CostBreakdown") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["total"] = self.total
        return d


def macs_to_flops(macs: int) -> int:
    return 2 * macs


def matching_macs(n_src: int, n_dst: int, d: int) -> int:
    """Exact matching cost from integer partition counts: one length-d
    similarity evaluation per (source, destination) pair."""
    return n_src * n_dst * d


def _attention_cost(m_q: int, m_kv: int, n_proj: int, d: int, num_heads: int,
                    matching: int = 0) -> CostBreakdown:
    """One attention layer: n_proj rows projected, m_q queries against m_kv
    keys and values, softmax bookkeeping per score entry and head."""
    scores = m_q * m_kv
    return CostBreakdown(qk_matmul=scores * d, av_matmul=scores * d,
                         projections=3 * n_proj * d * d, matching=matching,
                         softmax=SOFTMAX_COST_PER_ENTRY * scores * num_heads)


def cost_plain(n: int, d: int, num_heads: int = 1) -> CostBreakdown:
    """Cost of one full attention layer on n tokens of width d.

    The two n^2-term matmuls are head-count independent (head widths sum to d);
    only the softmax entry count scales with the number of heads.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    return _attention_cost(n, n, n, d, num_heads)


def cost_sym(n: int, d: int, m: int, num_heads: int = 1) -> CostBreakdown:
    """Cost when the shared input is reduced to m rows before projection.

    Unlike the asymmetric variant, projections run at the reduced length.
    """
    if not 1 <= m <= n:
        raise ValueError(f"m={m} must lie in [1, n={n}]")
    return _attention_cost(m, m, m, d, num_heads)


def cost_asym(n: int, d: int, m_q: int, m_kv: int, matching_on: bool,
              r_d: float, num_heads: int = 1) -> CostBreakdown:
    """Cost with the query sequence reduced to m_q rows and key/value to m_kv.

    Projections still run at full length (reduction happens after them).
    The matching term is r_d * (1 - r_d) * n^2 * d, evaluated through the
    integer destination count so it equals the instrumented pair count exactly.
    """
    if not (1 <= m_q <= n and 1 <= m_kv <= n):
        raise ValueError(f"m_q={m_q}, m_kv={m_kv} must lie in [1, n={n}]")
    n_dst = round(r_d * n)
    return _attention_cost(m_q, m_kv, n, d, num_heads,
                           matching_macs(n - n_dst, n_dst, d) if matching_on else 0)

"""Spans at the layer boundaries of `tokenrnr`, recorded from outside the package.

The package imports with `from .x import name`, so each boundary is patched
in the namespace that calls it, not where it is defined. A span records its
name, start, end, parent span and run id (one run id per timed pass); spans
stay in memory and are written out when the run ends. A span's self time is
its duration minus the part its child spans cover; calls are serial, so the
children never overlap.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "run_id", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name: str, run_id: str, parent: "Span | None"):
        self.name = name
        self.run_id = run_id
        self.parent = parent
        self.start = self.end = self.child_s = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[Span] = []

    def wrap(self, name: str, fn, measure=None):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, self.run_id, parent)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.child_s += span.duration
            if measure is not None:
                span.attrs = measure(args, result)
            return result
        return traced

    def write_jsonl(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "run_id": s.run_id,
                    "parent": index.get(id(s.parent)), "start": s.start,
                    "end": s.end, "self_s": s.duration - s.child_s, **s.attrs}) + "\n")


def _attn_macs(args, _out):
    q, k, v = args[:3]
    return {"macs": q.shape[0] * k.shape[0] * (q.shape[1] + v.shape[1])}


def _softmax_size(args, _out):
    return {"entries": args[0].size, "max_input_mb": args[0].nbytes / 2**20}


def _cache_hit(_args, out):
    return {"hits": 0 if out[1] else 1}


def _match_evals(_args, out):
    return {"evals": out.num_evals}


def _knn_pairs(args, _out):
    return {"pairs": args[0].shape[0] * args[1].shape[0]}


#: (calling module, name in it, span name, per-call counter)
BOUNDARIES = (
    ("tokenrnr.pipeline", "attn_plain", "rnr.attn_plain", _attn_macs),
    ("tokenrnr.pipeline", "cached_match", "schedule.cached_match", _cache_hit),
    ("tokenrnr.pipeline", "build_plan", "rnr.build_plan", None),
    ("tokenrnr.pipeline", "reduce_tokens", "rnr.reduce_tokens", None),
    ("tokenrnr.pipeline", "restore_tokens", "rnr.restore_tokens", None),
    ("tokenrnr.pipeline", "apply_rope_tables", "core.apply_rope_tables", None),
    ("tokenrnr.pipeline", "lookup_rate", "schedule.lookup_rate", None),
    ("tokenrnr.rnr", "row_softmax", "core.row_softmax", _softmax_size),
    ("tokenrnr.schedule", "pairwise_best_match", "matching.pairwise_best_match", _match_evals),
    ("tokenrnr.matching", "pairwise_sq_dists", "core.pairwise_sq_dists.matching", None),
    ("tokenrnr.klnn", "kl_estimate", "klnn.kl_estimate", None),
    ("tokenrnr.klnn", "knn_distances", "klnn.knn_distances", _knn_pairs),
    ("tokenrnr.klnn", "pairwise_sq_dists", "core.pairwise_sq_dists.klnn", None),
    # the benchmark's own calls into the package
    ("workloads", "run_pipeline", "pipeline.run_pipeline", None),
    ("workloads", "score_reduction", "klnn.score_reduction", None),
    ("workloads", "kl_estimate", "klnn.kl_estimate", None),
)
SPAN_NAMES = frozenset(b[2] for b in BOUNDARIES)
PIPELINE_SPANS = frozenset(n for n in SPAN_NAMES
                           if not n.startswith("klnn.") and not n.endswith(".klnn"))
REDUCTION_SPANS = frozenset({"schedule.cached_match", "schedule.lookup_rate",
                            "matching.pairwise_best_match",
                            "core.pairwise_sq_dists.matching", "rnr.build_plan",
                            "rnr.reduce_tokens", "rnr.restore_tokens"})


def expected_spans(workload) -> frozenset:
    """The boundaries a workload must enter; every other one must stay unentered."""
    if workload.kind == "kl":
        return SPAN_NAMES - PIPELINE_SPANS
    if workload.rnr_mode == "none":
        return PIPELINE_SPANS - REDUCTION_SPANS
    return PIPELINE_SPANS


@contextmanager
def patched(tracer: Tracer):
    """Route every boundary through `tracer` until the block exits."""
    saved = []
    try:
        for module_name, attr, span_name, measure in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, measure))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, and summed counters
    (counters named max_* take the maximum)."""
    stats: dict = {}
    for s in spans:
        st = stats.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += s.duration
        st["self_s"] += s.duration - s.child_s
        for key, value in s.attrs.items():
            st[key] = max(st.get(key, value), value) if key.startswith("max_") \
                else st.get(key, 0) + value
    return stats


#: name, unit, better. Times are per timed pass; rates use inclusive time
#: except attn_plain's, which excludes the softmax it calls.
PER_LAYER = (
    ("core.row_softmax.self_s", "s", "lower"),
    ("core.row_softmax.calls", "count", "lower"),
    ("core.row_softmax.entries", "count", "lower"),
    ("core.row_softmax.max_input_mb", "MiB", "lower"),
    ("rnr.attn_plain.self_s", "s", "lower"),
    ("rnr.attn_plain.calls", "count", "lower"),
    ("rnr.attn_plain.gmac_per_s", "GMAC/s", "higher"),
    ("matching.pairwise_best_match.self_s", "s", "lower"),
    ("matching.pairwise_best_match.calls", "count", "lower"),
    ("matching.pairwise_best_match.evals", "count", "lower"),
    ("matching.pairwise_best_match.gevals_per_s", "Geval/s", "higher"),
    ("core.pairwise_sq_dists.matching.self_s", "s", "lower"),
    ("core.pairwise_sq_dists.klnn.self_s", "s", "lower"),
    ("schedule.cached_match.calls", "count", "lower"),
    ("schedule.cached_match.hits", "count", "higher"),
    ("schedule.cached_match.hit_ratio", "ratio", "higher"),
    ("schedule.cached_match.self_s", "s", "lower"),
    ("schedule.lookup_rate.self_s", "s", "lower"),
    ("rnr.build_plan.self_s", "s", "lower"),
    ("rnr.reduce_tokens.self_s", "s", "lower"),
    ("rnr.restore_tokens.self_s", "s", "lower"),
    ("rnr.m_q_mean", "rows", "lower"),
    ("rnr.m_kv_mean", "rows", "lower"),
    ("rnr.max_row_dev", "1", "lower"),
    ("core.apply_rope_tables.self_s", "s", "lower"),
    ("pipeline.loop_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.setup_in_call_s", "s", "lower"),
    ("pipeline.block_s.p50", "s", "lower"),
    ("pipeline.block_s.p90", "s", "lower"),
    ("flops.macs.qk_matmul", "MAC", "lower"),
    ("flops.macs.av_matmul", "MAC", "lower"),
    ("flops.macs.projections", "MAC", "lower"),
    ("flops.macs.matching", "MAC", "lower"),
    ("flops.macs.softmax", "MAC", "lower"),
    ("flops.macs.total", "MAC", "lower"),
    ("klnn.kl_estimate.s", "s", "lower"),
    ("klnn.knn_distances.self_s", "s", "lower"),
    ("klnn.knn_distances.calls", "count", "lower"),
    ("klnn.pairs", "count", "lower"),
    ("klnn.mpairs_per_s", "Mpair/s", "higher"),
    ("klnn.kl_abs_err", "nats", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _rate(count, seconds, scale):
    return count / scale / seconds if seconds > 0 else 0.0


def pass_metrics(stats: dict, report) -> dict:
    """Per-layer metrics of one traced pass; `report` is the pipeline's
    RunReport, or None for a workload that runs no pipeline."""
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    m = {}
    for name in ("core.row_softmax", "rnr.attn_plain", "matching.pairwise_best_match",
                 "schedule.cached_match"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("core.pairwise_sq_dists.matching", "core.pairwise_sq_dists.klnn",
                 "schedule.lookup_rate", "rnr.build_plan", "rnr.reduce_tokens",
                 "rnr.restore_tokens", "core.apply_rope_tables", "klnn.knn_distances"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["core.row_softmax.entries"] = get("core.row_softmax", "entries")
    m["core.row_softmax.max_input_mb"] = get("core.row_softmax", "max_input_mb")
    m["rnr.attn_plain.gmac_per_s"] = _rate(get("rnr.attn_plain", "macs"),
                                           get("rnr.attn_plain", "self_s"), 1e9)
    m["matching.pairwise_best_match.evals"] = get("matching.pairwise_best_match", "evals")
    m["matching.pairwise_best_match.gevals_per_s"] = _rate(
        get("matching.pairwise_best_match", "evals"),
        get("matching.pairwise_best_match", "total_s"), 1e9)
    hits, calls = get("schedule.cached_match", "hits"), get("schedule.cached_match", "calls")
    m["schedule.cached_match.hits"] = hits
    m["schedule.cached_match.hit_ratio"] = hits / calls if calls else 0.0
    m["klnn.kl_estimate.s"] = get("klnn.kl_estimate", "total_s")
    m["klnn.knn_distances.calls"] = get("klnn.knn_distances", "calls")
    m["klnn.pairs"] = get("klnn.knn_distances", "pairs")
    m["klnn.mpairs_per_s"] = _rate(get("klnn.knn_distances", "pairs"),
                                   get("klnn.knn_distances", "total_s"), 1e6)

    macs = report.measured.as_dict() if report is not None else {}
    for key in ("qk_matmul", "av_matmul", "projections", "matching", "softmax", "total"):
        m[f"flops.macs.{key}"] = macs.get(key, 0)
    if report is None:
        m.update({"rnr.m_q_mean": 0.0, "rnr.m_kv_mean": 0.0, "pipeline.loop_s": 0.0,
                  "pipeline.self_s": 0.0, "pipeline.setup_in_call_s": 0.0,
                  "pipeline.block_s.p50": 0.0, "pipeline.block_s.p90": 0.0})
        return m
    m["rnr.m_q_mean"] = statistics.fmean(r.m_q for r in report.records)
    m["rnr.m_kv_mean"] = statistics.fmean(r.m_kv for r in report.records)
    loop = report.total_wall_s
    call = get("pipeline.run_pipeline", "total_s")
    m["pipeline.loop_s"] = loop
    m["pipeline.setup_in_call_s"] = call - loop
    m["pipeline.self_s"] = get("pipeline.run_pipeline", "self_s") - (call - loop)
    walls = [r.wall_s for r in report.records]
    if len(walls) > 1:
        deciles = statistics.quantiles(walls, n=10)
        m["pipeline.block_s.p50"], m["pipeline.block_s.p90"] = deciles[4], deciles[8]
    else:
        m["pipeline.block_s.p50"] = m["pipeline.block_s.p90"] = walls[0]
    return m


def guard(workload, stats: dict) -> list[str]:
    """Fail when a boundary is entered where it should not be, or skipped
    where it should run, or when the cache serves other than the expected share."""
    errors = []
    entered = frozenset(name for name, st in stats.items() if st["calls"])
    expected = expected_spans(workload)
    if entered - expected:
        errors.append(f"{workload.name} entered unexpected boundaries {sorted(entered - expected)}")
    if expected - entered:
        errors.append(f"{workload.name} never entered {sorted(expected - entered)}")
    if workload.hit_ratio is not None:
        st = stats.get("schedule.cached_match", {})
        calls = st.get("calls", 0)
        ratio = st.get("hits", 0) / calls if calls else None
        if ratio != workload.hit_ratio:
            errors.append(f"cache hit ratio {ratio} != expected {workload.hit_ratio}")
    return errors

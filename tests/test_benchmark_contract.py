"""What the benchmark in perfbench/ uses of the package, checked without
running the benchmark.

The tracer patches named functions in named modules, and the workloads call
the public API (the cost model positionally). A rename or a changed
signature would otherwise pass these tests and break only a traced
benchmark run.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tokenrnr import (PipelineConfig, build_plan, pairwise_best_match,
                      partition_3d)
from tokenrnr.pipeline import unreduced_profile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The tracing and workloads modules, imported under the names the
    tracer's boundary table uses."""
    modules = {}
    for name in ("tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules[name] = module
    return modules["tracing"], modules["workloads"]


def test_every_traced_boundary_resolves_to_a_callable(perfbench):
    tracing, _ = perfbench
    for module_name, attr, span_name, _ in tracing.BOUNDARIES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{span_name}: {module_name}.{attr} is gone"


@pytest.mark.parametrize("name", ["dense", "asym-cached", "sym-fresh"])
def test_workload_checks_pass_on_a_small_grid(perfbench, name):
    # each pipeline workload's mode, schedule and step count on a small grid:
    # every boundary it must enter is entered, the cache serves its share,
    # and the workload's own MAC check (which calls cost_asym positionally)
    # holds
    tracing, workloads = perfbench
    wl = workloads.WORKLOADS[name]
    cfg = PipelineConfig(grid_shape=(2, 4, 4), feature_dim=8, num_blocks=2,
                         num_heads=1, num_timesteps=wl.num_timesteps, seed=3,
                         rnr_mode=wl.rnr_mode, schedule=wl.schedule)
    profile = unreduced_profile(cfg) if cfg.scheduled else None
    part = partition_3d(cfg.grid_shape, cfg.stride, np.random.default_rng(0))
    state = workloads.PipelineState(cfg=cfg, profile=profile,
                                    n_src=part.n_src, n_dst=part.n_dst)
    with tracing.patched(tracing.Tracer()) as tracer:
        report = workloads.run_pipeline(cfg, profile=state.profile)
    assert tracing.guard(wl, tracing.summarize(tracer.spans)) == []
    assert wl.check(state, report) == []


def test_kl_workload_enters_its_boundaries_on_small_sets(perfbench):
    # the kl workload's plans and Gaussian pairs at a small size: it enters
    # exactly the klnn boundaries, core.pairwise_sq_dists through klnn's own
    # name included, and every score is finite. The 0.1-nat bound of its
    # own check needs the full sample count, so it is not asserted here.
    tracing, workloads = perfbench
    wl = workloads.WORKLOADS["kl"]
    rng = np.random.default_rng(5)
    grid = (2, 8, 8)
    tokens = rng.standard_normal((2 * 8 * 8, 8))
    part = partition_3d(grid, (2, 2, 2), rng)
    match = pairwise_best_match(tokens, part, "neg_euclidean")
    plans = tuple(build_plan(match, part, rate) for rate in workloads.KL_RATES)
    mu = np.eye(workloads.KL_DIM)[0]
    samples = [(rng.standard_normal((200, workloads.KL_DIM)) + mu,
                rng.standard_normal((200, workloads.KL_DIM))) for _ in range(2)]
    state = workloads.KlState(tokens=tokens, plans=plans, samples=samples)
    with tracing.patched(tracing.Tracer()) as tracer:
        out = wl.run(state)
    assert tracing.guard(wl, tracing.summarize(tracer.spans)) == []
    assert np.isfinite(out.scores + out.estimates).all()

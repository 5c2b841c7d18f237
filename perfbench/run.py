"""Benchmark of the `tokenrnr` package, run from the root of a source checkout.

One workload per process:

    python3 perfbench/run.py --workload asym-cached --seed 0 --seconds 20 --trace 0

Every workload in turn, one process at a time, untraced then traced, with a
summary table of every metric:

    python3 perfbench/run.py --all --seed 0 --seconds 20

Each run is a closed loop: one caller runs passes back to back in one
process, with at most nproc BLAS threads. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: `attempted`
counts timed passes and `failed` those that failed a check. Details (machine
facts, config ids, per-pass times, digests, spans) go to perfbench/out/.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# OpenBLAS reads this when numpy loads it, so it is set before that import
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))

SETUP_REPEATS = 5
MIN_PASSES = 2
WORKLOAD_NAMES = ("dense", "asym-cached", "sym-fresh", "kl")
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class Pass:
    wall_s: float
    output: object
    traced: bool
    errors: list = field(default_factory=list)
    layer: dict | None = None


def import_package():
    """Import tokenrnr from this checkout's sources; exit 2 when they are absent."""
    if not (ROOT / "src" / "tokenrnr" / "__init__.py").is_file():
        print(f"error: no tokenrnr sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    return workloads, tracing


def _blas_threads():
    """OpenBLAS's own thread count through ctypes; threadpoolctl is not installed."""
    import ctypes
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter (median of
    SETUP_REPEATS): it can be measured only once in this process."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path.insert(0, {str(ROOT / 'src')!r}); import tokenrnr; "
            "print(time.perf_counter() - t0)")
    walls = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, check=True)
        walls.append(float(proc.stdout))
    return statistics.median(walls)


def _one_pass(wl, state, traced: bool) -> Pass:
    t0 = time.perf_counter()
    try:
        out = wl.run(state)
    except Exception:  # a failing pass is counted and reported; the loop goes on
        return Pass(time.perf_counter() - t0, None, traced, [traceback.format_exc()])
    wall = time.perf_counter() - t0
    return Pass(wall, out, traced, wl.check(state, out))


def timed_passes(wl, state, seconds: float, tracing, tracer) -> list[Pass]:
    """Passes back to back until `seconds` have elapsed and at least MIN_PASSES
    ran (of each kind, in a traced run, where every other pass is traced)."""
    passes: list[Pass] = []
    minimum = MIN_PASSES * (2 if tracer else 1)
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        if tracer is None or len(passes) % 2 == 0:
            passes.append(_one_pass(wl, state, False))
            continue
        tracer.run_id = f"{wl.name}-pass{len(passes)}"
        first = len(tracer.spans)
        with tracing.patched(tracer):
            p = _one_pass(wl, state, True)
        if p.output is not None:
            stats = tracing.summarize(tracer.spans[first:])
            p.errors += tracing.guard(wl, stats)
            p.layer = tracing.pass_metrics(stats, p.output if wl.kind == "pipeline" else None)
        passes.append(p)
    return passes


def cross_check(workloads, wl, seed: int, passes: list[Pass]) -> str:
    """All passes must give one output digest, and that output must match the
    reference stored for this seed. Returns how the stored comparison went."""
    digests = [wl.digest(p.output) if p.output is not None else None for p in passes]
    good = [k for k, d in enumerate(digests) if d is not None]
    if not good:
        return "no pass produced an output"
    first = digests[good[0]]
    for p, d in zip(passes, digests):
        if d is not None and d != first:
            p.errors.append(f"output digest {d[:16]} differs from the first pass's {first[:16]}")
    stored = workloads.load_references().get(wl.name, {}).get(str(seed))
    if stored is None:
        return "not recorded for this seed"
    problem = workloads.compare_reference(wl.fingerprint(passes[good[0]].output), stored)
    if problem:
        for p, d in zip(passes, digests):
            if d == first:
                p.errors.append(problem)
    return problem or f"matches within {workloads.REFERENCE_TOL:g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workloads, tracing = import_package()
    import_s = import_seconds()
    wl = workloads.WORKLOADS[name]

    setup_walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_walls.append(time.perf_counter() - t0)

    tracer = tracing.Tracer() if trace else None
    if trace:
        wl.run(state)  # warm-up, so neither side of the overhead pays first-touch costs
    passes = timed_passes(wl, state, seconds, tracing, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stored_note = cross_check(workloads, wl, seed, passes)
    failed = sum(1 for p in passes if p.errors)
    first_output = next((p.output for p in passes if p.output is not None), None)

    untraced_s = statistics.median(p.wall_s for p in passes if not p.traced)
    info = {}
    if trace:
        traced_s = statistics.median(p.wall_s for p in passes if p.traced)
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        metrics = dict.fromkeys(units, 0.0)
        layers = [p.layer for p in passes if p.layer is not None]
        if layers:
            metrics.update({key: statistics.median(layer[key] for layer in layers)
                            for key in layers[0]})
        # outside both timings: the unreduced reference run, or the closed form
        quality = wl.reference(state, first_output) if first_output is not None else {}
        metrics["rnr.max_row_dev"] = quality.pop("rnr.max_row_dev", 0.0)
        metrics["klnn.kl_abs_err"] = quality.pop("klnn.kl_abs_err", 0.0)
        metrics["trace.run_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        if "reference_wall_s" in quality:
            quality["speedup"] = quality["reference_wall_s"] / untraced_s
        info = quality
    else:
        metrics = {"run_s": untraced_s,
                   "setup_s": import_s + statistics.median(setup_walls),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics out of step with their list: {sorted(set(metrics) ^ set(units))}")
    if wl.kind == "kl" and first_output is not None:
        info["kl_abs_err"] = first_output.abs_err
    result_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}

    errors = [f"pass {k}: {e}" for k, p in enumerate(passes) for e in p.errors]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "machine": machine_facts(), **wl.describe(state),
                   "passes_s": [p.wall_s for p in passes if not p.traced],
                   "traced_passes_s": [p.wall_s for p in passes if p.traced],
                   "setup_walls_s": setup_walls, "import_s": import_s,
                   "digest": wl.digest(first_output) if first_output is not None else None,
                   "stored_reference": stored_note, "errors": errors,
                   "info": info, "metrics": result_metrics}, fh, indent=2)
    if trace:
        tracer.write_jsonl(f"{stem}-spans.jsonl")

    for e in errors:
        print(e, file=sys.stderr)
    for key, m in result_metrics.items():
        print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
    for key, value in info.items():
        print(f"{name} {key} = {value:.6g} (information only)")
    print(f"{name}: {len(passes)} passes, {failed} failed; stored reference {stored_note}")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": result_metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, one process at a time, untraced then traced."""
    import_package()
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}, no result")
                continue
            result = json.loads(lines[-1])
            if trace:
                m = result["metrics"]
                rows.append((name, "trace.overhead_s", m["trace.overhead_s"]["value"], "s"))
                if name in ("asym-cached", "sym-fresh"):
                    rows.append((name, "max_row_dev", m["rnr.max_row_dev"]["value"], "1"))
                continue
            for key, m in result["metrics"].items():
                rows.append((name, key, m["value"], m["unit"]))
            rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "1"))
            with open(OUT / f"{name}-seed{seed}-trace0.json", encoding="utf-8") as fh:
                kl_abs_err = json.load(fh)["info"].get("kl_abs_err")
            if kl_abs_err is not None:
                rows.append((name, "kl_abs_err", kl_abs_err, "nats"))
    for row in rows:
        print(f"{row[0]:<12} {row[1]:<18} {row[2]:>14.6g} {row[3]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""qauction benchmark: seeded closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload search_large --seed 1 --seconds 30 --trace 0

Runs passes over one workload until `--seconds` have gone by (the last
pass runs to completion), pass k on the seed's input draw k, checks every
output, and prints the metrics as one JSON object on the last line of
stdout. Times are scaled to a nominal host speed (see harness.py).
`--trace 0` reports the end-to-end metrics; `--trace 1` runs each draw
untraced, then traced, and reports the per-layer metrics plus the tracing
overhead. A full record
(environment, generated inputs, every call, every failure) goes to
`perfbench/out/BENCH_<workload>_seed<seed>_trace<k>.json`, and a traced
run also writes its spans to `perfbench/out/spans_<workload>_seed<seed>.jsonl`.
The program is imported from `src/` next to this directory; without it the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread. On a 2-vCPU VM a second OpenBLAS thread busy-waits next
# to the caller between calls: over back-to-back calls the interquartile
# range of the latency was 56% (converge) and 74% (povm) of its median
# with two threads, against 7% and 10% with one.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def limit_blas_threads() -> None:
    """Pin BLAS to BLAS_THREADS (never above nproc); must run before numpy
    is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc()))


def _read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _blas_runtime() -> dict:
    """Name, version and live thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    maps = _read_text("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["env"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return info


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l3 = _read_text("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {"nproc": nproc(), "cpu": cpu, "l3": l3.strip() if l3 else "unknown",
            "python": platform.python_version(), "numpy": np.__version__, "blas": _blas_runtime()}


def setup_probe_s(workload: str, seed: int) -> float:
    """Host-scaled seconds from starting a fresh interpreter until it has
    imported qauction and generated the inputs, i.e. could issue the first
    timed call. Scaled like the calls, by the reference kernel around it."""
    import harness

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    ref_before = harness.reference_ms()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.decode(errors='replace')}")
    ref = (ref_before + harness.reference_ms()) / 2
    return elapsed * harness.REF_NOMINAL_MS / ref


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def call_stats(passes) -> dict:
    """Nearest-rank percentiles of the scaled latencies of every call
    (failed ones too), pooled over the passes; raw ones for the record."""
    import harness

    calls = [c for p in passes for c in p.calls]
    scaled, raw = [c.scaled_ms for c in calls], [c.ms for c in calls]
    return {"samples": len(calls), "supported_percentile": harness.supported_percentile(len(calls)),
            "p50": harness.percentile(scaled, 0.5), "p90": harness.percentile(scaled, 0.9),
            "raw_p50": harness.percentile(raw, 0.5), "raw_p90": harness.percentile(raw, 0.9),
            "ref_ms_median": statistics.median(c.ref_ms for c in calls)}


class Passes:
    """Runs the passes of one workload and seed on input draws 0, 1, ...
    (modulo workloads.DRAWS), after one untimed warm-up pass at toy size
    that loads the code paths."""

    def __init__(self, name: str, seed: int, golden: dict):
        import harness
        import workloads

        self.name, self.seed, self.golden = name, seed, golden
        self.results, self.inputs, self.pinned = [], [], False
        harness.run_pass(workloads.make(name, seed, toy=True))

    def run(self, draw: int, tracer=None):
        import harness
        import workloads

        draw %= workloads.DRAWS
        wl = workloads.make(self.name, self.seed, draw)
        if len(self.inputs) == draw:
            self.inputs.append(wl.inputs)
        pins = self.golden.get(f"{self.seed}:{draw}", {})
        self.pinned |= bool(pins)
        first = sum(len(p.calls) for p in self.results)
        if tracer is None:
            self.results.append(harness.run_pass(wl, pins, first_call_id=first))
        else:
            with tracer:
                self.results.append(harness.run_pass(wl, pins, tracer, first_call_id=first))
        return self.results[-1]


def run_untraced(passes: Passes, seconds: float):
    """Passes until `seconds` are up, with the set-up probes spread evenly
    over the same window so that they see the same host load as the passes."""
    setup, t0 = [], time.perf_counter()
    while True:
        while len(setup) < SETUP_REPEATS and time.perf_counter() - t0 >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_probe_s(passes.name, passes.seed))
        if passes.results and time.perf_counter() - t0 >= seconds:
            break
        passes.run(len(passes.results))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe_s(passes.name, passes.seed))
    stats = call_stats(passes.results)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(p.scaled_s for p in passes.results), "s"),
        "call_ms_p50": metric(stats["p50"], "ms"),
        "call_ms_p90": metric(stats["p90"], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"calls": stats, "setup_s_samples": setup,
             "raw_wall_s": statistics.median(p.wall_s for p in passes.results)}
    return metrics, extra


def run_traced(passes: Passes, seconds: float):
    """Each draw runs untraced, then traced. Layer times are medians over
    the traced passes; counts come from the first one (draw 0), so they
    repeat exactly for a seed; the overhead is the median ratio of each
    draw's traced to untraced scaled time, minus one."""
    import harness
    from tracer import Tracer

    tracer, pairs, t0 = Tracer(), [], time.perf_counter()
    while not pairs or time.perf_counter() - t0 < seconds:
        draw = len(pairs)
        pairs.append((passes.run(draw), passes.run(draw, tracer)))
    traced = [t for _, t in pairs]
    spans = [harness.scaled_spans(tracer.spans[p.span_range[0]:p.span_range[1]], p.calls) for p in traced]
    per_pass = [harness.layer_values(s) for s in spans]
    metrics = {}
    for name in per_pass[0]:
        unit = harness.layer_unit(name)
        value = per_pass[0][name] if unit in ("count", "MB") else statistics.median(v[name] for v in per_pass)
        metrics[name] = metric(value, unit)
    metrics["traced.wall_s"] = metric(statistics.median(p.scaled_s for p in traced), "s")
    metrics["p90_tail.layer_share"] = metric(harness.tail_share(traced, [r for s in spans for r in s]), "frac")
    metrics["trace_overhead_frac"] = metric(
        statistics.median(t.scaled_s / u.scaled_s for u, t in pairs) - 1.0, "frac")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans_{passes.name}_seed{passes.seed}.jsonl")
    return metrics, {"calls": call_stats(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    limit_blas_threads()
    if not (SRC / "qauction" / "__init__.py").is_file():
        print(f"error: no qauction sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from harness import REF_NOMINAL_MS

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; pick from {workloads.NAMES}")
    if args.setup_probe:
        workloads.make(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8")).get(args.workload, {})
    passes = Passes(args.workload, args.seed, golden)
    if args.trace:
        metrics, extra = run_traced(passes, args.seconds)
    else:
        metrics, extra = run_untraced(passes, args.seconds)

    calls = [c for p in passes.results for c in p.calls]
    failed = [c for c in calls if c.error is not None]
    defects = sorted({d for c in calls for d in c.defects})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(), "inputs_per_draw": passes.inputs, "pinned": passes.pinned,
        "passes": len(passes.results), "metrics": metrics, **extra,
        "failed_frac": len(failed) / len(calls), "known_defects": defects,
        "failures": [{"call": c.name, "id": c.call_id, "error": c.error} for c in failed],
        "samples": [{"call": c.name, "ms": c.ms, "ref_ms": c.ref_ms, "traced": p.traced}
                    for p in passes.results for c in p.calls],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    stats = extra["calls"]
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes.results)} calls={len(calls)} "
          f"failed_frac={len(failed) / len(calls):.6g} pinned={passes.pinned} "
          f"call samples={stats['samples']} (p{stats['supported_percentile']} is the highest "
          f"percentile with >= 10 samples beyond it)")
    print("# environment " + json.dumps(record["environment"]))
    print("# inputs of draw 0 " + json.dumps(passes.inputs[0]))
    for d in defects:
        print(f"# known defect (not counted as failed): {d}")
    for f in failed[:5]:
        print(f"# FAILED {f.name}: {f.error.strip().splitlines()[-1]}")
    print(f"# unscaled: call p50 {stats['raw_p50']:.6g} ms, p90 {stats['raw_p90']:.6g} ms; "
          f"reference kernel median {stats['ref_ms_median']:.4g} ms (nominal {REF_NOMINAL_MS} ms)")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop passes over a workload, and the statistics reported from them.

One client in one process issues each call only after the previous one
returned. A call counts as failed when it raises, when its check finds a
broken property, or when a pinned number moved by more than its tolerance.

Host-speed normalisation: on a shared VM, other tenants slow every call by
up to 1.9x in phases of seconds to minutes. A fixed reference kernel runs
between consecutive calls, and each call's latency is also reported scaled
by REF_NOMINAL_MS over the mean reference time on either side of it. The
scaled time is the call's time at the host speed where the kernel takes
REF_NOMINAL_MS, so the same code reads the same on a busy and a quiet host.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from checks import print_resolution
from tracer import Tracer, outermost_ns, summarize


# A fixed host speed, close to reference_ms() on a quiet host of the type
# in README.md; it sets the unit of the scaled times and nothing else.
REF_NOMINAL_MS = 0.5
_REF_MATRIX = np.random.default_rng(0).random((64, 64))


def reference_ms() -> float:
    """Fastest of three runs of a fixed kernel, a Python loop and small
    matrix products, mixed like the workloads' own time."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i
        for _ in range(8):
            _REF_MATRIX @ _REF_MATRIX
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


@dataclass
class CallResult:
    name: str
    call_id: int
    ms: float
    ref_ms: float = REF_NOMINAL_MS  # reference kernel time around the call
    error: str | None = None
    values: dict = field(default_factory=dict)
    defects: list[str] = field(default_factory=list)

    @property
    def scaled_ms(self) -> float:
        return self.ms * REF_NOMINAL_MS / self.ref_ms


@dataclass
class PassResult:
    wall_s: float
    calls: list[CallResult]
    traced: bool = False
    span_range: tuple[int, int] = (0, 0)

    @property
    def scaled_s(self) -> float:
        """Scaled time of the pass's calls, without the benchmark's own checks."""
        return sum(c.scaled_ms for c in self.calls) / 1e3


def pin_tolerance(pinned: float, printed: bool) -> float:
    """1e-12 (relative above 1), plus the print step for CSV values that
    carry only 12 significant digits."""
    return 1e-12 * max(1.0, abs(pinned)) + (print_resolution(pinned) if printed else 0.0)


def compare_pins(values: dict, pins: dict, printed: bool) -> str | None:
    for key, pinned in pins.items():
        got = values.get(key)
        if got is None or not abs(got - pinned) <= pin_tolerance(pinned, printed):
            return f"pinned {key}={pinned!r} moved to {got!r}"
    return None


def run_pass(workload, pins: dict | None = None, tracer: Tracer | None = None,
             first_call_id: int = 0) -> PassResult:
    """Run every call of the workload once, in order, timing each one."""
    pins = pins or {}
    results = []
    start_span = len(tracer.spans) if tracer else 0
    t_pass = time.perf_counter()
    ref_before = reference_ms()
    for k, call in enumerate(workload.calls):
        res = CallResult(call.name, first_call_id + k, 0.0)
        if tracer is not None:
            tracer.call_id = res.call_id
        t0 = time.perf_counter()
        try:
            output = call.run()
        except Exception:  # a raising call is a failed call, and the pass goes on
            output = None
            res.error = traceback.format_exc(limit=3)
        res.ms = (time.perf_counter() - t0) * 1e3
        ref_after = reference_ms()
        res.ref_ms = (ref_before + ref_after) / 2
        ref_before = ref_after
        results.append(res)
        if res.error is not None:
            continue
        try:
            res.values = call.check(output)
            res.error = compare_pins(res.values, pins.get(call.name, {}), workload.printed)
            if call.defects is not None:
                res.defects = call.defects(output)
        except Exception as exc:  # noqa: BLE001 - any check error fails the call
            res.error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t_pass
    end_span = len(tracer.spans) if tracer else 0
    return PassResult(wall, results, tracer is not None, (start_span, end_span))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with a share q of all
    samples at or below it. It is always a measured call, so with calls of
    a few distinct sizes it stays inside one size instead of interpolating
    across the step between two."""
    xs = sorted(values)
    return xs[max(math.ceil(q * len(xs)), 1) - 1]


def supported_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (0 if none)."""
    best = 0
    for q in range(1, 100):
        if n * (100 - q) / 100 >= 10:
            best = q
    return best


# Per-layer metrics: name -> (span names, field, unit). "s" is inclusive
# time of outermost spans, "self_s" excludes child spans, "calls" counts
# spans and "count" sums the span counters (steps, bytes, gates).
MC_POINTS = ("adversary.basis_mc_point", "adversary.povm_mc_point", "adversary.majority_mc_point")
LAYER_METRICS = {
    "protocol.run_schedule.self_s": (("protocol.run_schedule",), "self_s", "s"),
    "protocol.run_schedule.calls": (("protocol.run_schedule",), "calls", "count"),
    "protocol.run_schedule.steps": (("protocol.run_schedule",), "count", "count"),
    "protocol.joint_bidding_operator.s": (("protocol.joint_bidding_operator",), "s", "s"),
    "protocol.joint_bidding_operator.mb": (("protocol.joint_bidding_operator",), "count", "MB"),
    "protocol.eigenvalue_tracks.self_s": (("protocol.eigenvalue_tracks",), "self_s", "s"),
    "core.eig_hermitian.s": (("core.eig_hermitian",), "s", "s"),
    "core.eig_hermitian.calls": (("core.eig_hermitian",), "calls", "count"),
    "protocol.build_first_price_table.s": (("protocol.build_first_price_table",), "s", "s"),
    "protocol.pauli_z_expansion.s": (("protocol.pauli_z_expansion",), "s", "s"),
    "adversary.mc_point.s": (MC_POINTS, "s", "s"),
    "adversary.mc_point.calls": (MC_POINTS, "calls", "count"),
    "adversary.min_error_povm.s": (("adversary.min_error_povm",), "s", "s"),
    "adversary.min_error_povm.calls": (("adversary.min_error_povm",), "calls", "count"),
    "adversary.povm_optimality_check.s": (("adversary.povm_optimality_check",), "s", "s"),
    "circuits.circuit_to_matrix.s": (("circuits.circuit_to_matrix",), "s", "s"),
    "circuits.circuit_to_matrix.gates": (("circuits.circuit_to_matrix",), "count", "count"),
    "core.phase_invariant_distance.s": (("core.phase_invariant_distance",), "s", "s"),
    "circuits.verify_circuit.self_s": (("circuits.verify_circuit",), "self_s", "s"),
    "circuits.parse_circuit.s": (("circuits.parse_circuit",), "s", "s"),
    "cli.main.calls": (("cli.main",), "calls", "count"),
    "cli.main.self_s": (("cli.main",), "self_s", "s"),
}
MODULES = ("core", "protocol", "circuits", "adversary", "cli")
# Layers expected to make up cli_small's tail beyond p90.
TAIL_LAYERS = ("core.phase_invariant_distance", "adversary.min_error_povm")


def scaled_spans(spans: list[list], calls: list[CallResult]) -> list[list]:
    """Spans with start and end scaled like the call they belong to."""
    factor = {c.call_id: REF_NOMINAL_MS / c.ref_ms for c in calls}
    out = []
    for rec in spans:
        f = factor.get(rec[2], 1.0)
        out.append(rec[:4] + [rec[4] * f, rec[5] * f] + rec[6:])
    return out


def layer_values(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    summary = summarize(spans)
    out = {}
    for metric, (names, fld, unit) in LAYER_METRICS.items():
        total = sum(summary[n][fld] for n in names if n in summary)
        out[metric] = total / 1e6 if unit == "MB" else total
    for module in MODULES:
        out[f"{module}.self_s"] = sum(v["self_s"] for k, v in summary.items()
                                      if k.split(".", 1)[0] == module)
    out["trace.spans"] = len(spans)
    return out


def layer_unit(name: str) -> str:
    if name in LAYER_METRICS:
        return LAYER_METRICS[name][2]
    return "count" if name == "trace.spans" else "s"


def tail_share(passes: list[PassResult], spans: list[list]) -> float:
    """Share of the time of calls beyond the pooled p90 that is spent in
    `circuits.*`, `core.phase_invariant_distance` or `adversary.min_error_povm`."""
    calls = [c for p in passes for c in p.calls]
    cut = percentile([c.scaled_ms for c in calls], 0.9)
    tail = [c for c in calls if c.scaled_ms > cut]
    names = {rec[3] for rec in spans if rec[3].startswith("circuits.")} | set(TAIL_LAYERS)
    inside = outermost_ns(spans, names)
    total_ms = sum(c.scaled_ms for c in tail)
    return sum(inside.get(c.call_id, 0) for c in tail) / 1e6 / total_ms if total_ms else 0.0

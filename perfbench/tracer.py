"""Span tracing of qauction's public functions, installed from outside the package.

`Tracer.install()` rebinds every public function defined in a `qauction.*`
module, in every `qauction` namespace that holds it. `from .core import
eig_hermitian` copies the name into `protocol`, so `protocol.eig_hermitian`
is rebound separately from `core.eig_hermitian`; both point at one wrapper,
so a call records one span whichever name it went through.
`uninstall()` puts every original back. Untraced runs never install it.

A span is `[span_id, parent_id, call_id, name, start_ns, end_ns, count]`:
`parent_id` is the enclosing span (-1 at the top of a benchmark call),
`call_id` the benchmark call it belongs to, and `count` a number taken from
the arguments or the return value (see COUNTERS), so it repeats exactly
from run to run. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

SPAN_ID, PARENT, CALL, NAME, START, END, COUNT = range(7)


def _circuit_gates(circuit) -> int:
    return sum(1 + (_circuit_gates(g.inner) if g.inner is not None else 0) for g in circuit.gates)


# span name -> (bound arguments, result) -> count
COUNTERS = {
    "protocol.run_schedule": lambda args, result: args["schedule"].steps,
    "protocol.joint_bidding_operator": lambda args, result: result.nbytes,
    "circuits.circuit_to_matrix": lambda args, result: _circuit_gates(args["c"]),
}


def public_functions(package: str = "qauction") -> dict:
    """Original function -> list of (module, attribute) bindings to rebind."""
    bindings: dict = {}
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or not value.__module__.startswith(package + ".")
                    or value.__name__.startswith("_")):
                continue
            bindings.setdefault(value, []).append((module, attr))
    return bindings


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn):
        name = span_name(fn)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.call_id, name,
                   time.perf_counter_ns(), 0, 0]
            spans.append(rec)
            stack.append(rec[SPAN_ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = time.perf_counter_ns()
            if counter is not None:
                rec[COUNT] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for fn, places in public_functions().items():
            wrapper = self._wrap(fn)
            for module, attr in places:
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "call", "name", "start_ns", "end_ns", "count"), rec))) + "\n")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: `calls`, inclusive `s` of outermost spans (a recursive
    call is not counted twice), `self_s` (duration minus direct children)
    and the summed `count`."""
    by_id = {rec[SPAN_ID]: rec for rec in spans}
    child_ns: dict[int, int] = {}
    for rec in spans:
        if rec[PARENT] in by_id:
            child_ns[rec[PARENT]] = child_ns.get(rec[PARENT], 0) + rec[END] - rec[START]
    out: dict[str, dict[str, float]] = {}
    for rec in spans:
        stats = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        dur = rec[END] - rec[START]
        stats["calls"] += 1
        stats["self_s"] += (dur - child_ns.get(rec[SPAN_ID], 0)) / 1e9
        stats["count"] += rec[COUNT]
        parent = by_id.get(rec[PARENT])
        while parent is not None and parent[NAME] != rec[NAME]:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            stats["s"] += dur / 1e9
    return out


def outermost_ns(spans: list[list], names) -> dict[int, int]:
    """Per call id: time inside spans named in `names`, counting only spans
    with no ancestor in `names`, so nested ones are not counted twice."""
    by_id = {rec[SPAN_ID]: rec for rec in spans}
    out: dict[int, int] = {}
    for rec in spans:
        if rec[NAME] not in names:
            continue
        parent = by_id.get(rec[PARENT])
        while parent is not None and parent[NAME] not in names:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            out[rec[CALL]] = out.get(rec[CALL], 0) + rec[END] - rec[START]
    return out

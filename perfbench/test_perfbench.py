"""Self-tests of the benchmark at toy sizes (n <= 6, 1000 trials, one pass).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, within_binomial  # noqa: E402


def toy(name: str, tmp_path: Path, seed: int = 0) -> workloads.Workload:
    if name == "cli_small":
        return workloads.cli_small(seed, toy=True, workdir=str(tmp_path))
    return workloads.make(name, seed, toy=True)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_workload_passes_its_checks(name, tmp_path):
    wl = toy(name, tmp_path)
    result = harness.run_pass(wl)
    assert result.calls and all(c.error is None for c in result.calls), \
        [(c.name, c.error) for c in result.calls if c.error]
    assert all(math.isfinite(c.ms) and c.ms >= 0 for c in result.calls)


def test_inputs_repeat_for_a_seed_and_draw_and_differ_otherwise():
    for name in workloads.NAMES:
        assert workloads.make(name, 5, 3, toy=True).inputs == workloads.make(name, 5, 3, toy=True).inputs
    one = workloads.make("search_large", 1).inputs
    assert one != workloads.make("search_large", 2).inputs
    assert one != workloads.make("search_large", 1, 1).inputs


def test_scaled_latency_follows_the_reference_kernel():
    call = harness.CallResult("c", 0, ms=10.0, ref_ms=2 * harness.REF_NOMINAL_MS)
    assert call.scaled_ms == 5.0
    assert harness.reference_ms() > 0


def _corrupt(wl, call_name, edit):
    call = next(c for c in wl.calls if c.name == call_name)
    run = call.run
    call.run = lambda: edit(run())


def _nan_last_success(csv: str) -> str:
    lines = csv.splitlines()
    cols = lines[-1].split(",")
    cols[2] = "nan"
    return "\n".join(lines[:-1] + [",".join(cols)]) + "\n"


CORRUPTIONS = [
    ("cli_small", "converge", _nan_last_success),
    ("cli_small", "povm", lambda text: text.replace("optimality_check = true", "optimality_check = false")),
    ("cli_small", "attack.spurious", lambda csv: csv.replace("# revealing=", "# revealing=0")),
    ("probe_attack", "attack.probe_basis.lock",
     lambda csv: "\n".join(ln if ln.startswith(("#", "N")) else ",".join(
         [ln.split(",")[0], ln.split(",")[1], "0.0"] + ln.split(",")[3:]) for ln in csv.splitlines()) + "\n"),
]


@pytest.mark.parametrize("name,call_name,edit", CORRUPTIONS, ids=[c[1] for c in CORRUPTIONS])
def test_corrupted_output_counts_as_failed(name, call_name, edit, tmp_path):
    wl = toy(name, tmp_path)
    _corrupt(wl, call_name, edit)
    result = harness.run_pass(wl)
    failed = [c.name for c in result.calls if c.error is not None]
    assert failed == [call_name]


def test_corrupted_trajectory_counts_as_failed():
    wl = workloads.make("search_large", 0, toy=True)

    def drift(traj):
        traj.steps[-1].state.amplitudes[0] += 1e-6  # norm off by more than 1e-10
        return traj
    _corrupt(wl, "n4.zeroth", drift)
    result = harness.run_pass(wl)
    assert [c.name for c in result.calls if c.error] == ["n4.zeroth"]


def test_moved_pin_counts_as_failed():
    wl = workloads.make("search_large", 0, toy=True)
    good = harness.run_pass(wl)
    pins = {c.name: dict(c.values) for c in good.calls}
    assert all(c.error is None for c in harness.run_pass(wl, pins).calls)
    pins["n6.gap"]["g_min"] += 1e-10
    assert [c.name for c in harness.run_pass(wl, pins).calls if c.error] == ["n6.gap"]


def test_binomial_bound_tolerates_one_miss_below_one_expected():
    within_binomial(1.0 - 1e-5, 1.0 - 4e-7, 100_000, "one miss")
    within_binomial(0.5012, 0.5, 100_000, "1.5 sigma")
    with pytest.raises(CheckFailed):
        within_binomial(0.52, 0.5, 100_000, "12 sigma")
    with pytest.raises(CheckFailed):
        within_binomial(1.0 - 3e-4, 1.0 - 4e-7, 100_000, "30 misses")


def _bindings():
    return {(module.__name__, attr): getattr(module, attr)
            for fn, places in tracer.public_functions().items() for module, attr in places}


def test_tracer_rebinds_every_copy_and_restores_them():
    from qauction import adversary, core, protocol

    before = _bindings()
    assert ("qauction.protocol", "eig_hermitian") in before
    assert ("qauction.adversary", "run_schedule") in before
    t = tracer.Tracer()
    with t:
        assert protocol.eig_hermitian is core.eig_hermitian is not before[("qauction.core", "eig_hermitian")]
        assert adversary.run_schedule is protocol.run_schedule
        assert all(getattr(sys.modules[m], a) is not fn for (m, a), fn in before.items())
    assert _bindings() == before
    assert all(getattr(sys.modules[m], a) is fn for (m, a), fn in before.items())


def test_traced_counts_repeat_and_match_the_calls():
    wl = workloads.make("search_large", 0, toy=True)
    t = tracer.Tracer()
    values = []
    for _ in range(2):
        with t:
            p = harness.run_pass(wl, tracer=t)
        values.append(harness.layer_values(t.spans[p.span_range[0]:p.span_range[1]]))
    runs = sum(1 for c in wl.calls if not c.name.endswith(".gap"))
    for v in values:
        assert v["protocol.run_schedule.calls"] == runs
        assert v["protocol.run_schedule.steps"] == 20 * runs
        assert v["core.eig_hermitian.calls"] == 20  # one per step of n4.exact
        assert v["adversary.mc_point.calls"] == 0
        assert v["protocol.joint_bidding_operator.mb"] > 0
    counts = [{k: x for k, x in v.items() if harness.layer_unit(k) in ("count", "MB")} for v in values]
    assert counts[0] == counts[1]


def test_traced_circuit_spans_count_outermost_only(tmp_path):
    wl = toy("cli_small", tmp_path)
    wl.calls = [c for c in wl.calls if c.name == "circuit.collusion"]
    t = tracer.Tracer()
    with t:
        harness.run_pass(wl, tracer=t)
    summary = tracer.summarize(t.spans)
    ctm = summary["circuits.circuit_to_matrix"]
    assert ctm["calls"] > 2  # nested CTRL0 blocks recurse
    assert 0 < ctm["s"] < sum((r[5] - r[4]) / 1e9 for r in t.spans if r[3] == "circuits.circuit_to_matrix")
    assert summary["cli.main"]["calls"] == 2


def test_percentile_is_a_sample_and_stays_in_its_cluster():
    calls = [1.0] * 8 + [100.0, 101.0]
    assert harness.percentile(calls, 0.5) == 1.0
    assert harness.percentile(calls * 3, 0.9) == 100.0
    assert harness.supported_percentile(100) == 90
    assert harness.supported_percentile(5) == 0


def test_run_without_sources_exits_nonzero(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli_small", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last[0])

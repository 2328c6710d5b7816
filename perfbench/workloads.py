"""Seeded workloads of the qauction benchmark.

A workload is a list of calls into the program, each paired with a check
of its output. `make(name, seed, draw)` draws the inputs from the seed and
the draw number alone, so the same pair always gives the same calls; the
runner uses draw k for its pass k, so one run covers several input sets.
The program sees only those inputs; the expected answers (winners,
payoffs, closed forms) are worked out here, independently of the code
under test.

Each check returns the deterministic numbers of its call (final success
probabilities, g_min, P_e). The runner compares them with `golden.json`
for the seeds recorded there; Monte Carlo streams and the collusion run
are never pinned, because open fixes change both legitimately.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qauction import adversary, cli, protocol

from checks import (
    CheckFailed,
    close_to_print,
    csv_shape,
    parse_csv,
    probabilities,
    require,
    require_finite,
    within_binomial,
)

NAMES = ("search_large", "probe_attack", "cli_small")
DRAWS = 8  # input sets per seed; pass k of a run uses draw k % DRAWS

LEAK_LIMIT = 1e-9        # honest and locked runs stay in the plausible span
NORM_LIMIT = 1e-10       # final state norm
REVEAL_LIMIT = 1e-12     # collusion keeps the revealing state empty
POVM_TOY_PE = 1.0 / 9.0  # three equiprobable states, pairwise overlap 1/2


@dataclass
class Call:
    """One closed-loop request: `run` is timed, `check` is not."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    # Known program defects to report without failing the call.
    defects: Callable[[object], list[str]] | None = None


@dataclass
class Workload:
    name: str
    seed: int
    draw: int
    inputs: dict
    calls: list[Call] = field(default_factory=list)
    printed: bool = True  # checked numbers come from CLI text at 12 significant digits


# --- inputs and expected answers worked out by the benchmark itself ---------

def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def draw_bids(rng: random.Random, m: int, p: int) -> list[str]:
    """m nonzero p-bit bids whose maximum is unique (a tie raises TieError)."""
    while True:
        values = [rng.randrange(1, 2**p) for _ in range(m)]
        if values.count(max(values)) == 1:
            return [_bits(v, p) for v in values]


def draw_alpha(rng: random.Random) -> float:
    return round(rng.uniform(0.6, 0.95), 4)


def plausible_payoffs(bids: list[str], payoff: Callable[[list[int]], float]) -> dict[int, float]:
    """Basis index -> payoff over allocations with each bidder null or at their bid."""
    p = len(bids[0])
    out = {}
    for combo in itertools.product((False, True), repeat=len(bids)):
        regs = [int(b, 2) if on else 0 for b, on in zip(bids, combo)]
        x = 0
        for r in regs:
            x = (x << p) | r
        out[x] = payoff(regs)
    return out


def first_price(regs: list[int]) -> float:
    nonzero = [r for r in regs if r]
    return float(nonzero[0]) if len(nonzero) == 1 else 0.0


def spurious(regs: list[int]) -> float:
    return float(sum(regs))


def argmax_allocation(payoffs: dict[int, float]) -> int:
    best = max(payoffs.values())
    winners = [x for x, v in payoffs.items() if v == best]
    require(len(winners) == 1, f"generated inputs tie at payoff {best}")
    return winners[0]


# --- checks of library results -----------------------------------------------

def check_trajectory(traj, steps: int, winner: int) -> dict:
    require(len(traj.steps) == steps + 1, f"{len(traj.steps)} trajectory points, expected {steps + 1}")
    success = probabilities(traj.success, "success probability")
    leakage = require_finite(traj.leakage, "leakage")
    amps = traj.final_state.amplitudes
    require_finite(amps.view(float), "final state")
    norm = float(np.linalg.norm(amps))
    require(abs(norm - 1.0) <= NORM_LIMIT, f"final state norm {norm!r}")
    require(traj.winner_index == winner, f"winner {traj.winner_index}, expected {winner}")
    require(abs(success[-1] - abs(amps[winner]) ** 2) <= 1e-12,
            "final success probability disagrees with the final state")
    require(float(leakage.max()) <= LEAK_LIMIT, f"leakage {leakage.max()!r} > {LEAK_LIMIT}")
    return {"final_success": float(success[-1])}


def check_tracks(tracks, steps: int, payoffs: dict[int, float]) -> dict:
    lams = require_finite(tracks.eigenvalues, "eigenvalues")
    require(lams.shape == (steps + 1, len(payoffs)), f"eigenvalue table shape {lams.shape}")
    require(bool(np.all(np.diff(lams, axis=1) >= -1e-12)), "eigenvalue rows not ascending")
    require(np.allclose(tracks.f_values, np.arange(steps + 1) / steps, atol=1e-15, rtol=0),
            "f grid is not s/S")
    final = np.sort(-np.array(list(payoffs.values())))
    require(np.allclose(lams[-1], final, atol=1e-9, rtol=0),
            "f=1 spectrum is not the negated plausible payoffs")
    g_min = float(tracks.g_min)
    require(math.isfinite(g_min) and g_min > 0, f"g_min {g_min!r}")
    require(abs(g_min - float(np.min(lams[:, 1] - lams[:, 0]))) <= 1e-12, "g_min is not the minimum gap")
    return {"g_min": g_min}


# --- running the CLI in-process ------------------------------------------------

def cli_call(argv: list[str]) -> str:
    """Run `qauction <argv>` in this process; returns stdout, raises on exit != 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"qauction {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# --- search_large ------------------------------------------------------------------

SEARCH_SIZES = (  # (label, m, p, variants, restricted gap tracks)
    ("n8", 4, 2, ("exact", "zeroth"), False),
    ("n10", 5, 2, ("zeroth", "first", "locked"), True),
    ("n12", 3, 4, ("zeroth", "first", "locked"), False),
)
SEARCH_SIZES_TOY = (
    ("n4", 2, 2, ("exact", "zeroth"), False),
    ("n6", 3, 2, ("zeroth", "first", "locked"), True),
    ("n6p3", 2, 3, ("zeroth", "first", "locked"), False),
)


def search_large(seed: int, draw: int = 0, toy: bool = False) -> Workload:
    rng = random.Random(f"search_large:{seed}:{draw}")
    schedule = protocol.default_schedule()
    wl = Workload("search_large", seed, draw, {"schedule": {"steps": schedule.steps, "delta": schedule.delta},
                                         "registers": []}, printed=False)
    for label, m, p, variants, gap in (SEARCH_SIZES_TOY if toy else SEARCH_SIZES):
        bids = draw_bids(rng, m, p)
        alphas = [draw_alpha(rng) for _ in bids] if "locked" in variants else None
        wl.inputs["registers"].append({"label": label, "m": m, "p": p, "bids": bids,
                                       "variants": list(variants), "gap": gap, "alphas": alphas})
        payoffs = plausible_payoffs(bids, first_price)
        winner = argmax_allocation(payoffs)
        config = protocol.AuctionConfig(m=m, p=p)

        def run(variant, bids=bids, alphas=alphas, config=config):
            table = protocol.build_first_price_table(config)
            locking = None
            if variant == "locked":
                locking = tuple(adversary.locking_operator(b, a)[1] for b, a in zip(bids, alphas))
            sched = protocol.AdiabaticSchedule(schedule.steps, schedule.delta, variant, locking)
            return protocol.run_adiabatic(bids, table, sched)

        for variant in variants:
            wl.calls.append(Call(f"{label}.{variant}", lambda v=variant, r=run: r(v),
                                 lambda t, w=winner: check_trajectory(t, schedule.steps, w)))
        if gap:
            def tracks(bids=bids, config=config):
                table = protocol.build_first_price_table(config)
                return protocol.eigenvalue_tracks(bids, table, schedule, restrict=True)
            wl.calls.append(Call(f"{label}.gap", tracks,
                                 lambda t, pay=payoffs: check_tracks(t, schedule.steps, pay)))
    return wl


# --- probe_attack ------------------------------------------------------------------

TWO_QUBIT_BIDS = ("01", "10", "11")


def _closed_basis(alphas, rounds: np.ndarray) -> np.ndarray:
    """prod_i (1 - (1 - rho_i)^N) with rho = 1/2 unlocked, 1 - alpha^2 locked."""
    out = np.ones(rounds.size)
    for a in alphas:
        rho = 0.5 if a is None else 1.0 - a * a
        out *= 1.0 - (1.0 - rho) ** rounds
    return out


def check_probe_csv(text: str, bids, alphas, rounds: int, trials: int) -> dict:
    meta, header, data = parse_csv(text)
    cols = ["basis_closed", "basis_mc", "povm_closed", "povm_mc", "povm_mc_majority"]
    csv_shape(header, data, ["N"] + cols + [c + "_lock" for c in cols], rounds)
    col = {name: data[:, k] for k, name in enumerate(header)}
    n = np.arange(1, rounds + 1, dtype=float)
    require(np.array_equal(col["N"], n), "N column is not 1..rounds")
    pinned = {}
    for suffix, lock in (("", [None, None]), ("_lock", list(alphas))):
        for name in cols:
            probabilities(col[name + suffix], name + suffix)
        basis = _closed_basis(lock, n)
        p_e = [float(meta[f"p_e{suffix}_bidder{i}"]) for i in range(2)]
        for i, pe in enumerate(p_e):
            require(0 < pe < 2 / 3, f"p_e{suffix}_bidder{i}={pe!r}")
            pinned[f"p_e{suffix}_bidder{i}"] = pe
        if suffix == "":
            for pe in p_e:
                close_to_print(pe, POVM_TOY_PE, "unlocked p_e")
        povm = np.prod([1.0 - pe**n for pe in p_e], axis=0)
        for k in range(rounds):
            close_to_print(col["basis_closed" + suffix][k], basis[k], f"basis_closed{suffix}[N={k + 1}]")
            close_to_print(col["povm_closed" + suffix][k], povm[k], f"povm_closed{suffix}[N={k + 1}]")
            within_binomial(col["basis_mc" + suffix][k], basis[k], trials, f"basis_mc{suffix}[N={k + 1}]")
            within_binomial(col["povm_mc" + suffix][k], povm[k], trials, f"povm_mc{suffix}[N={k + 1}]")
    require(meta.get("bids") == ",".join(bids), f"bids echoed as {meta.get('bids')!r}")
    return pinned


def probe_attack(seed: int, draw: int = 0, toy: bool = False) -> Workload:
    rng = random.Random(f"probe_attack:{seed}:{draw}")
    bids = rng.sample(TWO_QUBIT_BIDS, 2)
    alphas = [draw_alpha(rng), draw_alpha(rng)]
    mc_seed = rng.randrange(2**31)
    rounds, trials = (6, 1000) if toy else (20, 100_000)
    argv = ["attack", "--attack", "probe_basis", "--defense", "lock", "--bids", ",".join(bids),
            "--alpha1", repr(alphas[0]), "--alpha2", repr(alphas[1]), "--seed", str(mc_seed)]
    if toy:
        argv += ["--rounds", str(rounds), "--trials", str(trials)]
    wl = Workload("probe_attack", seed, draw, {"argv": argv})
    wl.calls.append(Call("attack.probe_basis.lock", lambda: cli_call(argv),
                         lambda text: check_probe_csv(text, bids, alphas, rounds, trials)))
    return wl


# --- cli_small ---------------------------------------------------------------------

def check_converge(text: str, steps: int, winner: int, n: int) -> dict:
    meta, header, data = parse_csv(text)
    csv_shape(header, data, ["s", "f", "success_prob", "leakage"], steps + 1)
    require(meta.get("winner") == _bits(winner, n), f"winner {meta.get('winner')!r}, expected {_bits(winner, n)}")
    success = probabilities(data[:, 2], "success_prob")
    require(float(data[:, 3].max()) <= LEAK_LIMIT, f"leakage {data[:, 3].max()!r}")
    return {"final_success": float(success[-1])}


def check_variants(text: str, steps: int) -> dict:
    _, header, data = parse_csv(text)
    csv_shape(header, data, ["s", "f", "exact", "zeroth", "first"], steps + 1)
    out = {}
    for k, name in enumerate(header[2:], start=2):
        out[f"final_{name}"] = float(probabilities(data[:, k], name)[-1])
    return out


def check_gap(text: str, steps: int, final_spectrum: np.ndarray | None, width: int,
              restricted: bool = True) -> dict:
    """Restricted tracks have a positive gap (the winner is unique in the
    plausible span); the full space can hold tied payoffs, so g_min >= 0."""
    meta, header, data = parse_csv(text)
    csv_shape(header, data, ["s", "f"] + [f"lambda{i}" for i in range(width)] + ["gap"], steps + 1)
    lams = data[:, 2:-1]
    require(bool(np.all(np.diff(lams, axis=1) >= -1e-9)), "eigenvalue rows not ascending")
    require(bool(np.all(data[:, -1] >= 0)), "negative gap")
    g_min = float(meta["g_min"])
    require(math.isfinite(g_min) and (g_min > 0 or not restricted and g_min >= 0), f"g_min {g_min!r}")
    close_to_print(g_min, float(data[:, -1].min()), "g_min vs gap column")
    if final_spectrum is not None:
        for got, want in zip(lams[-1], final_spectrum):
            close_to_print(got, want, "f=1 eigenvalue")
    return {"g_min": g_min}


def check_spurious(text: str, steps: int, reveal: int, collude: bool) -> dict:
    meta, header, data = parse_csv(text)
    csv_shape(header, data, ["s", "f", "success_prob", "leakage", "revealing_prob"], steps + 1)
    require(meta.get("revealing") == _bits(reveal, 4), f"revealing {meta.get('revealing')!r}")
    success = probabilities(data[:, 2], "success_prob")
    probabilities(data[:, 3], "leakage")
    reveal_prob = probabilities(data[:, 4], "revealing_prob")
    if collude:
        return {}
    require(float(data[:, 3].max()) <= LEAK_LIMIT, f"leakage {data[:, 3].max()!r}")
    require(np.allclose(success, reveal_prob, atol=1e-12, rtol=0),
            "the spurious table's winner is not the revealing state")
    return {"final_success": float(success[-1])}


def collusion_defects(text: str) -> list[str]:
    """Known defect, reported but not counted as a failure: the collusion
    run should keep the revealing state at probability <= 1e-12, and at
    this version does so only when the second bid is 11 (ROADMAP item 2,
    acceptance 09). Move this into check_spurious once the program keeps it."""
    _, _, data = parse_csv(text)
    worst = float(data[:, 4].max())
    if worst <= REVEAL_LIMIT:
        return []
    return [f"collusion_reveals: revealing probability {worst:.6g} > {REVEAL_LIMIT}"]


def check_povm(text: str) -> dict:
    lines = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    p_e = float(lines.get("P_e", "nan"))
    require(math.isfinite(p_e), "P_e missing or not finite")
    close_to_print(p_e, POVM_TOY_PE, "P_e")
    require(lines.get("optimality_check") == "true", "optimality_check is not true")
    return {"P_e": p_e}


def check_round_trip(output) -> dict:
    """The emitted circuit file holds gates, and verifying it passes."""
    path, verdict = output
    with open(path, encoding="utf-8") as fh:
        gates = [ln for ln in fh.read().splitlines() if ln.strip() and ln.strip() != "}"]
    require(len(gates) > 0, "emitted circuit is empty")
    fields = dict(line.split("=", 1) for line in verdict.splitlines() if "=" in line)
    require(fields.get("result") == "pass", f"circuit-verify says result={fields.get('result')}")
    require(math.isfinite(float(fields.get("distance", "nan"))), "distance not finite")
    return {}


def cli_small(seed: int, draw: int = 0, toy: bool = False, workdir: str | None = None) -> Workload:
    """The README's n=4 scenarios, plus a D-target circuit round trip at
    n=8 (n=6 when `toy`)."""
    rng = random.Random(f"cli_small:{seed}:{draw}")
    bids = rng.sample(TWO_QUBIT_BIDS, 2)
    alphas = [draw_alpha(rng), draw_alpha(rng)]
    width = rng.randint(2, 4)
    bidder_bits = _bits(rng.randrange(1, 2**width), width)
    p_args = f"{round(rng.uniform(0.5, 2.0), 3)},{round(rng.uniform(0.0, 1.0), 3)}"
    d_args = f"{round(rng.uniform(0.5, 2.0), 3)},{round(rng.uniform(0.0, 1.0), 3)}"
    targets = [f"bidder:{bidder_bits}", f"P:{p_args}", f"collusion:{bids[0]},{bids[1]}",
               f"D:{d_args},4", f"D:{d_args},{6 if toy else 8}"]
    steps, fine = 20, 40
    b = ",".join(bids)
    lock = ["--alpha1", repr(alphas[0]), "--alpha2", repr(alphas[1])]
    wl = Workload("cli_small", seed, draw, {"bids": bids, "alphas": alphas, "targets": targets})

    first = plausible_payoffs(bids, first_price)
    winner = argmax_allocation(first)
    spur = plausible_payoffs(bids, spurious)
    reveal = argmax_allocation(spur)
    all_first = np.sort([-first_price([x >> 2, x & 3]) for x in range(16)])

    def add(name, argv, check, defects=None):
        wl.calls.append(Call(name, lambda argv=argv: cli_call(argv), check, defects))

    add("converge", ["converge", "--bids", b],
        lambda t: check_converge(t, steps, winner, 4))
    add("converge.lock", ["converge", "--bids", b, "--defense", "lock"] + lock,
        lambda t: check_converge(t, steps, winner, 4))
    add("variants", ["variants", "--bids", b, "--steps", str(fine), "--delta", "1"],
        lambda t: check_variants(t, fine))
    add("gap", ["gap", "--bids", b],
        lambda t: check_gap(t, steps, np.sort(-np.array(list(first.values()))), 4))
    add("gap.spurious", ["gap", "--bids", b, "--table", "spurious"],
        lambda t: check_gap(t, steps, np.sort(-np.array(list(spur.values()))), 4))
    add("gap.lock", ["gap", "--bids", b, "--defense", "lock"] + lock,
        lambda t: check_gap(t, steps, None, 4))
    add("gap.unrestricted", ["gap", "--bids", b, "--restrict", "false"],
        lambda t: check_gap(t, steps, all_first, 16, restricted=False))
    add("attack.spurious", ["attack", "--attack", "spurious", "--bids", b],
        lambda t: check_spurious(t, steps, reveal, collude=False))
    add("attack.spurious.collude", ["attack", "--attack", "spurious", "--bids", b, "--defense", "collude"],
        lambda t: check_spurious(t, steps, reveal, collude=True), collusion_defects)
    add("povm", ["povm"], check_povm)

    workdir = workdir or os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "work")
    os.makedirs(workdir, exist_ok=True)
    for k, target in enumerate(targets):
        kind = target.split(":", 1)[0]
        suffix = f".{target.rsplit(',', 1)[1]}" if kind == "D" else ""
        path = os.path.join(workdir, f"circuit{k}.txt")

        def round_trip(target=target, path=path):
            cli_call(["circuit-verify", "--emit", target, "--out", path])
            return path, cli_call(["circuit-verify", path, target])

        wl.calls.append(Call(f"circuit.{kind}{suffix}", round_trip, check_round_trip))
    return wl


def make(name: str, seed: int, draw: int = 0, toy: bool = False) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; pick from {NAMES}")
    return {"search_large": search_large, "probe_attack": probe_attack,
            "cli_small": cli_small}[name](seed, draw, toy=toy)

"""Scenario runner emitting deterministic CSV curves.

Subcommands: converge, variants, gap, attack, povm, circuit-verify.
Exit codes: 0 success, 1 configuration/parse error, 2 simulation contract
violation (e.g. a payoff tie). Options may come from a flat key-value
config file (``key = value``, ``#`` comments) overridden by flags; unknown
config keys are hard errors. CSV uses 12 significant digits, one header
row, and ``#`` comment lines for resolved settings, so identical
(config, seed) pairs give identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import adversary, circuits, protocol
from .core import ContractViolation
from .protocol import AdiabaticSchedule, AuctionConfig, TieError


class ConfigError(ValueError):
    pass


MAX_QUBITS = 12  # widest register the dense paths build: 2^12 x 2^12 complex is 268 MB a copy
# Widest `exact` search: it makes one dense 2^n x 2^n eigh per step, which
# took 1.5 s at n = 10 and 12.8 s at n = 11 on a 2-vCPU machine.
MAX_EXACT_QUBITS = 10
# Largest Monte Carlo grid, trials * rounds: a locked attack peaks at about 12.5 B
# per cell (25 MB at the 100000 x 20 default), so the cap is about 1.2 GB.
MAX_MC_CELLS = 10**8


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_bids(raw: str) -> list[str]:
    bids = [b.strip() for b in raw.split(",") if b.strip()]
    if not bids:
        raise ConfigError("need at least one bid")
    for b in bids:
        try:
            protocol.BidSpec(b)
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from exc
    if len({len(b) for b in bids}) != 1:
        raise ConfigError("bids must share a register width")
    _check_width(len(bids) * len(bids[0]), "the bids")
    return bids


def _parse_delta(raw: str) -> float | str:
    return "auto" if raw.strip().lower() == "auto" else float(raw)


class _Key(NamedTuple):
    parse: Callable
    default: object
    help: str = ""
    choices: tuple[str, ...] = ()


# Every scenario key: its flag, config-file key and ScenarioConfig field.
_KEY_SPECS = {
    "bids": _Key(_parse_bids, "10,11", "comma-separated price states, e.g. 10,11"),
    "steps": _Key(int, 20, "iteration count S"),
    "delta": _Key(_parse_delta, "1.5", "step size, or 'auto' for 1/sqrt(S)"),
    "variant": _Key(str, "zeroth", choices=protocol.VARIANTS),
    "table": _Key(str, "first_price", choices=("first_price", "spurious")),
    "attack": _Key(str, "none", choices=("none", "probe_basis", "spurious")),
    "defense": _Key(str, "none", choices=("none", "lock", "collude")),
    "alpha1": _Key(float, None, "lock amplitude for bidder 1"),
    "alpha2": _Key(float, None, "lock amplitude for bidder 2"),
    "seed": _Key(int, 0, "nonnegative RNG seed (default 0)"),
    "trials": _Key(int, 100_000, "Monte Carlo trials per curve"),
    "rounds": _Key(int, 20, "probe rounds N to sweep"),
    "restrict": _Key(_parse_bool, "true", "restrict gap tracks to the plausible span"),
    "out": _Key(str, None, "output path (default: stdout)"),
}


@dataclass
class ScenarioConfig:
    bids: list[str]
    steps: int
    delta: float
    variant: str
    table: str
    attack: str
    defense: str
    alpha1: float | None
    alpha2: float | None
    seed: int
    trials: int
    rounds: int
    restrict: bool
    out: str | None

    def schedule(self, variant: str | None = None) -> AdiabaticSchedule:
        return AdiabaticSchedule(steps=self.steps, delta=self.delta,
                                 variant=variant or self.variant)

    def payoff_table(self) -> protocol.PayoffTable:
        if self.table == "spurious":
            if [len(b) for b in self.bids] != [2, 2]:
                raise ConfigError("the spurious table is defined for two 2-qubit bidders")
            return adversary.spurious_table()
        p = len(self.bids[0])
        return protocol.build_first_price_table(AuctionConfig(m=len(self.bids), p=p))

    def locking(self) -> adversary.LockingPair:
        if self.alpha1 is None or self.alpha2 is None:
            raise ConfigError("defense=lock needs alpha1 and alpha2 in (0, 1]")
        try:
            return adversary.locking_operators(self.alpha1, self.alpha2, self.bids)
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from exc


def read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_SPECS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _typed(key: str, value):
    if not isinstance(value, str):
        return value  # a non-string default
    try:
        return _KEY_SPECS[key].parse(value)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    raw = {key: spec.default for key, spec in _KEY_SPECS.items()}
    if args.config:
        raw.update(read_config_file(args.config))
    raw.update((key, flag) for key in _KEY_SPECS if (flag := getattr(args, key)) is not None)
    cfg = ScenarioConfig(**{key: _typed(key, value) for key, value in raw.items()})
    if cfg.steps < 1:
        raise ConfigError("steps must be >= 1")
    if cfg.delta == "auto":
        cfg.delta = protocol.auto_delta(cfg.steps)
    if not 0 < cfg.delta < math.inf:
        raise ConfigError("delta must be positive and finite")
    for key, spec in _KEY_SPECS.items():
        if spec.choices and getattr(cfg, key) not in spec.choices:
            raise ConfigError(f"{key} must be one of {spec.choices}")
    if cfg.trials < 1 or cfg.rounds < 1:
        raise ConfigError("trials and rounds must be positive")
    if cfg.trials * cfg.rounds > MAX_MC_CELLS:
        raise ConfigError(f"trials * rounds = {cfg.trials * cfg.rounds} exceeds the "
                          f"Monte Carlo cap of {MAX_MC_CELLS} cells")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    return cfg


def _check_width(width: int, what: str) -> None:
    if width > MAX_QUBITS:
        raise ConfigError(f"{what}: {width} qubits exceed the dense simulator's cap of {MAX_QUBITS}")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _render_csv(meta: dict, header: list[str], rows: list[tuple],
                trailing: dict | None = None) -> str:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    for key, value in (trailing or {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def _meta(cfg: ScenarioConfig, command: str, **extra) -> dict:
    meta = {
        "command": command,
        "bids": ",".join(cfg.bids),
        "steps": cfg.steps,
        "delta": _fmt(cfg.delta),
        "variant": cfg.variant,
        "table": cfg.table,
        "attack": cfg.attack,
        "defense": cfg.defense,
        "seed": cfg.seed,
    }
    if cfg.defense == "lock":
        meta["alpha1"], meta["alpha2"] = _fmt(cfg.alpha1), _fmt(cfg.alpha2)
    meta.update(extra)
    return meta


def _total_qubits(cfg: ScenarioConfig) -> int:
    return len(cfg.bids) * len(cfg.bids[0])


def _check_exact_width(cfg: ScenarioConfig) -> None:
    width = _total_qubits(cfg)
    if width > MAX_EXACT_QUBITS:
        raise ConfigError(f"variant exact: {width} qubits exceed its cap of {MAX_EXACT_QUBITS} "
                          f"(it builds the dense 2^n x 2^n joint operator and U W U^dag)")


def _run_for_config(cfg: ScenarioConfig) -> protocol.Trajectory:
    if cfg.variant == "exact":
        _check_exact_width(cfg)
    table, schedule = cfg.payoff_table(), cfg.schedule()
    if cfg.defense == "lock":
        return adversary.run_locked_auction(cfg.bids, table, schedule, cfg.locking())
    if cfg.defense == "collude":
        return adversary.run_collusion_defense(cfg.bids, table, schedule)
    return protocol.run_adiabatic(cfg.bids, table, schedule)


def cmd_converge(cfg: ScenarioConfig) -> str:
    if cfg.attack != "none":
        raise ConfigError("converge runs the honest schedule; use the attack subcommand")
    traj = _run_for_config(cfg)
    rows = [(st.s, st.f, st.success_probability, st.subspace_leakage) for st in traj.steps]
    winner = format(traj.winner_index, f"0{_total_qubits(cfg)}b")
    return _render_csv(_meta(cfg, "converge", winner=winner),
                       ["s", "f", "success_prob", "leakage"], rows)


def cmd_variants(cfg: ScenarioConfig) -> str:
    if cfg.attack != "none" or cfg.defense != "none":
        raise ConfigError("variants compares honest integrators only")
    _check_exact_width(cfg)
    table = cfg.payoff_table()
    curves = {}
    for variant in ("exact", "zeroth", "first"):
        curves[variant] = protocol.run_adiabatic(cfg.bids, table, cfg.schedule(variant)).success
    rows = []
    for s in range(cfg.steps + 1):
        rows.append((s, s / cfg.steps, curves["exact"][s], curves["zeroth"][s], curves["first"][s]))
    return _render_csv(_meta(cfg, "variants"), ["s", "f", "exact", "zeroth", "first"], rows)


def cmd_gap(cfg: ScenarioConfig) -> str:
    if cfg.attack != "none" or cfg.defense == "collude":
        raise ConfigError("gap tracks support defense in {none, lock}")
    schedule = cfg.schedule()
    if cfg.defense == "lock":
        schedule = dataclasses.replace(
            cfg.schedule("locked"), locking=cfg.locking().operators)
    tracks = protocol.eigenvalue_tracks(cfg.bids, cfg.payoff_table(), schedule,
                                        restrict=cfg.restrict)
    k = tracks.eigenvalues.shape[1]
    header = ["s", "f"] + [f"lambda{i}" for i in range(k)] + ["gap"]
    rows = []
    for s, (f, lams) in enumerate(zip(tracks.f_values, tracks.eigenvalues)):
        rows.append((s, f, *lams, lams[1] - lams[0]))
    return _render_csv(_meta(cfg, "gap", restrict=str(cfg.restrict).lower()),
                       header, rows, trailing={"g_min": tracks.g_min})


def _probe_columns(cfg: ScenarioConfig) -> tuple[list[str], list[tuple], dict]:
    locked = cfg.locking() if cfg.defense == "lock" else None
    variants: list[tuple[str, adversary.LockingPair | None]] = [("", None)]
    if locked is not None:
        variants.append(("_lock", locked))

    header = ["N"]
    meta_extra: dict = {}
    columns = [np.arange(1, cfg.rounds + 1)]
    rounds = np.arange(1, cfg.rounds + 1, dtype=float)
    for suffix, lock in variants:
        basis = adversary.probe_attack_basis(cfg.bids, cfg.rounds, locking=lock)
        basis_mc = adversary.probe_attack_basis(cfg.bids, cfg.rounds, locking=lock,
                                                mode="monte_carlo", trials=cfg.trials,
                                                seed=cfg.seed)
        solved = adversary.povm_outcome_distributions(cfg.bids, lock)
        per = [(dist, t) for dist, t, _ in solved]
        povm_closed = np.ones(cfg.rounds)
        for bidder, (_, _, p_e) in enumerate(solved):
            povm_closed *= 1.0 - p_e**rounds
            meta_extra[f"p_e{suffix}_bidder{bidder}"] = _fmt(p_e)
        columns += [basis.probabilities, basis_mc.probabilities, povm_closed,
                    adversary.povm_mc_curve(per, cfg.rounds, cfg.trials, cfg.seed),
                    adversary.majority_mc_curve(per, cfg.rounds, cfg.trials, cfg.seed)]
        header += [f"basis_closed{suffix}", f"basis_mc{suffix}",
                   f"povm_closed{suffix}", f"povm_mc{suffix}", f"povm_mc_majority{suffix}"]
    rows = [tuple(col[idx] for col in columns) for idx in range(cfg.rounds)]
    return header, rows, meta_extra


def cmd_attack(cfg: ScenarioConfig) -> str:
    if cfg.attack == "none":
        raise ConfigError("attack subcommand needs attack in {probe_basis, spurious}")
    if cfg.attack == "spurious":
        if cfg.defense not in ("none", "collude"):
            raise ConfigError("the spurious attack composes with defense in {none, collude}")
        cfg = dataclasses.replace(cfg, table="spurious")
        traj = _run_for_config(cfg)
        reveal = adversary.revealing_index(cfg.bids)
        rows = [(st.s, st.f, st.success_probability, st.subspace_leakage,
                 float(st.state.probabilities()[reveal])) for st in traj.steps]
        revealing = format(reveal, f"0{_total_qubits(cfg)}b")
        return _render_csv(_meta(cfg, "attack", revealing=revealing),
                           ["s", "f", "success_prob", "leakage", "revealing_prob"], rows)
    if cfg.defense == "collude":
        raise ConfigError("probe attacks compose with defense in {none, lock}")
    if any(len(b) != 2 for b in cfg.bids) or len(cfg.bids) != 2:
        raise ConfigError("probe attacks are defined for two 2-qubit bidders")
    header, rows, extra = _probe_columns(cfg)
    return _render_csv(_meta(cfg, "attack", trials=cfg.trials, rounds=cfg.rounds, **extra),
                       header, rows)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def cmd_povm(cfg: ScenarioConfig) -> str:
    states = adversary.toy_bidding_states()
    priors = [1 / 3] * 3
    povm, p_e = adversary.min_error_povm(states, priors)
    ok = adversary.povm_optimality_check(povm, states, priors)
    lines = [
        f"# command=povm seed={cfg.seed}",
        f"P_e = {p_e:.12g}",
        f"optimality_check = {str(ok).lower()}",
    ]
    for i, element in enumerate(povm.elements):
        lines.append(f"element {i} (decides bid {adversary.TOY_BIDS[i]}):")
        for row in element:
            lines.append("  " + " ".join(_fmt_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def _target_number(raw: str, parse=float):
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad number {raw!r} in circuit target") from exc
    if not math.isfinite(value):
        raise ConfigError(f"circuit target numbers must be finite, got {raw!r}")
    return value


def _target_bid(raw: str) -> protocol.BidSpec:
    try:
        return protocol.BidSpec(raw.strip())
    except ContractViolation as exc:
        raise ConfigError(f"bad bid in circuit target: {exc}") from exc


@dataclass(frozen=True)
class _Target:
    """A parsed circuit-verify target `kind:args`."""

    kind: str                                  # bidder, d, p or collusion
    width: int                                 # register width in qubits
    bids: tuple[protocol.BidSpec, ...] = ()
    numbers: tuple[float, ...] = ()            # delta, f


def _parse_target(target: str, inferred_width: int | None = None) -> _Target:
    """Split and validate `kind:args` once. Target D takes its width from
    the circuit file when the target leaves it out."""
    kind, colon, arg = target.partition(":")
    if not colon:
        raise ConfigError(f"target must look like kind:args, got {target!r}")
    kind = kind.strip().lower()
    parts = [p.strip() for p in arg.split(",")]
    if kind == "bidder":
        bid = _target_bid(arg)
        parsed = _Target(kind, bid.n_qubits, bids=(bid,))
    elif kind == "d":
        if len(parts) not in (2, 3):
            raise ConfigError("target D takes delta,f[,n_qubits]")
        numbers = (_target_number(parts[0]), _target_number(parts[1]))
        width = _target_number(parts[2], int) if len(parts) == 3 else inferred_width
        if width is None or width < 1:
            raise ConfigError("cannot infer the qubit count for target D; pass D:delta,f,n")
        parsed = _Target(kind, width, numbers=numbers)
    elif kind == "p":
        if len(parts) != 2:
            raise ConfigError("target P takes delta,f (two-bidder first-price table)")
        parsed = _Target(kind, 4, numbers=tuple(_target_number(p) for p in parts))
    elif kind == "collusion":
        if len(parts) != 2:
            raise ConfigError("target collusion takes bid1,bid2")
        parsed = _Target(kind, 4, bids=tuple(_target_bid(b) for b in parts))
    else:
        raise ConfigError(f"unknown target kind {kind!r}; use bidder/D/P/collusion")
    _check_width(parsed.width, f"target {target!r}")
    if not math.isfinite(math.prod(parsed.numbers) * parsed.width):  # largest phase delta*f*n
        raise ConfigError(f"target {target!r}: the phases delta * f overflow")
    return parsed


def _target_circuit(target: _Target) -> circuits.Circuit:
    """The gate circuit that --emit prints."""
    if target.kind == "bidder":
        return circuits.build_bidder_circuit(target.bids[0])
    if target.kind == "d":
        return circuits.build_D_circuit(*target.numbers, target.width)
    if target.kind == "p":
        table = protocol.build_first_price_table(AuctionConfig(m=2, p=2))
        return circuits.build_P_circuit(protocol.pauli_z_expansion(table), *target.numbers, 4)
    return circuits.build_collusion_circuit(*target.bids)


def _target_unitary(target: _Target) -> np.ndarray:
    """The reference unitary a circuit file is checked against: dense, or
    for the diagonal D and P targets its diagonal."""
    if target.kind == "bidder":
        return protocol.bidding_operator(target.bids[0])
    if target.kind == "d":
        delta, f = target.numbers
        return np.exp(-1j * delta * f * protocol.hamming_weights(target.width))
    if target.kind == "p":
        delta, f = target.numbers
        table = protocol.build_first_price_table(AuctionConfig(m=2, p=2))
        return np.exp(-1j * delta * f * (-table.values))
    return circuits.circuit_to_matrix(_target_circuit(target))


def cmd_circuit_verify(args: argparse.Namespace) -> str:
    if args.emit:
        if args.circuit is not None:
            raise ConfigError("--emit prints the reference circuit; no circuit file expected")
        return _target_circuit(_parse_target(args.target)).to_text()
    if args.circuit is None:
        raise ConfigError("circuit file required (or pass --emit)")
    try:
        with open(args.circuit, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read circuit file {args.circuit}: {exc}") from exc
    probe = None
    try:
        probe = circuits.parse_circuit(text)
    except circuits.CircuitParseError:
        pass  # maybe only the width was missing; retry once the target fixes it
    target = _parse_target(args.target, probe.n_qubits if probe else None)
    circuit = probe
    if probe is None or probe.n_qubits != target.width:
        circuit = circuits.parse_circuit(text, n_qubits=target.width)
    report = circuits.verify_circuit(circuit, _target_unitary(target))
    verdict = "pass" if report.passed else "fail"
    return (f"target={args.target}\ndistance={report.distance:.12g}\n"
            f"tolerance={report.tolerance:.12g}\nresult={verdict}\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigError(message)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's argument parser, built on the first call and then shared:
    parsing leaves it as it was, so every `main` call in a process uses one."""
    parser = _Parser(prog="qauction", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key-value config file")
    for key, spec in _KEY_SPECS.items():
        common.add_argument(f"--{key}", help=spec.help or "|".join(spec.choices))

    def run_with_config(a, func):
        cfg = resolve_config(a)
        return func(cfg), cfg.out

    for name, func in (("converge", cmd_converge), ("variants", cmd_variants),
                       ("gap", cmd_gap), ("attack", cmd_attack), ("povm", cmd_povm)):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(run=lambda a, f=func: run_with_config(a, f))

    p = sub.add_parser("circuit-verify")
    p.add_argument("circuit", nargs="?", help="circuit text file")
    p.add_argument("target", help="bidder:BITS | D:delta,f[,n] | P:delta,f | collusion:B1,B2")
    p.add_argument("--emit", action="store_true",
                   help="print the reference circuit for the target instead of verifying")
    p.add_argument("--out", help=_KEY_SPECS["out"].help)
    p.set_defaults(run=lambda a: (cmd_circuit_verify(a), a.out))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output, out_path = args.run(args)
    except (ConfigError, circuits.CircuitParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TieError, ContractViolation) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

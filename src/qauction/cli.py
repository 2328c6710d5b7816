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
import functools
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import adversary, circuits, protocol
from .core import ContractViolation
from .protocol import AdiabaticSchedule, AuctionConfig, TieError


class ConfigError(ValueError):
    pass


# Widest register the dense paths build: at 2^12 x 2^12, 134 MB a float64 matrix (H/CNOT/ROT
# circuits, the collusion reference), 268 MB a complex one (only with a PHASE gate).
MAX_QUBITS = 12
# Largest Monte Carlo grid, trials * rounds, and most probe rounds. The majority
# curves' block buffers hold about 16 B a cell of a block of at least 1024 trials,
# so above 160 rounds they grow with the rounds, and each round adds a CSV row.
MAX_MC_CELLS = 10**8
MAX_MC_ROUNDS = 1000
# Most schedule steps, and most eigenvalues, (steps + 1) * 2^n, of full-space gap
# tracks: each step adds a CSV row and, in a full-space gap run, a spectrum per cell.
MAX_STEPS = 10_000
MAX_GAP_VALUES = 2**21


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


# The search variants; a lock comes from defense=lock alone (see ScenarioConfig.schedule).
_VARIANTS = ("exact", "zeroth", "first")
# Every scenario key: its flag, config-file key and ScenarioConfig attribute.
_KEY_SPECS = {
    "bids": _Key(_parse_bids, "10,11", "comma-separated price states, e.g. 10,11"),
    "steps": _Key(int, 20, "iteration count S"),
    "delta": _Key(_parse_delta, "1.5", "step size, or 'auto' for 1/sqrt(S)"),
    "variant": _Key(str, "zeroth", choices=_VARIANTS),
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

# The (attack, defense) pairs each scenario subcommand runs.
_PAIRS = {
    "converge": {("none", "none"), ("none", "lock"), ("none", "collude")},
    "variants": {("none", "none")},
    "gap": {("none", "none"), ("none", "lock")},
    "attack": {("probe_basis", "none"), ("probe_basis", "lock"),
               ("spurious", "none"), ("spurious", "collude")},
}
# The settings defined for two 2-qubit bidders only, as in the paper.
_TWO_BY_TWO = (("table", "spurious"), ("attack", "probe_basis"),
               ("attack", "spurious"), ("defense", "collude"))


class ScenarioConfig(argparse.Namespace):
    """A resolved scenario: one attribute per _KEY_SPECS key."""

    def schedule(self, variant: str | None = None) -> AdiabaticSchedule:
        """The schedule at `variant` (default: the configured one). Under
        defense=lock it carries each bidder's secret V_i and runs "zeroth"
        as the library's "locked"; a locked schedule has no "first" variant."""
        variant = variant or self.variant
        if self.defense != "lock":
            return AdiabaticSchedule(self.steps, self.delta, variant)
        if variant == "first":
            raise ConfigError("locked runs support the 'zeroth' and 'exact' variants only")
        return AdiabaticSchedule(self.steps, self.delta, "locked" if variant == "zeroth" else variant,
                                 adversary.locking_unitaries(self.bids, (self.alpha1, self.alpha2)))

    def payoff_table(self) -> protocol.PayoffTable:
        if self.table == "spurious":
            return adversary.spurious_table()
        return protocol.build_first_price_table(AuctionConfig(m=len(self.bids), p=len(self.bids[0])))


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(_read_text(path, "config file").splitlines(), 1):
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
    if cfg.steps > MAX_STEPS:
        raise ConfigError(f"steps = {cfg.steps} exceeds the cap of {MAX_STEPS} steps")
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
    if cfg.rounds > MAX_MC_ROUNDS:
        raise ConfigError(f"rounds = {cfg.rounds} exceeds the cap of {MAX_MC_ROUNDS} probe rounds")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if args.command not in _PAIRS:  # povm reads only seed and out
        return cfg
    if (cfg.attack, cfg.defense) not in _PAIRS[args.command]:
        allowed = ", ".join(sorted(map("/".join, _PAIRS[args.command])))
        raise ConfigError(f"{args.command} runs attack/defense pairs {allowed}, "
                          f"not {cfg.attack}/{cfg.defense}")
    for key, value in _TWO_BY_TWO:
        if getattr(cfg, key) == value and [len(b) for b in cfg.bids] != [2, 2]:
            raise ConfigError(f"{key}={value} is defined for two 2-qubit bidders")
    if cfg.attack == "spurious":  # the attack runs on its own table
        cfg.table = "spurious"
    if cfg.defense == "lock":
        if len(cfg.bids) != 2:
            raise ConfigError("locking pair covers exactly two bidders")
        if not all(alpha is not None and 0 < alpha <= 1 for alpha in (cfg.alpha1, cfg.alpha2)):
            raise ConfigError(f"defense=lock needs alpha1 and alpha2 in (0, 1], "
                              f"got {cfg.alpha1} and {cfg.alpha2}")
    return cfg


def _check_width(width: int, what: str) -> None:
    if width > MAX_QUBITS:
        raise ConfigError(f"{what}: {width} qubits exceed the dense simulator's cap of {MAX_QUBITS}")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _render_csv(meta: dict, columns: dict, trailing: dict | None = None) -> str:
    """The CSV of `columns`, a map from each column's name to its values, all
    of one length: the names are the header, and row i holds entry i of each."""
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    for row in zip(*columns.values(), strict=True):
        lines.append(",".join(_fmt(x) for x in row))
    for key, value in (trailing or {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def _grid(cfg: ScenarioConfig) -> dict:
    """The step columns of a schedule's curves: s = 0..S and f = s/S."""
    steps = range(cfg.steps + 1)
    return {"s": steps, "f": [s / cfg.steps for s in steps]}


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


def _bits(cfg: ScenarioConfig, index: int) -> str:
    """Joint basis index `index` as a bit string over every bidder's qubits."""
    return format(index, f"0{sum(map(len, cfg.bids))}b")


def cmd_converge(cfg: ScenarioConfig) -> str:
    """The search's convergence. Under the spurious attack it is the attack's
    output: the same search, plus the revealing state's probability."""
    table, schedule = cfg.payoff_table(), cfg.schedule()
    if cfg.defense == "collude":
        traj = adversary.run_collusion_defense(cfg.bids, table, schedule)
    else:
        traj = protocol.run_adiabatic(cfg.bids, table, schedule)
    columns = {**_grid(cfg), "success_prob": traj.success, "leakage": traj.leakage}
    if cfg.attack != "spurious":
        return _render_csv(_meta(cfg, "converge", winner=_bits(cfg, traj.winner_index)), columns)
    reveal = adversary.revealing_index(cfg.bids)
    columns["revealing_prob"] = traj.probability(reveal)
    return _render_csv(_meta(cfg, "attack", revealing=_bits(cfg, reveal)), columns)


def cmd_variants(cfg: ScenarioConfig) -> str:
    table = cfg.payoff_table()
    columns = _grid(cfg)
    for variant in _VARIANTS:
        columns[variant] = protocol.run_adiabatic(cfg.bids, table, cfg.schedule(variant)).success
    return _render_csv(_meta(cfg, "variants"), columns)


def cmd_gap(cfg: ScenarioConfig) -> str:
    values = (cfg.steps + 1) << sum(map(len, cfg.bids))
    if not cfg.restrict and values > MAX_GAP_VALUES:
        raise ConfigError(f"full-space gap tracks: (steps + 1) * 2^n = {values} eigenvalues "
                          f"exceed the cap of {MAX_GAP_VALUES}")
    table = cfg.payoff_table()
    # a tie is a simulation error, found before any operator is built
    protocol.winning_allocation(table, protocol.plausible_allocations(cfg.bids))
    # the tracks read no variant, so a lock is taken under any --variant
    tracks = protocol.eigenvalue_tracks(cfg.bids, table, cfg.schedule("zeroth"), restrict=cfg.restrict)
    lams = tracks.eigenvalues.T
    columns = _grid(cfg)
    columns.update((f"lambda{i}", track) for i, track in enumerate(lams))
    columns["gap"] = lams[1] - lams[0]
    return _render_csv(_meta(cfg, "gap", restrict=str(cfg.restrict).lower()),
                       columns, trailing={"g_min": tracks.g_min})


def cmd_attack(cfg: ScenarioConfig) -> str:
    if cfg.attack == "spurious":  # converge's search on the attack's table
        return cmd_converge(cfg)
    variants = [("", (None,) * len(cfg.bids))]
    if cfg.defense == "lock":
        variants.append(("_lock", (cfg.alpha1, cfg.alpha2)))

    meta_extra: dict = {}
    columns = {"N": range(1, cfg.rounds + 1)}
    solved = [adversary.povm_outcome_distributions(cfg.bids, alphas) for _, alphas in variants]
    pers = [[(dist, t) for dist, t, _, _ in bidders] for bidders in solved]
    # one majority draw, counted for every variant
    majority = adversary.majority_mc_curve(pers, cfg.rounds, cfg.trials, cfg.seed)
    for (suffix, alphas), bidders, per, majority_curve in zip(variants, solved, pers, majority):
        dists = [basis for *_, basis in bidders]
        p_errors = [p_e for _, _, p_e, _ in bidders]
        for bidder, p_e in enumerate(p_errors):
            meta_extra[f"p_e{suffix}_bidder{bidder}"] = _fmt(p_e)
        columns[f"basis_closed{suffix}"] = adversary.probe_attack_basis(alphas, cfg.rounds)
        columns[f"basis_mc{suffix}"] = adversary.basis_mc_curve(dists, cfg.rounds, cfg.trials, cfg.seed)
        columns[f"povm_closed{suffix}"] = adversary.probe_attack_povm(p_errors, cfg.rounds)
        columns[f"povm_mc{suffix}"] = adversary.povm_mc_curve(per, cfg.rounds, cfg.trials, cfg.seed)
        columns[f"povm_mc_majority{suffix}"] = majority_curve
    return _render_csv(_meta(cfg, "attack", trials=cfg.trials, rounds=cfg.rounds, **meta_extra),
                       columns)


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


def _target_bid(raw: str, n_qubits: int | None = None) -> protocol.BidSpec:
    try:
        bid = protocol.BidSpec(raw)
    except ContractViolation as exc:
        raise ConfigError(f"bad bid in circuit target: {exc}") from exc
    if n_qubits not in (None, bid.n_qubits):
        raise ConfigError(f"bad bid in circuit target: {raw!r} is not a {n_qubits}-qubit bid")
    return bid


class _TargetKind(NamedTuple):
    usage: str           # the arguments after `kind:`
    counts: tuple        # the argument counts it accepts
    parse: Callable      # arguments -> (values, width in qubits, or None: the circuit file's)
    circuit: Callable    # (*values, width) -> the circuit that --emit prints
    reference: Callable  # (*values, width) -> the target a file is checked against, in a form core._support reads


# Every circuit-verify target `kind:args`; kinds match case-insensitively.
_TARGETS = {
    "bidder": _TargetKind(
        "BITS", (1,), lambda args: ((_target_bid(args[0]),), len(args[0])),
        lambda bid, n: circuits.build_bidder_circuit(bid),
        lambda bid, n: protocol._bidding_entries(bid)),
    "D": _TargetKind(
        "delta,f[,n_qubits]", (2, 3),
        lambda args: (tuple(map(_target_number, args[:2])),
                      _target_number(args[2], int) if args[2:] else None),
        circuits.build_D_circuit,
        lambda delta, f, n: np.exp(-1j * delta * f * protocol.hamming_weights(n))),
    "P": _TargetKind(  # the payoff phases of two 2-qubit bidders' first-price table
        "delta,f", (2,), lambda args: ((*map(_target_number, args),
                                        protocol.build_first_price_table(AuctionConfig(m=2, p=2))), 4),
        lambda delta, f, table, n: circuits.build_P_circuit(
            protocol.pauli_z_expansion(table), delta, f, n),
        lambda delta, f, table, n: np.exp(-1j * delta * f * (-table.values))),
    "collusion": _TargetKind(
        "B1,B2", (2,), lambda args: (tuple(_target_bid(arg, 2) for arg in args), 4),
        lambda bid1, bid2, n: circuits.build_collusion_circuit(bid1, bid2),
        lambda bid1, bid2, n: adversary.collusion_operator(bid1, bid2)),
}


def _parse_target(text: str) -> tuple[_TargetKind, tuple, int | None]:
    """Split and check `kind:args` once: its row, values and width (None: the file's)."""
    kind, colon, arg = text.partition(":")
    if not colon:
        raise ConfigError(f"target must look like kind:args, got {text!r}")
    kind = {name.lower(): name for name in _TARGETS}.get(kind.strip().lower(), kind.strip())
    if kind not in _TARGETS:
        raise ConfigError(f"unknown target kind {kind!r}; use {'/'.join(_TARGETS)}")
    row, args = _TARGETS[kind], [part.strip() for part in arg.split(",")]
    if len(args) not in row.counts:
        raise ConfigError(f"target {kind} takes {row.usage}")
    values, width = row.parse(args)
    return row, values, width if width is None else _sized(values, width, text)


def _sized(values: tuple, width: int | None, text: str) -> int:
    """`width`, checked to be given and at least 1, within the width cap, and
    free of D's and P's phases delta * f * width that overflow (bids carry none)."""
    if width is None or width < 1:
        raise ConfigError(f"target {text!r} needs a width of at least 1 qubit")
    _check_width(width, f"target {text!r}")
    if not math.isfinite(math.prod(v for v in values if isinstance(v, float)) * width):
        raise ConfigError(f"target {text!r}: the phases delta * f overflow")
    return width


def cmd_circuit_verify(args: argparse.Namespace) -> str:
    if args.emit == (args.circuit is not None):
        raise ConfigError("pass a circuit file, or --emit and no file")
    row, values, width = _parse_target(args.target)
    if args.emit:
        return row.circuit(*values, _sized(values, width, args.target)).to_text()
    circuit = circuits.parse_circuit(_read_text(args.circuit, "circuit file"), width)
    reference = row.reference(*values, _sized(values, circuit.n_qubits, args.target))
    report = circuits.verify_circuit(circuit, reference)
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
    p.add_argument("target", help=" | ".join(f"{kind}:{row.usage}" for kind, row in _TARGETS.items()))
    p.add_argument("--emit", action="store_true",
                   help="print the reference circuit for the target instead of verifying")
    p.add_argument("--out", help=_KEY_SPECS["out"].help)
    p.set_defaults(run=lambda a: (cmd_circuit_verify(a), a.out))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # argparse splits operands at an option: `FILE --out P TARGET` leaves TARGET
            if args.command != "circuit-verify" or args.circuit is not None or len(extra) > 1 \
                    or extra[0].startswith("-"):
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.circuit, args.target = args.target, extra[0]  # FILE was taken as the target
        output, out_path = args.run(args)
        if out_path:
            try:
                with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(output)
            except OSError as exc:
                raise ConfigError(f"cannot write {out_path}: {exc}") from exc
        else:
            sys.stdout.write(output)
    except (ConfigError, circuits.CircuitParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TieError, ContractViolation) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks shared by the qauction benchmark workloads.

Every check raises `CheckFailed` on the first property it finds broken.
The properties are ones any correct version of the program keeps, so a
check never depends on how the program computes its answer.
"""

from __future__ import annotations

import math

import numpy as np

# Chernoff exponent T * KL(q || p) above which a Monte Carlo estimate q of
# p from T trials is rejected: the chance of a false rejection per point
# is below 2 * exp(-25) ~ 3e-11. The bound holds at any p, including
# points whose expected number of misses is far below one.
CHERNOFF_LIMIT = 25.0


class CheckFailed(AssertionError):
    """An output broke a property the benchmark checks."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def require_finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    require(bool(np.all(np.isfinite(arr))), f"{what} holds a non-finite number")
    return arr


def print_resolution(x: float) -> float:
    """One unit in the 12th significant digit, the CLI's CSV precision."""
    if x == 0 or not math.isfinite(x):
        return 1e-300
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def close_to_print(printed: float, exact: float, what: str) -> None:
    """A value printed at 12 significant digits agrees with `exact`."""
    tol = 1e-12 * max(1.0, abs(exact)) + print_resolution(exact)
    require(abs(printed - exact) <= tol, f"{what}: printed {printed!r}, expected {exact!r}")


def binomial_kl(q: float, p: float) -> float:
    """KL divergence of Bernoulli(q) from Bernoulli(p)."""
    def term(a: float, b: float) -> float:
        if a == 0.0:
            return 0.0
        if b <= 0.0:
            return math.inf
        return a * math.log(a / b)
    return term(q, p) + term(1.0 - q, 1.0 - p)


def within_binomial(estimate: float, p: float, trials: int, what: str) -> None:
    """`estimate` is a plausible fraction of `trials` Bernoulli(p) draws."""
    score = trials * binomial_kl(min(max(estimate, 0.0), 1.0), min(max(p, 0.0), 1.0))
    require(score <= CHERNOFF_LIMIT,
            f"{what}: Monte Carlo {estimate!r} vs closed form {p!r} over {trials} "
            f"trials (Chernoff exponent {score:.3g} > {CHERNOFF_LIMIT})")


def parse_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    """Split CLI CSV into (`# key=value` comments, header, numeric rows)."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            require(bool(sep), f"comment line {line!r} is not key=value")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    require(header is not None, "CSV has no header row")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    require_finite(data, "CSV body")
    return meta, header, data


def csv_shape(header: list[str], data: np.ndarray, expected_header: list[str],
              expected_rows: int) -> None:
    require(header == expected_header, f"header {header} != {expected_header}")
    require(data.shape[0] == expected_rows, f"{data.shape[0]} rows, expected {expected_rows}")


def probabilities(values, what: str) -> np.ndarray:
    arr = require_finite(values, what)
    require(bool(np.all(arr >= -1e-12) and np.all(arr <= 1 + 1e-12)),
            f"{what} leaves [0, 1]")
    return arr

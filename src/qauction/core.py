"""Dense linear algebra, Hermitian spectral tools, and POVM measurement
for small qubit registers.

Conventions used throughout the package:
  * qubit 0 is the MOST significant bit of a basis index, so the basis
    state |q0 q1 ... q_{n-1}> has index q0*2^(n-1) + ... + q_{n-1}
  * amplitudes are complex128; a matrix keeps the dtype of its entries,
    float64 when they are real and complex128 otherwise, so a real
    symmetric operator goes to LAPACK's real solvers. Matrices are plain
    numpy arrays (no wrapper class), states are `StateVector`
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL_STATE = 1e-10      # norm drift allowed on construction / per evolution step
ATOL_UNITARY = 1e-9     # unitarity after operator products
ATOL_HERMITIAN = 1e-10  # Hermiticity of operator inputs
_SCAN_ENTRIES = 2**14   # scan chunks of the phase-invariant distance: 256 KB temporaries


class ContractViolation(ValueError):
    """An operation was handed an input that breaks its contract."""


def as_operator(a) -> np.ndarray:
    """`a` as a float64 array when its entries are real (bool, integer or
    float), complex128 otherwise, object arrays included (no copy when it
    already is one): the dtype of every operator the package builds or takes."""
    a = np.asarray(a)
    return a.astype(np.float64 if a.dtype.kind in "biuf" else np.complex128, copy=False)


def _as_matrix(a) -> np.ndarray:
    """`a` as a square matrix, with the dtype `as_operator` gives."""
    m = as_operator(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(h, tol: float = ATOL_HERMITIAN) -> bool:
    """Whether h equals its conjugate transpose within tol; a matrix with a
    NaN or infinite entry is not (and inf - inf would warn)."""
    h = _as_matrix(h)
    return bool(np.isfinite(h).all()) and float(np.max(np.abs(h - h.conj().T))) <= tol


class StateVector:
    """Normalized complex amplitude vector over n qubits (length 2^n)."""

    __slots__ = ("amplitudes", "n_qubits")

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if amps.size != 2**n or amps.size < 2:
            raise ContractViolation(f"amplitude length {amps.size} is not a power of two >= 2")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= ATOL_STATE:  # also rejects NaN
            raise ContractViolation(f"state norm {norm} deviates from 1 by more than {ATOL_STATE}")
        self.amplitudes = amps
        self.n_qubits = n

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __len__(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def eig_hermitian(h):
    """Diagonalize a Hermitian operator (in the search, H(f) on one span or
    cell) as numpy's `EighResult`: eigenvalues ascending, eigenvectors in
    orthonormal columns. Raises ContractViolation if it is not Hermitian within
    ATOL_HERMITIAN. A real symmetric operator gets LAPACK's real solver."""
    h = _as_matrix(h)
    if not is_hermitian(h):
        raise ContractViolation(f"operator is not Hermitian within {ATOL_HERMITIAN}")
    return np.linalg.eigh(h)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to identity within ATOL_UNITARY, checked
    once here; element i decides state i. Compared and hashed by identity:
    elementwise `==` over the arrays has no single truth value."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.elements:
            raise ContractViolation("POVM needs at least one element")
        mats = tuple(_as_matrix(e) for e in self.elements)
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for k, e in enumerate(mats):
            if e.shape[0] != dim:
                raise ContractViolation("POVM elements differ in dimension")
            if not is_hermitian(e, ATOL_UNITARY):
                raise ContractViolation(f"POVM element {k} is not Hermitian")
            if float(np.min(np.linalg.eigvalsh((e + e.conj().T) / 2))) < -ATOL_UNITARY:
                raise ContractViolation(f"POVM element {k} is not positive semidefinite")
            total += e
        if float(np.max(np.abs(total - np.eye(dim)))) > ATOL_UNITARY:
            raise ContractViolation(f"POVM elements do not sum to identity within {ATOL_UNITARY}")
        object.__setattr__(self, "elements", mats)


def measurement_probabilities(state: StateVector, povm: Povm) -> np.ndarray:
    """Outcome distribution <psi|Pi_j|psi> of a POVM, checked when it was built."""
    mats = povm.elements
    if mats[0].shape[0] != len(state):
        raise ContractViolation("POVM dimension does not match the state")
    psi = state.amplitudes
    probs = np.array([np.real(np.vdot(psi, e @ psi)) for e in mats])
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > ATOL_UNITARY:
        raise ContractViolation(f"POVM probabilities sum to {probs.sum()}")
    return probs


def _max_off(u: np.ndarray, on: np.ndarray) -> float:
    """max |u| off the sorted flat indices `on`, read once in flat chunks of
    _SCAN_ENTRIES entries, so no copy of u is made; a non-finite entry raises."""
    flat = u.reshape(-1)
    top = 0.0
    for start in range(0, flat.size, _SCAN_ENTRIES):
        chunk = flat[start:start + _SCAN_ENTRIES]
        magnitudes = np.abs(chunk)
        lo, hi = np.searchsorted(on, [start, start + _SCAN_ENTRIES])  # the part of `on` in the chunk
        magnitudes[on[lo:hi] - start] = 0
        peak = float(np.max(magnitudes))
        if not peak <= top:  # a new maximum, or NaN
            if not (math.isfinite(peak) or np.isfinite(chunk).all()):
                raise ContractViolation("phase-invariant distance needs finite matrix entries")
            top = peak
    return top


def _distinct_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (u_i, v_i) pairs of two 1-D complex arrays, each repeated pair kept
    once: a D target at n qubits has n + 1 distinct pairs among its 2^n.
    Every distance of the phase search is a maximum over pairs, so a pair
    kept twice changes no distance. Copies of a pair share Re u, so after one
    sort on it (several times cheaper than a sort on all four parts) a copy
    lands next to another unless a pair with the same Re u sits between them."""
    order = np.argsort(u.real)
    u, v = u[order], v[order]
    kept = np.ones(u.size, dtype=bool)
    np.not_equal(u[1:], u[:-1], out=kept[1:])
    kept[1:] |= v[1:] != v[:-1]
    return u[kept], v[kept]


def _support(v, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted flat indices `on` of a target's entries in a dim x dim
    matrix, and their values. A target is a dim x dim matrix or a 1-D
    diagonal, read on its nonzero entries, or the entries (rows, cols, values)
    of a sparse one, with integer rows and cols (not bool or float), which
    broadcast as in `m[rows, cols] = values`."""
    if isinstance(v, tuple):
        try:
            rows, cols, values = np.broadcast_arrays(*map(np.asarray, v))
            if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
                raise TypeError(f"got {rows.dtype} rows and {cols.dtype} columns")
            on, first = np.unique(np.ravel_multi_index((rows, cols), (dim, dim)), return_index=True)
        except (TypeError, ValueError) as exc:
            raise ContractViolation(f"target entries need integer indices in 0..{dim - 1} that broadcast: {exc}") from exc
        if on.size != rows.size:
            raise ContractViolation("target lists an entry twice")
        return on, as_operator(values).reshape(-1)[first]
    v = as_operator(v)
    if v.shape != ((dim,) if v.ndim == 1 else (dim, dim)):
        raise ContractViolation(f"dimension mismatch: {(dim, dim)} vs {v.shape}")
    nonzero = np.flatnonzero(v)
    return nonzero * (dim + 1) if v.ndim == 1 else nonzero, v.reshape(-1)[nonzero]


def phase_invariant_distance(u, v) -> float:
    """min over unit-magnitude phi of max-entry |u - phi*v|.

    Zero iff u and v agree up to a global phase. The minimum is found by a
    coarse phase scan refined by golden-section search, with the
    Frobenius-optimal phase (phase of tr(v^dag u)) as an extra candidate --
    exact whenever the matrices really do agree up to phase. `v` is any
    target `_support` reads, and no dense v is formed: u is read on v's
    support and through its largest entry off it, and is not copied.
    """
    u = _as_matrix(u)
    on, values = _support(v, u.shape[0])
    return _phase_search(u.reshape(-1)[on], values, _max_off(u, on))


def _phase_search(u: np.ndarray, v: np.ndarray, rest: float) -> float:
    """min over unit-magnitude phi of max(rest, max |u_i - phi*v_i|), over
    the pairs of two 1-D arrays: a target's nonzero entries v_i and the
    entries u_i in their places. `rest` is the largest |u| off those places,
    where |u - phi*v| = |u| at every phase."""
    # a real operand is cast once here, not in each of the distance evaluations below
    u, v = u.astype(complex, copy=False), v.astype(complex, copy=False)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ContractViolation("phase-invariant distance needs finite matrix entries")
    tr = np.vdot(v, u)  # tr(v^dag u), over every pair, repeated ones too
    u, v = _distinct_pairs(u, v)

    def dist(theta: float) -> float:
        return max(rest, float(np.max(np.abs(u - np.exp(1j * theta) * v), initial=0.0)))

    # the coarse scan: every angle's distance at once, in chunks of at most
    # _SCAN_ENTRIES entries; argmin takes the first minimum, as min() does
    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    phases = np.exp(1j * thetas)[:, None]
    chunk = max(1, _SCAN_ENTRIES // max(1, u.size))
    coarse = np.concatenate([np.max(np.abs(u - phases[i:i + chunk] * v), axis=1, initial=rest)
                             for i in range(0, thetas.size, chunk)])
    first_min = int(np.argmin(coarse))
    best, best_dist = thetas[first_min], float(coarse[first_min])
    if abs(tr) > 1e-14:
        cand = float(np.angle(tr))
        cand_dist = dist(cand)
        if cand_dist < best_dist:
            best, best_dist = cand, cand_dist
    lo, hi = best - 2 * np.pi / 256, best + 2 * np.pi / 256
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    dist_c, dist_d = dist(c), dist(d)
    for _ in range(80):  # one new point per step; the kept one carries its distance
        if dist_c < dist_d:
            b, d, dist_d = d, c, dist_c
            c = b - invphi * (b - a)
            dist_c = dist(c)
        else:
            a, c, dist_c = c, d, dist_d
            d = a + invphi * (b - a)
            dist_d = dist(d)
    return min(best_dist, dist((a + b) / 2))

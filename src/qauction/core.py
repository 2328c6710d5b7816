"""Dense complex linear algebra, Hermitian spectral tools, and POVM
measurement for small qubit registers.

Conventions used throughout the package:
  * qubit 0 is the MOST significant bit of a basis index, so the basis
    state |q0 q1 ... q_{n-1}> has index q0*2^(n-1) + ... + q_{n-1}
  * all amplitudes/matrices are complex128; matrices are plain numpy
    arrays (no wrapper class), states are `StateVector`
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

ATOL_STATE = 1e-10      # norm drift allowed on construction / per evolution step
ATOL_UNITARY = 1e-9     # unitarity after operator products
ATOL_HERMITIAN = 1e-10  # Hermiticity of operator inputs


class ContractViolation(ValueError):
    """An operation was handed an input that breaks its contract."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"expected a square matrix, got shape {m.shape}")
    return m


def is_unitary(u, tol: float = ATOL_UNITARY) -> bool:
    u = _as_matrix(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))) <= tol


def is_hermitian(h, tol: float = ATOL_HERMITIAN) -> bool:
    h = _as_matrix(h)
    return float(np.max(np.abs(h - h.conj().T))) <= tol


def require_hermitian(h, tol: float = ATOL_HERMITIAN, what: str = "operator") -> np.ndarray:
    h = _as_matrix(h)
    if not is_hermitian(h, tol):
        raise ContractViolation(f"{what} is not Hermitian within {tol}")
    return h


class StateVector:
    """Normalized complex amplitude vector over n qubits (length 2^n)."""

    __slots__ = ("amplitudes", "n_qubits")

    def __init__(self, amplitudes, n_qubits: int | None = None):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = int(amps.size).bit_length() - 1
        if amps.size != 2**n or amps.size < 2:
            raise ContractViolation(f"amplitude length {amps.size} is not a power of two >= 2")
        if n_qubits is not None and n_qubits != n:
            raise ContractViolation(f"length {amps.size} does not match n_qubits={n_qubits}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= ATOL_STATE:  # also rejects NaN
            raise ContractViolation(f"state norm {norm} deviates from 1 by more than {ATOL_STATE}")
        self.amplitudes = amps
        self.n_qubits = n

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(other.amplitudes, self.amplitudes))

    def __len__(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, column k pairs with eigenvalues[k]


def eig_hermitian(h, tol: float = ATOL_HERMITIAN) -> Spectrum:
    """Diagonalize a Hermitian operator; raises ContractViolation otherwise."""
    h = require_hermitian(h, tol)
    vals, vecs = np.linalg.eigh(h)
    return Spectrum(vals, vecs)


def check_povm(elements, tol: float = ATOL_UNITARY) -> list[np.ndarray]:
    """Validate a POVM: every element PSD, elements summing to identity."""
    if not elements:
        raise ContractViolation("POVM needs at least one element")
    mats = [_as_matrix(e) for e in elements]
    dim = mats[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for k, e in enumerate(mats):
        if e.shape[0] != dim:
            raise ContractViolation("POVM elements differ in dimension")
        if not is_hermitian(e, tol):
            raise ContractViolation(f"POVM element {k} is not Hermitian")
        if float(np.min(np.linalg.eigvalsh((e + e.conj().T) / 2))) < -tol:
            raise ContractViolation(f"POVM element {k} is not positive semidefinite")
        total += e
    if float(np.max(np.abs(total - np.eye(dim)))) > tol:
        raise ContractViolation(f"POVM elements do not sum to identity within {tol}")
    return mats


def measurement_probabilities(state: StateVector, povm) -> np.ndarray:
    """Outcome distribution <psi|Pi_j|psi> for a validated POVM."""
    mats = check_povm(povm)
    if mats[0].shape[0] != len(state):
        raise ContractViolation("POVM dimension does not match the state")
    psi = state.amplitudes
    probs = np.array([np.real(np.vdot(psi, e @ psi)) for e in mats])
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > ATOL_UNITARY:
        raise ContractViolation(f"POVM probabilities sum to {probs.sum()}")
    return probs


def phase_invariant_distance(u, v) -> float:
    """min over unit-magnitude phi of max-entry |u - phi*v|.

    Zero iff u and v agree up to a global phase. The minimum is found by a
    coarse phase scan refined by golden-section search, with the
    Frobenius-optimal phase (phase of tr(v^dag u)) as an extra candidate --
    exact whenever the matrices really do agree up to phase.
    """
    u = _as_matrix(u)
    v = _as_matrix(v)
    if u.shape != v.shape:
        raise ContractViolation(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ContractViolation("phase-invariant distance needs finite matrix entries")

    def dist(theta: float) -> float:
        return float(np.max(np.abs(u - np.exp(1j * theta) * v)))

    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    best = min(thetas, key=dist)
    tr = np.trace(v.conj().T @ u)
    if abs(tr) > 1e-14:
        cand = float(np.angle(tr))
        if dist(cand) < dist(best):
            best = cand
    lo, hi = best - 2 * np.pi / 256, best + 2 * np.pi / 256
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(80):
        if dist(c) < dist(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return min(dist(best), dist((a + b) / 2))

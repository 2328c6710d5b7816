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

from dataclasses import dataclass

import numpy as np

ATOL_STATE = 1e-10      # norm drift allowed on construction / per evolution step
ATOL_UNITARY = 1e-9     # unitarity after operator products
ATOL_HERMITIAN = 1e-10  # Hermiticity of operator inputs


class ContractViolation(ValueError):
    """An operation was handed an input that breaks its contract."""


def as_operator(a) -> np.ndarray:
    """`a` as a float64 array when its entries are real (bool, integer or
    float), complex128 otherwise, object arrays included (no copy when it
    already is one): the dtype of every operator the package builds or takes."""
    a = np.asarray(a)
    return a.astype(np.float64 if a.dtype.kind in "biuf" else np.complex128, copy=False)


def _as_matrix(a) -> np.ndarray:
    """`a` as a nonempty square matrix, with the dtype `as_operator` gives."""
    m = as_operator(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ContractViolation(f"expected a nonempty square matrix, got shape {m.shape}")
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

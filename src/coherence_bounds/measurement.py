"""Rank-1 projective measurements on subsystem A: bases, dephasing, outcome statistics.

Only orthonormal-basis (von Neumann) measurements are supported; general
POVMs are out of scope. Measurement always acts on the A side of a state,
with the B side kept as the quantum memory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ProbabilityError, ValidationError
from .linalg import hermitize
from .states import DensityMatrix

# Outcomes with probability at or below this threshold get the maximally
# mixed conditional state and a degenerate flag instead of a 0/0 division.
DEGENERATE_PROB = 1e-12


@dataclass(frozen=True)
class ObservableBasis:
    """Orthonormal measurement basis; column y of `vectors` is the outcome-y ket."""

    dim: int
    vectors: np.ndarray
    label: str

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.shape != (self.dim, self.dim):
            raise DimensionError(f"basis vectors must be {self.dim} x {self.dim}, got {v.shape}")
        defect = float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))
        if not defect <= 1e-10:  # NaN entries fail too
            raise ValidationError(f"orthonormality: max|V^dag V - I| = {defect:.3e} exceeds 1e-10")
        object.__setattr__(self, "vectors", v)


@dataclass(frozen=True)
class MeasurementOutcome:
    """Statistics of measuring A: probabilities, conditional B states, dephased joint."""

    probs: np.ndarray
    conditional_states: tuple[DensityMatrix, ...]
    joint_state: DensityMatrix
    degenerate: tuple[bool, ...]


def pauli_basis(which: int) -> ObservableBasis:
    """Eigenbasis of sigma_1, sigma_2, or sigma_3, eigenvalue +1 column first."""
    rt = 1.0 / np.sqrt(2.0)
    if which == 1:
        v = np.array([[rt, rt], [rt, -rt]])
    elif which == 2:
        v = np.array([[rt, rt], [1j * rt, -1j * rt]])
    elif which == 3:
        v = np.eye(2)
    else:
        raise DomainError(f"pauli index must be 1, 2 or 3, got {which!r}")
    return ObservableBasis(dim=2, vectors=v, label=f"sigma{which}")


def computational_basis(dim: int) -> ObservableBasis:
    if dim < 1:
        raise DimensionError(f"basis dimension must be positive, got {dim}")
    return ObservableBasis(dim=dim, vectors=np.eye(dim), label="computational")


def bloch_basis(theta: float, phi: float) -> ObservableBasis:
    """Qubit basis {cos(t/2)|0> + e^{i phi} sin(t/2)|1>, sin(t/2)|0> - e^{i phi} cos(t/2)|1>}."""
    theta, phi = float(theta), float(phi)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    v = np.array([[c, s], [e * s, -e * c]])
    return ObservableBasis(dim=2, vectors=v, label=f"bloch:{theta:.9g}:{phi:.9g}")


def _conditional_blocks(rho: DensityMatrix, basis: ObservableBasis) -> np.ndarray:
    """Unnormalized conditional B blocks M_y = (<y| (x) I) rho (|y> (x) I), shape (da, db, db)."""
    if basis.dim != rho.dim_a:
        raise DimensionError(f"basis dim {basis.dim} does not match dim_a {rho.dim_a}")
    blocks = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    v = basis.vectors
    return np.einsum("iy,jy,iajb->yab", v.conj(), v, blocks)


def _assemble_joint(cond: np.ndarray, basis: ObservableBasis, rho: DensityMatrix) -> DensityMatrix:
    v = basis.vectors
    joint = np.einsum("iy,jy,yab->iajb", v, v.conj(), cond)
    return DensityMatrix(hermitize(joint.reshape(rho.dim, rho.dim)), rho.dim_a, rho.dim_b)


def dephase(rho: DensityMatrix, basis: ObservableBasis) -> DensityMatrix:
    """Kill coherences of A in the given basis: sum_y (P_y (x) I) rho (P_y (x) I).

    For a monopartite state (dim_b == 1) this is plain diagonal truncation
    in the basis.
    """
    return _assemble_joint(_conditional_blocks(rho, basis), basis, rho)


def measure(rho: DensityMatrix, basis: ObservableBasis) -> MeasurementOutcome:
    """Measure subsystem A in `basis` and collect the full outcome statistics."""
    cond = _conditional_blocks(rho, basis)
    probs = np.einsum("yaa->y", cond).real.copy()
    if np.any(probs < -1e-12):
        raise ProbabilityError(f"negative outcome probability {float(probs.min())!r}")
    probs[probs < 0.0] = 0.0
    states = []
    degenerate = []
    eye_b = DensityMatrix(np.eye(rho.dim_b, dtype=np.complex128) / rho.dim_b, rho.dim_b, 1)
    for y, p in enumerate(probs):
        if p <= DEGENERATE_PROB:
            states.append(eye_b)
            degenerate.append(True)
        else:
            states.append(DensityMatrix(hermitize(cond[y] / p), rho.dim_b, 1))
            degenerate.append(False)
    return MeasurementOutcome(
        probs=probs,
        conditional_states=tuple(states),
        joint_state=_assemble_joint(cond, basis, rho),
        degenerate=tuple(degenerate),
    )


def incompatibility(x: ObservableBasis, z: ObservableBasis) -> float:
    """q_MU = -log2 max_{y,y'} |<x_y|z_y'>|^2, the maximal-overlap incompatibility."""
    if x.dim != z.dim:
        raise DimensionError(f"basis dims differ: {x.dim} vs {z.dim}")
    c = float(np.max(np.abs(x.vectors.conj().T @ z.vectors) ** 2))
    return max(0.0, -np.log2(min(c, 1.0)))

"""Rank-1 projective measurements on subsystem A: bases, dephasing, outcome statistics.

Only orthonormal-basis (von Neumann) measurements are supported; general
POVMs are out of scope. Measurement always acts on the A side of a state,
with the B side kept as the quantum memory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .entropy import SUPPORT_CUT, shannon_entropy
from .errors import DimensionError, DomainError, ProbabilityError, ValidationError
from .linalg import hermitize
from .states import DensityMatrix


@dataclass(frozen=True, eq=False)
class ObservableBasis:
    """Orthonormal measurement basis; column y of `vectors` is the outcome-y ket.

    vectors must be a nonempty square matrix, else DimensionError; dim is
    its size. vectors is a read-only copy of the array passed in, so a basis
    cannot change after its check. Bases compare and hash by identity: a
    state keeps its dephased state per basis object, never per content, and
    only while the basis object lives.
    """

    vectors: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        v = np.array(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or not 0 < v.shape[0] == v.shape[1]:
            raise DimensionError(f"basis vectors must be a nonempty square matrix, got shape {v.shape}")
        defect = float(np.max(np.abs(v.conj().T @ v - np.eye(len(v)))))
        if not defect <= 1e-10:  # NaN entries fail too
            raise ValidationError(f"orthonormality: max|V^dag V - I| = {defect:.3e} exceeds 1e-10")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "dim", len(v))


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """Statistics of measuring A: probabilities, conditional B states, dephased joint.

    joint_state is the dephased state the measured state keeps for the basis
    object, the one dephase returns; probs is a writable copy of the p_Y kept
    with it, clamped at zero. An outcome with p_y <= SUPPORT_CUT has the
    maximally mixed conditional state. Outcomes compare and hash by identity,
    as the states they hold do.
    """

    probs: np.ndarray
    conditional_states: tuple[DensityMatrix, ...]
    joint_state: DensityMatrix


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
    return ObservableBasis(v)


def computational_basis(dim: int) -> ObservableBasis:
    if dim < 1:
        raise DimensionError(f"basis dimension must be positive, got {dim}")
    return ObservableBasis(np.eye(dim))


def bloch_basis(theta: float, phi: float) -> ObservableBasis:
    """Qubit basis {cos(t/2)|0> + e^{i phi} sin(t/2)|1>, sin(t/2)|0> - e^{i phi} cos(t/2)|1>}."""
    theta, phi = float(theta), float(phi)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    v = np.array([[c, s], [e * s, -e * c]])
    return ObservableBasis(v)


def _conditional_blocks(rho: DensityMatrix, basis: ObservableBasis) -> np.ndarray:
    """Unnormalized conditional B blocks M_y = (<y| (x) I) rho (|y> (x) I), shape (da, db, db)."""
    if basis.dim != rho.dim_a:
        raise DimensionError(f"basis dim {basis.dim} does not match dim_a {rho.dim_a}")
    blocks = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    v = basis.vectors
    return np.einsum("iy,jy,iajb->yab", v.conj(), v, blocks)


@dataclass(frozen=True, eq=False)
class _Dephasing:
    """What a state keeps per live basis object: the blocks M_y and what is built from them.

    blocks are the conditional B blocks M_y, state is the dephased joint
    state sum_y |y><y| (x) M_y and probs the outcome probabilities
    p_y = Tr M_y; the arrays are read-only. outcome_entropy is H(p_Y),
    computed on first use. dephase, holevo and measure read them.
    An entropy that raises is not kept, so a second call raises again.
    """

    blocks: np.ndarray
    state: DensityMatrix
    probs: np.ndarray

    @cached_property
    def outcome_entropy(self) -> float:
        return shannon_entropy(self.probs)


def _dephasing(rho: DensityMatrix, basis: ObservableBasis) -> _Dephasing:
    """The _Dephasing rho keeps for the basis object, built on first use; the only place one is built."""
    kept = rho._dephased
    entry = kept.get(basis)
    if entry is None:
        cond = _conditional_blocks(rho, basis)
        cond.flags.writeable = False
        v = basis.vectors
        joint = np.einsum("iy,jy,yab->iajb", v, v.conj(), cond).reshape(rho.dim, rho.dim)
        # The block traces are a new complex array, apart from the kept
        # blocks; the copy keeps p_Y from holding it as its base.
        probs = np.einsum("yaa->y", cond).real.copy()
        probs.flags.writeable = False
        entry = kept[basis] = _Dephasing(cond, DensityMatrix(hermitize(joint), rho.dim_a, rho.dim_b), probs)
    return entry


def dephase(rho: DensityMatrix, basis: ObservableBasis) -> DensityMatrix:
    """Kill coherences of A in the given basis: sum_y (P_y (x) I) rho (P_y (x) I).

    For a monopartite state (dim_b == 1) this is plain diagonal truncation
    in the basis. rho keeps the dephased state per live basis object, so
    repeated calls return the same state, built once.
    """
    return _dephasing(rho, basis).state


def measure(rho: DensityMatrix, basis: ObservableBasis) -> MeasurementOutcome:
    """Measure subsystem A in `basis` and collect the full outcome statistics.

    The joint state and p_Y are those rho keeps for the basis object (see
    dephase). A probability below -SUPPORT_CUT raises ProbabilityError, and
    one in [-SUPPORT_CUT, 0) is clamped to 0. The conditional states come
    from one divide of the kept blocks M_y by their p_y and one hermitize of
    the stack, on every call, and are not kept; an outcome with
    p_y <= SUPPORT_CUT is divided by 1 and then given the maximally mixed
    state.
    """
    kept = _dephasing(rho, basis)
    # p_Y is short: Python floats cost less than a numpy call per check.
    probs = kept.probs.tolist()
    if any(p < -SUPPORT_CUT for p in probs):
        raise ProbabilityError(f"negative outcome probability {float(kept.probs.min())!r}")
    probs = [0.0 if p < 0.0 else p for p in probs]
    divisors = np.array([1.0 if p <= SUPPORT_CUT else p for p in probs])
    stack = hermitize(kept.blocks / divisors[:, None, None])
    for y, p in enumerate(probs):
        if p <= SUPPORT_CUT:
            stack[y] = np.eye(rho.dim_b, dtype=np.complex128) / rho.dim_b
    stack.flags.writeable = False
    states = tuple(DensityMatrix(m, rho.dim_b, 1) for m in stack)
    return MeasurementOutcome(probs=np.array(probs), conditional_states=states, joint_state=kept.state)


def incompatibility(x: ObservableBasis, z: ObservableBasis) -> float:
    """q_MU = -log2 max_{y,y'} |<x_y|z_y'>|^2, the maximal-overlap incompatibility."""
    if x.dim != z.dim:
        raise DimensionError(f"basis dims differ: {x.dim} vs {z.dim}")
    c = float((np.abs(x.vectors.conj().T @ z.vectors) ** 2).max())
    return max(0.0, float(-np.log2(min(c, 1.0))))

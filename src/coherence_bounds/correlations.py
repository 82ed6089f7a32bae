"""Bipartite correlation measures: conditional entropy, mutual information,
Holevo quantity of a measurement, and quantum discord for qubit A.

The discord route follows the usual two-stage optimization of the classical
correlation J_A over rank-1 projective measurements of A: a coarse scan of
the Bloch sphere followed by local refinement. Measurement bases are
parametrized as bloch_basis(theta, phi); for a qubit that covers every
rank-1 projective measurement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import shannon_entropy, von_neumann_entropy, xlog2x
from .errors import UnsupportedDimension
from .measurement import ObservableBasis, bloch_basis, measure
from .states import DensityMatrix, marginal_a, marginal_b

GRID_POINTS = 64
ANGLE_RESOLUTION = 1e-6
_MAX_EVALS = 100_000


@dataclass(frozen=True)
class DiscordResult:
    """Classical correlation J_A, discord D_A = I(A:B) - J_A, and optimizer trace."""

    discord: float
    classical_correlation: float
    optimal_theta: float
    optimal_phi: float
    optimizer_evals: int


def conditional_entropy(rho: DensityMatrix) -> float:
    """S(A|B) = S(rho_AB) - S(rho_B); negative values witness entanglement."""
    return von_neumann_entropy(rho) - von_neumann_entropy(marginal_b(rho))


def mutual_information(rho: DensityMatrix) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB)."""
    return (
        von_neumann_entropy(marginal_a(rho))
        + von_neumann_entropy(marginal_b(rho))
        - von_neumann_entropy(rho)
    )


def holevo(rho: DensityMatrix, basis: ObservableBasis) -> float:
    """Holevo quantity I(Y:B) = S(rho_B) - sum_y p_y S(rho_B|y) of measuring A in `basis`.

    Evaluated through the identity I(Y:B) = S(rho_B) + H(p_Y) - S(rho_YB), which
    holds because the dephased joint state rho_YB is block diagonal in Y, so
    S(rho_YB) = H(p_Y) + sum_y p_y S(rho_B|y). It needs one measurement and no
    entropy of a conditional state.
    """
    out = measure(rho, basis)
    return max(
        0.0,
        von_neumann_entropy(marginal_b(rho))
        + shannon_entropy(out.probs)
        - von_neumann_entropy(out.joint_state),
    )


class _HolevoObjective:
    """Batched Holevo evaluation over Bloch angles for dim_a == 2.

    Conditional B blocks of the (theta, phi) measurement are linear in the
    coefficient vector (a^2, a b, a b*, |b|^2) with a = cos(theta/2) and
    b = e^{i phi} sin(theta/2), so a whole batch of angles reduces to one
    matrix product plus batched small eigenproblems.
    """

    def __init__(self, rho: DensityMatrix):
        if rho.dim_a != 2:
            raise UnsupportedDimension(
                f"measurement optimization needs dim_a == 2, got {rho.dim_a}"
            )
        db = rho.dim_b
        blocks = rho.matrix.reshape(2, db, 2, db)
        self.kflat = np.stack(
            [blocks[0, :, 0, :], blocks[0, :, 1, :], blocks[1, :, 0, :], blocks[1, :, 1, :]]
        ).reshape(4, db * db)
        self.rho_b = blocks[0, :, 0, :] + blocks[1, :, 1, :]
        self.s_b = von_neumann_entropy(marginal_b(rho))
        self.db = db

    def __call__(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        a = np.cos(thetas / 2.0)
        s = np.sin(thetas / 2.0)
        b = np.exp(1j * np.asarray(phis, dtype=np.float64)) * s
        coeff = np.empty((a.size, 4), dtype=np.complex128)
        coeff[:, 0] = a * a
        coeff[:, 1] = a * b
        coeff[:, 2] = a * b.conj()
        coeff[:, 3] = s * s
        m0 = (coeff @ self.kflat).reshape(-1, self.db, self.db)
        m1 = self.rho_b[None, :, :] - m0
        # p_y S(M_y / p_y) = p_y log2 p_y - sum_k w_k log2 w_k for eigenvalues w of M_y.
        total = np.zeros(m0.shape[0])
        for m in (m0, m1):
            if self.db == 2:
                d00 = m[:, 0, 0].real
                d11 = m[:, 1, 1].real
                p = d00 + d11
                gap = np.sqrt((d00 - d11) ** 2 + 4.0 * np.abs(m[:, 0, 1]) ** 2)
                w_sum = xlog2x((p + gap) / 2.0) + xlog2x(np.maximum((p - gap) / 2.0, 0.0))
            else:
                p = np.einsum("naa->n", m).real
                w_sum = xlog2x(np.maximum(np.linalg.eigvalsh(m), 0.0)).sum(axis=1)
            total += xlog2x(np.maximum(p, 0.0)) - w_sum
        return self.s_b - total


def classical_correlation(rho: DensityMatrix) -> DiscordResult:
    """Maximize the Holevo quantity over projective qubit measurements of A.

    Coarse GRID_POINTS x GRID_POINTS scan over theta in [0, pi], phi in
    [0, 2 pi), first maximum winning ties (theta-major scan order), then
    coordinate descent with halving steps down to ANGLE_RESOLUTION radians.
    Deterministic: no randomness, so repeated calls agree exactly.
    """
    objective = _HolevoObjective(rho)
    thetas = np.linspace(0.0, np.pi, GRID_POINTS)
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_POINTS, endpoint=False)
    grid_t = np.repeat(thetas, GRID_POINTS)
    grid_p = np.tile(phis, GRID_POINTS)
    values = objective(grid_t, grid_p)
    evals = values.size
    k = int(np.argmax(values))
    theta, phi, best = float(grid_t[k]), float(grid_p[k]), float(values[k])
    step = max(thetas[1] - thetas[0], phis[1] - phis[0])
    while step > ANGLE_RESOLUTION and evals < _MAX_EVALS:
        # Probe both the current step and the halved one per sweep; when
        # neither helps, the step can shrink by 4 at once.
        half = 0.5 * step
        cand_t = np.clip(
            [theta + step, theta - step, theta + half, theta - half, theta, theta, theta, theta],
            0.0,
            np.pi,
        )
        cand_p = np.mod(
            [phi, phi, phi, phi, phi + step, phi - step, phi + half, phi - half],
            2.0 * np.pi,
        )
        vals = objective(cand_t, cand_p)
        evals += vals.size
        j = int(np.argmax(vals))
        if vals[j] > best:
            theta, phi, best = float(cand_t[j]), float(cand_p[j]), float(vals[j])
        else:
            step *= 0.25
    j_a = holevo(rho, bloch_basis(theta, phi))
    evals += 1
    return DiscordResult(
        discord=mutual_information(rho) - j_a,
        classical_correlation=j_a,
        optimal_theta=theta,
        optimal_phi=phi,
        optimizer_evals=evals,
    )

"""Bipartite correlation measures: conditional entropy, mutual information,
Holevo quantity of a measurement, and quantum discord for qubit A.

The discord route follows the usual two-stage optimization of the classical
correlation J_A over rank-1 projective measurements of A: a coarse scan of
the Bloch sphere followed by local refinement. A qubit measurement is its
Bloch vector n, and n and -n give the same measurement, so the scan covers
one hemisphere; the refinement takes Newton steps in tangent-plane
coordinates at the current n, which no point of the sphere makes singular.
The optimum is reported as the angles of bloch_basis(theta, phi); for a
qubit that covers every rank-1 projective measurement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import shannon_entropy, von_neumann_entropy, xlog2x
from .errors import UnsupportedDimension
from .measurement import ObservableBasis, _assemble_joint, _conditional_blocks
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
    S(rho_YB) = H(p_Y) + sum_y p_y S(rho_B|y). It reads p_y = Tr M_y and rho_YB
    from the unnormalised blocks M_y that measure uses, and so builds no
    conditional state; shannon_entropy rejects p_y < -1e-12 as measure does.
    """
    cond = _conditional_blocks(rho, basis)
    return max(
        0.0,
        von_neumann_entropy(marginal_b(rho))
        + shannon_entropy(np.einsum("yaa->y", cond).real)
        - von_neumann_entropy(_assemble_joint(cond, basis, rho)),
    )


class _HolevoObjective:
    """Batched Holevo quantity over Bloch vectors n of shape (3, N), for dim_a == 2.

    Measuring A along +-n leaves the unnormalised B blocks
    M_+- = (rho_B +- sum_i n_i K_i) / 2 with K_i = Tr_A[(sigma_i (x) I) rho],
    so a whole batch reduces to one matrix product plus batched small
    eigenproblems, closed-form when dim_b == 2. evaluate_all also reads the
    traces and spectra of the blocks (_spectra) for its dephased entropies.
    """

    def __init__(self, rho: DensityMatrix, s_b: float):
        if rho.dim_a != 2:
            raise UnsupportedDimension(
                f"measurement optimization needs dim_a == 2, got {rho.dim_a}"
            )
        db = rho.dim_b
        blocks = rho.matrix.reshape(2, db, 2, db)
        up, down = blocks[0, :, 1, :], blocks[1, :, 0, :]
        # Column j holds the flattened block that coefficient j of (1, n_1, n_2, n_3) multiplies.
        k = 0.5 * np.stack(
            [
                blocks[0, :, 0, :] + blocks[1, :, 1, :],
                down + up,
                1j * (up - down),
                blocks[0, :, 0, :] - blocks[1, :, 1, :],
            ],
            axis=-1,
        ).reshape(db * db, 4)
        if db == 2:
            # Real rows M_00, M_11, Re M_01, Im M_01 suffice for the closed form.
            k = np.stack([k[0].real, k[3].real, k[1].real, k[1].imag])
        self.k = k
        self.s_b = s_b
        self.db = db

    def __call__(self, n: np.ndarray) -> np.ndarray:
        terms = xlog2x(self._spectra(n))
        # p_y S(M_y / p_y) = p_y log2 p_y - sum_k w_k log2 w_k for eigenvalues w of M_y.
        s_cond = terms[0] - terms[1:].sum(axis=0)
        size = n.shape[1]
        return self.s_b - (s_cond[:size] + s_cond[size:])

    def _spectra(self, n: np.ndarray) -> np.ndarray:
        """Row 0: p = Tr M; rows 1..dim_b: the eigenvalues of M.

        Column j < N is M_+ at column j of n, and column N + j is M_- there.
        """
        size = n.shape[1]
        coeffs = np.empty((4, 2 * size))
        coeffs[0] = 1.0
        coeffs[1:, :size] = n
        coeffs[1:, size:] = -n
        if self.db == 2:
            rows = self.k @ coeffs
            d00, d11, re, im = rows
            # Rows 0..2 are overwritten with p, (p + gap) / 2 and (p - gap) / 2.
            gap = np.sqrt((d00 - d11) ** 2 + 4.0 * (re * re + im * im))
            p = np.add(d00, d11, out=d00)
            np.add(p, gap, out=d11)
            np.subtract(p, gap, out=re)
            rows[1:3] *= 0.5
            return rows[:3]
        m = (coeffs.T @ self.k.T).reshape(-1, self.db, self.db)
        rows = np.empty((1 + self.db, m.shape[0]))
        rows[0] = np.einsum("naa->n", m).real
        rows[1:] = np.linalg.eigvalsh(m).T
        return rows


def _bloch(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    s = np.sin(thetas)
    return np.stack([s * np.cos(phis), s * np.sin(phis), np.cos(thetas)])


def _hemisphere_grid() -> np.ndarray:
    # The upper half of the GRID_POINTS x GRID_POINTS (theta, phi) grid: the
    # pole once, then theta_k = k pi / 63 for k = 1..31 at every phi. The map
    # (k, j) -> (63 - k, j + 32) sends the full grid onto itself and each point
    # to its antipode, and chi(n) = chi(-n), so this half sees every value.
    thetas = np.linspace(0.0, np.pi, GRID_POINTS)[1 : GRID_POINTS // 2]
    phis = np.linspace(0.0, 2.0 * np.pi, GRID_POINTS, endpoint=False)
    pole = np.array([[0.0], [0.0], [1.0]])
    return np.hstack([pole, _bloch(np.repeat(thetas, GRID_POINTS), np.tile(phis, thetas.size))])


_HEMISPHERE = _hemisphere_grid()
_GRID_SPACING = 2.0 * np.pi / GRID_POINTS
# Central-difference spacing in tangent coordinates: round-off in the Hessian
# (~eps / h^2) and truncation (~h^2) both stay near 1e-8.
_STENCIL_H = 1e-4
# (u, v) offsets of the 9-point stencil; the centre comes first.
_STENCIL = _STENCIL_H * np.array(
    [[0, 1, -1, 0, 0, 1, 1, -1, -1], [0, 0, 0, 1, -1, 1, -1, 1, -1]], dtype=np.float64
)


def _tangent_frame(n: np.ndarray) -> np.ndarray:
    """Rows n, e1, e2: an orthonormal frame with e1, e2 spanning the tangent plane at n.

    Branch-free construction of Duff et al., J. Comput. Graph. Tech. 6(1), 2017.
    """
    x, y, z = n.tolist()
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return np.array(
        [[x, y, z], [1.0 + sign * x * x * a, sign * b, -sign * x], [b, sign + y * y * a, -y]]
    )


def _chart(frame: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Points (n + u e1 + v e2) / |.| of the sphere for tangent coordinates uv of shape (2, N)."""
    points = frame[0][:, None] + frame[1:].T @ uv
    return points / np.sqrt((points * points).sum(axis=0))


def _newton_step(f: np.ndarray, radius: float) -> np.ndarray:
    """Ascent step in tangent coordinates from the 9 stencil values, at most `radius` long.

    Gradient and Hessian come from central differences; the Hessian is split
    into eigen-directions in closed form, and the Newton step is taken only
    along directions of negative curvature, where it points uphill.
    """
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = f.tolist()
    h = _STENCIL_H
    g1, g2 = (f1 - f2) / (2.0 * h), (f3 - f4) / (2.0 * h)
    h11 = (f1 - 2.0 * f0 + f2) / (h * h)
    h22 = (f3 - 2.0 * f0 + f4) / (h * h)
    h12 = (f5 - f6 - f7 + f8) / (4.0 * h * h)
    mean, half_gap = 0.5 * (h11 + h22), math.hypot(0.5 * (h11 - h22), h12)
    psi = 0.5 * math.atan2(2.0 * h12, h11 - h22)
    c, s = math.cos(psi), math.sin(psi)
    u = v = 0.0
    for curvature, qu, qv in ((mean + half_gap, c, s), (mean - half_gap, -s, c)):
        if curvature < 0.0:
            coef = -(g1 * qu + g2 * qv) / curvature
            u, v = u + coef * qu, v + coef * qv
    length = math.hypot(u, v)
    scale = radius / length if length > radius else 1.0
    return np.array([u * scale, v * scale])


def _maximize_holevo(objective: _HolevoObjective) -> tuple[float, np.ndarray, int]:
    """(max(0, best Holevo value), its Bloch vector, objective evaluations) for qubit A.

    The hemisphere grid picks the start, first maximum winning ties;
    safeguarded Newton steps then refine it in tangent-plane coordinates at
    the current point, so no direction is singular.
    """
    values = objective(_HEMISPHERE)
    evals = values.size
    frame = _tangent_frame(_HEMISPHERE[:, int(np.argmax(values))])
    f = objective(_chart(frame, _STENCIL))
    evals += f.size
    radius = _GRID_SPACING
    length = radius
    while length >= ANGLE_RESOLUTION and evals < _MAX_EVALS:
        # The step that falls below ANGLE_RESOLUTION is still tried: near a
        # kink of the objective (a rank-deficient block) Newton converges only
        # linearly, and that last step is worth up to 1e-11 in value.
        step = _newton_step(f, radius)
        length = math.hypot(*step)
        trial = _tangent_frame(_chart(frame, step[:, None])[:, 0])
        f_trial = objective(_chart(trial, _STENCIL))
        evals += f_trial.size
        if f_trial[0] > f[0]:
            frame, f = trial, f_trial
        else:
            radius = 0.25 * length
    return max(0.0, float(f[0])), frame[0], evals


def classical_correlation(rho: DensityMatrix) -> DiscordResult:
    """Maximize the Holevo quantity over projective qubit measurements of A.

    The search runs over Bloch vectors n and uses chi(n) = chi(-n). It scans
    the upper half of the GRID_POINTS x GRID_POINTS (theta, phi) grid, 1985
    points, and the first maximum wins ties, so a flat objective lands on the
    first grid point in theta-major order. Safeguarded Newton steps then
    refine that point, each from one 9-point central-difference stencil. A
    step follows only directions of negative curvature and is capped by a
    trust radius. The radius starts at the grid's phi spacing and shrinks to
    a quarter of any step that does not improve the value. The search stops
    after the first step shorter than ANGLE_RESOLUTION. J_A is the best value
    found, clamped at 0, and the discord is I(A:B) - J_A. Deterministic: no
    randomness, so repeated calls agree exactly.
    """
    s_b = von_neumann_entropy(marginal_b(rho))
    j_a, n, evals = _maximize_holevo(_HolevoObjective(rho, s_b))
    info = von_neumann_entropy(marginal_a(rho)) + s_b - von_neumann_entropy(rho)
    return DiscordResult(
        discord=info - j_a,
        classical_correlation=j_a,
        optimal_theta=float(np.arccos(np.clip(n[2], -1.0, 1.0))),
        optimal_phi=float(np.mod(np.arctan2(n[1], n[0]), 2.0 * np.pi)),
        optimizer_evals=evals,
    )

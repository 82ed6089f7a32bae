"""Bipartite correlation measures: conditional entropy, mutual information,
Holevo quantity of a measurement, and quantum discord for qubit A.

The discord route follows the usual two-stage optimization of the classical
correlation J_A over rank-1 projective measurements of A: a scan of the
Bloch sphere followed by local refinement. A qubit measurement is its Bloch
vector n, and n and -n give the same measurement, so the scan needs one
point of each antipodal pair; the refinement takes Newton steps in tangent-plane coordinates
at the current n, which no point of the sphere makes singular. With a qubit
memory the scan is a fine 1985-point grid and one refinement starts from its
best point; each step's gradient and Hessian are closed-form. With a larger
memory a 46-point icosahedral geodesic grid picks up to 4 of its local
maxima as starts; gradient and Hessian come from a 9-point central-difference
stencil, as they do next to a rank-deficient block. Every refinement takes
saddle-free Newton steps. The search maximises -S(B|Y_n) = chi(n) - S(B),
which needs no S(B); J_A adds it back. The optimum is reported as the angles
of bloch_basis(theta, phi); for a qubit that covers every rank-1 projective
measurement. The objective's blocks also give evaluate_all the spectra of
rho_A, rho_B and the two dephased states.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import shannon_entropy, von_neumann_entropy, xlog2x
from .errors import DimensionError, UnsupportedDimension
from .measurement import ObservableBasis, _assemble_joint, _conditional_blocks
from .states import DensityMatrix, marginal_a, marginal_b

GRID_POINTS = 64
ANGLE_RESOLUTION = 1e-6
_MAX_EVALS = 100_000
_LN2 = math.log(2.0)
# The closed-form local model is used only while both blocks' smaller
# eigenvalue is at least this. Its curvature carries terms (d lambda)^2 /
# (lambda ln 2), unbounded as a block loses rank, so toward a rank-deficient
# block (a kink of chi, as at the optimum of x_state(p)) exact Newton steps
# shrink with lambda and stall; the 9-point stencil, whose 1e-4 spacing spans
# the kink, takes those steps instead. With a floor of 1e-12 the search ended
# up to 2e-14 away from the stencil-only value on the x_state family and on
# classical-quantum states; at 1e-9 it agrees to 4e-15.
_SMOOTH_FLOOR = 1e-9


@dataclass(frozen=True)
class DiscordResult:
    """Classical correlation J_A, discord D_A = I(A:B) - J_A, and optimizer trace.

    optimizer_evals counts objective evaluations: the grid points, then one
    per closed-form local model and nine per stencil model. With dim_b == 2
    that is the 1985 points of the fine grid and about 4 more; with dim_b > 2
    the 46 points of the geodesic grid and nine per Newton step of each
    ascent, about 90 for a full-rank state and at most about 300 for a flat
    objective.
    """

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
    """Batched -S(B|Y_n) = chi(n) - S(B) over Bloch vectors n of shape (3, N), for dim_a == 2.

    Measuring A along +-n leaves the unnormalised B blocks
    M_+- = (rho_B +- sum_i n_i K_i) / 2 with K_i = Tr_A[(sigma_i (x) I) rho],
    so a whole batch reduces to one matrix product plus batched small
    eigenproblems, closed-form when dim_b == 2. This class is the one place
    that splits the state into B blocks: evaluate_all reads every spectrum of
    its report except rho_AB's from them (_report_rows), and with
    dim_b == 2 the optimiser's Newton steps read a closed-form local model
    (_local). The constant S(B) is left to the caller.
    """

    def __init__(self, rho: DensityMatrix):
        if rho.dim_a != 2:
            raise UnsupportedDimension(
                f"measurement optimization needs dim_a == 2, got {rho.dim_a}"
            )
        db = rho.dim_b
        # b_aa' is the B block of rho at A entry (a, a').
        (b00, b01), (b10, b11) = rho.matrix.reshape(2, db, 2, db).transpose(0, 2, 1, 3)
        # Row b * db + b' holds entry (b, b') of M_+ against the coefficients (1, n_1, n_2, n_3).
        k = 0.5 * np.array([b00 + b11, b10 + b01, 1j * (b01 - b10), b00 - b11]).reshape(4, db * db).T
        # Tr M_+ = P0 + P.n, with 2 P0 = Tr rho and 2 P the Bloch vector of rho_A.
        self._trace = tuple(k[:: db + 1].sum(axis=0).real.tolist())
        if db == 2:
            # One real affine map to the trace p and the gap vector
            # u = (M_00 - M_11, 2 Re M_01, 2 Im M_01), whose norm g sets the
            # eigenvalues (p +- g) / 2.
            k = np.array([self._trace, (k[0] - k[3]).real, 2.0 * k[1].real, 2.0 * k[1].imag])
            self._rows = k.tolist()
        self.k = k
        self.db = db

    def __call__(self, n: np.ndarray) -> np.ndarray:
        terms = xlog2x(self._spectra(n))
        # p_y S(M_y / p_y) = p_y log2 p_y - sum_k w_k log2 w_k for eigenvalues w of M_y.
        s_cond = terms[0] - terms[1:].sum(axis=0)
        size = n.shape[1]
        return -(s_cond[:size] + s_cond[size:])

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
            p, u0, u1, u2 = rows
            # Rows 1 and 2 are overwritten with (p + gap) / 2 and (p - gap) / 2.
            gap = np.sqrt(u0 * u0 + (u1 * u1 + u2 * u2))
            np.add(p, gap, out=u0)
            np.subtract(p, gap, out=u1)
            rows[1:3] *= 0.5
            return rows[:3]
        m = (coeffs.T @ self.k.T).reshape(-1, self.db, self.db)
        rows = np.empty((1 + self.db, m.shape[0]))
        rows[0] = np.einsum("naa->n", m).real
        rows[1:] = np.linalg.eigvalsh(m).T
        return rows

    def _report_rows(self, x: ObservableBasis, z: ObservableBasis) -> np.ndarray:
        """Rows: the spectra of rho_A, rho_B, rho_XB and rho_ZB, then p_X and p_Z.

        Each row is zero-padded to 2 dim_b. With n the Bloch vector of a
        basis's outcome-0 ket, the dephased state rho_YB is block diagonal
        with blocks M_+-(n) and p_Y is their traces; rho_B = 2 M_+(0), and
        rho_A has the eigenvalues P0 +- |P| of Tr M_+ = P0 + P.n. One
        _spectra call covers n = 0, n_X and n_Z.
        """
        db = self.db
        n = np.zeros((3, 3))
        n[:, 1], n[:, 2] = _outcome0_bloch(x), _outcome0_bloch(z)
        # Axes: row of _spectra, block M_+ or M_-, point n = 0, n_X or n_Z.
        cols = self._spectra(n).reshape(1 + db, 2, 3)
        rows = np.zeros((6, 2 * db))
        p0, px, py, pz = self._trace
        r = math.sqrt(px * px + py * py + pz * pz)
        rows[0, :2] = p0 + r, p0 - r
        rows[1, :db] = 2.0 * cols[1:, 0, 0]
        rows[2:4] = cols[1:, :, 1:].transpose(2, 0, 1).reshape(2, 2 * db)
        rows[4:, :2] = cols[0, :, 1:].T
        return rows

    def _local(self, frame) -> tuple[float, ...] | None:
        """(-S(B|Y_n), g1, g2, h11, h22, h12) at n = frame[0] in the coordinates of _chart(frame, .).

        For dim_b == 2 a block's trace p and gap vector u are affine in n, and
        its eigenvalues are (p +- |u|) / 2, so chi's Euclidean gradient and
        Hessian are closed-form. Along the sphere the second derivatives gain
        -(grad chi . n) on the diagonal. None when dim_b > 2 or a block's
        smaller eigenvalue is below _SMOOTH_FLOOR; the caller then differences.
        """
        if self.db != 2:
            return None
        (p0, px, py, pz), (w0, wx, wy, wz), (v0, vx, vy, vz), (t0, tx, ty, tz) = self._rows
        # Derivatives of p and of u along n, e1 and e2 for M_+; M_- negates them.
        dp0, dp1, dp2 = (px * x + py * y + pz * z for x, y, z in frame)
        (n0, n1, n2), (a0, a1, a2), (b0, b1, b2) = (
            (wx * x + wy * y + wz * z, vx * x + vy * y + vz * z, tx * x + ty * y + tz * z)
            for x, y, z in frame
        )
        # Second derivatives of |u|^2 / 2 along (e1, e1), (e2, e2), (e1, e2).
        uu11 = a0 * a0 + a1 * a1 + a2 * a2
        uu22 = b0 * b0 + b1 * b1 + b2 * b2
        uu12 = a0 * b0 + a1 * b1 + a2 * b2
        # f = sum over the blocks of p log2 p - hi log2 hi - lo log2 lo, the
        # conditional entropy S(B|Y_n), and its derivatives.
        f = fn = f1 = f2 = f11 = f22 = f12 = 0.0
        for s in (1.0, -1.0):
            p = p0 + s * dp0
            u0, u1, u2 = w0 + s * n0, v0 + s * n1, t0 + s * n2
            g = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
            hi, lo = 0.5 * (p + g), 0.5 * (p - g)
            if lo < _SMOOTH_FLOOR:
                return None
            log_p, log_hi, log_lo = math.log2(p), math.log2(hi), math.log2(lo)
            f += p * log_p - hi * log_hi - lo * log_lo
            # kappa = (log2 hi - log2 lo) / (2 g), which stays finite as g -> 0.
            kappa = math.atanh(g / p) / (g * _LN2) if g > 0.0 else 1.0 / (p * _LN2)
            mid = log_p - 0.5 * (log_hi + log_lo)
            # g times the derivative of g along n, e1, e2 (up to the sign s).
            ugn = u0 * n0 + u1 * n1 + u2 * n2
            ug1, ug2 = u0 * a0 + u1 * a1 + u2 * a2, u0 * b0 + u1 * b1 + u2 * b2
            fn += s * (dp0 * mid - kappa * ugn)
            f1 += s * (dp1 * mid - kappa * ug1)
            f2 += s * (dp2 * mid - kappa * ug2)
            dg1, dg2 = (ug1 / g, ug2 / g) if g > 0.0 else (0.0, 0.0)
            # Eigenvalue derivatives (dp +- dg) / 2; the sign s cancels in products.
            hi1, hi2 = 0.5 * (dp1 + dg1), 0.5 * (dp2 + dg2)
            lo1, lo2 = 0.5 * (dp1 - dg1), 0.5 * (dp2 - dg2)
            # (x log2 x)'' = 1 / (x ln 2)
            c_p, c_hi, c_lo = 1.0 / (p * _LN2), 1.0 / (hi * _LN2), 1.0 / (lo * _LN2)
            f11 += dp1 * dp1 * c_p - hi1 * hi1 * c_hi - lo1 * lo1 * c_lo - kappa * (uu11 - dg1 * dg1)
            f22 += dp2 * dp2 * c_p - hi2 * hi2 * c_hi - lo2 * lo2 * c_lo - kappa * (uu22 - dg2 * dg2)
            f12 += dp1 * dp2 * c_p - hi1 * hi2 * c_hi - lo1 * lo2 * c_lo - kappa * (uu12 - dg1 * dg2)
        return -f, -f1, -f2, fn - f11, fn - f22, -f12


def _outcome0_bloch(basis: ObservableBasis) -> tuple[float, float, float]:
    """Bloch vector (2 Re conj(a) b, 2 Im conj(a) b, |a|^2 - |b|^2) of the outcome-0 ket (a, b)."""
    if basis.dim != 2:
        raise DimensionError(f"basis dim {basis.dim} does not match dim_a 2")
    a, b = basis.vectors[:, 0].tolist()
    ab = a.conjugate() * b
    return 2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2


def _bloch(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    s = np.sin(thetas)
    return np.stack([s * np.cos(phis), s * np.sin(phis), np.cos(thetas)])


def _hemisphere_grid(rows: int) -> np.ndarray:
    # The upper half of the rows x rows (theta, phi) grid: the pole once, then
    # theta_k = k pi / (rows - 1) for k = 1..rows / 2 - 1 at every phi. For even
    # rows the map (k, j) -> (rows - 1 - k, j + rows / 2) sends the full grid
    # onto itself and each point to its antipode, and chi(n) = chi(-n), so this
    # half sees every value.
    thetas = np.linspace(0.0, np.pi, rows)[1 : rows // 2]
    phis = np.linspace(0.0, 2.0 * np.pi, rows, endpoint=False)
    pole = np.array([[0.0], [0.0], [1.0]])
    return np.hstack([pole, _bloch(np.repeat(thetas, rows), np.tile(phis, thetas.size))])


_HEMISPHERE = _hemisphere_grid(GRID_POINTS)
_GRID_SPACING = 2.0 * np.pi / GRID_POINTS
# With dim_b > 2 the search starts from the 46 points of the geodesic grid,
# and a point is a start when no one of its _NEIGHBOURS nearest grid points is
# larger. An ascent from a start begins with a trust radius of 2 pi / 16,
# about the 20 to 24 degrees between neighbouring grid points.
_COARSE_SPACING = 2.0 * np.pi / 16
_NEIGHBOURS = 8
# At most this many starts, the largest first: a flat objective makes every
# coarse point a local maximum.
_MAX_STARTS = 4


def _geodesic_grid() -> np.ndarray:
    """The frequency-3 icosahedral geodesic grid, one point of each antipodal pair: shape (3, 46).

    Every face of the icosahedron with vertices (0, +-1, +-g), g the golden
    ratio, and their cyclic shifts gets the points (a u + b v + c w) / 3 with
    a + b + c = 3, projected onto the sphere: 92 points, and every direction
    lies within 13.7 degrees of one of them or of its antipode. A point is
    kept unless an earlier one equals it or its antipode.
    """
    g = 0.5 * (1.0 + math.sqrt(5.0))
    base = np.array([[0.0, 1.0, g], [0.0, 1.0, -g], [0.0, -1.0, g], [0.0, -1.0, -g]])
    vertices = np.vstack([np.roll(base, shift, axis=1) for shift in range(3)])
    # Vertices joined by an edge have the inner product g.
    edge = np.triu(np.abs(vertices @ vertices.T - g) < 1e-9, 1)
    faces = np.argwhere(edge[:, :, None] & edge[None, :, :] & edge[:, None, :])
    weights = np.array([(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]) / 3.0
    points = (weights @ vertices[faces]).reshape(-1, 3)
    points /= np.sqrt((points * points).sum(axis=1))[:, None]
    # The first point that equals each point or its antipode, in scan order.
    first = np.argmax(np.abs(points @ points.T) > 1.0 - 1e-9, axis=0)
    return points[first == np.arange(first.size)].T


@functools.cache
def _coarse_grid() -> tuple[np.ndarray, np.ndarray]:
    """The 46-point geodesic grid and, per point, its _NEIGHBOURS nearest.

    Nearness is |n . m|, so a neighbour across the equator is found through its
    antipode. Rounding |n . m| to 12 digits makes distances that are equal on
    the exact grid equal here, and equal distances go to the first point in
    scan order. Shapes (3, 46) and (46, _NEIGHBOURS), both read-only. Built
    on the first search with dim_b > 2, not at import.
    """
    grid = _geodesic_grid()
    near = np.round(np.abs(grid.T @ grid), 12)
    np.fill_diagonal(near, -1.0)
    neighbours = np.argsort(-near, axis=1, kind="stable")[:, :_NEIGHBOURS]
    grid.flags.writeable = neighbours.flags.writeable = False
    return grid, neighbours


# Central-difference spacing in tangent coordinates: round-off in the Hessian
# (~eps / h^2) and truncation (~h^2) both stay near 1e-8.
_STENCIL_H = 1e-4
# (u, v) offsets of the 9-point stencil; the centre comes first.
_STENCIL = _STENCIL_H * np.array(
    [[0, 1, -1, 0, 0, 1, 1, -1, -1], [0, 0, 0, 1, -1, 1, -1, 1, -1]], dtype=np.float64
)


def _tangent_frame(x: float, y: float, z: float) -> tuple[tuple[float, float, float], ...]:
    """Rows n, e1, e2: an orthonormal frame with e1, e2 spanning the tangent plane at n = (x, y, z).

    Branch-free construction of Duff et al., J. Comput. Graph. Tech. 6(1), 2017.
    """
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return (x, y, z), (1.0 + sign * x * x * a, sign * b, -sign * x), (b, sign + y * y * a, -y)


def _chart(frame, uv: np.ndarray) -> np.ndarray:
    """Points (n + u e1 + v e2) / |.| of the sphere for tangent coordinates uv of shape (2, N)."""
    frame = np.asarray(frame)
    points = frame[0][:, None] + frame[1:].T @ uv
    return points / np.sqrt((points * points).sum(axis=0))


def _moved(frame, u: float, v: float) -> tuple[tuple[float, float, float], ...]:
    """The tangent frame at _chart(frame, (u, v)), in plain floats."""
    (nx, ny, nz), (ax, ay, az), (bx, by, bz) = frame
    x, y, z = nx + u * ax + v * bx, ny + u * ay + v * by, nz + u * az + v * bz
    norm = math.sqrt(x * x + y * y + z * z)
    return _tangent_frame(x / norm, y / norm, z / norm)


def _stencil_model(objective: _HolevoObjective, frame) -> tuple[float, ...]:
    """(value, g1, g2, h11, h22, h12) at frame[0] by central differences on the 9-point stencil."""
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = objective(_chart(frame, _STENCIL)).tolist()
    h = _STENCIL_H
    return (
        f0,
        (f1 - f2) / (2.0 * h),
        (f3 - f4) / (2.0 * h),
        (f1 - 2.0 * f0 + f2) / (h * h),
        (f3 - 2.0 * f0 + f4) / (h * h),
        (f5 - f6 - f7 + f8) / (4.0 * h * h),
    )


def _model(objective: _HolevoObjective, frame) -> tuple[tuple[float, ...], int]:
    """The local model at frame[0] and the objective evaluations it took.

    The closed form costs one evaluation; where it does not apply the stencil costs nine.
    """
    local = objective._local(frame)
    if local is not None:
        return local, 1
    return _stencil_model(objective, frame), _STENCIL.shape[1]


def _newton_step(model: tuple[float, ...], radius: float) -> tuple[float, float]:
    """Ascent step (u, v) in tangent coordinates from the model (value, g1, g2, h11, h22, h12).

    The Hessian is split into eigen-directions in closed form. Along a
    direction of negative curvature the step is Newton's, which points
    uphill. Along one of positive curvature Newton's step points downhill,
    so the step goes as far uphill instead (the saddle-free Newton step of
    Dauphin et al., NIPS 2014): an ascent that starts on a ridge outside the
    concave cap of a maximum still climbs. The step is at most `radius` long.
    """
    _, g1, g2, h11, h22, h12 = model
    mean, half_gap = 0.5 * (h11 + h22), math.hypot(0.5 * (h11 - h22), h12)
    psi = 0.5 * math.atan2(2.0 * h12, h11 - h22)
    c, s = math.cos(psi), math.sin(psi)
    u = v = 0.0
    for curvature, qu, qv in ((mean + half_gap, c, s), (mean - half_gap, -s, c)):
        if curvature != 0.0:
            coef = (g1 * qu + g2 * qv) / abs(curvature)
            u, v = u + coef * qu, v + coef * qv
    length = math.hypot(u, v)
    scale = radius / length if length > radius else 1.0
    return u * scale, v * scale


def _refine(
    objective: _HolevoObjective, frame, radius: float, evals: int
) -> tuple[float, np.ndarray, int]:
    """(best value, its Bloch vector, evals plus the evaluations made) of a Newton ascent from frame[0].

    Safeguarded saddle-free Newton steps in tangent-plane coordinates at the
    current point, so no direction is singular. The trust radius starts at
    `radius`; the ascent stops after the first step shorter than
    ANGLE_RESOLUTION, or once evals reaches _MAX_EVALS.
    """
    model, cost = _model(objective, frame)
    evals += cost
    length = radius
    while length >= ANGLE_RESOLUTION and evals < _MAX_EVALS:
        # The step that falls below ANGLE_RESOLUTION is still tried: near a
        # kink of the objective (a rank-deficient block) Newton converges only
        # linearly, and that last step is worth up to 1e-11 in value.
        u, v = _newton_step(model, radius)
        length = math.hypot(u, v)
        trial = _moved(frame, u, v)
        trial_model, cost = _model(objective, trial)
        evals += cost
        if trial_model[0] > model[0]:
            frame, model = trial, trial_model
        else:
            radius = 0.25 * length
    return model[0], np.array(frame[0]), evals


def _maximize_holevo(objective: _HolevoObjective, s_b: float) -> tuple[float, np.ndarray, int]:
    """(J_A, its Bloch vector, objective evaluations) for qubit A, given s_b = S(B).

    The search maximises the objective, -S(B|Y_n); J_A is max(0, s_b + best).
    With dim_b <= 2 one ascent starts from the first maximum of the 1985-point
    hemisphere grid. With dim_b > 2 the 46-point geodesic grid picks the
    starts: every point no smaller than its _NEIGHBOURS nearest, at most the
    _MAX_STARTS largest of them, ties going to the first in scan order. An
    ascent runs from each start in scan order, and the first best result wins.
    """
    if objective.db <= 2:
        grid, radius = _HEMISPHERE, _GRID_SPACING
        values = objective(grid)
        starts = [int(np.argmax(values))]
    else:
        (grid, neighbours), radius = _coarse_grid(), _COARSE_SPACING
        values = objective(grid)
        peaks = np.flatnonzero(np.all(values[:, None] >= values[neighbours], axis=1))
        starts = np.sort(peaks[np.argsort(-values[peaks], kind="stable")[:_MAX_STARTS]]).tolist()
    evals = values.size
    best = -math.inf
    for index in starts:
        frame = _tangent_frame(*grid[:, index].tolist())
        value, point, evals = _refine(objective, frame, radius, evals)
        if value > best:
            best, n = value, point
    return max(0.0, s_b + best), n, evals


def classical_correlation(rho: DensityMatrix) -> DiscordResult:
    """Maximize the Holevo quantity over projective qubit measurements of A.

    The search runs over Bloch vectors n and uses chi(n) = chi(-n), so a
    grid holds one point of each antipodal pair.

    * dim_b <= 2: it scans the upper half of the GRID_POINTS = 64 row
      (theta, phi) grid, 1985 points, and the first maximum wins ties, so a
      flat objective lands on the first grid point in theta-major order. One
      ascent refines that point.
    * dim_b > 2: it scans the frequency-3 icosahedral geodesic grid, 46
      nearly uniform points, each direction within 13.7 degrees of one. A
      start is a point no smaller than its 8 nearest grid points, antipodes
      identified. Flat objectives make every point a start, so only the 4
      largest are kept, ties going to the first in scan order. An ascent
      runs from each, and the first best result wins.

    An ascent takes safeguarded saddle-free Newton steps: along a direction
    of negative curvature a step is Newton's, along one of positive
    curvature it climbs by |slope| / curvature. Each step reads the gradient
    and Hessian in closed form when dim_b == 2 and both measurement blocks
    keep their smaller eigenvalue at or above _SMOOTH_FLOOR; otherwise it
    takes them from one 9-point central-difference stencil. A trust radius
    caps the step: it starts at the fine grid's phi spacing, or at 2 pi / 16
    from a geodesic start, and shrinks to a quarter of any step that does
    not improve the value. An ascent stops after the first step shorter than
    ANGLE_RESOLUTION. J_A is the best value found, clamped at 0, and the
    discord is I(A:B) - J_A. Deterministic: no randomness, so repeated calls
    agree exactly.
    """
    s_b = von_neumann_entropy(marginal_b(rho))
    j_a, n, evals = _maximize_holevo(_HolevoObjective(rho), s_b)
    info = von_neumann_entropy(marginal_a(rho)) + s_b - von_neumann_entropy(rho)
    return DiscordResult(
        discord=info - j_a,
        classical_correlation=j_a,
        optimal_theta=float(np.arccos(np.clip(n[2], -1.0, 1.0))),
        optimal_phi=float(np.mod(np.arctan2(n[1], n[0]), 2.0 * np.pi)),
        optimizer_evals=evals,
    )

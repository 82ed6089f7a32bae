"""Bipartite correlation measures: conditional entropy, mutual information,
Holevo quantity of a measurement, and quantum discord for qubit A.

The discord route follows the usual two-stage optimization of the classical
correlation J_A over rank-1 projective measurements of A: a scan of the
Bloch sphere followed by local refinement. A qubit measurement is its Bloch
vector n, and n and -n give the same measurement, so the scan needs one
point of each antipodal pair; the refinement takes Newton steps in tangent-plane coordinates
at the current n, which no point of the sphere makes singular. The scan is
a 46-point icosahedral geodesic grid, and up to 4 of its local maxima start
an ascent. Each trial's value is closed-form, and so are the gradient and
Hessian at a point the ascent steps from: with a qubit memory from the
blocks' traces and gaps, with a larger one from one eigendecomposition of
both blocks. Next to a rank-deficient block a trial takes a 9-point
central-difference stencil instead. Every refinement takes saddle-free
Newton steps. The search maximises -S(B|Y_n) = chi(n) - S(B), which needs
no S(B); J_A adds it back. The optimum is reported as the angles
of bloch_basis(theta, phi); for a qubit that covers every rank-1 projective
measurement. The objective's blocks also give evaluate_all the spectra of
rho_A, rho_B and the two dephased states, in the same batched call as the
grid's values: _report_scalars turns them into the entropies and J_A that
every report field is a formula over, for one state or for a figure
sweep's stack of states in one call. The starts are picked once per stack
(_starts), and the ascents run per state on Python floats
(_maximize_holevo).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .entropy import SUPPORT_CUT, _entropies, _spectrum_entropy, von_neumann_entropy, xlog2x
from .errors import DimensionError, UnsupportedDimension
from .measurement import ObservableBasis, _dephasing
from .states import DensityMatrix, _state_spectra, marginal_a, marginal_b

ANGLE_RESOLUTION = 1e-6
_MAX_EVALS = 100_000
_LN2 = math.log(2.0)
# The closed-form local model, for every dim_b, is used only while both
# blocks' smallest eigenvalue is at least this. Its curvature carries terms
# (d lambda)^2 / (lambda ln 2), unbounded as a block loses rank, so toward a
# rank-deficient block (a kink of chi, as at the optimum of x_state(p)) exact
# Newton steps shrink with lambda and stall; the 9-point stencil, whose 1e-4
# spacing spans the kink, takes those steps instead. With a floor of 1e-12
# the 2x2 search ended up to 2e-14 away from the stencil-only value on the
# x_state family and on classical-quantum states; at 1e-9 it agrees to
# 4e-15, and to 1.4e-15 on random 2x3, 2x4 and 2x8 states.
_SMOOTH_FLOOR = 1e-9


@dataclass(frozen=True)
class DiscordResult:
    """Classical correlation J_A, discord D_A = I(A:B) - J_A, and optimizer trace.

    optimizer_evals counts objective evaluations: the 46 points of the
    geodesic grid, then per point an ascent tries one for the closed-form
    model or nine for the 9-point stencil. An ascent stops once its local
    model predicts no gain above the value's rounding, so a flat objective
    takes 47: the grid and the start. README.md's table of objective
    evaluations gives the counts per class of state, as
    scripts/count_evaluations.py prints them.
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
    S(rho_YB) = H(p_Y) + sum_y p_y S(rho_B|y). rho_YB and p_y = Tr M_y, from one
    build of the unnormalised blocks M_y, are what rho keeps for the basis
    object, along with H(p_Y); dephase and measure return the same rho_YB and
    p_Y. So a repeat call builds nothing and unilateral_coherence reads the
    same S(rho_YB). No conditional state is built; shannon_entropy rejects
    p_y < -SUPPORT_CUT as measure does. S(rho_YB) is read before H(p_Y), so a
    state whose dephased spectrum is not a distribution raises that error
    first.
    """
    kept = _dephasing(rho, basis)
    s_yb = von_neumann_entropy(kept.state)
    return max(0.0, von_neumann_entropy(marginal_b(rho)) + kept.outcome_entropy - s_yb)


class _HolevoObjective:
    """Batched -S(B|Y_n) = chi(n) - S(B) over Bloch vectors n of shape (3, N), for dim_a == 2.

    Measuring A along +-n leaves the unnormalised B blocks
    M_+- = (rho_B +- sum_i n_i K_i) / 2 with K_i = Tr_A[(sigma_i (x) I) rho],
    so a whole batch reduces to one matrix product plus batched small
    eigenproblems. This class splits the state into B blocks for the report
    and the search; measurement._conditional_blocks splits it for the
    reference path (dephase, holevo, measure). A report reads it through
    _report_scalars: one batched _block_spectra call, over the objectives of
    a whole stack of states, gives every spectrum of each report except
    rho_AB's and, if the reports search, the values on the search's grid.
    _block_spectra is a static method of the model, so a stack of one state
    takes the same call. classical_correlation makes it over the same scan
    columns, and calling the objective on a batch of points makes it over
    that batch's _coefficients. The optimiser reads each trial's value from
    a value pass (_value_pass) and the Newton steps' local model from a
    derivative pass over its terms (_derivative_pass). The constant S(B) is
    left to the caller.

    The class holds the model for any dim_b: M_+ as a real affine map of
    (1, n) (_planes), the blocks' spectra from eigvalsh, and both passes
    from one eigh of the two blocks. Building it for a qubit memory gives
    _QubitMemoryObjective, the same objective in closed form on Python
    floats, which overrides only the set-up, _block_spectra and the two
    passes. The model is chosen once, in __new__.
    """

    def __new__(cls, rho: DensityMatrix):
        if rho.dim_a != 2:
            raise UnsupportedDimension(f"measurement optimization needs dim_a == 2, got {rho.dim_a}")
        return super().__new__(_QubitMemoryObjective if cls is _HolevoObjective and rho.dim_b == 2 else cls)

    def __init__(self, rho: DensityMatrix):
        db = rho.dim_b
        # b_aa' is the B block of rho at A entry (a, a').
        (b00, b01), (b10, b11) = rho.matrix.reshape(2, db, 2, db).transpose(0, 2, 1, 3)
        # Row b * db + b' holds entry (b, b') of M_+ against the coefficients (1, n_1, n_2, n_3).
        k = 0.5 * np.array([b00 + b11, b10 + b01, 1j * (b01 - b10), b00 - b11]).reshape(4, db * db).T
        # _trace: Tr M_+ = P0 + P.n, with 2 P0 = Tr rho and 2 P the Bloch vector of rho_A.
        self._trace = tuple(k[:: db + 1].sum(axis=0).real.tolist())
        # Row j is column j of k with real and imaginary parts interleaved, so
        # (1, n) @ _planes, viewed as complex, is M_+ at n.
        self._planes = np.ascontiguousarray(k.T).view(np.float64)
        self.db = db

    def __call__(self, n: np.ndarray) -> np.ndarray:
        return self._values(self._block_spectra([self], _coefficients(n))[0])

    @staticmethod
    def _values(spectra: np.ndarray) -> np.ndarray:
        """The objective at the N points whose 2 N columns of _block_spectra rows are given, for one state or a stack."""
        terms = xlog2x(spectra)
        # p_y S(M_y / p_y) = p_y log2 p_y - sum_k w_k log2 w_k for eigenvalues w of M_y.
        s_cond = terms[..., 0, :] - terms[..., 1:, :].sum(axis=-2)
        size = spectra.shape[-1] // 2
        return -(s_cond[..., :size] + s_cond[..., size:])

    @staticmethod
    def _block_spectra(objectives: list[_HolevoObjective], coeffs: np.ndarray) -> np.ndarray:
        """Per objective, row 0: p = Tr M; rows 1..: the eigenvalues of M, for the blocks M = (1, n) @ _planes.

        One block per column (1, n) of coeffs, as _coefficients lays them
        out: shape (len(objectives), 1 + db, columns). Every objective has
        the same model (one dim_b). One product per objective's planes, in
        one batched matmul, and one eigvalsh over every block of the stack;
        each objective's rows have the bits of a call over it alone.
        """
        db = objectives[0].db
        planes = np.array([objective._planes for objective in objectives])
        m = (coeffs.T @ planes).view(np.complex128).reshape(-1, db, db)
        rows = np.empty((len(objectives), 1 + db, coeffs.shape[1]))
        rows[:, 0] = np.einsum("naa->n", m).real.reshape(len(objectives), -1)
        rows[:, 1:] = np.linalg.eigvalsh(m).reshape(len(objectives), -1, db).transpose(0, 2, 1)
        return rows

    def _value_pass(self, n) -> tuple[float, tuple] | None:
        """(-S(B|Y_n), the blocks' terms) at the unit vector n; None next to a rank-deficient block.

        One eigh of the stacked blocks M_+ and M_-. The terms, which
        _derivative_pass reads, are the eigenvalues w (ascending, one row per
        block), the eigenvectors v, log2 w, the traces p_+ and p_-, and
        log2 p_+ - log2 p_-. None when a block's smallest eigenvalue is below
        _SMOOTH_FLOOR; the caller then differences.
        """
        x, y, z = n
        db = self.db
        blocks = (np.array([(1.0, x, y, z), (1.0, -x, -y, -z)]) @ self._planes).view(np.complex128)
        w, v = np.linalg.eigh(blocks.reshape(2, db, db))
        if w[0, 0] < _SMOOTH_FLOOR or w[1, 0] < _SMOOTH_FLOOR:
            return None
        p0, px, py, pz = self._trace
        dp0 = px * x + py * y + pz * z
        p_plus, p_minus = p0 + dp0, p0 - dp0
        log_plus, log_minus = math.log2(p_plus), math.log2(p_minus)
        logs = np.log2(w)
        value = float((w * logs).sum()) - (p_plus * log_plus + p_minus * log_minus)
        return value, (w, v, logs, p_plus, p_minus, log_plus - log_minus)

    def _derivative_pass(self, frame, local: tuple[float, tuple]) -> tuple[float, ...]:
        """(-S(B|Y_n), g1, g2, h11, h22, h12) at n = frame[0] in the coordinates of _chart(frame, .).

        `local` is _value_pass(frame[0]), whose value, eigenvalues and
        eigenvectors are read, not recomputed. Along a direction d, M_+ moves
        by D = sum_i d_i K_i / 2 and M_- by -D; A = V^H D V in a block's
        eigenbasis, and its trace dp moves p. f = S(B|Y_n) sums
        p log2 p - tr M log2 M over the blocks. A block's slope is
        dp log2 p - sum_i log2 w_i A_ii (the 1 / ln 2 terms cancel), and its
        second derivative along d1, d2 is
        dp1 dp2 / (p ln 2) - sum_ij G_ij Re(A1_ij conj(A2_ij)), where
        G_ij = (log2 w_i - log2 w_j) / (w_i - w_j) is the Daleckii-Krein
        divided difference, 2 / ((w_i + w_j) ln 2) on ties. It is evaluated as
        2 atanh(t) / (t (w_i + w_j) ln 2) with t = |w_i - w_j| / (w_i + w_j),
        which loses no digits to near ties. Along the sphere the second
        derivatives gain -(grad chi . n) on the diagonal.
        """
        value, (w, v, logs, p_plus, p_minus, log_ratio) = local
        db = self.db
        # a[k, s] = V_s^H D V_s for D along frame row k (n, e1, e2) and block s (M_+, M_-).
        d = (np.array(frame) @ self._planes[1:]).view(np.complex128).reshape(3, 1, db, db)
        a = v.conj().transpose(0, 2, 1) @ d @ v
        slopes = (np.diagonal(a, 0, 2, 3).real * logs).sum(axis=2).tolist()
        _, px, py, pz = self._trace
        dp = [px * x + py * y + pz * z for x, y, z in frame]
        # M_- moves by -D, so its slope enters with the opposite sign.
        fn, f1, f2 = (dp_k * log_ratio - (plus - minus) for dp_k, (plus, minus) in zip(dp, slopes))
        wi, wj = w[:, :, None], w[:, None, :]
        total = wi + wj
        t = np.maximum(np.abs(wi - wj) / total, 1e-300)
        gamma = np.arctanh(t) / (t * total)
        # Re(A1_ij conj(A2_ij)) summed over i, j and the blocks is a dot product of real views.
        e = a[1:].view(np.float64).reshape(2, 2, db, db, 2)
        weighted = (e * gamma[:, :, :, None]).reshape(2, -1)
        (q11, q12), (_, q22) = (weighted @ e.reshape(2, -1).T * (2.0 / _LN2)).tolist()
        c = (1.0 / p_plus + 1.0 / p_minus) / _LN2
        _, dp1, dp2 = dp
        f11 = dp1 * dp1 * c - q11
        f22 = dp2 * dp2 * c - q22
        f12 = dp1 * dp2 * c - q12
        return value, -f1, -f2, fn - f11, fn - f22, -f12


class _QubitMemoryObjective(_HolevoObjective):
    """_HolevoObjective for dim_b == 2, in closed form on Python floats.

    A block's eigenvalues are (p +- g) / 2 for its trace p and the norm g of
    its gap vector u = (M_00 - M_11, 2 Re M_01, 2 Im M_01), both affine in n.
    """

    def __init__(self, rho: DensityMatrix):
        # _HolevoObjective's numpy build on Python floats, the same operations in the same
        # order, for entries (0, 0), (1, 1) and (0, 1) of M_+; b_aa'[b, b'] = m[2a + b][2a' + b'].
        # Written out: a comprehension's frame costs the 2x2 report more than its arithmetic.
        (m00, m01, m02, m03), (_, m11, _, m13), (m20, m21, m22, m23), (_, m31, _, m33) = rho.matrix.tolist()
        a0, a1, a2, a3 = 0.5 * (m00 + m22), 0.5 * (m20 + m02), 0.5 * (1j * (m02 - m20)), 0.5 * (m00 - m22)
        b0, b1, b2, b3 = 0.5 * (m11 + m33), 0.5 * (m31 + m13), 0.5 * (1j * (m13 - m31)), 0.5 * (m11 - m33)
        c0, c1, c2, c3 = 0.5 * (m01 + m23), 0.5 * (m21 + m03), 0.5 * (1j * (m03 - m21)), 0.5 * (m01 - m23)
        self._trace = ((a0 + b0).real, (a1 + b1).real, (a2 + b2).real, (a3 + b3).real)
        # One real affine map to the trace p and the gap vector u, whose norm
        # g sets the eigenvalues (p +- g) / 2.
        self._rows = (
            self._trace,
            ((a0 - b0).real, (a1 - b1).real, (a2 - b2).real, (a3 - b3).real),
            (2.0 * c0.real, 2.0 * c1.real, 2.0 * c2.real, 2.0 * c3.real),
            (2.0 * c0.imag, 2.0 * c1.imag, 2.0 * c2.imag, 2.0 * c3.imag),
        )
        self.db = 2

    @staticmethod
    def _block_spectra(objectives: list[_HolevoObjective], coeffs: np.ndarray) -> np.ndarray:
        # One 4x4 map per objective, from its _rows, applied in one batched matmul.
        rows = np.array([objective._rows for objective in objectives]) @ coeffs
        p, u0, u1, u2 = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        # Rows 1 and 2 are overwritten with (p + gap) / 2 and (p - gap) / 2.
        gap = np.sqrt(u0 * u0 + (u1 * u1 + u2 * u2))
        np.add(p, gap, out=u0)
        np.subtract(p, gap, out=u1)
        rows[:, 1:3] *= 0.5
        return rows[:, :3]

    def _value_pass(self, n) -> tuple[float, tuple] | None:
        """_HolevoObjective._value_pass in closed form.

        A block's trace p and gap vector u are affine in n, and its
        eigenvalues are hi, lo = (p +- g) / 2 with g = |u|. The terms, which
        _derivative_pass reads, are the derivatives of p and of u along n for
        M_+ (M_- negates them), then per block M_+ and M_- the tuple
        (p, u, g, hi, lo, log2 p, log2 hi, log2 lo).
        """
        (p0, px, py, pz), (w0, wx, wy, wz), (v0, vx, vy, vz), (t0, tx, ty, tz) = self._rows
        x, y, z = n
        dp0 = px * x + py * y + pz * z
        n0, n1, n2 = wx * x + wy * y + wz * z, vx * x + vy * y + vz * z, tx * x + ty * y + tz * z
        # f = sum over the blocks of p log2 p - hi log2 hi - lo log2 lo, the
        # conditional entropy S(B|Y_n).
        f = 0.0
        blocks = []
        for s in (1.0, -1.0):
            p = p0 + s * dp0
            u0, u1, u2 = w0 + s * n0, v0 + s * n1, t0 + s * n2
            g = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
            hi, lo = 0.5 * (p + g), 0.5 * (p - g)
            if lo < _SMOOTH_FLOOR:
                return None
            log_p, log_hi, log_lo = math.log2(p), math.log2(hi), math.log2(lo)
            f += p * log_p - hi * log_hi - lo * log_lo
            blocks.append((p, u0, u1, u2, g, hi, lo, log_p, log_hi, log_lo))
        return -f, (dp0, n0, n1, n2, blocks)

    def _derivative_pass(self, frame, local: tuple[float, tuple]) -> tuple[float, ...]:
        """_HolevoObjective._derivative_pass in closed form.

        `local` is _value_pass(frame[0]), whose value and block terms are read,
        not recomputed. chi's Euclidean gradient and Hessian are closed-form;
        along the sphere the second derivatives gain -(grad chi . n) on the
        diagonal.
        """
        value, (dp0, n0, n1, n2, blocks) = local
        (_, px, py, pz), (_, wx, wy, wz), (_, vx, vy, vz), (_, tx, ty, tz) = self._rows
        _, (x1, y1, z1), (x2, y2, z2) = frame
        # Derivatives of p and of u along e1 and e2 for M_+; M_- negates them.
        dp1, dp2 = px * x1 + py * y1 + pz * z1, px * x2 + py * y2 + pz * z2
        a0, a1, a2 = wx * x1 + wy * y1 + wz * z1, vx * x1 + vy * y1 + vz * z1, tx * x1 + ty * y1 + tz * z1
        b0, b1, b2 = wx * x2 + wy * y2 + wz * z2, vx * x2 + vy * y2 + vz * z2, tx * x2 + ty * y2 + tz * z2
        # Second derivatives of |u|^2 / 2 along (e1, e1), (e2, e2), (e1, e2).
        uu11 = a0 * a0 + a1 * a1 + a2 * a2
        uu22 = b0 * b0 + b1 * b1 + b2 * b2
        uu12 = a0 * b0 + a1 * b1 + a2 * b2
        # The derivatives of f = S(B|Y_n), block by block.
        fn = f1 = f2 = f11 = f22 = f12 = 0.0
        for s, (p, u0, u1, u2, g, hi, lo, log_p, log_hi, log_lo) in zip((1.0, -1.0), blocks):
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
        return value, -f1, -f2, fn - f11, fn - f22, -f12


def _coefficients(n: np.ndarray) -> np.ndarray:
    """The columns (1, n) and (1, -n) of the blocks M_+ and M_- at the N columns of n, shape (4, 2 N).

    Column j < N is M_+ at column j of n, and column N + j is M_- there.
    """
    size = n.shape[1]
    coeffs = np.empty((4, 2 * size))
    coeffs[0] = 1.0
    coeffs[1:, :size] = n
    coeffs[1:, size:] = -n
    return coeffs


@cache
def _scan_coefficients(search: bool) -> np.ndarray:
    """_coefficients of the scan, n = 0, n_X, n_Z and with `search` the grid, with n_X = n_Z = 0.

    Read-only, built once per flag. _report_scalars copies it and writes
    n_X and n_Z into its columns 1 and 2 of each half; classical_correlation
    reads it as it is, so both routes to J_A scan the same columns.
    """
    points = _geodesic_grid()[0] if search else np.empty((3, 0))
    n = np.zeros((3, 3 + points.shape[1]))
    n[:, 3:] = points
    coeffs = _coefficients(n)
    coeffs.flags.writeable = False
    return coeffs


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


# The search starts from the points of the geodesic grid that are no smaller
# than any of their _NEIGHBOURS nearest grid points. An ascent from a start
# begins with a trust radius of 2 pi / 16, about the 20 to 24 degrees between
# neighbouring grid points.
_START_RADIUS = 2.0 * np.pi / 16
_NEIGHBOURS = 8
# At most this many starts, the largest first. Peaks of equal value start
# once, so the cap acts only on a nearly flat objective, whose many peaks can
# differ beyond the 12th digit.
_MAX_STARTS = 4


@cache
def _geodesic_grid() -> tuple[np.ndarray, np.ndarray, tuple]:
    """The frequency-3 icosahedral geodesic grid, its _NEIGHBOURS nearest per point, and its tangent frames.

    Every face of the icosahedron with vertices (0, +-1, +-g), g the golden
    ratio, and their cyclic shifts gets the points (a u + b v + c w) / 3 with
    a + b + c = 3, projected onto the sphere: 92 points, and every direction
    lies within 13.7 degrees of one of them or of its antipode. A point is
    kept unless an earlier one equals it or its antipode, which leaves 46.

    Nearness is |n . m|, so a neighbour across the equator is found through its
    antipode. Rounding |n . m| to 12 digits makes distances that are equal on
    the exact grid equal here, and equal distances go to the first point in
    scan order. Column j of the neighbour table holds point j's, nearest
    first, so one gather of a stack's grid values reads every point's
    neighbours. Shapes (3, 46) and (_NEIGHBOURS, 46), both read-only; the
    frames are _tangent_frame of each point, the frames the ascents start
    from. Built on the first call and kept: an import builds no grid.
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
    grid = points[first == np.arange(first.size)].T
    near = np.round(np.abs(grid.T @ grid), 12)
    np.fill_diagonal(near, -1.0)
    neighbours = np.ascontiguousarray(np.argsort(-near, axis=1, kind="stable")[:, :_NEIGHBOURS].T)
    grid.flags.writeable = neighbours.flags.writeable = False
    return grid, neighbours, tuple(_tangent_frame(*point) for point in grid.T.tolist())


# Central-difference spacing in tangent coordinates: round-off in the Hessian
# (~eps / h^2) and truncation (~h^2) both stay near 1e-8.
_STENCIL_H = 1e-4
# (u, v) offsets of the 9-point stencil: its centre, then the 8 points around it.
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


def _probe(objective: _HolevoObjective, frame) -> tuple[float, Callable[[], tuple[float, ...]], int]:
    """(value at frame[0], a function that gives its local model, the evaluations it took).

    The model is (value, g1, g2, h11, h22, h12). Where there is a closed form
    the value pass costs 1 evaluation, and the derivative pass runs only
    when the function is called. Otherwise central differences over the
    9-point _STENCIL give the whole model at once, at 9.
    """
    local = objective._value_pass(frame[0])
    if local is not None:
        return local[0], partial(objective._derivative_pass, frame, local), 1
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = objective(_chart(frame, _STENCIL)).tolist()
    h = _STENCIL_H
    model = (
        f0,
        (f1 - f2) / (2.0 * h),
        (f3 - f4) / (2.0 * h),
        (f1 - 2.0 * f0 + f2) / (h * h),
        (f3 - 2.0 * f0 + f4) / (h * h),
        (f5 - f6 - f7 + f8) / (4.0 * h * h),
    )
    return f0, lambda: model, _STENCIL.shape[1]


def _newton_step(model: tuple[float, ...]) -> tuple[float, float, float, float, float]:
    """(u, v, length, slope, bend) of the ascent step from the model (value, g1, g2, h11, h22, h12).

    The Hessian is split into eigen-directions in closed form. Along a
    direction of negative curvature the step is Newton's, which points
    uphill. Along one of positive curvature Newton's step points downhill,
    so the step goes as far uphill instead (the saddle-free Newton step of
    Dauphin et al., NIPS 2014): an ascent that starts on a ridge outside the
    concave cap of a maximum still climbs. (u, v) is the step d in tangent
    coordinates, not yet capped: _refine scales it by s to each trial's
    trust radius. slope = g . d and bend = d . H d, read off the same
    eigen-split, give the gain the model predicts for that trial,
    s slope + s^2 bend / 2; _refine stops before a trial whose gain is no
    more than rounding. The two directions are written out, not looped
    over: every report's search takes a few of these steps, and a loop's
    overhead costs the 2x2 report more than the stop saves.
    """
    _, g1, g2, h11, h22, h12 = model
    mean, half_gap = 0.5 * (h11 + h22), math.hypot(0.5 * (h11 - h22), h12)
    psi = 0.5 * math.atan2(2.0 * h12, h11 - h22)
    c, s = math.cos(psi), math.sin(psi)
    # Curvature, slope and step coefficient along the eigen-directions (c, s) and (-s, c).
    ca, cb = mean + half_gap, mean - half_gap
    ga, gb = g1 * c + g2 * s, g2 * c - g1 * s
    a = ga / abs(ca) if ca != 0.0 else 0.0
    b = gb / abs(cb) if cb != 0.0 else 0.0
    u, v = a * c - b * s, a * s + b * c
    return u, v, math.hypot(u, v), ga * a + gb * b, ca * a * a + cb * b * b


def _refine(
    objective: _HolevoObjective, frame, radius: float, evals: int
) -> tuple[float, tuple[float, float, float], int]:
    """(best value, its Bloch vector, evals plus the evaluations made) of a Newton ascent from frame[0].

    Safeguarded saddle-free Newton steps in tangent-plane coordinates at the
    current point, so no direction is singular. A trial is accepted on its
    value alone (_probe), so a rejected closed-form trial costs one value
    pass. Only a point that steps (the start, and an accepted trial while
    the ascent goes on) gets its local model and its Newton step, once; each
    trial from it scales that step down to the trust radius. The trust
    radius starts at `radius` and shrinks to a quarter of any rejected step.
    The ascent stops after the first step shorter than ANGLE_RESOLUTION,
    once evals reaches _MAX_EVALS, or before a trial whose gain as the model
    predicts it (_newton_step's slope and bend at the trial's scale) is at or
    below the value's rounding, 2**-52 max(1, |value|): such a trial could
    only accept a last-bit change, as on a flat or ring-shaped objective
    whose gradient and curvature are both rounding noise.
    """
    value, model, count = _probe(objective, frame)
    evals += count
    step = None
    length = radius
    while length >= ANGLE_RESOLUTION and evals < _MAX_EVALS:
        # The step that falls below ANGLE_RESOLUTION is still tried if the
        # model expects it to gain more than rounding: near a kink of the
        # objective (a rank-deficient block) Newton converges only linearly,
        # and that last step is worth up to 1e-11 in value.
        if step is None:
            step = _newton_step(model())
            # 2**-52 max(1, |value|), without the cost of a call to max
            size = abs(value)
            rounding = 2.0**-52 * (size if size > 1.0 else 1.0)
        u, v, step_length, slope, bend = step
        scale = radius / step_length if step_length > radius else 1.0
        if scale * (slope + 0.5 * scale * bend) <= rounding:
            break
        u, v = u * scale, v * scale
        length = math.hypot(u, v)
        trial = _moved(frame, u, v)
        trial_value, trial_model, count = _probe(objective, trial)
        evals += count
        if trial_value > value:
            frame, value, model, step = trial, trial_value, trial_model, None
        else:
            radius = 0.25 * length
    return value, frame[0], evals


def _starts(values: np.ndarray) -> list[list[int]]:
    """Per state, the grid points its ascents start from, given the objective on the grid, shape (N, 46).

    One pass over the whole stack: a start is a point of the geodesic grid
    no smaller than its _NEIGHBOURS nearest, one max over the gathered
    neighbour values (a max is exact, so a state's peaks do not depend on
    the stack). Of the peaks whose values agree to 12 digits only the first
    in scan order stays, and of the rest at most the _MAX_STARTS largest,
    ties going to the first in scan order. Each list is in scan order.
    """
    neighbours = _geodesic_grid()[1]
    states, indices = np.nonzero(values >= np.maximum.reduce(values[:, neighbours], axis=1))
    scores = values.tolist()
    # A flat or symmetric objective makes many tied peaks; one start serves them all.
    distinct: list[dict[float, int]] = [{} for _ in scores]
    for k, index in zip(states.tolist(), indices.tolist()):
        distinct[k].setdefault(round(scores[k][index], 12), index)
    return [
        sorted(sorted(peaks.values(), key=row.__getitem__, reverse=True)[:_MAX_STARTS])
        for peaks, row in zip(distinct, scores)
    ]


def _maximize_holevo(
    objective: _HolevoObjective, starts: list[int], s_b: float
) -> tuple[float, tuple[float, float, float], int]:
    """(J_A, its Bloch vector, objective evaluations) for qubit A, given its starts (from _starts) and S(B).

    The search maximises the objective, -S(B|Y_n); J_A is max(0, s_b + best).
    _starts picks every state's starts in one pass over a stack; this runs
    one state's ascents, on Python floats, from each start in scan order, and
    the first best result wins. The evaluations count the grid's 46 points,
    which the stack's one batched call gave.
    """
    frames = _geodesic_grid()[2]
    evals = len(frames)
    best = -math.inf
    for index in starts:
        value, point, evals = _refine(objective, frames[index], _START_RADIUS, evals)
        if value > best:
            best, n = value, point
    return max(0.0, s_b + best), n, evals


def _memory_spectrum(spectra: np.ndarray) -> np.ndarray:
    """rho_B's eigenvalues from column 0, n = 0, of _block_spectra rows over the scan: rho_B = 2 M_+(0).

    Both routes to J_A read S(B) from it, so the report and
    classical_correlation add back the same bits.
    """
    return spectra[..., 1:, 0] * 2.0


def _report_scalars(
    states: list[DensityMatrix], x: ObservableBasis, z: ObservableBasis, search: bool
) -> list[list[float]]:
    """Per state, [S(AB), S(A), S(B), S(XB), S(ZB), H(p_X), H(p_Z), J_A] for qubit A; J_A is NaN without `search`.

    The one place that holds the report's distributions, for a stack of
    states with one dim_b measured in one X, Z pair. With n the Bloch vector
    of a basis's outcome-0 ket, the dephased state rho_YB is block diagonal
    with blocks M_+-(n) and p_Y is their traces; rho_B = 2 M_+(0), and rho_A
    has the eigenvalues P0 +- |P| of Tr M_+ = P0 + P.n. So one _block_spectra
    call over every state's objective, at the columns of _scan_coefficients
    (n = 0, n_X, n_Z and, with `search`, the points of _geodesic_grid()),
    gives every distribution but rho_AB's. Each state keeps that spectrum;
    the states that keep none yet, such as a sweep's family states, get
    theirs from one stacked eigvalsh (states._state_spectra), and a
    validated state's kept one is read as it is. The seven per state go into
    one zero-padded (N, 7, 2 dim_b) table; spectrum entries below
    SUPPORT_CUT become exact zeros, and one checked _entropies pass over its
    7 N rows gives the entropies. Only with `search` are the grid's values
    formed, every state's starts picked from them in one _starts pass, and
    each state's ascents for J_A run, in order. Each state's scalars have
    the bits of a call over that state alone. A state with
    dim_a != 2 raises UnsupportedDimension before anything is computed.
    """
    objectives = [_HolevoObjective(rho) for rho in states]
    count, db = len(objectives), objectives[0].db
    coeffs = _scan_coefficients(search).copy()
    size = coeffs.shape[1] // 2
    ends = np.array((_outcome0_bloch(x), _outcome0_bloch(z))).T
    coeffs[1:, 1:3] = ends
    coeffs[1:, size + 1 : size + 3] = -ends
    spectra = objectives[0]._block_spectra(objectives, coeffs)
    # Axes: state, row of _block_spectra, block M_+ or M_-, point n = 0, n_X or n_Z.
    cols = spectra.reshape(count, 1 + db, 2, -1)[:, :, :, :3]
    # Rows per state: the spectra of AB, A, B, XB and ZB, then p_X and p_Z.
    table = np.zeros((count, 7, 2 * db))
    for k, (objective, spectrum) in enumerate(zip(objectives, _state_spectra(states))):
        table[k, 0] = spectrum
        p0, px, py, pz = objective._trace
        r = math.sqrt(px * px + py * py + pz * pz)
        table[k, 1, :2] = p0 + r, p0 - r
    table[:, 2, :db] = _memory_spectrum(spectra)
    table[:, 3:5] = cols[:, 1:, :, 1:].transpose(0, 3, 1, 2).reshape(count, 2, 2 * db)
    table[:, 5:, :2] = cols[:, 0, :, 1:].transpose(0, 2, 1)
    spectrum_rows = table[:, :5]
    spectrum_rows[spectrum_rows < SUPPORT_CUT] = 0.0
    entropies = _entropies(table.reshape(7 * count, 2 * db))
    if not search:
        return [entropies[k : k + 7] + [math.nan] for k in range(0, 7 * count, 7)]
    # The grid's values are formed only here: an unsearched report reads none.
    # One pass picks every state's starts; each ascent adds back its S(B), entropies[k + 2].
    starts = _starts(objectives[0]._values(spectra)[:, 3:])
    return [
        entropies[k : k + 7] + [_maximize_holevo(objective, state_starts, entropies[k + 2])[0]]
        for k, objective, state_starts in zip(range(0, 7 * count, 7), objectives, starts)
    ]


def classical_correlation(rho: DensityMatrix) -> DiscordResult:
    """Maximize the Holevo quantity over projective qubit measurements of A.

    The search runs over Bloch vectors n and uses chi(n) = chi(-n), so its
    grid holds one point of each antipodal pair: the frequency-3
    icosahedral geodesic grid, 46 nearly uniform points, each direction
    within 13.7 degrees of one. A start is a point no smaller than its 8
    nearest grid points, antipodes identified. A flat or symmetric objective
    ties many such points, so peaks whose values agree to 12 digits start
    once, from the first in scan order, and only the 4 largest starts are
    kept, ties going to the first in scan order. An ascent runs from each,
    and the first best result wins.

    An ascent takes safeguarded saddle-free Newton steps: along a direction
    of negative curvature a step is Newton's, along one of positive
    curvature it climbs by |slope| / curvature. Each point reads its value,
    and the point it steps from its gradient and Hessian, in closed form
    while both measurement blocks keep their smallest eigenvalue at or above
    _SMOOTH_FLOOR: for dim_b == 2 from the blocks' traces and gaps, for
    other dim_b from one eigh of both blocks. Otherwise each point the
    ascent tries takes one 9-point central-difference stencil. A trust radius
    caps the step: it starts at 2 pi / 16 and shrinks to a quarter of any
    step that does not improve the value. An ascent stops after the first
    step shorter than ANGLE_RESOLUTION, or before a trial whose gain, as the
    local model predicts it, is at or below the value's rounding,
    2**-52 max(1, |value|); on a flat objective that is at the start, where
    gradient and curvature are rounding noise. J_A is S(B) plus the best value
    found, clamped at 0, and the discord is I(A:B) - J_A, with I(A:B) =
    S(A) + S(B) - S(AB) taking that same S(B). S(B) and the grid's values
    come from one batched call over the columns of evaluate_all's scan with
    searching, n = 0, n_X, n_Z and the grid, where n_X and n_Z stay at
    n = 0, so both give J_A with the same bits.
    Deterministic: no randomness, so repeated calls agree exactly.
    """
    objective = _HolevoObjective(rho)
    spectra = objective._block_spectra([objective], _scan_coefficients(True))
    s_b = _spectrum_entropy(_memory_spectrum(spectra[0]))
    (starts,) = _starts(objective._values(spectra)[:, 3:])
    j_a, n, evals = _maximize_holevo(objective, starts, s_b)
    info = von_neumann_entropy(marginal_a(rho)) + s_b - von_neumann_entropy(rho)
    return DiscordResult(
        discord=info - j_a,
        classical_correlation=j_a,
        optimal_theta=float(np.arccos(np.clip(n[2], -1.0, 1.0))),
        optimal_phi=float(np.mod(np.arctan2(n[1], n[0]), 2.0 * np.pi)),
        optimizer_evals=evals,
    )

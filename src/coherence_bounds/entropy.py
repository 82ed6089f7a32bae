"""Shannon, von Neumann, and quantum relative entropy. All logarithms are base 2."""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from operator import add
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, DomainError, ProbabilityError

if TYPE_CHECKING:  # states imports this module for the entropy a state keeps
    from .states import DensityMatrix

# Eigenvalues and probabilities at or below this are treated as exact zeros,
# and a probability below -SUPPORT_CUT is rejected as negative.
SUPPORT_CUT = 1e-12
# Support mass of rho allowed outside the support of sigma before S(rho||sigma) = +inf.
KERNEL_TOL = 1e-10
# A probability vector, spectrum included, whose sum is further than this
# from 1 is rejected.
TRACE_TOL = 1e-9
_TINY = np.finfo(np.float64).tiny


def xlog2x(w: np.ndarray) -> np.ndarray:
    """Elementwise w * log2(w) with the 0 log 0 = 0 convention; inputs <= 0 give 0."""
    w = np.maximum(w, 0.0)
    return w * np.log2(np.maximum(w, _TINY))


def shannon_entropy(probs) -> float:
    """H(p) = -sum_i p_i log2 p_i for a probability vector.

    Entries in [-SUPPORT_CUT, 0) are clamped to 0; anything more negative, a
    total further than TRACE_TOL from 1, or a NaN entry raises ProbabilityError.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ProbabilityError(f"expected a 1-d probability vector, got shape {p.shape}")
    return _entropies(p[None])[0]


def _entropies(table: np.ndarray) -> list[float]:
    """Shannon entropies of the rows of a 2-d table, each row checked as shannon_entropy says.

    Rows may be zero padded: the sums run left to right, so trailing zeros
    leave every entropy unchanged bit for bit, and a padded row gives what its
    unpadded vector gives on its own.

    Returns a list of floats. The rows are short (a report's have at most
    2 dim_b entries) and a numpy call costs about a microsecond whatever its
    size, so only the clamp and the log run in numpy; the minimum, the
    totals, the checks and the sums run on Python floats. The log stays
    np.log2, because math.log2 differs from it in the last bit on some
    inputs. Each sum starts from the row's first entry, as np.add.accumulate
    does, so the results are the same bits as a left-to-right numpy pass.
    """
    p = np.maximum(table, 0.0)
    terms = p * np.log2(np.maximum(p, _TINY))
    for row, clamped in zip(table.tolist(), p.tolist()):
        lowest = min(row, default=math.inf)
        total = reduce(add, clamped) if clamped else 0.0
        # Written so that a NaN entry fails the check instead of slipping
        # through. It makes the total NaN, and the message then gives the
        # total, because what min() returns for such a row depends on where
        # the NaN sits.
        if not (lowest >= -SUPPORT_CUT and abs(total - 1.0) <= TRACE_TOL):
            if lowest < -SUPPORT_CUT and total == total:
                raise ProbabilityError(f"negative probability {lowest!r}")
            raise ProbabilityError(f"probabilities sum to {total!r}, not 1 within {TRACE_TOL!r}")
    return [-reduce(add, row) for row in terms.tolist()]


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) on [0, 1]."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    return float(-xlog2x(np.array([x, 1.0 - x])).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr rho log2 rho, kept by the state and computed once from the eigenvalues it keeps."""
    return rho._entropy


def _spectrum_entropy(w: np.ndarray) -> float:
    """Entropy of a state's eigenvalues w, with those below SUPPORT_CUT taken as 0."""
    return _entropies(np.where(w < SUPPORT_CUT, 0.0, w)[None])[0]


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) = Tr rho (log2 rho - log2 sigma), via joint spectral data.

    Evaluates sum_ij |<r_i|s_j>|^2 lambda_i (log2 lambda_i - log2 mu_j) over
    the supports. Returns +inf when the support of rho leaks outside the
    support of sigma by more than KERNEL_TOL.

    Each state's kept eigh lists its eigenvalues in ascending order, so a
    support, the eigenvalues above SUPPORT_CUT, is a trailing slice, and the
    restricted overlaps are slices too; one path serves every rank. Every
    support eigenvalue lies above SUPPORT_CUT, so lambda log2 lambda needs
    none of xlog2x's clamps, and without them it has the same bits.
    """
    if rho.dim != sigma.dim:
        raise DimensionError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    wr, vr = rho._eigh
    ws, vs = sigma._eigh
    overlap = np.abs(vr.conj().T @ vs) ** 2  # overlap[i, j] = |<r_i|s_j>|^2
    # The spectra are short: bisect on a list costs a tenth of a np.searchsorted call.
    r0 = bisect_right(wr.tolist(), SUPPORT_CUT)
    s0 = bisect_right(ws.tolist(), SUPPORT_CUT)
    if s0 and float(overlap[r0:, :s0].sum(axis=1).max(initial=0.0)) > KERNEL_TOL:
        return float("inf")
    lam = wr[r0:]
    cross = float((overlap[r0:, s0:] * lam[:, None] * np.log2(ws[s0:])[None, :]).sum())
    return float((lam * np.log2(lam)).sum() - cross)

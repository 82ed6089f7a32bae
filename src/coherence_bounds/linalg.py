"""Dense complex linear algebra helpers: products, partial trace, Hermitian parts."""
from __future__ import annotations

import numpy as np

from .errors import DimensionError


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("matrix contains non-finite entries")
    return arr


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M^dag) / 2 of a matrix, or of each matrix in a (..., n, n) stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, the left factor on the slow (most significant) index.

    out[(i, k), (j, l)] = a[i, j] b[k, l], as one broadcast product, which for
    small matrices is several times cheaper than np.kron and bitwise equal to it.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"expected two matrices, got shapes {a.shape} and {b.shape}")
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


# einsum subscripts that trace out A or B of a matrix reshaped to (dim_a, dim_b, dim_a, dim_b).
_TRACE_OUT = {"A": "ikil->kl", "B": "ikjk->ij"}


def partial_trace(rho: np.ndarray, dim_a: int, dim_b: int, over: str) -> np.ndarray:
    """Trace out one subsystem of a (dim_a*dim_b) x (dim_a*dim_b) matrix.

    over="A" returns the dim_b x dim_b marginal, over="B" the dim_a x dim_a one.
    """
    rho = as_square_matrix(rho)
    if dim_a < 1 or dim_b < 1 or rho.shape[0] != dim_a * dim_b:
        raise DimensionError(
            f"matrix of dim {rho.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    if over not in _TRACE_OUT:
        raise DimensionError(f"over must be 'A' or 'B', got {over!r}")
    return _trace_out(rho, dim_a, dim_b, over)


def _trace_out(rho: np.ndarray, dim_a: int, dim_b: int, over: str) -> np.ndarray:
    """partial_trace without its checks, for a matrix known to factor as dim_a x dim_b."""
    return np.einsum(_TRACE_OUT[over], rho.reshape(dim_a, dim_b, dim_a, dim_b))

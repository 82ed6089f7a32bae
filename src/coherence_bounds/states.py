"""Density matrices: validation, named two-qubit families, random ensembles, file IO.

Conventions used everywhere in this package:

* A bipartite state on A x B is stored as a (dim_a*dim_b) x (dim_a*dim_b)
  complex matrix. Subsystem A occupies the slow (left) index, so for two
  qubits the computational basis is ordered |00>, |01>, |10>, |11>.
* A monopartite state is a DensityMatrix with dim_b == 1.
* make_density validates a matrix from outside the library; load_state_file,
  random_density and bell_diagonal (whose triple can leave the PSD cone) go
  through it. x_state, werner and bell_diagonal_family check p, build their
  matrix from read-only constants and wrap it with the DensityMatrix
  constructor, unvalidated.
* make_density holds the trace to 1 within TRACE_BOUNDARY_TOL, just inside
  entropy.TRACE_TOL, the one tolerance within which every entropy holds a
  distribution's sum to 1, so each state it accepts evaluates.
* A DensityMatrix's matrix is read-only, so the values a state keeps cannot go
  stale: its spectrum, its eigensystem, its von Neumann entropy, its two
  marginals and, per live measurement basis object, the state dephased in
  that basis with the outcome probabilities p_Y and their entropy H(p_Y).
  Each is computed once, on first use, by the one function that builds it,
  and kept on that object only. For a state from make_density that first
  use is validation: its checks read the state's spectrum, its entropy and
  its A marginal's spectrum. States compare and hash by identity.

State file format (one state per file)::

    dims: <dim_a> <dim_b>
    <row> <col> <re> <im>
    ...

Indices are 0-based into the full matrix; entries not listed are zero; both
halves of a Hermitian pair must be listed; dim_a * dim_b is at most 64.
Blank lines and lines starting with '#' are ignored.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import SUPPORT_CUT, TRACE_TOL, _spectrum_entropy
from .errors import DomainError, ParseError, ProbabilityError, ValidationError
from .linalg import _trace_out, as_square_matrix, hermitize, tensor_product

# Largest allowed deviation max|M - M^dag| before a matrix is rejected as non-Hermitian.
HERMITICITY_TOL = 1e-10
# The entropy pass rejects a distribution whose sum is further than
# entropy.TRACE_TOL from 1. The distributions derived from an accepted state
# (the spectra of its marginals and dephased states, its outcome
# probabilities) sum up to about 1e-16 further from 1 than its trace does,
# so make_density accepts |Tr - 1| only up to this: the 1e-11 left inside
# TRACE_TOL covers that rounding, and a state at the edge of acceptance
# still evaluates.
TRACE_BOUNDARY_TOL = 0.99 * TRACE_TOL
EIGENVALUE_FLOOR = -1e-9
# An outcome probability <y|rho_A|y> of measuring A can go as low as rho_A's
# smallest eigenvalue, and measuring A rejects one below -SUPPORT_CUT. The
# probability is summed at unit trace, so it can land a few ulps of 1
# (2.2e-16 each) below the eigenvalue; this floor leaves 1e-14 for that.
MARGINAL_FLOOR = -0.99 * SUPPORT_CUT

SIGMA0 = np.eye(2, dtype=np.complex128)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)

PSI_PLUS = np.array([0, 1, 1, 0], dtype=np.complex128) / np.sqrt(2)


def _constant(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


# What the family constructors build from, made once: |Psi+><Psi+|, the 4 x 4
# identity and sigma_i (x) sigma_i for i = 0..3. They are read-only; each
# constructor's arithmetic makes a new array from them.
_PSI_PLUS_PROJECTOR = _constant(np.outer(PSI_PLUS, PSI_PLUS.conj()))
_IDENTITY4 = _constant(np.eye(4))
_SIGMA_PAIRS = tuple(_constant(tensor_product(s, s)) for s in (SIGMA0, SIGMA1, SIGMA2, SIGMA3))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density matrix together with its A x B factorization.

    The constructor trusts its input: matrices from outside the library go
    through make_density, while states the library builds itself (the
    one-parameter families, and marginals, dephased and conditional states of
    a valid DensityMatrix) are built directly. matrix
    is made read-only, so what the state keeps from it cannot go stale: the
    spectrum (eigvalsh), the eigensystem (eigh, which relative_entropy reads),
    the entropy and the two marginals, each a cached_property computed on
    first use, and per live basis object the dephased state with its outcome
    probabilities and their entropy, which measurement._dephasing builds from
    one set of blocks. They belong to this object, never to its content: a
    state rebuilt from a copy of the matrix, a copy.deepcopy or a pickle
    round trip computes its own. States compare and hash by identity, as
    bases do: comparing two matrices would need a tolerance.
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """np.linalg.eigvalsh(matrix), computed once; the only place a state's spectrum is built."""
        return np.linalg.eigvalsh(self.matrix)

    @cached_property
    def _entropy(self) -> float:
        """The von Neumann entropy of _spectrum, computed once; the only place a state's entropy is built."""
        return _spectrum_entropy(self._spectrum)

    @cached_property
    def _marginal_a(self) -> DensityMatrix:
        return DensityMatrix(hermitize(_trace_out(self.matrix, self.dim_a, self.dim_b, "B")), self.dim_a, 1)

    @cached_property
    def _marginal_b(self) -> DensityMatrix:
        return DensityMatrix(hermitize(_trace_out(self.matrix, self.dim_a, self.dim_b, "A")), self.dim_b, 1)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """np.linalg.eigh(matrix), read-only and computed once; the only place a state's eigensystem is built."""
        w, v = np.linalg.eigh(self.matrix)
        w.flags.writeable = False
        v.flags.writeable = False
        return w, v

    @cached_property
    def _dephased(self) -> weakref.WeakKeyDictionary:
        """measurement._dephasing(self, basis) per live ObservableBasis object, filled by that function.

        Each entry holds the dephased state and p_Y, which dephase, holevo and
        measure read. The keys are weak, so a basis that nothing else holds
        drops out along with its dephased state.
        """
        return weakref.WeakKeyDictionary()

    def __reduce__(self):
        # Copies and pickles are rebuilt from the matrix alone: what a state
        # keeps belongs to that object (and a WeakKeyDictionary cannot be
        # pickled), so the copy computes its own.
        return (DensityMatrix, (self.matrix, self.dim_a, self.dim_b))

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def make_density(matrix, dim_a: int, dim_b: int) -> DensityMatrix:
    """Validate and wrap a matrix as a density operator.

    Checks, in order: dimensions factor as dim_a * dim_b, Hermiticity within
    HERMITICITY_TOL (the stored matrix is the symmetrized (M + M^dag)/2),
    unit trace within TRACE_BOUNDARY_TOL (0.99 TRACE_TOL), smallest
    eigenvalue >= -1e-9, support: the eigenvalues of at least
    entropy.SUPPORT_CUT sum to 1 within TRACE_TOL, the check every entropy
    of the state makes, and the A marginal: rho_A's smallest eigenvalue >=
    MARGINAL_FLOOR, so that measuring A gives no probability below
    -SUPPORT_CUT. The support check rejects a state whose negative
    eigenvalues each clear the floor but together exceed about TRACE_TOL.
    Each failure raises ValidationError naming the violated invariant.
    The checks read the state's own cached spectrum, entropy and A marginal
    (a monopartite state is its own, so its spectrum is computed once), so
    the state keeps what they computed.
    """
    arr = as_square_matrix(matrix)
    if dim_a < 1 or dim_b < 1 or arr.shape[0] != dim_a * dim_b:
        raise ValidationError(
            f"dimension: matrix of dim {arr.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValidationError(
            f"hermiticity: max|M - M^dag| = {defect:.3e} exceeds {HERMITICITY_TOL}"
        )
    arr = hermitize(arr)
    tr = float(np.trace(arr).real)
    if abs(tr - 1.0) > TRACE_BOUNDARY_TOL:
        raise ValidationError(f"trace: Tr = {tr!r} is not 1 within {TRACE_BOUNDARY_TOL}")
    rho = DensityMatrix(matrix=arr, dim_a=int(dim_a), dim_b=int(dim_b))
    if rho._spectrum[0] < EIGENVALUE_FLOOR:
        raise ValidationError(
            f"positivity: smallest eigenvalue {rho._spectrum[0]:.3e} is below {EIGENVALUE_FLOOR}"
        )
    # The entropy pass's own check, so that every state accepted here evaluates.
    try:
        rho._entropy
    except ProbabilityError as exc:
        raise ValidationError(
            f"support: the eigenvalues of at least {SUPPORT_CUT} are not a distribution ({exc})"
        ) from None
    # A monopartite state is its own A marginal.
    lowest = (rho if rho.dim_b == 1 else rho._marginal_a)._spectrum[0]
    if lowest < MARGINAL_FLOOR:
        raise ValidationError(
            f"marginal: smallest eigenvalue of rho_A {lowest:.3e} is below {MARGINAL_FLOOR}"
        )
    return rho


def marginal_a(rho: DensityMatrix) -> DensityMatrix:
    """Reduced state on A (a monopartite DensityMatrix), the one rho keeps."""
    return rho._marginal_a


def marginal_b(rho: DensityMatrix) -> DensityMatrix:
    """Reduced state on B (a monopartite DensityMatrix), the one rho keeps."""
    return rho._marginal_b


def _check_unit_interval(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p!r}")
    return p


def x_state(p: float) -> DensityMatrix:
    """Two-qubit mixture p |Psi+><Psi+| + (1-p) |11><11|."""
    p = _check_unit_interval(p, "p")
    m = p * _PSI_PLUS_PROJECTOR
    m[3, 3] += 1.0 - p
    return DensityMatrix(m, 2, 2)


def werner(p: float) -> DensityMatrix:
    """Two-qubit mixture p |Psi+><Psi+| + (1-p) I/4."""
    p = _check_unit_interval(p, "p")
    m = p * _PSI_PLUS_PROJECTOR + (1.0 - p) / 4.0 * _IDENTITY4
    return DensityMatrix(m, 2, 2)


def _bell_diagonal_matrix(t1: float, t2: float, t3: float) -> np.ndarray:
    m = _SIGMA_PAIRS[0]
    for t, pair in zip((t1, t2, t3), _SIGMA_PAIRS[1:]):
        m = m + float(t) * pair
    return 0.25 * m


def bell_diagonal(t1: float, t2: float, t3: float) -> DensityMatrix:
    """Bell-diagonal state (I (x) I + sum_i t_i sigma_i (x) sigma_i) / 4.

    The correlation triple (t1, t2, t3) must keep the matrix positive
    semidefinite; otherwise validation fails.
    """
    return make_density(_bell_diagonal_matrix(t1, t2, t3), 2, 2)


def bell_diagonal_family(p: float) -> DensityMatrix:
    """One-parameter Bell-diagonal line t = (1 - 2p, -p, -p).

    Equals the mixture p |Psi-><Psi-| + (1-p)/2 (|Psi+><Psi+| + |Phi+><Phi+|),
    with eigenvalues (p, (1-p)/2, (1-p)/2, 0).
    """
    p = _check_unit_interval(p, "p")
    return DensityMatrix(_bell_diagonal_matrix(1.0 - 2.0 * p, -p, -p), 2, 2)


def _gaussian(rng, rows: int, cols: int) -> np.ndarray:
    """A complex rows x cols matrix whose real and imaginary parts are standard normal draws."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _ginibre(rng, dim: int, rank: int) -> np.ndarray:
    """The Ginibre matrix G G^dag / Tr of G = _gaussian(rng, dim, rank), in numpy arithmetic."""
    g = _gaussian(rng, dim, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_density(dim_a: int, dim_b: int, seed: int) -> DensityMatrix:
    """Ginibre-induced random state G G^dag / Tr, deterministic per seed."""
    d = dim_a * dim_b
    return make_density(_ginibre(np.random.default_rng(seed), d, d), dim_a, dim_b)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a Ginibre matrix, deterministic per seed."""
    q, r = np.linalg.qr(_gaussian(np.random.default_rng(seed), dim, dim))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def load_state_file(path) -> DensityMatrix:
    """Read a state file (format in the module docstring).

    Raises ParseError for malformed content (text that is not UTF-8, too)
    and ValidationError when the parsed matrix is not a density operator.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw_lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(raw_lines)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty state file")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "dims:":
        raise ParseError(f"line {lineno}: expected 'dims: <dim_a> <dim_b>', got {header!r}")
    try:
        dim_a, dim_b = int(fields[1]), int(fields[2])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: dims must be integers") from exc
    if dim_a < 1 or dim_b < 1:
        raise ParseError(f"line {lineno}: dims must be positive")
    d = dim_a * dim_b
    # The d x d matrix is allocated before any entry is read.
    if d > 64:
        raise ParseError(f"line {lineno}: dim_a * dim_b must be at most 64, got {d}")
    m = np.zeros((d, d), dtype=np.complex128)
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected '<row> <col> <re> <im>', got {line!r}")
        try:
            row, col = int(fields[0]), int(fields[1])
            re, im = float(fields[2]), float(fields[3])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: could not parse entry {line!r}") from exc
        if not (0 <= row < d and 0 <= col < d):
            raise ParseError(f"line {lineno}: index ({row}, {col}) outside a {d} x {d} matrix")
        if (row, col) in seen:
            raise ParseError(f"line {lineno}: duplicate entry ({row}, {col})")
        seen.add((row, col))
        m[row, col] = complex(re, im)
    return make_density(m, dim_a, dim_b)


def save_state_file(rho: DensityMatrix, path) -> None:
    """Write a state file round-trippable through load_state_file."""
    lines = [f"dims: {rho.dim_a} {rho.dim_b}"]
    for row in range(rho.dim):
        for col in range(rho.dim):
            entry = rho.matrix[row, col]
            if entry != 0:
                lines.append(f"{row} {col} {float(entry.real)!r} {float(entry.imag)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

"""Lower and upper bounds on coherence sums and conditional-entropy sums.

For a bipartite state rho_AB with qubit A and complementary measurements X, Z
on A, evaluate_all collects into one report:

* the coherence sum C_B|A(X) + C_B|A(Z) and its lower bounds
      q_mu - S(A|B)                               (lb_theorem2)
      q_mu - S(A|B) + max{0, D_A - J_A}           (lb_theorem3)
      q_mu - S(A|B) + max{0, delta}               (lb_theorem4)
  and upper bounds
      2 P_B|A                                     (ub_purity)
      2 P_B|A - I(X:B) - I(Z:B)                   (ub_holevo)
* the entropic-uncertainty sum H(X|B) + H(Z|B), its lower bounds
      q_mu + S(A|B)                               (eur_berta)
      q_mu + S(A|B) + max{0, D_A - J_A}           (eur_pati)
      q_mu + S(A|B) + max{0, delta}               (eur_adabi)
  and the upper bound 2 log2 dim_a - I(X:B) - I(Z:B) (certainty_ub),

with delta = I(A:B) - I(X:B) - I(Z:B). The two sides are linked by the exact
conversion H(Y|B) = C_B|A(Y) + S(A|B), so every coherence bound is an
uncertainty bound shifted by 2 S(A|B).

Every field is an expression over nine scalars: the entropies S(AB), S(A),
S(B) of the state and its marginals, S(XB), S(ZB) of the two dephased joint
states, the outcome entropies H(p_X), H(p_Z), the classical correlation J_A
and the incompatibility q_mu. With S(A|B) = S(AB) - S(B), I(A:B) = S(A) +
S(B) - S(AB), I(Y:B) = S(B) + H(p_Y) - S(YB), C_B|A(Y) = S(YB) - S(AB),
H(Y|B) = S(YB) - S(B), P_B|A = log2 dim_a - S(A|B) and D_A = I(A:B) - J_A.

S(YB) and H(p_Y) come from the same blocks as J_A. If n is the Bloch vector
of Y's outcome-0 ket, the dephased state rho_YB is block diagonal with
blocks M_+- = (rho_B +- n.K) / 2 of the discord objective: p_Y is their
traces and the spectrum of rho_YB is the union of their spectra. The
spectra of the qubit marginal rho_A, and of rho_B when B is a qubit, are
closed-form, so a 2x2 report makes one eigensolve, for S(AB). All seven
distributions are zero-padded rows of one table that takes a single
checked entropy pass.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coherence import coherence_rel
from .correlations import _HolevoObjective, _maximize_holevo
from .entropy import SUPPORT_CUT, _entropies, von_neumann_entropy
from .errors import DimensionError, DomainError, UnsupportedDimension
from .measurement import ObservableBasis, incompatibility
from .states import (
    DensityMatrix,
    bell_diagonal_family,
    marginal_a,
    marginal_b,
    werner,
    x_state,
)

# |x| below this is treated as an exact zero inside max{0, x} terms, so a
# theoretical zero never turns into 1e-16 and flips a tightness comparison.
DUST = 1e-12


def _positive_part(x: float) -> float:
    return max(0.0, 0.0 if abs(x) < DUST else x)


@dataclass(frozen=True)
class BoundReport:
    """All evaluated quantities for one (state, X, Z) triple. Everything is in bits."""

    lhs_coherence: float
    lhs_eur: float
    q_mu: float
    cond_entropy: float
    lb_theorem2: float
    lb_theorem3: float
    lb_theorem4: float
    ub_purity: float
    ub_holevo: float
    eur_berta: float
    eur_pati: float
    eur_adabi: float
    certainty_ub: float
    delta: float
    discord_gap: float
    mutual_info: float
    holevo_x: float
    holevo_z: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def coherence_bound_t1(rho: DensityMatrix, x: ObservableBasis, z: ObservableBasis) -> tuple[float, float]:
    """Monopartite coherence bound: C(X) + C(Z) >= q_mu - S(rho).

    Returns (lhs, lower_bound).
    """
    lhs = coherence_rel(rho, x) + coherence_rel(rho, z)
    return lhs, incompatibility(x, z) - von_neumann_entropy(rho)


def _outcome0_bloch(basis: ObservableBasis) -> np.ndarray:
    """Bloch vector (2 Re conj(a) b, 2 Im conj(a) b, |a|^2 - |b|^2) of the outcome-0 ket (a, b)."""
    if basis.dim != 2:
        raise DimensionError(f"basis dim {basis.dim} does not match dim_a 2")
    a, b = basis.vectors[:, 0]
    ab = a.conjugate() * b
    return np.array([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2])


def _qubit_spectrum(m: np.ndarray) -> list[float]:
    """Eigenvalues (t +- g) / 2 of a 2x2 Hermitian matrix, g = sqrt((m00 - m11)^2 + 4 |m01|^2)."""
    (m00, m01), (_, m11) = m.tolist()
    d00, d11 = m00.real, m11.real
    gap = math.sqrt((d00 - d11) ** 2 + 4.0 * (m01.real * m01.real + m01.imag * m01.imag))
    return [0.5 * (d00 + d11 + gap), 0.5 * (d00 + d11 - gap)]


def evaluate_all(rho: DensityMatrix, x: ObservableBasis, z: ObservableBasis) -> BoundReport:
    """Evaluate every bound for a bipartite state with qubit A.

    The nine scalars of the module docstring are computed once and every
    field is an expression over them, so exact identities between report
    fields survive floating point unchanged. The seven distributions behind
    the entropies go into one zero-padded table that takes one checked pass.
    One discord objective gives the blocks of both dephased states and is
    then maximised for J_A.
    """
    if rho.dim_a != 2:
        raise UnsupportedDimension(f"evaluate_all needs dim_a == 2, got {rho.dim_a}")
    n = np.stack([_outcome0_bloch(x), _outcome0_bloch(z)], axis=1)
    db = rho.dim_b
    # Rows: the spectra of AB, A, B, XB and ZB, then p_X and p_Z.
    table = np.zeros((7, 2 * db))
    table[0] = np.linalg.eigvalsh(rho.matrix)
    table[1, :2] = _qubit_spectrum(marginal_a(rho).matrix)
    rho_b = marginal_b(rho).matrix
    table[2, :db] = _qubit_spectrum(rho_b) if db == 2 else np.linalg.eigvalsh(rho_b)
    objective = _HolevoObjective(rho, 0.0)
    # Columns: outcome 0 of X, outcome 0 of Z, outcome 1 of X, outcome 1 of Z.
    rows = objective._spectra(n)
    table[3] = rows[1:, 0::2].ravel()
    table[4] = rows[1:, 1::2].ravel()
    table[5:, :2] = rows[0].reshape(2, 2).T
    spectra = table[:5]
    spectra[spectra < SUPPORT_CUT] = 0.0
    s_ab, s_a, s_b, s_xb, s_zb, h_x, h_z = _entropies(table).tolist()
    # The objective's S(B) is the report's, known only after the pass.
    objective.s_b = s_b
    j_a = _maximize_holevo(objective)[0]
    q_mu = incompatibility(x, z)

    cond = s_ab - s_b
    info = s_a + s_b - s_ab
    lhs_coherence = max(0.0, s_xb - s_ab) + max(0.0, s_zb - s_ab)
    lhs_eur = (s_xb - s_b) + (s_zb - s_b)
    holevo_x = max(0.0, s_b + h_x - s_xb)
    holevo_z = max(0.0, s_b + h_z - s_zb)
    delta = info - holevo_x - holevo_z
    gap = (info - j_a) - j_a  # D_A - J_A
    ub_purity = 2.0 * max(0.0, float(np.log2(rho.dim_a)) - cond)
    return BoundReport(
        lhs_coherence=lhs_coherence,
        lhs_eur=lhs_eur,
        q_mu=q_mu,
        cond_entropy=cond,
        lb_theorem2=q_mu - cond,
        lb_theorem3=q_mu - cond + _positive_part(gap),
        lb_theorem4=q_mu - cond + _positive_part(delta),
        ub_purity=ub_purity,
        ub_holevo=ub_purity - holevo_x - holevo_z,
        eur_berta=q_mu + cond,
        eur_pati=q_mu + cond + _positive_part(gap),
        eur_adabi=q_mu + cond + _positive_part(delta),
        certainty_ub=2.0 * float(np.log2(rho.dim_a)) - holevo_x - holevo_z,
        delta=delta,
        discord_gap=gap,
        mutual_info=info,
        holevo_x=holevo_x,
        holevo_z=holevo_z,
    )


FAMILIES = {
    "xstate": x_state,
    "bell_diagonal": bell_diagonal_family,
    "werner": werner,
}


def sweep_family(
    family: str, x: ObservableBasis, z: ObservableBasis, p_values
) -> list[tuple[float, BoundReport]]:
    """Evaluate a named one-parameter family on a grid of p values."""
    try:
        constructor = FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown family {family!r}, expected one of {sorted(FAMILIES)}") from None
    return [(float(p), evaluate_all(constructor(float(p)), x, z)) for p in p_values]

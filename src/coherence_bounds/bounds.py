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

Every spectrum but rho_AB's comes from the blocks M_+- = (rho_B +- n.K) / 2
of the discord objective, the same blocks J_A is maximised over. If n is
the Bloch vector of Y's outcome-0 ket, the dephased state rho_YB is block
diagonal with blocks M_+-(n): p_Y is their traces and the spectrum of
rho_YB is the union of their spectra. rho_B is 2 M_+(0), and the traces'
affine dependence on n carries the Bloch vector of rho_A. So no marginal is
traced out; when the report searches for J_A, the same batched call covers
the grid the search starts from. S(AB) reads the spectrum the state keeps,
which make_density's positivity check built, so a 2x2 report on a
validated state makes no eigensolve. Family states, built unvalidated,
keep no spectrum yet: a sweep's chunk of them gets theirs from one stacked
eigvalsh over their 4x4 matrices. All seven distributions are zero-padded
rows of one table. correlations._report_scalars is the one place that owns
that table: it fills it, cuts spectrum entries below SUPPORT_CUT to exact
zeros, takes the single checked entropy pass and runs the search. It does
so for a stack of states that share dim_b, X and Z: one batched call over
every state's blocks, one table of seven rows per state and one entropy
pass over all of them, one pass that picks every state's search starts,
then each state's ascents in order. Each state's
scalars have the bits of a call over it alone, and evaluate_all is the
stack of one. This module holds q_mu and the field formulas alone.

J_A, and with it the non-convex search, enters exactly three fields:
discord_gap, lb_theorem3 and eur_pati. Every other field is an expression
over entropies alone. evaluate_all and sweep_family always run the search. A
figure sweep names the fields it prints, and its reports run the search only
when one of those fields reads J_A; otherwise the three fields are NaN, and
the batched call covers n = 0, n_X and n_Z alone. Of the four standard
figures only figure 1 (lb_theorem3) searches. A sweep computes q_mu once,
since every row shares X and Z, and builds its family states _SWEEP_CHUNK
rows at a time, each chunk one _report_scalars call. It hands each chunk's
rows over as one list as soon as they are made, so a caller that consumes
the lists one by one, as the figure CSV does, holds at most one chunk of
reports; sweep_family joins the lists.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from .coherence import coherence_rel
from .correlations import _report_scalars
from .entropy import von_neumann_entropy
from .errors import DomainError
from .measurement import ObservableBasis, incompatibility
from .states import DensityMatrix, bell_diagonal_family, werner, x_state

# |x| below this is treated as an exact zero inside max{0, x} terms, so a
# theoretical zero never turns into 1e-16 and flips a tightness comparison.
DUST = 1e-12

# The rows of a figure sweep that share one _report_scalars call. A chunk of
# searched x_state rows holds about 2.5 MB of spectra.
_SWEEP_CHUNK = 1024

# The report fields that read J_A; a report made without the search leaves them NaN.
_DISCORD_FIELDS = frozenset({"discord_gap", "lb_theorem3", "eur_pati"})


def _positive_part(x: float) -> float:
    # max{0, x} with dust cut to zero; NaN (J_A not searched) passes through.
    return 0.0 if x < DUST else x


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


def coherence_bound_t1(rho: DensityMatrix, x: ObservableBasis, z: ObservableBasis) -> tuple[float, float]:
    """Monopartite coherence bound: C(X) + C(Z) >= q_mu - S(rho).

    Returns (lhs, lower_bound).
    """
    lhs = coherence_rel(rho, x) + coherence_rel(rho, z)
    return lhs, incompatibility(x, z) - von_neumann_entropy(rho)


def evaluate_all(rho: DensityMatrix, x: ObservableBasis, z: ObservableBasis) -> BoundReport:
    """Evaluate every bound for a bipartite state with qubit A.

    The nine scalars of the module docstring are computed once and every
    field is an expression over them, so exact identities between report
    fields survive floating point unchanged. correlations._report_scalars
    gives all but q_mu: it fills the table of seven distributions, from the
    spectrum the state keeps and one batched call of the discord objective,
    clamps it, takes its one checked entropy pass and runs the search for
    J_A. A state with dim_a != 2 raises UnsupportedDimension.
    """
    return _fields(incompatibility(x, z), *_report_scalars([rho], x, z, True)[0])


def _fields(
    q_mu: float, s_ab: float, s_a: float, s_b: float, s_xb: float, s_zb: float,
    h_x: float, h_z: float, j_a: float,
) -> BoundReport:
    """The report whose every field is a formula over q_mu and the eight scalars of _report_scalars."""
    cond = s_ab - s_b
    info = s_a + s_b - s_ab
    lhs_coherence = max(0.0, s_xb - s_ab) + max(0.0, s_zb - s_ab)
    lhs_eur = (s_xb - s_b) + (s_zb - s_b)
    holevo_x = max(0.0, s_b + h_x - s_xb)
    holevo_z = max(0.0, s_b + h_z - s_zb)
    delta = info - holevo_x - holevo_z
    gap = (info - j_a) - j_a  # D_A - J_A
    # log2 dim_a is 1: _report_scalars raised for any dim_a other than 2.
    ub_purity = 2.0 * max(0.0, 1.0 - cond)
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
        certainty_ub=2.0 - holevo_x - holevo_z,
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
    return [row for chunk in _sweep(family, x, z, p_values, _DISCORD_FIELDS) for row in chunk]


def _sweep(
    family: str, x: ObservableBasis, z: ObservableBasis, p_values, field_names
) -> Iterator[list[tuple[float, BoundReport]]]:
    """sweep_family's rows for a caller that reads only `field_names` of each report, one chunk at a time.

    The search for J_A runs only if one of `field_names` reads it;
    otherwise the J_A fields of every report are NaN. Each list yielded
    holds the next _SWEEP_CHUNK rows (fewer at the end of the grid), made by
    one _report_scalars call, so a caller that consumes the lists one by one
    never holds more than one chunk of reports.
    """
    try:
        constructor = FAMILIES[family]
    except KeyError:
        raise DomainError(f"unknown family {family!r}, expected one of {sorted(FAMILIES)}") from None
    search = not _DISCORD_FIELDS.isdisjoint(field_names)
    q_mu = incompatibility(x, z)
    grid = iter(p_values)
    while chunk := [float(p) for p in islice(grid, _SWEEP_CHUNK)]:
        scalars = _report_scalars([constructor(p) for p in chunk], x, z, search)
        yield [(p, _fields(q_mu, *row)) for p, row in zip(chunk, scalars)]

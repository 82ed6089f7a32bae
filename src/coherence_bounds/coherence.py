"""Relative entropy of coherence and of purity, plus their unilateral (B|A) variants.

All four quantities are entropy differences:

    C(Y|rho)        = S(dephase_Y(rho)) - S(rho)            monopartite
    C_B|A(Y|rho_AB) = S(dephase_Y(rho_AB)) - S(rho_AB)      bipartite
    P(rho)          = log2 d - S(rho)                       monopartite
    P_B|A(rho_AB)   = log2 dim_a - S(A|B)                   bipartite

Raw differences can undershoot zero by floating-point dust, so reported
values are clamped at zero. dephase_Y(rho) is the state rho keeps for the
basis object Y, which holevo, conditional_entropy and relative_entropy read
too, so each dephased state is built and diagonalised once. It is kept with
the blocks M_y it is built from and the outcome probabilities p_Y, their
traces. holevo reads p_Y, and measure returns the state and p_Y and builds
its conditional states from the kept blocks, so C_B|A(Y), I(Y:B) and the
outcome of measure for one basis object build those blocks once.
"""
from __future__ import annotations

import math

from .correlations import conditional_entropy
from .entropy import von_neumann_entropy
from .errors import DimensionError
from .measurement import ObservableBasis, dephase
from .states import DensityMatrix


def _require_monopartite(rho: DensityMatrix, what: str) -> None:
    if rho.dim_b > 1:
        raise DimensionError(f"{what} expects a monopartite state, got dim_b = {rho.dim_b}")


def _require_bipartite(rho: DensityMatrix, what: str) -> None:
    if rho.dim_b == 1:
        raise DimensionError(f"{what} expects a bipartite state, got dim_b = {rho.dim_b}")


def _coherence(rho: DensityMatrix, basis: ObservableBasis) -> float:
    return max(0.0, von_neumann_entropy(dephase(rho, basis)) - von_neumann_entropy(rho))


def coherence_rel(rho: DensityMatrix, basis: ObservableBasis) -> float:
    """Relative entropy of coherence of a monopartite state in `basis`."""
    _require_monopartite(rho, "coherence_rel")
    return _coherence(rho, basis)


def unilateral_coherence(rho: DensityMatrix, basis: ObservableBasis) -> float:
    """Coherence of A relative to the memory B: S(rho_YB) - S(rho_AB)."""
    _require_bipartite(rho, "unilateral_coherence")
    return _coherence(rho, basis)


def purity_rel(rho: DensityMatrix) -> float:
    """Relative entropy of purity log2 d - S(rho) of a monopartite state."""
    _require_monopartite(rho, "purity_rel")
    return max(0.0, math.log2(rho.dim) - von_neumann_entropy(rho))


def unilateral_purity(rho: DensityMatrix) -> float:
    """Purity of A relative to the memory B: log2 dim_a - S(A|B)."""
    _require_bipartite(rho, "unilateral_purity")
    return max(0.0, math.log2(rho.dim_a) - conditional_entropy(rho))

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherence_bounds.coherence import (
    coherence_rel,
    purity_rel,
    unilateral_coherence,
    unilateral_purity,
)
from coherence_bounds.correlations import conditional_entropy, mutual_information
from coherence_bounds.entropy import von_neumann_entropy, xlog2x
from coherence_bounds.errors import DimensionError
from coherence_bounds.states import (
    bell_diagonal_family,
    make_density,
    marginal_a,
    random_density,
    werner,
    x_state,
)
from coherence_bounds.measurement import bloch_basis, computational_basis, measure, pauli_basis

angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))

PLUS = make_density(np.full((2, 2), 0.5, dtype=complex), 2, 1)


def test_coherence_rel_plus_state_in_computational_basis():
    assert coherence_rel(PLUS, computational_basis(2)) == pytest.approx(1.0, abs=1e-12)


def test_coherence_rel_vanishes_for_incoherent_states():
    rho = make_density(np.diag([0.3, 0.7]), 2, 1)
    assert coherence_rel(rho, computational_basis(2)) == 0.0


def test_coherence_rel_requires_monopartite_input():
    with pytest.raises(DimensionError):
        coherence_rel(werner(0.5), pauli_basis(1))


def test_unilateral_coherence_requires_bipartite_input():
    with pytest.raises(DimensionError):
        unilateral_coherence(PLUS, computational_basis(2))


def test_unilateral_coherence_bell_state():
    # S(rho_XB) = 1 for a Bell state measured in any Pauli basis, S(rho) = 0
    for which in (1, 2, 3):
        c = unilateral_coherence(x_state(1.0), pauli_basis(which))
        assert c == pytest.approx(1.0, abs=1e-9)


def test_purity_rel_extremes():
    pure = make_density(np.diag([1.0, 0.0, 0.0]), 3, 1)
    assert purity_rel(pure) == pytest.approx(np.log2(3), abs=1e-12)
    mixed = make_density(np.eye(3) / 3, 3, 1)
    assert purity_rel(mixed) == 0.0


def test_purities_read_math_log2_with_the_bits_of_np_log2(measured_pairs):
    assert all(math.log2(d) == float(np.log2(d)) for d in range(1, 65))
    for rho, _ in measured_pairs:
        if rho.dim_b == 1:
            expected = max(0.0, float(np.log2(rho.dim)) - von_neumann_entropy(rho))
            assert purity_rel(rho).hex() == expected.hex()
        else:
            expected = max(0.0, float(np.log2(rho.dim_a)) - conditional_entropy(rho))
            assert unilateral_purity(rho).hex() == expected.hex()


def test_unilateral_purity_bell_state():
    assert unilateral_purity(x_state(1.0)) == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0))
def test_unilateral_purity_closed_form_on_bell_diagonal_line(p):
    # spectrum (p, (1-p)/2, (1-p)/2, 0) against a maximally mixed marginal
    expected = 2.0 + xlog2x(np.array([p]))[0] + 2 * xlog2x(np.array([(1 - p) / 2]))[0]
    got = unilateral_purity(bell_diagonal_family(p))
    assert got == pytest.approx(expected, abs=1e-9)


class TestDecompositions:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), angles)
    def test_unilateral_coherence_splits_into_local_and_correlation_parts(self, seed, ang):
        rho = random_density(2, 2, seed)
        basis = bloch_basis(*ang)
        lhs = unilateral_coherence(rho, basis)
        local = coherence_rel(marginal_a(rho), basis)
        i_ab = mutual_information(rho)
        i_yb = mutual_information(measure(rho, basis).joint_state)
        assert lhs == pytest.approx(local + i_ab - i_yb, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_unilateral_purity_splits_into_local_and_correlation_parts(self, seed):
        rho = random_density(2, 2, seed)
        lhs = unilateral_purity(rho)
        assert lhs == pytest.approx(
            purity_rel(marginal_a(rho)) + mutual_information(rho), abs=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), angles)
    def test_purity_dominates_coherence(self, seed, ang):
        rho = random_density(2, 2, seed)
        basis = bloch_basis(*ang)
        assert unilateral_purity(rho) >= unilateral_coherence(rho, basis) - 1e-9
        rho_a = marginal_a(rho)
        assert purity_rel(rho_a) >= coherence_rel(rho_a, basis) - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_mub_pair_sandwich(self, seed):
        # for maximally incompatible qubit bases the coherence sum is pinched
        # between one and two copies of the unilateral purity
        rho = random_density(2, 2, seed)
        csum = (
            unilateral_coherence(rho, pauli_basis(1))
            + unilateral_coherence(rho, pauli_basis(3))
        )
        purity = unilateral_purity(rho)
        assert purity - 1e-9 <= csum <= 2 * purity + 1e-9

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from coherence_bounds.entropy import von_neumann_entropy
from coherence_bounds.errors import DimensionError, DomainError, ProbabilityError, ValidationError
from coherence_bounds.linalg import tensor_product
from coherence_bounds.measurement import (
    ObservableBasis,
    bloch_basis,
    computational_basis,
    dephase,
    incompatibility,
    measure,
    pauli_basis,
)
from coherence_bounds.states import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    DensityMatrix,
    make_density,
    marginal_b,
    random_density,
    werner,
    x_state,
)

angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))


@pytest.mark.parametrize("which,sigma", [(1, SIGMA1), (2, SIGMA2), (3, SIGMA3)])
def test_pauli_basis_columns_are_eigenvectors(which, sigma):
    basis = pauli_basis(which)
    v_plus = basis.vectors[:, 0]
    v_minus = basis.vectors[:, 1]
    assert_allclose(sigma @ v_plus, v_plus, atol=1e-15)
    assert_allclose(sigma @ v_minus, -v_minus, atol=1e-15)
    assert basis.label == f"sigma{which}"


def test_pauli_basis_rejects_unknown_index():
    with pytest.raises(DomainError):
        pauli_basis(4)


def test_computational_basis_is_identity():
    basis = computational_basis(3)
    assert_allclose(basis.vectors, np.eye(3), atol=1e-15)
    assert basis.dim == 3


def test_bloch_basis_poles_and_equator():
    north = bloch_basis(0.0, 0.0)
    assert_allclose(np.abs(north.vectors), np.eye(2), atol=1e-15)
    equator = bloch_basis(np.pi / 2, 0.0)
    # matches the sigma1 eigenbasis up to column phases
    overlap = np.abs(equator.vectors.conj().T @ pauli_basis(1).vectors)
    assert_allclose(overlap, np.eye(2), atol=1e-12)


@settings(max_examples=100)
@given(angles)
def test_bloch_basis_always_orthonormal(ang):
    theta, phi = ang
    basis = bloch_basis(theta, phi)
    gram = basis.vectors.conj().T @ basis.vectors
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_observable_basis_rejects_non_orthonormal_columns():
    with pytest.raises(ValidationError, match="orthonormality"):
        ObservableBasis(2, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), "bad")
    # a NaN defect compares false against the threshold, so it must fail explicitly
    with pytest.raises(ValidationError, match="orthonormality"):
        bloch_basis(float("nan"), 0.0)
    with pytest.raises(ValidationError, match="orthonormality"):
        ObservableBasis(2, np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex), "bad")
    with pytest.raises(DimensionError):
        ObservableBasis(3, np.eye(2, dtype=complex), "bad")


def test_dephase_removes_off_diagonals_in_computational_basis():
    rho = make_density(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), 2, 1)
    out = dephase(rho, computational_basis(2))
    assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)


class TestDephaseProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), angles)
    def test_idempotent(self, seed, ang):
        rho = random_density(2, 2, seed)
        basis = bloch_basis(*ang)
        once = dephase(rho, basis)
        twice = dephase(once, basis)
        assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), angles)
    def test_entropy_never_decreases(self, seed, ang):
        rho = random_density(2, 2, seed)
        out = dephase(rho, bloch_basis(*ang))
        assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), angles)
    def test_commutes_with_tracing_out_a(self, seed, ang):
        rho = random_density(2, 2, seed)
        out = dephase(rho, bloch_basis(*ang))
        assert_allclose(marginal_b(out).matrix, marginal_b(rho).matrix, atol=1e-12)


class TestMeasure:
    def test_werner_half_in_sigma1(self):
        out = measure(werner(0.5), pauli_basis(1))
        assert_allclose(out.probs, [0.5, 0.5], atol=1e-12)
        assert_allclose(out.conditional_states[0].matrix, np.eye(2) / 2 + SIGMA1 / 4, atol=1e-12)
        assert_allclose(out.conditional_states[1].matrix, np.eye(2) / 2 - SIGMA1 / 4, atol=1e-12)
        assert not any(out.degenerate)

    def test_joint_state_is_block_assembly(self):
        rho = random_density(2, 2, 5)
        basis = bloch_basis(1.0, 2.0)
        out = measure(rho, basis)
        blocks = sum(
            out.probs[y]
            * tensor_product(
                np.outer(basis.vectors[:, y], basis.vectors[:, y].conj()),
                out.conditional_states[y].matrix,
            )
            for y in range(2)
        )
        assert_allclose(out.joint_state.matrix, blocks, atol=1e-12)
        assert_allclose(out.joint_state.matrix, dephase(rho, basis).matrix, atol=1e-12)

    def test_degenerate_outcome_flagged(self):
        # x_state(0) = |11><11| never triggers the +1 outcome of sigma3
        out = measure(x_state(0.0), pauli_basis(3))
        assert_allclose(out.probs, [0.0, 1.0], atol=1e-15)
        assert out.degenerate == (True, False)
        assert_allclose(out.conditional_states[0].matrix, np.eye(2) / 2, atol=1e-15)

    def test_bell_state_in_sigma3(self):
        out = measure(x_state(1.0), pauli_basis(3))
        assert_allclose(out.probs, [0.5, 0.5], atol=1e-12)
        assert_allclose(out.conditional_states[0].matrix, np.diag([0.0, 1.0]), atol=1e-12)
        assert_allclose(out.conditional_states[1].matrix, np.diag([1.0, 0.0]), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), angles)
    def test_probs_form_distribution(self, seed, ang):
        out = measure(random_density(2, 3, seed), bloch_basis(*ang))
        assert np.all(out.probs >= 0)
        assert np.sum(out.probs) == pytest.approx(1.0, abs=1e-10)

    def test_basis_must_match_side_a(self):
        with pytest.raises(DimensionError):
            measure(random_density(2, 2, 0), computational_basis(4))

    def test_negative_outcome_probability_message_is_a_plain_float(self):
        # the constructor trusts its input, so nothing upstream rejects this
        rho = DensityMatrix(np.diag([-0.5, 0.0, 1.5, 0.0]).astype(np.complex128), 2, 2)
        with pytest.raises(ProbabilityError, match=r"^negative outcome probability -0\.5$"):
            measure(rho, pauli_basis(3))


class TestIncompatibility:
    def test_mutually_unbiased_pairs(self):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            q = incompatibility(pauli_basis(i), pauli_basis(j))
            assert q == pytest.approx(1.0, abs=1e-9)

    def test_identical_bases_give_zero(self):
        assert incompatibility(pauli_basis(3), pauli_basis(3)) == 0.0
        assert incompatibility(pauli_basis(3), computational_basis(2)) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100)
    @given(angles, angles)
    def test_range_for_qubit_pairs(self, ax, az):
        q = incompatibility(bloch_basis(*ax), bloch_basis(*az))
        assert 0.0 <= q <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            incompatibility(computational_basis(2), computational_basis(3))

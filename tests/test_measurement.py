import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from coherence_bounds.coherence import unilateral_coherence
from coherence_bounds.correlations import holevo
from coherence_bounds.entropy import SUPPORT_CUT, von_neumann_entropy
from coherence_bounds.errors import DimensionError, DomainError, ProbabilityError, ValidationError
from coherence_bounds.linalg import hermitize, tensor_product
from coherence_bounds.measurement import (
    ObservableBasis,
    _conditional_blocks,
    _dephasing,
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


def test_pauli_basis_rejects_unknown_index():
    with pytest.raises(DomainError):
        pauli_basis(4)


def test_computational_basis_is_identity():
    basis = computational_basis(3)
    assert_allclose(basis.vectors, np.eye(3), atol=1e-15)
    assert basis.dim == 3


def test_computational_basis_needs_a_positive_dimension():
    with pytest.raises(DimensionError, match="basis dimension must be positive, got 0"):
        computational_basis(0)


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
        ObservableBasis(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    # a NaN defect compares false against the threshold, so it must fail explicitly
    with pytest.raises(ValidationError, match="orthonormality"):
        bloch_basis(float("nan"), 0.0)
    with pytest.raises(ValidationError, match="orthonormality"):
        ObservableBasis(np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_observable_basis_reads_its_dimension_from_the_vectors(dim):
    basis = ObservableBasis(np.eye(dim)[::-1])
    assert basis.dim == basis.vectors.shape[0] == dim


@pytest.mark.parametrize(
    "vectors", [np.ones(2), np.eye(3, 2, dtype=complex), np.zeros((0, 0))], ids=["1-d", "3x2", "empty"]
)
def test_observable_basis_needs_a_nonempty_square_matrix(vectors):
    with pytest.raises(DimensionError, match="nonempty square matrix"):
        ObservableBasis(vectors)


def test_observable_basis_keeps_a_read_only_copy():
    # editing the caller's array after the orthonormality check leaves the basis as checked
    v = np.eye(2, dtype=complex)
    basis = ObservableBasis(v)
    assert not basis.vectors.flags.writeable
    v[:] = [[1, 1], [0, 0]]
    assert v.flags.writeable and np.array_equal(v, [[1, 1], [0, 0]])
    assert np.array_equal(basis.vectors, np.eye(2))
    assert np.sum(measure(random_density(2, 2, 1), basis).probs) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 0.0


def test_observable_bases_compare_by_identity():
    # a state keeps its dephased states per basis object
    a, b = pauli_basis(1), pauli_basis(1)
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) != hash(b)
    # so do two bases built from one array
    c, d = ObservableBasis(a.vectors), ObservableBasis(a.vectors)
    assert c != d and len({c, d}) == 2


def test_dephase_removes_off_diagonals_in_computational_basis():
    rho = make_density(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), 2, 1)
    out = dephase(rho, computational_basis(2))
    assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-15)


@pytest.mark.parametrize("dim_b", [1, 2, 3, 8])
def test_dephase_keeps_one_read_only_state_per_basis_object(dim_b):
    rho = random_density(2, dim_b, 60 + dim_b)
    basis = bloch_basis(1.1, 0.4)
    kept = dephase(rho, basis)
    assert dephase(rho, basis) is kept
    with pytest.raises(ValueError):
        kept.matrix[0, 0] = 0.5
    # the same bytes as a build on another state object with rho's content
    fresh = dephase(make_density(rho.matrix.copy(), 2, dim_b), basis)
    assert fresh is not kept and fresh.matrix.tobytes() == kept.matrix.tobytes()
    # kept per basis object, never per content
    twin = bloch_basis(1.1, 0.4)
    assert dephase(rho, twin) is not kept and dephase(rho, twin).matrix.tobytes() == kept.matrix.tobytes()


def test_a_state_holds_no_basis_that_nothing_else_holds():
    # the kept dephased states are weakly keyed by their basis objects
    rho = random_density(2, 8, 3)
    unilateral_coherence(rho, pauli_basis(1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(2000):
            basis = bloch_basis(0.001 * k, 0.002 * k)
            unilateral_coherence(rho, basis)
            holevo(rho, basis)
        del basis
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a map that held its bases would hold about 0.4 KB per basis, 0.8 MB here
    assert held < 50_000
    assert len(rho._dephased) == 0


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
        assert out.probs.min() > SUPPORT_CUT

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

    def test_joint_state_is_the_kept_dephased_state(self):
        # so the joint_equals_dephased check compares the kept state with itself
        for measure_first in (True, False):
            rho = random_density(2, 2, 6)
            basis = bloch_basis(0.7, 2.5)
            if measure_first:
                out = measure(rho, basis)
                kept = dephase(rho, basis)
            else:
                kept = dephase(rho, basis)
                out = measure(rho, basis)
            assert out.joint_state is kept and measure(rho, basis).joint_state is kept
            kept_probs = _dephasing(rho, basis).probs
            assert out.probs is not kept_probs and out.probs.flags.writeable
            assert out.probs.tobytes() == kept_probs.tobytes()

    def test_matches_a_fresh_build_bit_for_bit(self, measured_pairs):
        # a first call, which builds the kept dephasing, and a repeat call,
        # which reads it, both give the bits of blocks built on a fresh state
        def fresh(rho, basis):
            rho = DensityMatrix(rho.matrix, rho.dim_a, rho.dim_b)
            cond = _conditional_blocks(rho, basis)
            v = basis.vectors
            joint = np.einsum("iy,jy,yab->iajb", v, v.conj(), cond).reshape(rho.dim, rho.dim)
            probs = np.einsum("yaa->y", cond).real.copy()
            probs[probs < 0.0] = 0.0
            mixed = np.eye(rho.dim_b, dtype=np.complex128) / rho.dim_b
            conditional = [mixed if p <= SUPPORT_CUT else hermitize(cond[y] / p) for y, p in enumerate(probs)]
            return [probs.tobytes(), hermitize(joint).tobytes()] + [m.tobytes() for m in conditional]

        def bits(out):
            matrices = [out.joint_state.matrix] + [c.matrix for c in out.conditional_states]
            return [out.probs.tobytes()] + [m.tobytes() for m in matrices]

        expected = [fresh(rho, basis) for rho, basis in measured_pairs]
        for _ in range(2):
            assert [bits(measure(rho, basis)) for rho, basis in measured_pairs] == expected

    def test_degenerate_outcome_flagged(self):
        # x_state(0) = |11><11| never triggers the +1 outcome of sigma3
        out = measure(x_state(0.0), pauli_basis(3))
        assert_allclose(out.probs, [0.0, 1.0], atol=1e-15)
        assert out.probs[0] <= SUPPORT_CUT < out.probs[1]
        assert_array_equal(out.conditional_states[0].matrix, np.eye(2) / 2)

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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from coherence_bounds.errors import DimensionError
from coherence_bounds.linalg import hermitize, partial_trace, tensor_product


def random_matrix(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_tensor_product_block_convention():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.eye(2)
    out = tensor_product(a, b)
    # left factor on the slow index: out[(i,k),(j,l)] = a[i,j] b[k,l]
    assert out.shape == (4, 4)
    assert out[0, 2] == 2
    assert out[1, 3] == 2
    assert out[2, 0] == 3
    assert out[0, 1] == 0


def test_tensor_product_equals_kron_bitwise():
    for seed, (da, db) in enumerate(((2, 2), (2, 3), (2, 8), (1, 4), (3, 2))):
        a = random_matrix(seed, da)
        b = random_matrix(seed + 50, db)
        assert tensor_product(a, b).tobytes() == np.kron(a, b).tobytes()
    flip = [[0, 1], [1, 0]]
    assert np.array_equal(tensor_product(np.eye(2), flip), np.kron(np.eye(2), flip))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_hermitize_of_a_stack_is_hermitize_of_each_matrix_bitwise(n):
    stack = np.stack([random_matrix(100 * n + k, n) for k in range(4)])
    out = hermitize(stack)
    assert out.shape == stack.shape
    for k, m in enumerate(stack):
        # a single matrix keeps the bits of (M + M^dag) / 2 with a plain transpose
        assert hermitize(m).tobytes() == (0.5 * (m + m.conj().T)).tobytes()
        assert out[k].tobytes() == hermitize(m).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_a_stacked_eigensolve_gives_each_matrix_the_bits_of_a_lone_call(n):
    # the report stacks the blocks of many states into one eigvalsh, and an
    # ascent could stack its trials into one eigh; both rest on this
    rng = np.random.default_rng((n, 33))
    for size in range(2, 17):
        g = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
        stack = hermitize(g @ g.conj().transpose(0, 2, 1))
        values = np.linalg.eigvalsh(stack)
        pairs, vectors = np.linalg.eigh(stack)
        for k in range(size):
            lone = stack[k].copy()
            assert values[k].tobytes() == np.linalg.eigvalsh(lone).tobytes()
            lone_pairs, lone_vectors = np.linalg.eigh(lone)
            assert pairs[k].tobytes() == lone_pairs.tobytes()
            assert vectors[k].tobytes() == lone_vectors.tobytes()


def test_tensor_product_rejects_non_matrices():
    with pytest.raises(DimensionError):
        tensor_product(np.ones(2), np.eye(2))
    with pytest.raises(DimensionError):
        tensor_product(np.eye(2), np.ones((2, 2, 2)))


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_tensor_product_trace_multiplicative(seed):
    a = random_matrix(seed, 2)
    b = random_matrix(seed + 1, 3)
    assert np.trace(tensor_product(a, b)) == pytest.approx(np.trace(a) * np.trace(b), abs=1e-10)


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(3)
    for da, db in ((2, 2), (2, 3), (3, 2)):
        ga = random_matrix(11, da)
        gb = random_matrix(12, db)
        ra = ga @ ga.conj().T
        rb = gb @ gb.conj().T
        ra /= np.trace(ra).real
        rb /= np.trace(rb).real
        joint = tensor_product(ra, rb)
        assert_allclose(partial_trace(joint, da, db, "B"), ra, atol=1e-12)
        assert_allclose(partial_trace(joint, da, db, "A"), rb, atol=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_partial_trace_linear_and_trace_preserving(seed):
    m1 = random_matrix(seed, 6)
    m2 = random_matrix(seed + 7, 6)
    lhs = partial_trace(2.0 * m1 + m2, 2, 3, "B")
    rhs = 2.0 * partial_trace(m1, 2, 3, "B") + partial_trace(m2, 2, 3, "B")
    assert_allclose(lhs, rhs, atol=1e-12)
    assert np.trace(partial_trace(m1, 2, 3, "A")) == pytest.approx(np.trace(m1), abs=1e-12)


def test_partial_trace_bell_state_marginals_maximally_mixed():
    psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert_allclose(partial_trace(rho, 2, 2, "B"), np.eye(2) / 2, atol=1e-15)
    assert_allclose(partial_trace(rho, 2, 2, "A"), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(4), 3, 2, "B")
    with pytest.raises(DimensionError):
        partial_trace(np.eye(4), 2, 2, "C")
    with pytest.raises(DimensionError):
        partial_trace(np.ones((2, 3)), 1, 2, "B")
    with pytest.raises(DimensionError):
        partial_trace(np.full((4, 4), np.nan), 2, 2, "B")


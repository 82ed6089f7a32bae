from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherence_bounds import states
from coherence_bounds.checks import generate_cases
from coherence_bounds.entropy import (
    KERNEL_TOL,
    SUPPORT_CUT,
    TRACE_TOL,
    _entropies,
    _spectrum_entropy,
    binary_entropy,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
    xlog2x,
)
from coherence_bounds.errors import DimensionError, DomainError, ProbabilityError
from coherence_bounds.measurement import bloch_basis, computational_basis, dephase, pauli_basis
from coherence_bounds.states import load_state_file, make_density, random_density, random_unitary, werner

# mpmath, 50 digits: H2(1/4)
H_QUARTER = 0.8112781244591328
# mpmath, 50 digits: entropy of spectrum (5/8, 1/8, 1/8, 1/8)
S_WERNER_HALF = 1.5487949406953985


def test_xlog2x_contract():
    # exactly w log2 w on (0, 1], 0 at 0 and for negative dust, for arrays,
    # lists and 0-d input alike
    w = np.logspace(-300, 0, 601)
    assert np.array_equal(xlog2x(w), w * np.log2(w))
    assert np.array_equal(xlog2x(np.array([0.0, -1e-13, -0.5, -np.inf])), np.zeros(4))
    assert np.array_equal(xlog2x([0.25, 0.0, -1.0]), [-0.5, 0.0, 0.0])
    for scalar, expected in ((np.float64(0.5), -0.5), (np.array(1.0), 0.0), (0.0, 0.0), (-2.0, 0.0)):
        out = xlog2x(scalar)
        assert np.ndim(out) == 0
        assert out == expected


def test_shannon_entropy_uniform_and_point_mass():
    assert shannon_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0, abs=1e-12)
    assert shannon_entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_shannon_entropy_frozen_value():
    assert shannon_entropy(np.array([0.25, 0.75])) == pytest.approx(H_QUARTER, abs=1e-12)


def test_shannon_entropy_tolerates_eigenvalue_dust():
    probs = np.array([1.0, -1e-13, 1e-13])
    assert shannon_entropy(probs) == pytest.approx(0.0, abs=1e-11)


def test_shannon_entropy_rejects_bad_distributions():
    with pytest.raises(ProbabilityError):
        shannon_entropy(np.array([1.001, -0.001 - 1e-3]))
    with pytest.raises(ProbabilityError):
        shannon_entropy(np.array([0.5, 0.4]))
    with pytest.raises(ProbabilityError):
        shannon_entropy(np.array([np.nan, 1.0]))
    with pytest.raises(ProbabilityError, match=r"expected a 1-d probability vector, got shape \(2, 2\)"):
        shannon_entropy(np.eye(2) / 2)


def test_one_sum_tolerance_for_every_distribution():
    # make_density's trace bound is set inside the tolerance the entropies apply
    assert states.TRACE_TOL is TRACE_TOL
    assert shannon_entropy(np.array([0.5, 0.5 + 0.5 * TRACE_TOL])) == pytest.approx(1.0, abs=1e-8)
    # and its message names that tolerance
    with pytest.raises(ProbabilityError, match=f"not 1 within {TRACE_TOL!r}$"):
        shannon_entropy(np.array([0.5, 0.5 + 2.0 * TRACE_TOL]))


def test_batched_entropies_match_single_vectors_bitwise():
    # one zero-padded table, as evaluate_all builds it, against each vector alone
    rng = np.random.default_rng(12)
    vectors = []
    for length in range(2, 17):
        for _ in range(3):
            w = rng.dirichlet(np.full(length, 0.5))
            w[rng.integers(length)] = 0.0
            vectors.append(w / w.sum())
    spectra = []
    for w in vectors[::2]:
        dusty = w.copy()
        dusty[np.argmin(w)] = 5e-13  # eigenvalue dust below SUPPORT_CUT, where w is 0
        spectra.append(dusty)
    table = np.zeros((len(spectra) + len(vectors), 16))
    for row, w in enumerate(spectra + vectors):
        table[row, : w.size] = w
    cut = table[: len(spectra)]
    cut[cut < SUPPORT_CUT] = 0.0
    single = [_spectrum_entropy(w) for w in spectra] + [shannon_entropy(w) for w in vectors]
    assert _entropies(table) == single


def _vectorised_entropies(table):
    # the all-numpy pass that _entropies replaced, kept as its oracle
    lowest = np.minimum.reduce(table, axis=1, initial=np.inf)
    p = np.maximum(table, 0.0)
    totals = np.add.accumulate(p, axis=1)[:, -1] if p.shape[1] else np.zeros(len(p))
    ok = (lowest >= -1e-12) & (np.abs(totals - 1.0) <= 1e-9)
    if not ok.all():
        row = int(ok.argmin())
        if lowest[row] < -1e-12:
            raise ProbabilityError(f"negative probability {float(lowest[row])!r}")
        raise ProbabilityError(f"probabilities sum to {float(totals[row])!r}, not 1 within {TRACE_TOL!r}")
    return -np.add.accumulate(xlog2x(p), axis=1)[:, -1]


def _random_row(rng, length):
    # a distribution on the first k entries, zero padded to length, with
    # exact zeros, point masses and eigenvalue dust in [-1e-12, 0)
    k = int(rng.integers(1, length + 1))
    w = rng.dirichlet(np.full(k, rng.choice([0.05, 0.5, 2.0])))
    w[rng.random(k) < 0.2] = 0.0
    if not w.any() or rng.random() < 0.05:
        w = np.zeros(k)
        w[rng.integers(k)] = 1.0
    w /= w.sum()
    dust = (w == 0.0) & (rng.random(k) < 0.5)
    w[dust] = -rng.uniform(0.0, 1e-12, int(dust.sum()))
    return np.concatenate([w, np.zeros(length - k)])


def test_entropies_match_the_vectorised_pass_bitwise():
    rng = np.random.default_rng(2024)
    for rows in range(1, 9):
        for length in range(1, 17):
            for _ in range(4):
                table = np.array([_random_row(rng, length) for _ in range(rows)])
                got = np.array(_entropies(table))
                # same bits, the sign of zero included
                assert got.view(np.uint64).tolist() == _vectorised_entropies(table).view(np.uint64).tolist()


def _message(fn, table):
    with pytest.raises(ProbabilityError) as raised:
        fn(table)
    return str(raised.value)


@pytest.mark.parametrize("position", [0, 2, 3, 6])
@pytest.mark.parametrize("negative", [False, True])
def test_entropies_raise_the_vectorised_message_on_nan(position, negative):
    # the middle row is (1/4, 1/4, 1/4, 1/4) padded to 7 entries, with a NaN
    # first, in the middle, last or in the padding, and maybe a negative entry
    table = np.zeros((3, 7))
    table[:, :4] = 0.25
    table[1, position] = np.nan
    if negative:
        table[1, 5] = -0.5
    assert _message(_entropies, table) == _message(_vectorised_entropies, table)
    assert _message(shannon_entropy, table[1]) == _message(_vectorised_entropies, table[1:2])


@pytest.mark.parametrize("vector", [[], [1.001, -0.002], [0.5, 0.4], [np.inf, 0.0], [-np.inf, 1.0, 1.0]])
def test_entropies_raise_the_vectorised_message(vector):
    table = np.array(vector, dtype=np.float64)[None]
    assert _message(shannon_entropy, vector) == _message(_vectorised_entropies, table)


@pytest.mark.parametrize("bad", [np.array([0.5, 0.5 + 2e-9]), np.array([1.0, -2e-12])])
def test_batched_entropies_raise_the_single_vector_message(bad):
    with pytest.raises(ProbabilityError) as single:
        shannon_entropy(bad)
    table = np.zeros((3, 4))
    table[0, :2] = table[2, 1:3] = [0.25, 0.75]
    table[1, :2] = bad
    with pytest.raises(ProbabilityError) as batched:
        _entropies(table)
    assert str(batched.value) == str(single.value)


def test_binary_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-12)


@settings(max_examples=100)
@given(st.floats(0.0, 1.0))
def test_binary_entropy_symmetric(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
    assert shannon_entropy(np.array([p, 1.0 - p])) == pytest.approx(binary_entropy(p), abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_von_neumann_entropy_pure_and_mixed():
    pure = make_density(np.diag([1.0, 0.0, 0.0]), dim_a=3, dim_b=1)
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    mixed = make_density(np.eye(4) / 4, dim_a=2, dim_b=2)
    assert von_neumann_entropy(mixed) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(werner(0.5)) == pytest.approx(S_WERNER_HALF, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_von_neumann_entropy_unitary_invariant(seed):
    rho = random_density(3, 1, seed)
    u = random_unitary(3, seed + 1)
    rotated = make_density(u @ rho.matrix @ u.conj().T, dim_a=3, dim_b=1)
    assert von_neumann_entropy(rotated) == pytest.approx(von_neumann_entropy(rho), abs=1e-10)


def test_relative_entropy_self_is_zero():
    rho = random_density(4, 1, 9)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_pure_vs_maximally_mixed():
    pure = make_density(np.diag([1.0, 0.0, 0.0, 0.0]), dim_a=4, dim_b=1)
    mixed = make_density(np.eye(4) / 4, dim_a=4, dim_b=1)
    assert relative_entropy(pure, mixed) == pytest.approx(2.0, abs=1e-10)


def test_relative_entropy_disjoint_supports_is_infinite():
    zero = make_density(np.diag([1.0, 0.0]), dim_a=2, dim_b=1)
    one = make_density(np.diag([0.0, 1.0]), dim_a=2, dim_b=1)
    assert relative_entropy(zero, one) == np.inf


def _relative_entropy_direct(rho, sigma):
    """S(rho || sigma) from a fresh eigh of each matrix, always restricted to the supports with np.ix_."""
    wr, vr = np.linalg.eigh(rho.matrix)
    ws, vs = np.linalg.eigh(sigma.matrix)
    overlap = np.abs(vr.conj().T @ vs) ** 2
    on_r = wr > SUPPORT_CUT
    on_s = ws > SUPPORT_CUT
    if not np.all(on_s):
        kernel_mass = overlap[np.ix_(on_r, ~on_s)].sum(axis=1)
        if kernel_mass.size and float(kernel_mass.max()) > KERNEL_TOL:
            return float("inf")
    lam = wr[on_r]
    mu = ws[on_s]
    cross = float((overlap[np.ix_(on_r, on_s)] * lam[:, None] * np.log2(mu)[None, :]).sum())
    return float(xlog2x(lam).sum() - cross)


def _pure_2x2(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return make_density(np.outer(v, v.conj()) / np.vdot(v, v).real, 2, 2)


def _leaking_pair(t):
    """A rank-5 2x3 state sigma and rho = U sigma U^dag for U = exp(i t H), with H a fixed random Hermitian.

    sigma's kernel is one vector, and rho's support leaks into it by a mass
    of order t^2: about 4.5e-12 at t = 1e-6, below KERNEL_TOL, and 4.5e-10
    at t = 1e-5, above it.
    """
    rng = np.random.default_rng(7)
    m = states._ginibre(rng, 6, 5)
    h = states._gaussian(rng, 6, 6)
    w, v = np.linalg.eigh(h + h.conj().T)
    u = (v * np.exp(1j * t * w)) @ v.conj().T
    return make_density(u @ m @ u.conj().T, 2, 3), make_density(m, 2, 3)


def test_relative_entropy_reads_the_kept_eigensystems_bit_for_bit():
    # reading each state's kept eigh, and restricting it to the supports as
    # slices of the ascending spectra, gives the bits of a direct evaluation
    # with np.ix_, at every rank
    pairs = []
    for case in generate_cases(42, 100):
        sigma = random_density(2, 2, case.state_seed + 1)
        deph = dephase(case.rho, case.x)
        pairs += [(case.rho, sigma), (case.rho, case.rho), (case.rho, deph), (deph, dephase(sigma, case.x))]
    for seed in range(20):
        pure, mixed = _pure_2x2(seed), random_density(2, 2, seed)
        pinched = dephase(pure, bloch_basis(0.3 * seed, 0.1))
        pairs += [(pure, mixed), (mixed, pure), (pure, pure), (pure, pinched), (pinched, pure)]
    for dim_b in (3, 8):
        for seed in range(10):
            rho = random_density(2, dim_b, 300 + seed)
            pairs.append((rho, dephase(rho, bloch_basis(0.5 * seed, 0.2 * seed))))
    rank2 = load_state_file(Path(__file__).parent / "data" / "rank2_2x4.txt")
    for basis in (pauli_basis(1), pauli_basis(3), bloch_basis(0.7, 1.2)):
        pairs += [(rank2, dephase(rank2, basis)), (dephase(rank2, basis), rank2)]
    pairs += [_leaking_pair(1e-6), _leaking_pair(1e-5)]
    values = [relative_entropy(rho, sigma) for rho, sigma in pairs]
    assert [v.hex() for v in values] == [_relative_entropy_direct(rho, sigma).hex() for rho, sigma in pairs]
    # both the finite and the disjoint-support (inf) paths were compared, and
    # the leaking pair is finite on one side of KERNEL_TOL and inf on the other
    assert np.isinf(values).any() and np.isfinite(values).any()
    assert np.isfinite(values[-2]) and np.isinf(values[-1])


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(DimensionError):
        relative_entropy(random_density(2, 1, 0), random_density(3, 1, 0))


def test_relative_entropy_nonnegative_many_pairs():
    # Klein inequality over 1000 random full-rank pairs
    worst = np.inf
    idx = 0
    for dim in (2, 3, 4):
        for seed in range(334 if dim == 2 else 333):
            rho = random_density(dim, 1, 10_000 + idx)
            sigma = random_density(dim, 1, 20_000 + idx)
            worst = min(worst, relative_entropy(rho, sigma))
            idx += 1
    assert idx == 1000
    assert worst >= -1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_relative_entropy_contracts_under_dephasing(seed):
    rho = random_density(3, 1, seed)
    sigma = random_density(3, 1, seed + 13)
    basis = computational_basis(3)
    before = relative_entropy(rho, sigma)
    after = relative_entropy(dephase(rho, basis), dephase(sigma, basis))
    assert after <= before + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_relative_entropy_to_dephased_state_is_entropy_gap(seed):
    # pinching identity: the off-diagonal part costs exactly the entropy increase
    rho = random_density(4, 1, seed)
    basis = computational_basis(4)
    pinched = dephase(rho, basis)
    gap = von_neumann_entropy(pinched) - von_neumann_entropy(rho)
    assert relative_entropy(rho, pinched) == pytest.approx(gap, abs=1e-8)

import copy
import pickle
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from coherence_bounds.entropy import _spectrum_entropy, relative_entropy, von_neumann_entropy
from coherence_bounds.errors import DomainError, ParseError, ValidationError
from coherence_bounds import states
from coherence_bounds.bounds import FAMILIES, evaluate_all
from coherence_bounds.checks import generate_cases
from coherence_bounds.cli import FIGURES
from coherence_bounds.linalg import hermitize, partial_trace, tensor_product
from coherence_bounds.measurement import dephase, measure, pauli_basis
from coherence_bounds.states import (
    PSI_PLUS,
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    DensityMatrix,
    bell_diagonal,
    bell_diagonal_family,
    load_state_file,
    make_density,
    marginal_a,
    marginal_b,
    random_density,
    random_unitary,
    save_state_file,
    werner,
    x_state,
)

PSI_MINUS = np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2)
unit = st.floats(0.0, 1.0)


def _in_random_eigenbasis(eigenvalues, seed):
    """U diag(eigenvalues) U^dag for the unitary random_unitary(len(eigenvalues), seed)."""
    u = random_unitary(len(eigenvalues), seed)
    return (u * np.asarray(eigenvalues)) @ u.conj().T


class TestMakeDensity:
    def test_accepts_bell_projector(self):
        rho = make_density(np.outer(PSI_PLUS, PSI_PLUS.conj()), 2, 2)
        assert rho.dim_a == 2 and rho.dim_b == 2 and rho.dim == 4

    def test_symmetrizes_hermiticity_dust(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-12j
        rho = make_density(m, 2, 1)
        defect = np.max(np.abs(rho.matrix - rho.matrix.conj().T))
        assert defect == 0.0

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            make_density(np.eye(2) * 0.45, 2, 1)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError, match="hermiticity"):
            make_density(m, 2, 1)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="positivity"):
            make_density(np.diag([1.5, -0.5]), 2, 1)

    def test_rejects_a_spectrum_the_entropy_pass_rejects(self):
        # each eigenvalue clears EIGENVALUE_FLOOR, but with the two negative
        # ones cut to zero the others sum to 1 + 1.6e-9
        m = _in_random_eigenbasis([-8e-10, -8e-10, 0.3, 0.7 + 1.6e-9], 1)
        with pytest.raises(ValidationError, match="support") as excinfo:
            make_density(m, 2, 2)
        assert excinfo.type is ValidationError

    def test_rejects_a_marginal_that_measuring_a_rejects(self):
        # every eigenvalue clears the floor and the support check, but
        # measuring A in sigma3 would give the probability -9e-10
        with pytest.raises(ValidationError, match="^marginal: smallest eigenvalue of rho_A -9.000e-10"):
            make_density(np.diag([-9e-10, 0.0, 0.0, 1.0]), 2, 2)

    def test_monopartite_marginal_check_reads_the_state_spectrum(self, monkeypatch):
        # with dim_b == 1 rho_A is the state itself: one eigensolve validates it
        matrix, eigvalsh, calls = random_density(2, 1, 5).matrix, np.linalg.eigvalsh, []

        def counted(matrix):
            calls.append(matrix)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        make_density(matrix, 2, 1)
        assert len(calls) == 1
        with pytest.raises(ValidationError, match="^marginal: smallest eigenvalue of rho_A -5.000e-12"):
            make_density(np.diag([-5e-12, 1.0 + 5e-12]), 2, 1)

    @pytest.mark.parametrize("dim_b", [2, 3, 8])
    def test_every_state_accepted_near_the_marginal_floor_measures(self, dim_b):
        # every negative eigenvector is |a> (x) |b> with |a> a sigma3 ket, so
        # the sigma3 outcome a has the probability rho_A's smallest eigenvalue,
        # the negative mass; that lies on the floor, one ulp either side of it,
        # on -SUPPORT_CUT or anywhere in (-3e-12, 0)
        floor = states.MARGINAL_FLOOR
        masses = [floor, np.nextafter(floor, 0.0), np.nextafter(floor, -1.0), -1e-12]
        rng = np.random.default_rng((8, dim_b))
        outcomes = []
        for i in range(40):
            negative = rng.uniform(0.0, 1.0, int(rng.integers(1, dim_b + 1)))
            mass = masses[i] if i < len(masses) else -rng.uniform(0.0, 3e-12)
            negative *= mass / negative.sum()
            positive = rng.random(dim_b)
            positive *= (1.0 - negative.sum()) / positive.sum()
            m = np.zeros((2 * dim_b, 2 * dim_b), dtype=complex)
            u = random_unitary(dim_b, int(rng.integers(2**31)))[:, : negative.size]
            m[:dim_b, :dim_b] = (u * negative) @ u.conj().T
            m[dim_b:, dim_b:] = _in_random_eigenbasis(positive, int(rng.integers(2**31)))
            if rng.random() < 0.5:  # the negative mass on |1> instead
                m = np.roll(m, (dim_b, dim_b), axis=(0, 1))
            try:
                rho = make_density(m, 2, dim_b)
            except ValidationError as exc:
                assert str(exc).startswith("marginal:")
                outcomes.append("rejected")
                continue
            report = evaluate_all(rho, pauli_basis(1), pauli_basis(3))
            assert np.isfinite(list(asdict(report).values())).all()
            for which in (1, 3):
                measure(rho, pauli_basis(which))
            outcomes.append("evaluated")
        # -SUPPORT_CUT lies 1e-14 below the floor
        assert outcomes[3] == "rejected"
        assert set(outcomes[4:]) == {"rejected", "evaluated"}

    @pytest.mark.parametrize("dim_b", [2, 3, 8])
    def test_every_state_accepted_near_the_eigenvalue_floor_evaluates(self, dim_b):
        rng = np.random.default_rng((7, dim_b))
        outcomes = []
        for _ in range(30):
            d = 2 * dim_b
            negative = rng.uniform(-9e-10, 0.0, int(rng.integers(1, d)))
            positive = rng.random(d - negative.size)
            positive *= (1.0 - negative.sum()) / positive.sum()
            m = _in_random_eigenbasis(np.concatenate([negative, positive]), int(rng.integers(2**31)))
            try:
                rho = make_density(m, 2, dim_b)
            except ValidationError:
                outcomes.append("rejected")
                continue
            report = evaluate_all(rho, pauli_basis(1), pauli_basis(3))
            assert np.isfinite(list(asdict(report).values())).all()
            outcomes.append("evaluated")
        # the corpus reaches both sides of the boundary
        assert set(outcomes) == {"rejected", "evaluated"}

    @pytest.mark.parametrize("dim_b", [2, 3, 8])
    def test_every_state_accepted_near_the_trace_and_hermiticity_thresholds_evaluates(self, dim_b):
        # |Tr - 1| and max|M - M^dag| each placed inside a threshold, on it or
        # outside it (1e-4 of the threshold away, far above the rounding of
        # either), and the trace also on TRACE_TOL, singly and combined
        t, h = states.TRACE_BOUNDARY_TOL, states.HERMITICITY_TOL
        near = {"inside": 1.0 - 1e-4, "on": 1.0, "outside": 1.0 + 1e-4}
        traces = [("inside", 0.0), ("outside", states.TRACE_TOL), ("outside", -states.TRACE_TOL)]
        traces += [(side, sign * f * t) for side, f in near.items() for sign in (1.0, -1.0)]
        defects = [("inside", 0.0)] + [(side, f * h) for side, f in near.items()]
        rng = np.random.default_rng((9, dim_b))
        outcomes = []
        for seed in range(8):
            rho = random_density(2, dim_b, 900 + seed).matrix
            i, j = rng.choice(2 * dim_b, 2, replace=False)
            skew = np.zeros((2 * dim_b, 2 * dim_b))
            skew[i, j], skew[j, i] = 0.5, -0.5  # max|S - S^dag| = 1, trace 0
            for t_side, dt in traces:
                for h_side, dh in defects:
                    # the hermiticity check comes first
                    if h_side == "outside":
                        allowed = ("hermiticity:",)
                    else:
                        allowed = tuple(
                            f"{name}:" for name, side in (("hermiticity", h_side), ("trace", t_side)) if side != "inside"
                        )
                    try:
                        state = make_density(rho * (1.0 + dt) + dh * skew, 2, dim_b)
                    except ValidationError as exc:
                        assert type(exc) is ValidationError
                        assert allowed and str(exc).startswith(allowed), exc
                        outcomes.append("rejected")
                        continue
                    assert "outside" not in (t_side, h_side)
                    report = evaluate_all(state, pauli_basis(1), pauli_basis(3))
                    assert np.isfinite(list(asdict(report).values())).all()
                    for which in (1, 3):
                        measure(state, pauli_basis(which))
                    outcomes.append("evaluated")
        assert set(outcomes) == {"rejected", "evaluated"}

    def test_states_compare_and_hash_by_identity(self):
        a, b = werner(0.3), werner(0.3)
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1 and len({a, b, a}) == 2
        out = measure(a, pauli_basis(1))
        assert out == out and out != measure(a, pauli_basis(1))
        assert {out: 1}[out] == 1
        # a check case compares its fields, the state among them by identity
        case = generate_cases(42, 1)[0]
        assert case == case and {case: 1}[case] == 1

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            make_density(np.eye(3) / 3, 2, 2)

    @pytest.mark.parametrize("dim_b", [1, 2, 3, 8])
    def test_keeps_the_spectrum_of_a_read_only_matrix(self, dim_b):
        rho = random_density(2, dim_b, 30 + dim_b)
        derived = DensityMatrix(rho.matrix.copy(), 2, dim_b)
        for state in (rho, derived):
            with pytest.raises(ValueError):
                state.matrix[0, 0] = 0.5
            assert state._spectrum.tobytes() == np.linalg.eigvalsh(state.matrix).tobytes()

    @pytest.mark.parametrize("dim_b", [1, 2, 3, 8])
    def test_keeps_its_marginals_and_entropy(self, dim_b):
        rho = random_density(2, dim_b, 40 + dim_b)
        rebuilt = DensityMatrix(rho.matrix.copy(), 2, dim_b)
        for state in (rho, rebuilt):
            assert marginal_a(state) is marginal_a(state)
            assert marginal_b(state) is marginal_b(state)
            for kept, over in ((marginal_a(state), "B"), (marginal_b(state), "A")):
                with pytest.raises(ValueError):
                    kept.matrix[0, 0] = 0.5
                expected = hermitize(partial_trace(state.matrix, 2, dim_b, over))
                assert kept.matrix.tobytes() == expected.tobytes()
            expected = _spectrum_entropy(np.linalg.eigvalsh(state.matrix))
            assert state._entropy.hex() == expected.hex()
            assert von_neumann_entropy(state) is state._entropy
        # kept per object, not per content: the rebuilt state computed its own
        assert marginal_a(rebuilt) is not marginal_a(rho)
        assert marginal_b(rebuilt) is not marginal_b(rho)

    @pytest.mark.parametrize("dim_b", [1, 2, 3, 8])
    def test_keeps_a_read_only_eigensystem(self, dim_b):
        rho = random_density(2, dim_b, 50 + dim_b)
        w, v = rho._eigh
        assert rho._eigh is rho._eigh
        for kept in (w, v):
            with pytest.raises(ValueError):
                kept[0] = 0.5
        expected = np.linalg.eigh(rho.matrix)
        assert w.tobytes() == expected[0].tobytes() and v.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize(
        "clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_a_copy_is_rebuilt_from_the_matrix_and_computes_its_own_values(self, clone):
        # copied once it keeps a dephased state (in a WeakKeyDictionary, which
        # cannot be pickled) and its eigensystem
        rho = random_density(2, 3, 7)
        basis = pauli_basis(1)
        kept = dephase(rho, basis)
        assert relative_entropy(rho, kept) >= 0.0
        twin = clone(rho)
        assert (twin.dim_a, twin.dim_b) == (2, 3)
        assert twin.matrix.tobytes() == rho.matrix.tobytes() and not twin.matrix.flags.writeable
        assert sorted(vars(twin)) == ["dim_a", "dim_b", "matrix"]
        assert dephase(twin, basis) is not kept
        assert dephase(twin, basis).matrix.tobytes() == kept.matrix.tobytes()


class TestXState:
    def test_explicit_matrix(self):
        p = 0.7
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = p / 2
        expected[3, 3] = 1 - p
        assert_allclose(x_state(p).matrix, expected, atol=1e-15)

    def test_marginal_a_closed_form(self):
        # tr_B gives diag(p/2, 1 - p/2)
        assert_allclose(marginal_a(x_state(0.5)).matrix, np.diag([0.25, 0.75]), atol=1e-15)

    @settings(max_examples=50)
    @given(unit)
    def test_marginals_stay_diagonal(self, p):
        rho_a = marginal_a(x_state(p)).matrix
        assert_allclose(rho_a, np.diag([p / 2, 1 - p / 2]), atol=1e-12)

    def test_endpoints(self):
        assert_allclose(x_state(1.0).matrix, np.outer(PSI_PLUS, PSI_PLUS.conj()), atol=1e-15)
        assert_allclose(x_state(0.0).matrix, np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            x_state(1.2)
        with pytest.raises(DomainError):
            x_state(-0.1)


class TestWerner:
    def test_endpoints(self):
        assert_allclose(werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)
        assert_allclose(werner(1.0).matrix, np.outer(PSI_PLUS, PSI_PLUS.conj()), atol=1e-15)

    @settings(max_examples=50)
    @given(unit)
    def test_spectrum(self, p):
        w = np.sort(np.linalg.eigvalsh(werner(p).matrix))[::-1]
        expected = np.sort([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])[::-1]
        assert_allclose(w, expected, atol=1e-12)

    @settings(max_examples=25)
    @given(unit)
    def test_marginals_maximally_mixed(self, p):
        assert_allclose(marginal_a(werner(p)).matrix, np.eye(2) / 2, atol=1e-12)
        assert_allclose(marginal_b(werner(p)).matrix, np.eye(2) / 2, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            werner(1.0001)


class TestBellDiagonal:
    def test_singlet_corner(self):
        rho = bell_diagonal(-1.0, -1.0, -1.0)
        assert_allclose(rho.matrix, np.outer(PSI_MINUS, PSI_MINUS.conj()), atol=1e-15)

    def test_invalid_correlation_vector(self):
        # (1,1,1) has a -1/2 eigenvalue
        with pytest.raises(ValidationError, match="positivity"):
            bell_diagonal(1.0, 1.0, 1.0)

    def test_family_is_rank_three_mixture(self):
        p = 0.4
        psi_plus = np.outer(PSI_PLUS, PSI_PLUS.conj())
        psi_minus = np.outer(PSI_MINUS, PSI_MINUS.conj())
        phi_plus = np.zeros((4, 4), dtype=complex)
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        phi_plus = np.outer(v, v.conj())
        expected = p * psi_minus + (1 - p) / 2 * (psi_plus + phi_plus)
        assert_allclose(bell_diagonal_family(p).matrix, expected, atol=1e-12)

    def test_family_spectrum_at_third(self):
        w = np.sort(np.linalg.eigvalsh(bell_diagonal_family(1 / 3).matrix))[::-1]
        assert_allclose(w, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)

    @settings(max_examples=25)
    @given(unit)
    def test_family_spectrum(self, p):
        w = np.sort(np.linalg.eigvalsh(bell_diagonal_family(p).matrix))[::-1]
        expected = np.sort([p, (1 - p) / 2, (1 - p) / 2, 0.0])[::-1]
        assert_allclose(w, expected, atol=1e-12)

    @settings(max_examples=25)
    @given(unit)
    def test_family_marginals_maximally_mixed(self, p):
        rho = bell_diagonal_family(p)
        assert_allclose(marginal_a(rho).matrix, np.eye(2) / 2, atol=1e-12)
        assert_allclose(marginal_b(rho).matrix, np.eye(2) / 2, atol=1e-12)


class TestFamilyConstructors:
    """The families build from read-only module constants and wrap their matrices unvalidated."""

    @pytest.mark.parametrize("family", [x_state, werner, bell_diagonal_family])
    def test_make_density_accepts_each_state_unchanged(self, family):
        sweeps = [c.grid() for c in FIGURES.values() if FAMILIES[c.family] is family]
        for p in np.concatenate([np.linspace(0.0, 1.0, 1001), [0.0, 1.0], *sweeps]):
            trusted = family(float(p))
            checked = make_density(trusted.matrix.copy(), 2, 2)
            assert np.array_equal(checked.matrix, trusted.matrix)
            assert np.array_equal(checked._spectrum, trusted._spectrum)

    def test_matrices_match_a_build_from_scratch(self):
        # the constants change no bit: the same operations in the same order
        projector = np.outer(PSI_PLUS, PSI_PLUS.conj())
        pairs = [tensor_product(s, s) for s in (SIGMA0, SIGMA1, SIGMA2, SIGMA3)]
        for p in np.linspace(0.0, 1.0, 101):
            p = float(p)
            x = p * projector
            x[3, 3] += 1.0 - p
            bell = pairs[0]
            for t, pair in zip((1.0 - 2.0 * p, -p, -p), pairs[1:]):
                bell = bell + t * pair
            for state, m in (
                (x_state(p), x),
                (werner(p), p * projector + (1.0 - p) / 4.0 * np.eye(4)),
                (bell_diagonal_family(p), 0.25 * bell),
            ):
                built = make_density(m, 2, 2)
                assert np.array_equal(state.matrix, built.matrix)
                assert np.array_equal(state._spectrum, built._spectrum)

    def test_constants_are_read_only(self):
        for constant in (states._PSI_PLUS_PROJECTOR, states._IDENTITY4, *states._SIGMA_PAIRS):
            assert not constant.flags.writeable


def _record_eigvalsh(monkeypatch) -> list:
    """Wrap np.linalg.eigvalsh; the returned list gains the shape of each call's argument."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes


class TestStateSpectra:
    """_state_spectra solves the states that keep no spectrum in one eigvalsh and leaves kept ones alone."""

    def test_a_mixed_stack_solves_only_its_fresh_states(self, monkeypatch):
        validated = [random_density(2, 2, seed) for seed in range(5)]
        kept = [rho._spectrum for rho in validated]
        fresh = [family(p) for p in (0.0, 0.3, 1.0) for family in (x_state, werner, bell_diagonal_family)]
        mixed = [rho for pair in zip(fresh, validated) for rho in pair] + fresh[len(validated) :]
        shapes = _record_eigvalsh(monkeypatch)
        spectra = states._state_spectra(mixed)
        assert shapes == [(len(fresh), 4, 4)]
        for rho, w in zip(mixed, spectra):
            assert w is rho._spectrum
            assert w.tobytes() == np.linalg.eigvalsh(rho.matrix.copy()).tobytes()
        for rho, w in zip(validated, kept):
            assert rho._spectrum is w
        # a second call finds every spectrum kept and solves nothing
        del shapes[:]
        again = states._state_spectra(mixed)
        assert shapes == [] and all(a is b for a, b in zip(again, spectra))

    def test_a_lone_state_makes_one_eigvalsh(self, monkeypatch):
        rho = werner(0.4)
        shapes = _record_eigvalsh(monkeypatch)
        assert rho._spectrum is rho._spectrum
        assert shapes == [(1, 4, 4)]
        assert states._state_spectra([rho])[0] is rho._spectrum and shapes == [(1, 4, 4)]


class TestRandomStates:
    def test_seed_determinism(self):
        a = random_density(2, 2, 7)
        b = random_density(2, 2, 7)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.allclose(a.matrix, random_density(2, 2, 8).matrix)

    def test_output_is_valid_density(self):
        for seed in range(20):
            rho = random_density(2, 3, seed)
            w = np.linalg.eigvalsh(rho.matrix)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert w.min() > 0  # Ginibre construction is almost surely full rank

    def test_random_unitary_is_unitary_and_deterministic(self):
        u = random_unitary(4, 3)
        assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        assert np.array_equal(u, random_unitary(4, 3))


class TestStateFiles:
    def test_roundtrip(self, tmp_path):
        rho = random_density(2, 3, 21)
        path = tmp_path / "state.txt"
        save_state_file(rho, path)
        loaded = load_state_file(path)
        assert loaded.dim_a == 2 and loaded.dim_b == 3
        assert_allclose(loaded.matrix, rho.matrix, atol=1e-15)

    def test_unlisted_entries_default_to_zero(self, tmp_path):
        path = tmp_path / "diag.txt"
        path.write_text("dims: 2 1\n0 0 0.5 0\n1 1 0.5 0\n")
        assert_allclose(load_state_file(path).matrix, np.eye(2) / 2, atol=1e-15)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n\ndims: 2 1\n0 0 1 0\n# trailing\n")
        assert load_state_file(path).matrix[0, 0] == 1.0

    def test_missing_dims_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 1 0\n")
        with pytest.raises(ParseError):
            load_state_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# only a comment\n\n", "empty state file"),
            ("dims: 2 two\n0 0 1 0\n", "line 1: dims must be integers"),
            ("dims: 2 0\n0 0 1 0\n", "line 1: dims must be positive"),
            ("dims: 2 1\n0 0 1\n", "line 2: expected '<row> <col> <re> <im>', got '0 0 1'"),
        ],
        ids=["empty", "non-integer-dims", "non-positive-dims", "three-field-entry"],
    )
    def test_malformed_file_names_its_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            load_state_file(path)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2 1\n0 0 one 0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_state_file(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2 1\n2 0 1 0\n")
        with pytest.raises(ParseError):
            load_state_file(path)

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 2 1\n0 0 0.5 0\n0 0 0.5 0\n1 1 0.5 0\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_state_file(path)

    def test_loaded_state_is_validated(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("dims: 2 1\n0 0 0.5 0\n1 1 0.4 0\n")
        with pytest.raises(ValidationError, match="trace"):
            load_state_file(path)

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherence_bounds import _corpora, cli, correlations, measurement
from coherence_bounds.correlations import (
    _bloch,
    _chart,
    _geodesic_grid,
    _HolevoObjective,
    _QubitMemoryObjective,
    _STENCIL,
    _maximize_holevo,
    _report_scalars,
    _spectra,
    _tangent_frame,
    classical_correlation,
    conditional_entropy,
    holevo,
    mutual_information,
)
from coherence_bounds.checks import generate_cases
from coherence_bounds.coherence import unilateral_coherence
from coherence_bounds.entropy import SUPPORT_CUT, binary_entropy, shannon_entropy, von_neumann_entropy
from coherence_bounds.errors import DimensionError, ProbabilityError, UnsupportedDimension
from coherence_bounds.linalg import hermitize, tensor_product
from coherence_bounds.measurement import (
    _conditional_blocks,
    _dephasing,
    bloch_basis,
    computational_basis,
    dephase,
    measure,
    pauli_basis,
)
from coherence_bounds.states import (
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

angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))

# mpmath, 50 digits: 1 - H2(3/4)
J_WERNER_HALF = 0.1887218755408671
S_COND_WERNER_HALF = 0.5487949406953985


def product_state(seed: int):
    a = random_density(2, 1, seed)
    b = random_density(2, 1, seed + 1)
    return make_density(tensor_product(a.matrix, b.matrix), 2, 2)


def _general_model(rho):
    """The eigh model of the objective, which _HolevoObjective builds only for dim_b != 2."""
    objective = object.__new__(_HolevoObjective)
    objective.__init__(rho)
    return objective


DATA = Path(__file__).parent / "data"


def _search_states():
    """The seed-42 x200 check corpus, the family points, 20 states each at 2x3, 2x4 and 2x8, and multimodal_2x3."""
    states = [c.rho for c in generate_cases(42, 200)] + _corpora.family_points()
    states += [random_density(2, dim_b, k) for dim_b in (3, 4, 8) for k in range(20)]
    states.append(load_state_file(DATA / "multimodal_2x3.txt"))
    return states


def _search(rho):
    objective = _HolevoObjective(rho)
    return _maximize_holevo(objective, objective(_geodesic_grid()[0]), von_neumann_entropy(marginal_b(rho)))


def test_conditional_entropy_values():
    assert conditional_entropy(werner(0.5)) == pytest.approx(S_COND_WERNER_HALF, abs=1e-12)
    assert conditional_entropy(x_state(1.0)) == pytest.approx(-1.0, abs=1e-12)


def test_conditional_entropy_of_product_state_is_local_entropy():
    rho = product_state(17)
    assert conditional_entropy(rho) == pytest.approx(
        von_neumann_entropy(marginal_a(rho)), abs=1e-10
    )


def test_mutual_information_values():
    assert mutual_information(product_state(3)) == pytest.approx(0.0, abs=1e-10)
    assert mutual_information(x_state(1.0)) == pytest.approx(2.0, abs=1e-12)
    assert mutual_information(werner(0.5)) == pytest.approx(2.0 - 1.5487949406953985, abs=1e-12)


class TestHolevo:
    def test_product_state_carries_no_information(self):
        for which in (1, 2, 3):
            assert holevo(product_state(11), pauli_basis(which)) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state_is_perfectly_readable(self):
        for which in (1, 2, 3):
            assert holevo(x_state(1.0), pauli_basis(which)) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_bell_diagonal_line_closed_forms(self, p):
        rho = bell_diagonal_family(p)
        assert holevo(rho, pauli_basis(1)) == pytest.approx(1.0 - binary_entropy(p), abs=1e-9)
        expected_z = 1.0 - binary_entropy((1.0 + p) / 2.0)
        assert holevo(rho, pauli_basis(2)) == pytest.approx(expected_z, abs=1e-9)
        assert holevo(rho, pauli_basis(3)) == pytest.approx(expected_z, abs=1e-9)

    def test_matches_conditional_state_average(self):
        # holevo uses S(B) + H(p_Y) - S(YB); the oracle is its definition
        # S(B) - sum_y p_y S(rho_B|y) over the conditional states
        def oracle(rho, basis):
            out = measure(rho, basis)
            s_cond = sum(p * von_neumann_entropy(c) for p, c in zip(out.probs, out.conditional_states))
            return von_neumann_entropy(marginal_b(rho)) - s_cond

        pairs = [(c.rho, b) for c in generate_cases(42, 20) for b in (c.x, c.z)]
        ket0 = np.diag([1.0, 0.0])
        blind = make_density(tensor_product(ket0, random_density(2, 1, 8).matrix), 2, 2)
        out = measure(blind, pauli_basis(3))
        assert out.probs[1] <= SUPPORT_CUT < out.probs[0]
        assert np.array_equal(out.conditional_states[1].matrix, np.eye(2) / 2)
        pairs.append((blind, pauli_basis(3)))
        psi = np.array([np.cos(0.3), 0.0, 0.0, np.exp(0.7j) * np.sin(0.3)])
        pure = make_density(np.outer(psi, psi.conj()), 2, 2)
        pairs += [(pure, bloch_basis(0.9, 2.1)), (pure, pauli_basis(3))]
        qutrit_memory = random_density(2, 3, 9)
        pairs += [(qutrit_memory, bloch_basis(1.7, 0.4)), (qutrit_memory, pauli_basis(1))]
        for rho, basis in pairs:
            assert holevo(rho, basis) == pytest.approx(oracle(rho, basis), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), angles)
    def test_bounded_by_mutual_information(self, seed, ang):
        rho = random_density(2, 2, seed)
        j = holevo(rho, bloch_basis(*ang))
        assert 0.0 <= j <= mutual_information(rho) + 1e-9

    def test_reads_the_kept_dephasing_bit_for_bit(self, measured_pairs):
        # a fresh call and a repeat call both give the bits of an evaluation
        # from fresh blocks on a fresh state object, which keeps nothing
        def fresh(rho, basis):
            rho = DensityMatrix(rho.matrix, rho.dim_a, rho.dim_b)
            cond = _conditional_blocks(rho, basis)
            v = basis.vectors
            joint = np.einsum("iy,jy,yab->iajb", v, v.conj(), cond).reshape(rho.dim, rho.dim)
            s_yb = von_neumann_entropy(DensityMatrix(hermitize(joint), rho.dim_a, rho.dim_b))
            h_y = shannon_entropy(np.einsum("yaa->y", cond).real)
            return max(0.0, von_neumann_entropy(marginal_b(rho)) + h_y - s_yb)

        expected = [fresh(rho, basis).hex() for rho, basis in measured_pairs]
        for _ in range(2):
            assert [holevo(rho, basis).hex() for rho, basis in measured_pairs] == expected

    def test_builds_the_blocks_once_per_state_and_basis(self, monkeypatch):
        calls = []

        def counted(rho, basis):
            calls.append((rho, basis))
            return _conditional_blocks(rho, basis)

        monkeypatch.setattr(measurement, "_conditional_blocks", counted)
        for dim_b in (2, 3, 8):
            calls.clear()
            rho, basis = random_density(2, dim_b, 17), bloch_basis(0.8, 1.9)
            first = holevo(rho, basis)
            dephase(rho, basis)
            out = measure(rho, basis)
            coherence = unilateral_coherence(rho, basis)
            again = measure(rho, basis)
            assert holevo(rho, basis) == first and unilateral_coherence(rho, basis) == coherence
            assert calls == [(rho, basis)]
            # the conditional states are built anew on each call, from the same bits
            for old, new in zip(out.conditional_states, again.conditional_states):
                assert new is not old and new.matrix.tobytes() == old.matrix.tobytes()

    def test_kept_probabilities_are_read_only(self):
        kept = _dephasing(random_density(2, 2, 3), pauli_basis(1))
        with pytest.raises(ValueError):
            kept.probs[0] = 0.5

    @pytest.mark.parametrize("dim_b", [1, 2, 8])
    def test_kept_blocks_are_read_only(self, dim_b):
        kept = _dephasing(random_density(2, dim_b, 3), bloch_basis(0.4, 1.3))
        assert kept.blocks.shape == (2, dim_b, dim_b) and not kept.blocks.flags.writeable
        with pytest.raises(ValueError):
            kept.blocks[0, 0, 0] = 0.5

    @pytest.mark.parametrize("dim_b", [1, 2, 8])
    def test_kept_probabilities_own_their_data(self, dim_b):
        # not a view of the complex trace output the blocks gave
        probs = _dephasing(random_density(2, dim_b, 3), bloch_basis(0.4, 1.3)).probs
        assert probs.base is None and probs.flags.owndata
        assert probs.dtype == np.float64 and not probs.flags.writeable

    def test_errors_are_those_of_a_fresh_evaluation(self):
        # trusted, so never validated: S(rho_YB) fails first, on the sum of
        # its cut spectrum, before H(p_Y) could fail on the negative -0.5
        rho = DensityMatrix(np.diag([-0.5, 0.0, 1.5, 0.0]).astype(complex), 2, 2)
        basis = pauli_basis(3)
        for _ in range(2):  # a failed entropy is not kept
            with pytest.raises(ProbabilityError, match=re.escape("probabilities sum to 1.5, not 1 within 1e-09")):
                holevo(rho, basis)
        assert dephase(rho, basis).matrix.tobytes() == rho.matrix.tobytes()
        with pytest.raises(DimensionError):
            holevo(rho, computational_basis(3))


class TestFastObjective:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([2, 3]), angles)
    def test_matches_public_holevo(self, seed, dim_b, ang):
        # dim_b == 3 takes the eigvalsh branch, dim_b == 2 the closed form
        rho = random_density(2, dim_b, seed)
        theta, phi = ang
        # the objective is chi - S(B)
        chi = _HolevoObjective(rho)(_bloch(np.array([theta]), np.array([phi])))[0]
        fast = von_neumann_entropy(marginal_b(rho)) + chi
        slow = holevo(rho, bloch_basis(theta, phi))
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_antipodal_points_are_one_measurement(self):
        # chi(n) = chi(-n) is what lets the optimizer scan half the sphere
        rng = np.random.default_rng(4)
        n = rng.normal(size=(3, 40))
        n /= np.linalg.norm(n, axis=0)
        for dim_b, seed in ((2, 60), (2, 61), (3, 62), (8, 63)):
            rho = random_density(2, dim_b, seed)
            objective = _HolevoObjective(rho)
            assert np.max(np.abs(objective(n) - objective(-n))) <= 1e-9

    def test_rejects_non_qubit_side_a(self):
        with pytest.raises(UnsupportedDimension):
            _HolevoObjective(random_density(3, 2, 0))

    def test_qubit_memory_set_up_matches_the_numpy_build(self):
        # the dim_b == 2 set-up runs on Python floats; the numpy build of the
        # general model gives it the same bits
        states = [case.rho for case in generate_cases(42, 100)]
        states += [x_state(0.0), x_state(1.0), werner(0.5), bell_diagonal(0.0, 0.0, 0.6), product_state(21)]
        for rho in states:
            objective, general = _HolevoObjective(rho), _general_model(rho)
            assert type(objective) is _QubitMemoryObjective
            # columns of _planes: Re and Im of M_+ entries (0, 0), (0, 1), (1, 0), (1, 1)
            planes = general._planes
            trace = planes[:, 0] + planes[:, 6]
            expected = np.array([trace, planes[:, 0] - planes[:, 6], 2.0 * planes[:, 2], 2.0 * planes[:, 3]])
            assert np.array(objective._rows).tobytes() == expected.tobytes()
            assert np.array(objective._trace).tobytes() == trace.tobytes()
            assert objective._trace == general._trace

    def test_qubit_memory_closed_form_matches_the_general_model(self):
        # both models of a 2x2 objective: the closed form that every 2x2 state
        # takes, and the eigh model that every larger memory takes
        states = [case.rho for case in generate_cases(42, 200)]
        states += _corpora.family_points()
        grid = _geodesic_grid()[0]
        probes = np.hstack([grid, _bloch(np.array([0.4, 1.3, 2.9]), np.array([0.2, 3.5, 5.9]))])
        for rho in states:
            closed, general = _HolevoObjective(rho), _general_model(rho)
            # the closed form lists a block's eigenvalues from the largest down
            spectra = _spectra([closed], grid)[0][[0, 2, 1]]
            assert np.max(np.abs(spectra - _spectra([general], grid)[0])) <= 1e-13
            assert np.max(np.abs(closed(grid) - general(grid))) <= 1e-13
            for n in probes.T.tolist():
                local, reference = closed._value_pass(n), general._value_pass(n)
                assert (local is None) == (reference is None)
                if local is None:
                    continue
                assert abs(local[0] - reference[0]) <= 1e-13
                frame = _tangent_frame(*n)
                model = np.array(closed._derivative_pass(frame, local))
                expected = np.array(general._derivative_pass(frame, reference))
                # a block eigenvalue near 1e-6 costs the closed form's (p - g) / 2 digits
                scale = max(1.0, float(np.max(np.abs(expected))))
                assert np.max(np.abs(model - expected)) <= 1e-10 * scale

    @pytest.mark.parametrize("dim_b", [1, 2, 3, 4, 8])
    def test_report_rows_hold_the_marginal_spectra(self, dim_b, monkeypatch):
        # rho_A from the blocks' traces, rho_B as twice the n = 0 block; rows 1
        # and 2 of the table that takes the report's entropy pass
        tables = []
        entropies = correlations._entropies

        def recorded(table):
            tables.append(table.copy())
            return entropies(table)

        monkeypatch.setattr(correlations, "_entropies", recorded)
        states = [random_density(2, dim_b, 80 + k) for k in range(3)]
        if dim_b == 2:
            states += [x_state(0.0), x_state(1.0), product_state(21)]
        for rho in states:
            tables.clear()
            _report_scalars([rho], pauli_basis(1), pauli_basis(3), search=True)
            (table,) = tables
            rows = table[1:3]
            assert np.all(rows[0, 2:] == 0.0) and np.all(rows[1, dim_b:] == 0.0)
            for row, marginal in ((rows[0, :2], marginal_a(rho)), (rows[1, :dim_b], marginal_b(rho))):
                expected = np.linalg.eigvalsh(marginal.matrix)
                assert np.max(np.abs(np.sort(row) - expected)) <= 1e-15

    @pytest.mark.parametrize("dim_b", [1, 2, 3, 8])
    def test_scan_values_are_the_grid_objective(self, dim_b, monkeypatch):
        # evaluate_all's search starts from the values of its one spectra scan
        starts = []
        search = correlations._maximize_holevo

        def recorded(objective, values, s_b):
            starts.append((objective, values))
            return search(objective, values, s_b)

        monkeypatch.setattr(correlations, "_maximize_holevo", recorded)
        for seed in range(90, 93):
            starts.clear()
            _report_scalars([random_density(2, dim_b, seed)], bloch_basis(0.3, 1.2), pauli_basis(3), search=True)
            ((objective, values),) = starts
            assert values.tobytes() == objective(_geodesic_grid()[0]).tobytes()


class TestClassicalCorrelation:
    def test_werner_closed_form(self):
        res = classical_correlation(werner(0.5))
        assert res.classical_correlation == pytest.approx(J_WERNER_HALF, abs=1e-9)
        assert res.discord == pytest.approx(
            mutual_information(werner(0.5)) - J_WERNER_HALF, abs=1e-9
        )

    def test_werner_objective_is_flat(self):
        # every basis extracts the same information; the optimizer must land
        # on the grid-scan tie-break yet report the common value
        rho = werner(0.5)
        res = classical_correlation(rho)
        rng = np.random.default_rng(0)
        for _ in range(25):
            theta = np.arccos(rng.uniform(-1, 1))
            phi = rng.uniform(0, 2 * np.pi)
            probe = holevo(rho, bloch_basis(theta, phi))
            assert probe == pytest.approx(res.classical_correlation, abs=1e-9)

    def test_classically_uncorrelated_state(self):
        res = classical_correlation(x_state(0.0))
        # |11><11| is a product state: no correlations of either kind
        assert res.classical_correlation == pytest.approx(0.0, abs=1e-9)
        assert res.discord == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_split(self):
        res = classical_correlation(x_state(1.0))
        assert res.classical_correlation == pytest.approx(1.0, abs=1e-6)
        assert res.discord == pytest.approx(1.0, abs=1e-6)

    def test_j_a_has_the_report_bits(self):
        # S(B) is S(2 M_+(0)) on both routes; S(B) from rho_B's own eigvalsh
        # put the two J_A apart in the last bit on 371 of the seed-42 states
        cases = [(c.rho, c.x, c.z) for c in generate_cases(42, 1000)]
        for dim_b in (2, 3, 4, 8):
            cases += [(rho, pauli_basis(1), pauli_basis(3)) for states in _corpora.strata(dim_b).values() for rho in states]
        for rho, x, z in cases:
            assert classical_correlation(rho).classical_correlation == _report_scalars([rho], x, z, True)[0][-1]

    def test_deterministic(self):
        a = classical_correlation(random_density(2, 2, 33))
        b = classical_correlation(random_density(2, 2, 33))
        assert a == b

    def test_reported_basis_reproduces_value(self):
        for seed in range(10):
            rho = random_density(2, 2, 100 + seed)
            res = classical_correlation(rho)
            replay = holevo(rho, bloch_basis(res.optimal_theta, res.optimal_phi))
            assert replay == pytest.approx(res.classical_correlation, abs=1e-9)
            assert res.discord + res.classical_correlation == pytest.approx(
                mutual_information(rho), abs=1e-9
            )

    def test_dominates_random_probes(self):
        rng = np.random.default_rng(7)
        for seed in range(8):
            rho = random_density(2, 2, 200 + seed)
            best = classical_correlation(rho).classical_correlation
            for _ in range(30):
                theta = np.arccos(rng.uniform(-1, 1))
                phi = rng.uniform(0, 2 * np.pi)
                assert best >= holevo(rho, bloch_basis(theta, phi)) - 1e-6

    def test_invariant_under_unitary_on_side_b(self):
        rho = random_density(2, 2, 55)
        u = random_unitary(2, 56)
        rotated = make_density(
            tensor_product(np.eye(2), u) @ rho.matrix @ tensor_product(np.eye(2), u).conj().T,
            2,
            2,
        )
        a = classical_correlation(rho)
        b = classical_correlation(rotated)
        assert a.classical_correlation == pytest.approx(b.classical_correlation, abs=1e-6)
        assert a.discord == pytest.approx(b.discord, abs=1e-6)

    def test_rejects_non_qubit_side_a(self):
        with pytest.raises(UnsupportedDimension):
            classical_correlation(random_density(3, 2, 1))

    def test_discord_range(self):
        for seed in range(10):
            res = classical_correlation(random_density(2, 2, 300 + seed))
            assert res.discord >= -1e-9
            assert res.optimizer_evals > 0

    @pytest.mark.parametrize("dim_b", [2, 3, 4, 8])
    def test_pure_states_reach_marginal_entropy(self, dim_b):
        # every measurement of a pure state leaves pure conditional states, so
        # J_A = S(rho_B) = S(rho_A); the blocks are rank-deficient, where the
        # objective is not smooth
        rng = np.random.default_rng(dim_b)
        for _ in range(3):
            psi = rng.normal(size=2 * dim_b) + 1j * rng.normal(size=2 * dim_b)
            psi /= np.linalg.norm(psi)
            rho = make_density(np.outer(psi, psi.conj()), 2, dim_b)
            expected = von_neumann_entropy(marginal_a(rho))
            got = classical_correlation(rho).classical_correlation
            assert got == pytest.approx(expected, abs=1e-9)

    def test_luo_closed_form_across_bell_diagonal_tetrahedron(self):
        # S. Luo, PRA 77, 042303 (2008): J_A = sum_+- (1 +- c)/2 log2(1 +- c), c = max|t_i|
        signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 40:
            t = rng.uniform(-1.0, 1.0, size=3)
            if np.any(1.0 - signs @ t < 0.0):  # a negative eigenvalue: not a state
                continue
            c = float(np.max(np.abs(t)))
            expected = 0.5 * ((1.0 + c) * np.log2(1.0 + c) + (1.0 - c) * np.log2(1.0 - c))
            got = classical_correlation(bell_diagonal(*t)).classical_correlation
            assert got == pytest.approx(expected, abs=1e-9)
            checked += 1

    def test_classical_quantum_states_reach_mutual_information(self):
        # a grid start can lie on a ridge of chi; ascents from the 1985-point
        # grid's best point along negative curvature only stopped up to 6.1e-4
        # short on 22 of these states
        rng = np.random.default_rng(102)
        for _ in range(300):
            rho = make_density(_corpora.classical_quantum(rng, 2, power=3), 2, 2)
            j_a = classical_correlation(rho).classical_correlation
            assert j_a == pytest.approx(mutual_information(rho), abs=1e-9)

    def test_dominates_dense_probe_grid_with_qutrit_memory(self):
        # a probe grid offset from the optimizer's own, through the public holevo
        thetas = (np.arange(24) + 0.5) * np.pi / 24
        phis = (np.arange(48) + 0.5) * 2.0 * np.pi / 48
        for seed in (70, 71, 72):
            rho = random_density(2, 3, seed)
            best = classical_correlation(rho).classical_correlation
            probes = max(holevo(rho, bloch_basis(t, p)) for t in thetas for p in phis)
            assert best >= probes - 1e-9


def _central_model(objective, frame, h=1e-4):
    """(g1, g2, h11, h22, h12) of objective(_chart(frame, .)) by central differences."""
    uv = h * np.array([[1, -1, 0, 0, 1, 1, -1, -1, 0], [0, 0, 1, -1, 1, -1, 1, -1, 0]])
    f1, f2, f3, f4, f5, f6, f7, f8, f0 = objective(_chart(frame, uv))
    return np.array(
        [
            (f1 - f2) / (2 * h),
            (f3 - f4) / (2 * h),
            (f1 - 2 * f0 + f2) / h**2,
            (f3 - 2 * f0 + f4) / h**2,
            (f5 - f6 - f7 + f8) / (4 * h**2),
        ]
    )


class TestLocalModel:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        cases = [(random_density(2, 2, 500 + k), rng.normal(size=3)) for k in range(40)]
        # blocks proportional to the identity at n = x: the g -> 0 limit of the model
        cases.append((bell_diagonal(0.0, 0.0, 0.6), np.array([1.0, 0.0, 0.0])))
        # beyond a qubit memory the model reads the eigenvectors of one eigh per point
        cases += [(random_density(2, dim_b, 540 + k), rng.normal(size=3)) for dim_b in (1, 3, 4, 8) for k in range(10)]
        # I / 6 + sigma_1 (x) G / 20 leaves both blocks at n = z equal to I / 6: every
        # pair of eigenvalues ties, and the tangent directions move the blocks by +-G / 20
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = g + g.conj().T - 2.0 * np.trace(g).real / 3.0 * np.eye(3)
        g /= np.linalg.norm(g, 2)
        tied = np.eye(6) / 6.0 + tensor_product(np.array([[0.0, 1.0], [1.0, 0.0]]), g) / 20.0
        cases.append((make_density(tied, 2, 3), np.array([0.0, 0.0, 1.0])))
        # I/2 (x) rho_B: the blocks do not move, so the whole model is flat
        flat = tensor_product(np.eye(2) / 2.0, random_density(4, 1, 560).matrix)
        cases.append((make_density(flat, 2, 4), rng.normal(size=3)))
        for rho, n in cases:
            objective = _HolevoObjective(rho)
            frame = _tangent_frame(*(n / np.linalg.norm(n)).tolist())
            chi, *model = objective._derivative_pass(frame, objective._value_pass(frame[0]))
            assert chi == pytest.approx(objective(_chart(frame, np.zeros((2, 1))))[0], abs=1e-14)
            expected = _central_model(objective, frame)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(np.array(model) - expected)) <= 1e-6 * scale

    def test_stencil_only_path_agrees(self, monkeypatch):
        states = _search_states()
        closed = [_search(rho)[0] for rho in states]
        for model in (_HolevoObjective, _QubitMemoryObjective):
            monkeypatch.setattr(model, "_value_pass", lambda self, n: None)
        stencil = [_search(rho)[0] for rho in states]
        assert np.max(np.abs(np.array(closed) - np.array(stencil))) <= 1e-12

    @pytest.mark.parametrize("rho, expected", [(x_state(1.0), 1.0), (x_state(0.0), 0.0)])
    def test_rank_deficient_blocks_take_the_stencil(self, monkeypatch, rho, expected):
        # a pure state leaves rank-1 blocks for every measurement: every point
        # tried falls back to the 9-point stencil, and J_A still reaches its closed form
        model = type(_HolevoObjective(rho))
        value_pass, returned = model._value_pass, []

        def recorded(self, n):
            returned.append(value_pass(self, n))
            return returned[-1]

        monkeypatch.setattr(model, "_value_pass", recorded)
        j_a, _, evals = _search(rho)
        assert returned and all(r is None for r in returned)
        assert evals == _geodesic_grid()[0].shape[1] + _STENCIL.shape[1] * len(returned)
        assert j_a == pytest.approx(expected, abs=1e-9)


def _full_model_refine(objective, frame, radius, evals):
    """The ascent as it was before trials were decided on their value alone: every
    trial gets its whole local model, and every trial computes its own Newton step.
    It stops where _refine does, before a trial whose predicted gain is rounding."""
    _, model, count = correlations._probe(objective, frame)
    model = model()
    evals += count
    length = radius
    while length >= correlations.ANGLE_RESOLUTION and evals < correlations._MAX_EVALS:
        u, v, length, slope, bend = correlations._newton_step(model)
        scale = radius / length if length > radius else 1.0
        if scale * (slope + 0.5 * scale * bend) <= 2.0**-52 * max(1.0, abs(model[0])):
            break
        u, v = u * scale, v * scale
        length = math.hypot(u, v)
        trial = correlations._moved(frame, u, v)
        _, trial_model, count = correlations._probe(objective, trial)
        trial_model = trial_model()
        evals += count
        if trial_model[0] > model[0]:
            frame, model = trial, trial_model
        else:
            radius = 0.25 * length
    return model[0], np.array(frame[0]), evals


def _hex(search):
    j_a, n, evals = search
    return j_a.hex(), [float(x).hex() for x in n], evals


class TestValueFirstAscent:
    """Trials are accepted on their value alone, and only a point the ascent steps
    from gets its derivatives; the full-model ascent above is the oracle."""

    def test_matches_the_full_model_ascent(self, monkeypatch):
        states = _search_states()
        value_first = [_hex(_search(rho)) for rho in states]
        monkeypatch.setattr(correlations, "_refine", _full_model_refine)
        full_model = [_hex(_search(rho)) for rho in states]
        assert value_first == full_model

    def test_derivatives_only_where_the_ascent_steps(self, monkeypatch):
        # figure 1's x_state rows: the objective is constant along a ring of
        # maxima, so at the start the model predicts no gain above rounding and
        # the ascent stops there: one value pass and at most one derivative
        # pass per row
        passes, derived, stepped = [], [], []
        value_pass, derivative_pass, newton_step = (
            _QubitMemoryObjective._value_pass, _QubitMemoryObjective._derivative_pass, correlations._newton_step
        )

        def count_value(self, n):
            passes.append(n)
            return value_pass(self, n)

        def count_derivative(self, frame, local):
            derived.append(derivative_pass(self, frame, local))
            return derived[-1]

        def count_step(model):
            stepped.append(model)
            return newton_step(model)

        monkeypatch.setattr(_QubitMemoryObjective, "_value_pass", count_value)
        monkeypatch.setattr(_QubitMemoryObjective, "_derivative_pass", count_derivative)
        monkeypatch.setattr(correlations, "_newton_step", count_step)
        rows = cli.FIGURES[1].steps
        cli.render_figure_csv(cli.FIGURES[1])
        assert len({id(model) for model in stepped}) == len(stepped)
        assert {id(model) for model in derived} <= {id(model) for model in stepped}
        assert len(derived) <= rows
        assert len(passes) == rows


def _without_the_stop(newton_step):
    """_newton_step with an infinite predicted gain, so _refine never stops on its prediction."""
    return lambda model: (*newton_step(model)[:3], math.inf, 0.0)


class TestStopAtRounding:
    """An ascent stops before a trial whose predicted gain is no more than the value's rounding."""

    @pytest.mark.parametrize(
        "rho",
        [werner(p) for p in (0.0, 0.3, 0.5, 0.9, 0.99)] + [_corpora.strata(d)["product"][0] for d in (2, 3, 8)],
    )
    def test_flat_objectives_stop_at_the_start(self, rho):
        # werner(p < 1) and I/2 (x) rho_B are flat: the 46 grid points, then the start
        assert classical_correlation(rho).optimizer_evals == _geodesic_grid()[0].shape[1] + 1

    @pytest.mark.parametrize(
        "rho",
        [bell_diagonal_family(0.0)] + [load_state_file(DATA / f) for f in ("rank2_2x4.txt", "multimodal_2x3.txt")],
    )
    def test_a_step_that_gains_keeps_its_bits(self, rho, monkeypatch):
        # bell_diagonal_family(0) climbs a kink on the stencil, rank2_2x4 takes
        # the stencil everywhere, multimodal_2x3 has two basins
        res = classical_correlation(rho)
        monkeypatch.setattr(correlations, "_newton_step", _without_the_stop(correlations._newton_step))
        unstopped = classical_correlation(rho)
        assert res.classical_correlation.hex() == unstopped.classical_correlation.hex()
        assert res.optimizer_evals <= unstopped.optimizer_evals

    def test_the_kink_keeps_its_evaluations(self):
        assert classical_correlation(bell_diagonal_family(0.0)).optimizer_evals == 81


def _xlog2x(w):
    return w * np.log2(np.where(w > 0.0, w, 1.0))


def _x_state_chi(r, c, thetas):
    """-S(B|Y_n) at n = (sin t, 0, cos t) for the real X states with diagonals r[:, k], for thetas t[k, .].

    The X state leaves M_+-(n) = (rho_B +- n_z K_z +- off) / 2 with rho_B and
    K_z diagonal and |off| = c sin t, c = |rho_14 + rho_23| at phi = 0 and
    |rho_14 - rho_23| at phi = pi / 2; -S(B|Y_n) sums lam log2 lam - p log2 p
    over both blocks' eigenvalues lam and traces p.
    """
    r, c = r[:, :, None], c[:, None]
    cos, sin = np.cos(thetas), np.sin(thetas)
    chi = 0.0
    for s in (1.0, -1.0):
        d1 = 0.5 * (r[0] + r[2] + s * cos * (r[0] - r[2]))
        d2 = 0.5 * (r[1] + r[3] + s * cos * (r[1] - r[3]))
        gap = np.sqrt(0.25 * (d1 - d2) ** 2 + 0.25 * (c * sin) ** 2)
        mean = 0.5 * (d1 + d2)
        chi = chi + _xlog2x(mean + gap) + _xlog2x(mean - gap) - _xlog2x(d1 + d2)
    return chi


def _x_state_oracle(states):
    """J_A of real X states from two 1-D searches over theta each, at phi = 0 and at phi = pi / 2.

    The blocks' eigenvalues depend on phi only through
    n_x^2 (a + b)^2 + n_y^2 (a - b)^2, a = rho_14, b = rho_23, which is
    extremal at those two phi. Each search takes the best point of a
    2001-point grid on [0, pi], then golden-section search between its
    neighbours. All searches run as one batch.
    """
    m = np.array([rho.matrix.real for rho in states])
    r = np.tile(np.diagonal(m, axis1=1, axis2=2).T, 2)
    c = np.abs(np.concatenate([m[:, 0, 3] + m[:, 1, 2], m[:, 0, 3] - m[:, 1, 2]]))
    thetas = np.linspace(0.0, np.pi, 2001)
    k = np.argmax(_x_state_chi(r, c, np.broadcast_to(thetas, (c.size, thetas.size))), axis=1)
    lo, hi = thetas[np.maximum(k - 1, 0)], thetas[np.minimum(k + 1, thetas.size - 1)]
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(60):
        t1, t2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
        f1, f2 = _x_state_chi(r, c, np.stack([t1, t2], axis=1)).T
        lo, hi = np.where(f1 >= f2, lo, t1), np.where(f1 >= f2, t2, hi)
    best = _x_state_chi(r, c, np.stack([lo, hi], axis=1)).max(axis=1)
    best = np.maximum(best[: len(states)], best[len(states) :])
    s_b = -_xlog2x(r[0] + r[2]) - _xlog2x(r[1] + r[3])
    return np.maximum(0.0, s_b[: len(states)] + best)


def _random_x_states(rng, count):
    """Real X states: diagonal from a Dirichlet draw, corners inside the positivity bound."""
    states = []
    for _ in range(count):
        r = rng.dirichlet(np.ones(4))
        m = np.diag(r)
        m[0, 3] = m[3, 0] = rng.uniform(-1.0, 1.0) * math.sqrt(r[0] * r[3])
        m[1, 2] = m[2, 1] = rng.uniform(-1.0, 1.0) * math.sqrt(r[1] * r[2])
        states.append(make_density(m, 2, 2))
    return states


class TestXStateOracle:
    def test_matches_the_one_dimensional_search(self):
        # figure 1's x_state rows, of which p = 0 and p = 1 leave rank-deficient
        # blocks everywhere and take the stencil, then random real X states
        states = [x_state(float(p)) for p in np.linspace(0.0, 1.0, 101)]
        states += _random_x_states(np.random.default_rng(61), 100)
        got = np.array([classical_correlation(rho).classical_correlation for rho in states])
        assert np.max(np.abs(got - _x_state_oracle(states))) <= 1e-12


@pytest.fixture(scope="module", params=[2, 3, 4, 8])
def stratified(request):
    """(stratum, state, J_A by the 1985-point search, classical_correlation) per state."""
    strata = _corpora.strata(request.param).items()
    return [(name, rho, _corpora.grid_search(rho), classical_correlation(rho)) for name, states in strata for rho in states]


class TestCoarseMultiStart:
    """The search starts from the local maxima of a 46-point geodesic grid; the
    1985-point single-start search is the oracle."""

    def test_reaches_the_fine_grid_search(self, stratified):
        for name, _, oracle, res in stratified:
            assert res.classical_correlation >= oracle - 1e-12, name

    @pytest.mark.parametrize("dim_b", [3, 4, 8])
    def test_classical_quantum_states_reach_mutual_information(self, dim_b):
        # measuring A in the basis that defines the state reads all of I(A:B);
        # with a rank-deficient rho_a the peak is narrower than the coarse grid
        rng = np.random.default_rng((dim_b, 1))
        for _ in range(40):
            rho = make_density(_corpora.classical_quantum(rng, dim_b), 2, dim_b)
            j_a = classical_correlation(rho).classical_correlation
            assert j_a == pytest.approx(mutual_information(rho), abs=1e-9)

    def test_nearly_product_classical_quantum_state_reaches_mutual_information(self):
        # weight 1.5e-8 on one component: the whole objective is about 1e-7
        # tall, near the noise of the stencil's central differences, and an
        # ascent on the stencil's model alone stopped 9.2e-9 short of I(A:B)
        rng = np.random.default_rng(103)
        for _ in range(57):
            _corpora.classical_quantum(rng, 3, power=3)
        rho = make_density(_corpora.classical_quantum(rng, 3, power=3), 2, 3)
        j_a = classical_correlation(rho).classical_correlation
        assert j_a == pytest.approx(mutual_information(rho), abs=1e-12)

    def test_flat_objectives_refine_few_starts(self, stratified):
        # every grid point ties on a flat objective; with one start per peak
        # value these strata take 47 to 82 evaluations, where for dim_b > 2
        # the cap on starts alone gave 118 to 262 and no rule 172 to 874
        for name, _, _, res in stratified:
            if name in ("pure", "product"):
                assert res.optimizer_evals <= 500, name

    def test_flat_objective_refines_from_one_start(self, monkeypatch):
        # every grid point is a peak of the same value; before peaks of equal
        # value were merged the product state started 4 ascents
        refine, starts = correlations._refine, []

        def recorded(objective, frame, radius, evals):
            starts.append(frame[0])
            return refine(objective, frame, radius, evals)

        monkeypatch.setattr(correlations, "_refine", recorded)
        for rho in (werner(0.5), _corpora.strata(3)["product"][0]):
            starts.clear()
            classical_correlation(rho)
            assert len(starts) == 1

    def test_the_evaluation_cap_stops_each_ascent_at_its_first_probe(self, monkeypatch):
        # at a cap of the grid's 46 points no ascent gets past probing its start
        states = [random_density(2, dim_b, seed) for dim_b in (2, 3, 8) for seed in range(5)]
        states.append(load_state_file(DATA / "rank2_2x4.txt"))
        uncapped = [classical_correlation(rho).classical_correlation for rho in states]
        newton_step, stepped = correlations._newton_step, []

        def recorded(model):
            stepped.append(model)
            return newton_step(model)

        monkeypatch.setattr(correlations, "_newton_step", recorded)
        monkeypatch.setattr(correlations, "_MAX_EVALS", 46)
        for rho, j_uncapped in zip(states, uncapped):
            res = classical_correlation(rho)
            assert 47 <= res.optimizer_evals <= 46 + 9 * correlations._MAX_STARTS
            grid_best = float(np.max(_HolevoObjective(rho)(_geodesic_grid()[0])))
            s_b = von_neumann_entropy(marginal_b(rho))
            assert s_b + grid_best - 1e-12 <= res.classical_correlation <= j_uncapped
        assert stepped == []

    def test_grid_is_built_once_and_read_only(self):
        # built on the first call and shared by every later search
        grid, neighbours = _geodesic_grid()
        assert _geodesic_grid()[0] is grid and _geodesic_grid()[1] is neighbours
        assert grid.shape == (3, 46) and neighbours.shape == (46, 8)
        assert not grid.flags.writeable and not neighbours.flags.writeable

    def test_import_builds_no_grid_and_loads_no_corpora(self):
        # a process that never searches never pays for the grid; the corpora
        # are for tests and scripts, so the package neither loads them nor
        # exports a name of them
        code = (
            "import sys, coherence_bounds\n"
            "from coherence_bounds.correlations import _geodesic_grid\n"
            "names = list(coherence_bounds.__all__)\n"
            "print(_geodesic_grid.cache_info().currsize, 'coherence_bounds._corpora' in sys.modules)\n"
            "import coherence_bounds._corpora\n"
            "print(coherence_bounds.__all__ == names)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "0 False\nTrue\n"

    def test_grid_covers_the_sphere(self):
        # every measurement lies within 13.7 degrees of a grid point, n and -n alike
        nearest = np.abs(_corpora.hemisphere_grid(256).T @ _geodesic_grid()[0]).max(axis=1)
        assert np.all(np.arccos(np.minimum(nearest, 1.0)) <= math.radians(13.7))


class TestSearchMissState:
    """Draw 875 of the rank-3 2x3 corpus of _corpora.COMMITTED, on which
    the search ends 2.74e-3 below the 1985-point single-start search."""

    @pytest.fixture(scope="class")
    def state(self):
        """The state and J_A from the 1985-point search (the oracle)."""
        rho = load_state_file(DATA / "search_miss_2x3.txt")
        return rho, _corpora.grid_search(rho)

    def test_rotations_reach_the_oracle(self, state):
        # J_A is invariant under a unitary on A, and from each of these
        # rotations the search reaches the oracle (8.9e-16 seen)
        rho, oracle = state
        for k in range(8):
            u = tensor_product(random_unitary(2, 500 + k), np.eye(3))
            rotated = make_density(u @ rho.matrix @ u.conj().T, 2, 3)
            assert classical_correlation(rotated).classical_correlation == pytest.approx(oracle, abs=1e-9), k

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 1: with dim_b > 2 the multi-start search can end on a lower basin; "
        "here J_A = 0.4129481 against the oracle's 0.4156854",
    )
    def test_reaches_the_oracle(self, state):
        rho, oracle = state
        assert classical_correlation(rho).classical_correlation == pytest.approx(oracle, abs=1e-9)


class TestMultimodalState:
    """multimodal_2x3.txt of _corpora.COMMITTED: chi has a second local maximum
    7.45e-3 below the global one, and the best point of the 16-row grid lies next to it."""

    @pytest.fixture(scope="class")
    def state(self):
        """The state and J_A from a 256-row grid and one ascent."""
        rho = load_state_file(DATA / "multimodal_2x3.txt")
        return rho, _corpora.grid_search(rho, 256)

    def test_reaches_the_global_maximum(self, state):
        rho, reference = state
        assert classical_correlation(rho).classical_correlation == pytest.approx(reference, abs=1e-9)

    def test_one_coarse_start_misses_it(self, state):
        # on the 113-point 16-row grid the best point lies next to the lower
        # maximum; on the geodesic grid one start already reaches the global one
        rho, reference = state
        single = _corpora.grid_search(rho, 16)
        assert reference - single > 1e-3


@pytest.mark.parametrize("name", sorted(_corpora.COMMITTED))
def test_the_table_regenerates_the_committed_state(name, tmp_path):
    save_state_file(_corpora.committed_state(name), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()

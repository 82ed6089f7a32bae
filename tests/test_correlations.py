import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherence_bounds.bounds import FAMILIES
from coherence_bounds.correlations import (
    _bloch,
    _chart,
    _coarse_grid,
    _GRID_SPACING,
    _HEMISPHERE,
    _hemisphere_grid,
    _HolevoObjective,
    _maximize_holevo,
    _refine,
    _tangent_frame,
    classical_correlation,
    conditional_entropy,
    holevo,
    mutual_information,
)
from coherence_bounds.checks import generate_cases
from coherence_bounds.entropy import binary_entropy, von_neumann_entropy
from coherence_bounds.errors import UnsupportedDimension
from coherence_bounds.linalg import tensor_product
from coherence_bounds.measurement import bloch_basis, measure, pauli_basis
from coherence_bounds.states import (
    bell_diagonal,
    bell_diagonal_family,
    load_state_file,
    make_density,
    marginal_a,
    marginal_b,
    random_density,
    random_unitary,
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
        assert measure(blind, pauli_basis(3)).degenerate == (False, True)
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

    @pytest.mark.parametrize("dim_b", [1, 2, 3, 4, 8])
    def test_report_rows_hold_the_marginal_spectra(self, dim_b):
        # rho_A from the blocks' traces, rho_B as twice the n = 0 block
        states = [random_density(2, dim_b, 80 + k) for k in range(3)]
        if dim_b == 2:
            states += [x_state(0.0), x_state(1.0), product_state(21)]
        for rho in states:
            rows = _HolevoObjective(rho)._report_rows(pauli_basis(1), pauli_basis(3))
            assert np.all(rows[0, 2:] == 0.0) and np.all(rows[1, dim_b:] == 0.0)
            for row, marginal in ((rows[0, :2], marginal_a(rho)), (rows[1, :dim_b], marginal_b(rho))):
                expected = np.linalg.eigvalsh(marginal.matrix)
                assert np.max(np.abs(np.sort(row) - expected)) <= 1e-15


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
        # the fine grid's best point can lie on a ridge of chi; with steps along
        # negative curvature only, 22 of these states stopped up to 6.1e-4 short
        rng = np.random.default_rng(102)
        for _ in range(300):
            rho = make_density(_classical_quantum(rng, 2, power=3), 2, 2)
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
        for rho, n in cases:
            objective = _HolevoObjective(rho)
            frame = _tangent_frame(*(n / np.linalg.norm(n)).tolist())
            chi, *model = objective._local(frame)
            assert chi == pytest.approx(objective(_chart(frame, np.zeros((2, 1))))[0], abs=1e-14)
            expected = _central_model(objective, frame)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(np.array(model) - expected)) <= 1e-6 * scale

    def test_no_closed_form_beyond_a_qubit_memory(self):
        assert _HolevoObjective(random_density(2, 3, 5))._local(_tangent_frame(0.0, 0.0, 1.0)) is None

    def test_stencil_only_path_agrees(self, monkeypatch):
        states = [c.rho for c in generate_cases(42, 200)]
        states += [FAMILIES[f](float(p)) for f in sorted(FAMILIES) for p in np.linspace(0.0, 1.0, 101)]
        s_b = [von_neumann_entropy(marginal_b(rho)) for rho in states]
        closed = [_maximize_holevo(_HolevoObjective(rho), s)[0] for rho, s in zip(states, s_b)]
        monkeypatch.setattr(_HolevoObjective, "_local", lambda self, frame: None)
        stencil = [_maximize_holevo(_HolevoObjective(rho), s)[0] for rho, s in zip(states, s_b)]
        assert np.max(np.abs(np.array(closed) - np.array(stencil))) <= 1e-12

    @pytest.mark.parametrize("rho, expected", [(x_state(1.0), 1.0), (x_state(0.0), 0.0)])
    def test_rank_deficient_blocks_take_the_stencil(self, monkeypatch, rho, expected):
        # a pure state leaves rank-1 blocks for every measurement: each model
        # falls back to the 9-point stencil, and J_A still reaches its closed form
        local = _HolevoObjective._local
        returned = []

        def recorded(self, frame):
            returned.append(local(self, frame))
            return returned[-1]

        monkeypatch.setattr(_HolevoObjective, "_local", recorded)
        j_a, _, evals = _maximize_holevo(_HolevoObjective(rho), von_neumann_entropy(marginal_b(rho)))
        assert returned and all(r is None for r in returned)
        assert evals == _HEMISPHERE.shape[1] + 9 * len(returned)
        assert j_a == pytest.approx(expected, abs=1e-9)


def _grid_search(objective, grid, spacing, s_b):
    """J_A from one ascent at the first maximum of `grid`, as the 1985-point search takes it."""
    frame = _tangent_frame(*grid[:, int(np.argmax(objective(grid)))].tolist())
    return max(0.0, s_b + _refine(objective, frame, spacing, 0)[0])


def _ginibre(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _strata(dim_b, count=4):
    """Seeded states with a memory of dim_b, `count` per stratum (one more for product)."""
    rng = np.random.default_rng(dim_b)
    d = 2 * dim_b
    strata = {"pure": [_ginibre(rng, d, 1) for _ in range(count)]}
    for rank in (2, 3, 4):
        strata[f"rank{rank}"] = [_ginibre(rng, d, rank) for _ in range(count)]
    strata["full"] = [_ginibre(rng, d, d) for _ in range(count)]
    # I/2 (x) rho_B makes every coarse value exactly equal
    strata["product"] = [np.kron(np.eye(2) / 2, _ginibre(rng, dim_b, dim_b))]
    strata["product"] += [np.kron(_ginibre(rng, 2, 2), _ginibre(rng, dim_b, dim_b)) for _ in range(count)]
    strata["classical-quantum"] = [_classical_quantum(rng, dim_b) for _ in range(count)]
    return {name: [make_density(m, 2, dim_b) for m in states] for name, states in strata.items()}


def _classical_quantum(rng, dim_b, power=1):
    """sum_a w_a |u_a><u_a| (x) rho_a for a random basis u of A and rho_a of random rank.

    The weight w_0 is a uniform draw to the given power."""
    u = random_unitary(2, int(rng.integers(2**31)))
    w = rng.uniform() ** power
    blocks = [_ginibre(rng, dim_b, int(rng.integers(1, dim_b + 1))) for _ in range(2)]
    return sum(p * np.kron(np.outer(u[:, a], u[:, a].conj()), blocks[a]) for a, p in enumerate((w, 1.0 - w)))


@pytest.fixture(scope="module", params=[3, 4, 8])
def stratified(request):
    """(stratum, state, J_A by the 1985-point search, classical_correlation) per state."""
    rows = []
    for name, states in _strata(request.param).items():
        for rho in states:
            s_b = von_neumann_entropy(marginal_b(rho))
            oracle = _grid_search(_HolevoObjective(rho), _HEMISPHERE, _GRID_SPACING, s_b)
            rows.append((name, rho, oracle, classical_correlation(rho)))
    return rows


class TestCoarseMultiStart:
    """With dim_b > 2 the search starts from the local maxima of a 46-point geodesic
    grid; the 1985-point single-start search is the oracle."""

    def test_reaches_the_fine_grid_search(self, stratified):
        for name, _, oracle, res in stratified:
            assert res.classical_correlation >= oracle - 1e-12, name

    @pytest.mark.parametrize("dim_b", [3, 4, 8])
    def test_classical_quantum_states_reach_mutual_information(self, dim_b):
        # measuring A in the basis that defines the state reads all of I(A:B);
        # with a rank-deficient rho_a the peak is narrower than the coarse grid
        rng = np.random.default_rng((dim_b, 1))
        for _ in range(40):
            rho = make_density(_classical_quantum(rng, dim_b), 2, dim_b)
            j_a = classical_correlation(rho).classical_correlation
            assert j_a == pytest.approx(mutual_information(rho), abs=1e-9)

    def test_flat_objectives_refine_few_starts(self, stratified):
        # every coarse point ties on a flat objective; without the cap on starts
        # these strata took 172 to 874 evaluations, with it 118 to 262
        for name, _, _, res in stratified:
            if name in ("pure", "product"):
                assert res.optimizer_evals <= 500, name

    def test_grid_is_built_once_and_read_only(self):
        grid, neighbours = _coarse_grid()
        assert _coarse_grid()[0] is grid
        assert grid.shape == (3, 46) and neighbours.shape == (46, 8)
        assert not grid.flags.writeable and not neighbours.flags.writeable

    def test_grid_covers_the_sphere(self):
        # every measurement lies within 13.7 degrees of a coarse point, n and -n alike
        grid = _coarse_grid()[0]
        nearest = np.abs(_hemisphere_grid(256).T @ grid).max(axis=1)
        assert np.all(np.arccos(np.minimum(nearest, 1.0)) <= math.radians(13.7))


class TestMultimodalState:
    """The state of scripts/make_multimodal_state.py: chi has a second local maximum
    7.45e-3 below the global one, and the best point of the 16-row grid lies next to it."""

    @pytest.fixture(scope="class")
    def state(self):
        """The state, its objective, S(B), and J_A from a 256-row grid and one ascent."""
        rho = load_state_file(Path(__file__).parent / "data" / "multimodal_2x3.txt")
        objective = _HolevoObjective(rho)
        s_b = von_neumann_entropy(marginal_b(rho))
        reference = _grid_search(objective, _hemisphere_grid(256), 2.0 * math.pi / 256, s_b)
        return rho, objective, s_b, reference

    def test_reaches_the_global_maximum(self, state):
        rho, _, _, reference = state
        assert classical_correlation(rho).classical_correlation == pytest.approx(reference, abs=1e-9)

    def test_one_coarse_start_misses_it(self, state):
        # on the 113-point 16-row grid the best point lies next to the lower
        # maximum; on the geodesic grid one start already reaches the global one
        _, objective, s_b, reference = state
        single = _grid_search(objective, _hemisphere_grid(16), 2.0 * math.pi / 16, s_b)
        assert reference - single > 1e-3

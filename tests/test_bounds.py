import math
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coherence_bounds import _corpora, bounds, correlations
from coherence_bounds.bounds import (
    BoundReport,
    FAMILIES,
    coherence_bound_t1,
    evaluate_all,
    sweep_family,
)
from coherence_bounds.checks import generate_cases
from coherence_bounds.coherence import (
    coherence_rel,
    purity_rel,
    unilateral_coherence,
    unilateral_purity,
)
from coherence_bounds.correlations import (
    _report_scalars,
    classical_correlation,
    conditional_entropy,
    holevo,
    mutual_information,
)
from coherence_bounds.entropy import shannon_entropy
from coherence_bounds.errors import DimensionError, DomainError, UnsupportedDimension
from coherence_bounds.measurement import (
    ObservableBasis,
    bloch_basis,
    computational_basis,
    incompatibility,
    measure,
    pauli_basis,
)
from coherence_bounds.states import (
    DensityMatrix,
    make_density,
    marginal_a,
    marginal_b,
    random_density,
    werner,
    x_state,
)

X = pauli_basis(1)
Z = pauli_basis(3)

angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))


def _count_eigensolves(monkeypatch) -> list:
    """Wrap np.linalg.eigvalsh and eigh; the returned list gains one entry per call, its number of matrices."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            calls.append(math.prod(np.shape(a)[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_monopartite_bound_maximally_mixed_saturates():
    rho = make_density(np.eye(2) / 2, 2, 1)
    lhs, lb = coherence_bound_t1(rho, X, Z)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert lb == pytest.approx(0.0, abs=1e-12)


def test_monopartite_bound_pure_basis_state_saturates():
    rho = make_density(np.diag([1.0, 0.0]), 2, 1)
    lhs, lb = coherence_bound_t1(rho, X, Z)
    # fully coherent for X, incoherent for Z, zero entropy
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert lb == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), angles, angles)
def test_monopartite_bound_holds_generically(seed, ax, az):
    rho = random_density(2, 1, seed)
    lhs, lb = coherence_bound_t1(rho, bloch_basis(*ax), bloch_basis(*az))
    assert lhs >= lb - 1e-9


class TestEvaluateAll:
    def test_bell_state_report(self):
        rep = evaluate_all(x_state(1.0), X, Z)
        assert rep.q_mu == pytest.approx(1.0, abs=1e-9)
        assert rep.cond_entropy == pytest.approx(-1.0, abs=1e-9)
        assert rep.mutual_info == pytest.approx(2.0, abs=1e-9)
        assert rep.lhs_eur == pytest.approx(0.0, abs=1e-9)
        assert rep.lhs_coherence == pytest.approx(2.0, abs=1e-9)
        assert rep.lb_theorem2 == pytest.approx(2.0, abs=1e-9)
        assert rep.ub_purity == pytest.approx(4.0, abs=1e-9)
        assert rep.ub_holevo == pytest.approx(2.0, abs=1e-9)
        assert rep.eur_berta == pytest.approx(0.0, abs=1e-9)
        assert rep.certainty_ub == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_report(self):
        rep = evaluate_all(werner(0.0), X, Z)
        assert rep.lhs_eur == pytest.approx(2.0, abs=1e-9)
        assert rep.eur_berta == pytest.approx(2.0, abs=1e-9)
        assert rep.certainty_ub == pytest.approx(2.0, abs=1e-9)
        assert rep.lhs_coherence == pytest.approx(0.0, abs=1e-9)
        assert rep.ub_purity == pytest.approx(0.0, abs=1e-9)
        assert rep.ub_holevo == pytest.approx(0.0, abs=1e-9)
        assert rep.discord_gap == pytest.approx(0.0, abs=1e-9)

    def test_conversion_identity_is_exact(self):
        for seed in range(25):
            rho = random_density(2, 2, 400 + seed)
            rep = evaluate_all(rho, X, Z)
            assert rep.lhs_eur == pytest.approx(
                rep.lhs_coherence + 2 * rep.cond_entropy, abs=1e-12
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), angles, angles)
    def test_bound_chains(self, seed, ax, az):
        rho = random_density(2, 2, seed)
        rep = evaluate_all(rho, bloch_basis(*ax), bloch_basis(*az))
        # lower chain tightens monotonically and stays below the sum
        assert rep.lb_theorem3 >= rep.lb_theorem2 - 1e-12
        assert rep.lb_theorem4 >= rep.lb_theorem2 - 1e-12
        assert rep.lhs_coherence >= rep.lb_theorem2 - 1e-9
        assert rep.lhs_coherence >= rep.lb_theorem3 - 1e-6
        assert rep.lhs_coherence >= rep.lb_theorem4 - 1e-9
        # upper chain
        assert rep.lhs_coherence <= rep.ub_holevo + 1e-9
        assert rep.ub_holevo <= rep.ub_purity + 1e-9
        # memory-assisted uncertainty chain
        assert rep.lhs_eur >= rep.eur_berta - 1e-9
        assert rep.lhs_eur >= rep.eur_pati - 1e-6
        assert rep.lhs_eur >= rep.eur_adabi - 1e-9
        assert rep.lhs_eur <= rep.certainty_ub + 1e-9

    def test_rejects_non_qubit_side_a(self):
        with pytest.raises(UnsupportedDimension):
            evaluate_all(random_density(3, 2, 2), X, Z)

    def test_rejects_a_basis_that_does_not_match_qubit_a(self):
        # incompatibility accepts the pair, the Bloch vector of its outcome-0 ket does not
        with pytest.raises(DimensionError, match="basis dim 3 does not match dim_a 2"):
            evaluate_all(random_density(2, 2, 2), computational_basis(3), computational_basis(3))

    def test_spectra_are_computed_in_one_pass(self, monkeypatch):
        # no eigensolve at all: the spectrum of rho_AB is the one make_density
        # computed, the marginals' spectra, the dephased states' spectra and
        # the discord search are closed-form for a qubit memory, and no
        # measurement is carried out and no marginal traced out
        qubit_memory, wide_memory = random_density(2, 2, 7), random_density(2, 8, 7)
        calls = _count_eigensolves(monkeypatch)

        def no_measure(*args, **kwargs):
            raise AssertionError("evaluate_all called measure")

        forbidden = {"measure": measure, "marginal_a": marginal_a, "marginal_b": marginal_b}

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"evaluate_all called {name}")

            return call

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "coherence_bounds":
                continue
            for name, function in forbidden.items():
                if getattr(module, name, None) is function:
                    monkeypatch.setattr(module, name, refuse(name))
        evaluate_all(qubit_memory, bloch_basis(1.0, 2.0), bloch_basis(2.5, 0.3))
        assert len(calls) == 0
        # the same matrix wrapped by the trusted constructor: one eigensolve, for rho_AB
        evaluate_all(DensityMatrix(qubit_memory.matrix, 2, 2), bloch_basis(1.0, 2.0), bloch_basis(2.5, 0.3))
        assert len(calls) == 1
        # beyond a qubit memory: one batched eigensolve for rho_B, the four
        # dephased blocks and the blocks of the search's grid
        monkeypatch.setattr(correlations, "_maximize_holevo", lambda objective, values, s_b: (0.0, None, 0))
        calls.clear()
        evaluate_all(wide_memory, bloch_basis(1.0, 2.0), bloch_basis(2.5, 0.3))
        assert len(calls) == 1

    def test_wide_memory_search_solves_two_blocks_per_ascent_point(self, monkeypatch):
        # full-rank 2x8 states: one eigvalsh over the 98 blocks of the scan (n = 0,
        # n_X, n_Z and the 46 grid points, M_+ and M_- each), then one eigh of
        # M_+ and M_- per point an ascent tries, which costs 1 evaluation; no
        # point falls back to the 9-point stencil
        for seed in range(4):
            rho = random_density(2, 8, 20 + seed)
            x, z = bloch_basis(1.0, 2.0 + seed), bloch_basis(2.5, 0.3 * seed)
            evals = classical_correlation(rho).optimizer_evals
            calls = _count_eigensolves(monkeypatch)
            evaluate_all(rho, x, z)
            monkeypatch.undo()
            assert calls[0] == 98 and calls[1:] == [2] * (evals - 46)
            assert 48 <= evals <= 60

    def test_reference_path_reuses_the_kept_marginals(self, monkeypatch):
        # the public functions read the marginals and entropies the state
        # keeps: one eigensolve for rho_B and one per dephased state, rho_XB
        # and rho_ZB shared by holevo and unilateral_coherence, rho_A dephased
        # in X and Z shared by coherence_rel and coherence_bound_t1; the
        # spectra of rho_AB and rho_A are the ones make_density validated
        rho = random_density(2, 2, 7)

        def reference_values(state):
            rho_a = marginal_a(state)
            return [
                conditional_entropy(state),
                mutual_information(state),
                holevo(state, X),
                holevo(state, Z),
                unilateral_purity(state),
                unilateral_coherence(state, X),
                unilateral_coherence(state, Z),
                coherence_rel(rho_a, X),
                coherence_rel(rho_a, Z),
                *coherence_bound_t1(rho_a, X, Z),
            ]

        calls = _count_eigensolves(monkeypatch)
        values = reference_values(rho)
        assert len(calls) == 5
        calls.clear()
        assert reference_values(rho) == values
        assert len(calls) == 0
        # kept per basis object, not per content: an equal basis is diagonalised anew
        same_x = ObservableBasis(X.vectors)
        assert unilateral_coherence(rho, same_x).hex() == values[5].hex()
        assert len(calls) == 1
        monkeypatch.undo()
        fresh = reference_values(make_density(rho.matrix.copy(), 2, 2))
        assert [v.hex() for v in values] == [v.hex() for v in fresh]

    def test_stored_spectrum_gives_the_same_report(self):
        # the spectrum make_density keeps is the eigensolve a state built
        # directly makes, so both report the same bits
        cases = [(case.rho, case.x, case.z) for case in generate_cases(42, 100)]
        cases += [
            (random_density(2, dim_b, 600 + dim_b), bloch_basis(0.8, 1.9), bloch_basis(2.1, 0.4))
            for dim_b in (3, 4, 8)
        ]
        for rho, x, z in cases:
            wrapped = DensityMatrix(rho.matrix, rho.dim_a, rho.dim_b)
            assert asdict(evaluate_all(rho, x, z)) == asdict(evaluate_all(wrapped, x, z))

    def test_fields_match_public_functions(self):
        # evaluate_all builds these fields from its own entropies, not by
        # calling the public functions, so pin them to each other
        x = bloch_basis(0.9, 2.2)
        # outcome kets swapped and rephased: the Bloch vector of outcome 0 flips
        swapped = ObservableBasis(x.vectors[:, ::-1] * np.array([1j, -1.0]))
        # orthonormal only to about 1e-11, inside the 1e-10 the basis accepts
        skewed = ObservableBasis(x.vectors @ np.array([[1.0 + 4e-12, 3e-12], [3e-12, 1.0]]))
        cases = [
            (random_density(2, 2, 500), bloch_basis(0.4, 1.1), bloch_basis(2.0, 4.0), 1e-12),
            (random_density(2, 3, 501), bloch_basis(1.3, 0.2), bloch_basis(0.7, 5.5), 1e-12),
            (random_density(2, 8, 502), bloch_basis(2.8, 3.3), bloch_basis(0.2, 1.9), 1e-12),
            (random_density(2, 2, 503), x, swapped, 1e-12),
            (random_density(2, 3, 504), skewed, bloch_basis(1.7, 0.6), 1e-9),
            (x_state(0.0), X, Z, 1e-12),
            (x_state(1.0), X, pauli_basis(2), 1e-12),
        ]
        for rho, x, z, tol in cases:
            rep = evaluate_all(rho, x, z)
            assert rep.holevo_x == pytest.approx(holevo(rho, x), abs=tol)
            assert rep.holevo_z == pytest.approx(holevo(rho, z), abs=tol)
            assert rep.lhs_coherence == pytest.approx(
                unilateral_coherence(rho, x) + unilateral_coherence(rho, z), abs=tol
            )
            assert rep.mutual_info == pytest.approx(mutual_information(rho), abs=tol)
            assert rep.cond_entropy == pytest.approx(conditional_entropy(rho), abs=tol)
            assert rep.ub_purity == pytest.approx(2.0 * unilateral_purity(rho), abs=tol)

    def test_report_dict_preserves_field_order(self):
        rep = evaluate_all(werner(0.3), X, Z)
        d = asdict(rep)
        assert list(d) == [f.name for f in rep.__dataclass_fields__.values()]
        assert d["q_mu"] == rep.q_mu

    def test_every_field_is_a_python_float(self):
        # np.log2 in incompatibility gives np.float64, which q_mu would carry into seven fields
        reports = [evaluate_all(case.rho, case.x, case.z) for case in generate_cases(42, 20)]
        reports.append(evaluate_all(random_density(2, 3, 800), bloch_basis(0.8, 1.9), bloch_basis(2.1, 0.4)))
        for family in FAMILIES:
            for p, rep in sweep_family(family, X, Z, np.linspace(0.0, 1.0, 5)):
                assert type(p) is float
                reports.append(rep)
        for rep in reports:
            assert {name: type(v) for name, v in asdict(rep).items() if type(v) is not float} == {}
        lhs, bound = coherence_bound_t1(random_density(2, 1, 5), X, bloch_basis(1.0, 0.5))
        assert type(lhs) is float and type(bound) is float


class TestSweeps:
    def test_known_families(self):
        assert set(FAMILIES) == {"xstate", "bell_diagonal", "werner"}

    def test_rows_follow_grid(self):
        grid = np.linspace(0.0, 1.0, 5)
        rows = sweep_family("werner", X, Z, grid)
        assert [p for p, _ in rows] == pytest.approx(list(grid))
        assert all(isinstance(rep, BoundReport) for _, rep in rows)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            sweep_family("isotropic", X, Z, np.array([0.5]))

    def test_out_of_range_parameter(self):
        with pytest.raises(DomainError):
            sweep_family("werner", X, Z, np.array([1.5]))

    def test_bell_diagonal_upper_bounds_do_not_depend_on_mub_pair(self):
        # both Pauli pairs dephase a Bell-diagonal state equally hard, so the
        # purity and Holevo-corrected caps coincide column by column
        grid = np.linspace(0.0, 1.0, 21)
        with_z = sweep_family("bell_diagonal", X, Z, grid)
        with_y = sweep_family("bell_diagonal", X, pauli_basis(2), grid)
        for (_, a), (_, b) in zip(with_z, with_y):
            assert a.ub_purity == pytest.approx(b.ub_purity, abs=1e-12)
            assert a.ub_holevo == pytest.approx(b.ub_holevo, abs=1e-9)

    def test_holevo_cap_is_tight_when_marginal_a_is_maximally_mixed(self):
        for family in ("bell_diagonal", "werner"):
            for p, rep in sweep_family(family, X, Z, np.linspace(0.0, 1.0, 11)):
                assert rep.lhs_coherence == pytest.approx(rep.ub_holevo, abs=1e-9)


def _hex_rows(rows) -> list[list[str]]:
    # float.hex tells -0.0 from 0.0 and gives every NaN the same text
    return [[float(v).hex() for v in row] for row in rows]


class TestStackedReport:
    """_report_scalars over a stack gives every state the bits of a call over that state alone."""

    @staticmethod
    def _check(states, x, z, search):
        stacked = _report_scalars(states, x, z, search)
        lone = [_report_scalars([rho], x, z, search)[0] for rho in states]
        assert len(stacked) == len(states)
        assert all(len(row) == 8 for row in stacked)
        assert _hex_rows(stacked) == _hex_rows(lone)
        return stacked

    @pytest.mark.parametrize("search", [True, False])
    def test_the_figure_grid_points(self, search):
        rows = self._check(_corpora.family_points(), X, Z, search)
        assert all(math.isnan(row[-1]) != search for row in rows)

    def test_the_seed42_corpus_under_one_basis_pair(self):
        cases = generate_cases(42, 1000)
        self._check([case.rho for case in cases], cases[0].x, cases[0].z, True)

    @pytest.mark.parametrize("dim_b", [3, 8])
    def test_random_wider_memories(self, dim_b):
        states = [random_density(2, dim_b, 900 + k) for k in range(20)]
        self._check(states, bloch_basis(0.8, 1.9), bloch_basis(2.1, 0.4), True)

    def test_a_sweep_of_two_chunks_and_a_row_matches_row_by_row_reports(self, monkeypatch):
        chunk = bounds._SWEEP_CHUNK
        grid = np.linspace(0.0, 1.0, 2 * chunk + 1)
        sizes = []

        def recorded(states, x, z, search):
            sizes.append(len(states))
            return _report_scalars(states, x, z, search)

        monkeypatch.setattr(bounds, "_report_scalars", recorded)
        rows = sweep_family("xstate", X, Z, grid)
        assert sizes == [chunk, chunk, 1]
        monkeypatch.undo()
        q_mu = incompatibility(X, Z)
        assert [p for p, _ in rows] == grid.tolist()
        for p, report in rows:
            expected = bounds._report(x_state(p), X, Z, q_mu, discord=True)
            assert _hex_rows([asdict(report).values()]) == _hex_rows([asdict(expected).values()])

    def test_an_empty_sweep_has_no_rows(self):
        assert sweep_family("werner", X, Z, []) == []
        assert sweep_family("xstate", X, Z, np.array([])) == []


def test_report_without_search_leaves_exactly_the_j_a_fields_nan():
    # a sweep whose fields do not read J_A skips the search and scans n = 0,
    # n_X and n_Z alone; every field it does print must keep evaluate_all's bits
    cases = [
        (FAMILIES[family](float(p)), X, Z)
        for family in sorted(FAMILIES)
        for p in np.linspace(0.0, 1.0, 11)
    ]
    cases += [
        (random_density(2, dim_b, 700 + dim_b), bloch_basis(0.8, 1.9), bloch_basis(2.1, 0.4))
        for dim_b in (2, 3, 8)
    ]
    for rho, x, z in cases:
        full = asdict(evaluate_all(rho, x, z))
        unsearched = asdict(bounds._report(rho, x, z, incompatibility(x, z), discord=False))
        nan_fields = {name for name, value in unsearched.items() if math.isnan(value)}
        assert nan_fields == bounds._DISCORD_FIELDS
        for name in full.keys() - nan_fields:
            assert float(unsearched[name]).hex() == float(full[name]).hex(), name


def test_theorem1_on_marginal_agrees_with_report_inputs():
    rho = random_density(2, 2, 77)
    lhs, lb = coherence_bound_t1(marginal_a(rho), X, Z)
    assert lhs >= lb - 1e-9


def test_holevo_cap_slack_is_the_outcome_entropy_deficit(reference_run):
    # With no max(0, .) clamp active, 2 P_B|A - I(X:B) - I(Z:B) - C_B|A(X) - C_B|A(Z)
    # collapses to 2 - H(p_X) - H(p_Z): the cap is tight only for uniform outcomes.
    def deficit(rho, x, z):
        return 2.0 - sum(shannon_entropy(measure(rho, basis).probs) for basis in (x, z))

    for case in generate_cases(42, 200):
        rep = evaluate_all(case.rho, case.x, case.z)
        slack = rep.ub_holevo - rep.lhs_coherence
        assert slack == pytest.approx(deficit(case.rho, case.x, case.z), abs=1e-12)
    # so the corpus's tightest ub_holevo margin is a case with nearly uniform outcomes
    bounds = next(s for s in reference_run.suites if s.name == "bounds")
    worst = bounds.worst["ub_holevo>=lhs_coherence"]
    x, z = bloch_basis(worst.theta_x, worst.phi_x), bloch_basis(worst.theta_z, worst.phi_z)
    rho = random_density(2, 2, worst.state_seed)
    assert worst.margin == pytest.approx(deficit(rho, x, z), abs=1e-12)


def test_purity_cap_slack_is_the_z_outcome_entropy_deficit(reference_run):
    # P(rho_A) - C(rho_A, Z) = (1 - S(rho_A)) - (H(p_Z) - S(rho_A)) = 1 - H(p_Z):
    # the local purity caps the local coherence tightly only for uniform outcomes.
    def deficit(rho, z):
        return 1.0 - shannon_entropy(measure(rho, z).probs)

    for case in generate_cases(42, 200):
        rho_a = marginal_a(case.rho)
        slack = purity_rel(rho_a) - coherence_rel(rho_a, case.z)
        assert slack == pytest.approx(deficit(case.rho, case.z), abs=1e-12)
    # so the corpus's tightest purity_dominates_coherence_z margin is a case
    # with nearly uniform Z outcomes
    coherence = next(s for s in reference_run.suites if s.name == "coherence")
    worst = coherence.worst["purity_dominates_coherence_z"]
    rho = random_density(2, 2, worst.state_seed)
    assert worst.margin == pytest.approx(deficit(rho, bloch_basis(worst.theta_z, worst.phi_z)), abs=1e-12)

from collections import Counter

import numpy as np
import pytest

from coherence_bounds import checks, measurement
from coherence_bounds.bounds import coherence_bound_t1, evaluate_all
from coherence_bounds.checks import (
    _SUITE_FNS,
    SUITE_NAMES,
    CheckCase,
    _Identity,
    generate_cases,
    run_checks,
)
from coherence_bounds.coherence import coherence_rel, purity_rel, unilateral_coherence, unilateral_purity
from coherence_bounds.correlations import conditional_entropy, holevo, mutual_information
from coherence_bounds.entropy import relative_entropy
from coherence_bounds.measurement import dephase, measure
from coherence_bounds.states import marginal_a


def _margins(suite, case):
    report = evaluate_all(case.rho, case.x, case.z)
    return {label: float(margin) for label, margin, _ in _SUITE_FNS[suite](case, report)}


def test_generate_cases_is_deterministic():
    a = generate_cases(5, 10)
    b = generate_cases(5, 10)
    assert len(a) == 10
    for ca, cb in zip(a, b):
        assert ca.state_seed == cb.state_seed
        assert ca.theta_x == cb.theta_x and ca.phi_z == cb.phi_z
        assert np.array_equal(ca.rho.matrix, cb.rho.matrix)


def test_generate_cases_angles_in_range():
    for case in generate_cases(6, 50):
        for theta in (case.theta_x, case.theta_z):
            assert 0.0 <= theta <= np.pi
        for phi in (case.phi_x, case.phi_z):
            assert 0.0 <= phi < 2 * np.pi


def test_all_suites_pass_on_small_corpus():
    result = run_checks(7, 40)
    assert result.ok
    assert tuple(s.name for s in result.suites) == SUITE_NAMES
    first = generate_cases(7, 1)[0]
    for suite in result.suites:
        assert suite.total == 40
        assert suite.passed == suite.total
        assert not suite.violations
        # every named check keeps its worst margin, in the suite's order
        assert list(suite.worst) == list(_margins(suite.name, first))
        for label, record in suite.worst.items():
            assert record.inequality == label
            assert record.margin >= -record.tol


def test_every_identity_margin_is_minus_an_error(monkeypatch):
    # _Identity.of sets margin = -max|error|, so no identity check can pass
    # with a margin above zero, whatever its error
    identities = []

    def recording(suite):
        def checked(case, report):
            found = suite(case, report)
            identities.extend(check for check in found if isinstance(check, _Identity))
            return found

        return checked

    for name, suite in list(_SUITE_FNS.items()):
        monkeypatch.setitem(_SUITE_FNS, name, recording(suite))
    result = run_checks(7, 12)
    assert result.ok
    flagged = {label for s in result.suites for label, record in s.worst.items() if record.identity}
    assert {check.name for check in identities} == flagged
    assert len(identities) == 12 * len(flagged)
    assert all(check.margin <= 0.0 for check in identities)


def test_corruption_hook_breaks_exactly_one_suite(monkeypatch, break_suite):
    clean = {s.name: s for s in run_checks(7, 12).suites}
    shift = break_suite("entropy")
    result = run_checks(7, 12)
    monkeypatch.undo()
    assert not result.ok
    by_name = {s.name: s for s in result.suites}
    assert by_name["entropy"].passed < by_name["entropy"].total
    for name in SUITE_NAMES:
        if name != "entropy":
            assert by_name[name].passed == by_name[name].total
            assert by_name[name].worst == clean[name].worst
    for label, record in by_name["entropy"].worst.items():
        assert record.margin == clean["entropy"].worst[label].margin - shift
    violation = by_name["entropy"].violations[0]
    text = violation.describe()
    assert "entropy" in text
    assert "margin" in text
    assert str(violation.state_seed) in text
    # the recorded seed's case, evaluated again, gives the recorded margin
    cases = {case.state_seed: case for case in generate_cases(7, 12)}
    for suite in clean.values():
        for label, record in suite.worst.items():
            assert _margins(suite.name, cases[record.state_seed])[label] == record.margin


@pytest.mark.parametrize("broken", SUITE_NAMES)
def test_passed_counts_the_cases_without_a_violation(break_suite, broken):
    break_suite(broken)
    result = run_checks(7, 6)
    for suite in result.suites:
        assert suite.passed == suite.total - len(suite.violations)
        assert (suite.passed < suite.total) == (suite.name == broken)


def test_run_checks_draws_each_case_just_before_checking_it(monkeypatch):
    # the corpus is never held whole: case k is checked after k draws
    drawn, seen = [], []

    def counting_case(**fields):
        drawn.append(CheckCase(**fields))
        return drawn[-1]

    def recording_evaluate_all(rho, x, z):
        seen.append(len(drawn))
        return evaluate_all(rho, x, z)

    monkeypatch.setattr(checks, "CheckCase", counting_case)
    monkeypatch.setattr(checks, "evaluate_all", recording_evaluate_all)
    result = run_checks(7, 5)
    monkeypatch.undo()
    assert result.ok
    assert seen == [1, 2, 3, 4, 5]
    # the same rng sequence as generate_cases
    assert [c.state_seed for c in drawn] == [c.state_seed for c in generate_cases(7, 5)]


def _count_layers(monkeypatch):
    """A Counter of the eigvalsh and eigh calls, and of the block builds M_y, from here on."""
    calls = Counter()
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (measurement, "_conditional_blocks")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_check_case_makes_16_eigvalsh_and_4_eigh(monkeypatch):
    # dephase keeps its state per basis object and relative_entropy reads the
    # kept eigh, so the suites share each dephased state and its eigensystem;
    # this pins the totals only (a full-rank case.rho still meets both solvers).
    # measure reads the kept blocks, so a case builds 6 sets of them.
    # classical_correlation takes its discord's S(B) from its own scan, so
    # neither conjugated state of the correlations suite diagonalises rho_B.
    calls = _count_layers(monkeypatch)
    assert run_checks(42, 2).ok
    assert calls == {"eigvalsh": 2 * 16, "eigh": 2 * 4, "_conditional_blocks": 2 * 6}


def test_the_primitive_calls_on_a_state_build_each_block_once(monkeypatch):
    # the suites' public calls on one validated 2x2 state, which keeps only
    # its spectrum and that of rho_A: measure reads the blocks its dephasing
    # kept, so rho and rho_A in X and in Z build 4 sets of blocks. The
    # eigensolves are 5 eigvalsh (rho_YB and the dephased rho_A per basis,
    # and rho_B) and 2 eigh (rho and rho_YB in X, for relative_entropy).
    case = generate_cases(42, 1)[0]
    calls = _count_layers(monkeypatch)
    rho, x, z = case.rho, case.x, case.z
    dephased = dephase(rho, x)
    out = measure(rho, x)
    rho_a = marginal_a(rho)
    coherence_bound_t1(rho_a, x, z)
    for basis in (x, z):
        holevo(rho, basis)
        unilateral_coherence(rho, basis)
        coherence_rel(rho_a, basis)
    conditional_entropy(rho)
    mutual_information(rho)
    unilateral_purity(rho)
    purity_rel(rho_a)
    relative_entropy(rho, dephased)
    measure(rho, x)
    assert out.joint_state is dephased
    assert calls == {"_conditional_blocks": 4, "eigvalsh": 5, "eigh": 2}

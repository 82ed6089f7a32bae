"""Randomized invariant suites over seeded two-qubit states and Bloch basis pairs.

Each suite covers one module's invariants. A check is a (name, margin, tol)
triple that passes when margin >= -tol. An identity check is an _Identity
triple built by _Identity.of from its error, with margin = -max|error|;
every other check is an inequality. Case
generation is fully determined by the run seed, so identical seeds give
identical verdicts.

One pass of run_checks gives both the verdicts and, for every named check of
every suite, the worst margin over the corpus with the case that set it. The
acceptance gate's fuzz criteria read their worst margins from one shared
run_checks(42, 1000), the run behind `coherence-bounds check --seed 42
--cases 1000`, so tier-1 evaluates that corpus once. `check` prints on each
suite's line its tightest inequality and its largest identity error, for
example

    bounds         1000/1000 passed  tightest ub_holevo>=lhs_coherence margin=4.146e-08 tol=1e-09 seed=1722337462  identity conversion_identity error=0.000e+00 tol=1e-09 seed=191664963
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import FAMILIES, BoundReport, coherence_bound_t1, evaluate_all
from .coherence import coherence_rel, purity_rel, unilateral_coherence, unilateral_purity
from .correlations import (
    _bloch,
    _HolevoObjective,
    classical_correlation,
    conditional_entropy,
    holevo,
    mutual_information,
)
from .entropy import relative_entropy, von_neumann_entropy
from .errors import ValidationError
from .linalg import hermitize, partial_trace, tensor_product
from .measurement import ObservableBasis, bloch_basis, dephase, incompatibility, measure
from .states import (
    DensityMatrix,
    marginal_a,
    marginal_b,
    random_density,
    random_unitary,
)


@dataclass(frozen=True)
class CheckCase:
    state_seed: int
    rho: DensityMatrix
    theta_x: float
    phi_x: float
    theta_z: float
    phi_z: float
    x: ObservableBasis
    z: ObservableBasis


class _Identity(NamedTuple):
    """An identity check, margin = -max|error|, as opposed to an inequality's plain triple."""

    name: str
    margin: float
    tol: float

    @classmethod
    def of(cls, name: str, error, tol: float) -> _Identity:
        """The check that `error`, a scalar or an array, vanishes: margin = -max|error|."""
        return cls(name, -float(np.max(np.abs(error))), tol)


@dataclass(frozen=True)
class CheckRecord:
    """One check's margin on one case: a violation, or the worst margin a check saw.

    The SuiteResult that holds the record names its suite.
    """

    state_seed: int
    theta_x: float
    phi_x: float
    theta_z: float
    phi_z: float
    inequality: str
    margin: float
    tol: float
    identity: bool

    def describe(self) -> str:
        return (
            f"seed={self.state_seed} "
            f"x=({self.theta_x:.6f},{self.phi_x:.6f}) z=({self.theta_z:.6f},{self.phi_z:.6f}) "
            f"{self.inequality} margin={self.margin:.3e} tol={self.tol:.0e}"
        )


@dataclass
class SuiteResult:
    """Per-case verdicts of one suite over `total` cases; `violations` holds each failing
    case's first failed check, and `worst` maps each check name, in order, to its
    smallest margin. Every other case passed.
    """

    name: str
    total: int = 0
    violations: list[CheckRecord] = field(default_factory=list)
    worst: dict[str, CheckRecord] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return self.total - len(self.violations)


@dataclass
class RunResult:
    seed: int
    cases: int
    suites: list[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.passed == s.total for s in self.suites)


def generate_cases(seed: int, count: int) -> list[CheckCase]:
    """Deterministic fuzz corpus: random full-rank two-qubit states and basis pairs."""
    return list(_draw_cases(seed, count))


def _draw_cases(seed: int, count: int):
    """generate_cases one case at a time, so a caller holds only the case it checks."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        state_seed = int(rng.integers(0, 2**31 - 1))
        angles = [
            float(np.arccos(rng.uniform(-1.0, 1.0))),
            float(rng.uniform(0.0, 2.0 * np.pi)),
            float(np.arccos(rng.uniform(-1.0, 1.0))),
            float(rng.uniform(0.0, 2.0 * np.pi)),
        ]
        yield CheckCase(
            state_seed=state_seed,
            rho=random_density(2, 2, state_seed),
            theta_x=angles[0],
            phi_x=angles[1],
            theta_z=angles[2],
            phi_z=angles[3],
            x=bloch_basis(angles[0], angles[1]),
            z=bloch_basis(angles[2], angles[3]),
        )


def _conjugated(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """The two-qubit state u rho u^dag, unvalidated."""
    return DensityMatrix(hermitize(u @ rho.matrix @ u.conj().T), 2, 2)


def _suite_linalg(case: CheckCase, report: BoundReport) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng((case.state_seed, 1))
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    prod = marginal_a(case.rho).matrix
    return [
        _Identity.of(
            "tensor_trace_multiplicative", np.trace(tensor_product(a, b)) - np.trace(a) * np.trace(b), 1e-9
        ),
        _Identity.of(
            "ptrace_trace_preserved",
            float(np.trace(partial_trace(case.rho.matrix, 2, 2, "A")).real) - 1.0,
            1e-10,
        ),
        _Identity.of(
            "ptrace_of_product",
            partial_trace(tensor_product(prod, marginal_b(case.rho).matrix), 2, 2, "B") - prod,
            1e-10,
        ),
    ]


def _suite_entropy(case: CheckCase, report: BoundReport) -> list[tuple[str, float, float]]:
    aux_seed = case.state_seed + 1_000_000_007
    sigma = random_density(2, 2, aux_seed)
    u = random_unitary(4, aux_seed)
    rotated = _conjugated(case.rho, u)
    rel = relative_entropy(case.rho, sigma)
    deph_rel = relative_entropy(dephase(case.rho, case.x), dephase(sigma, case.x))
    contract = float("inf") if np.isinf(rel) else rel - deph_rel
    return [
        ("klein_nonnegativity", rel, 1e-9),
        _Identity.of("self_relative_entropy", relative_entropy(case.rho, case.rho), 1e-9),
        _Identity.of("unitary_invariance", von_neumann_entropy(rotated) - von_neumann_entropy(case.rho), 1e-9),
        ("dephasing_contractivity", contract, 1e-9),
    ]


def _suite_states(case: CheckCase, report: BoundReport) -> list[tuple[str, float, float]]:
    rng = np.random.default_rng((case.state_seed, 3))
    p = float(rng.uniform())
    built = {name: family(p) for name, family in FAMILIES.items()}
    checks = [
        _Identity.of(f"{name}_unit_trace", float(np.trace(st.matrix).real) - 1.0, 1e-12)
        for name, st in built.items()
    ]
    checks.append(
        _Identity.of(
            "werner_marginal_maximally_mixed", marginal_a(built["werner"]).matrix - np.eye(2) / 2.0, 1e-10
        )
    )
    expected = np.diag([p / 2.0, 1.0 - p / 2.0])
    checks.append(
        _Identity.of("xstate_marginal_closed_form", marginal_a(built["xstate"]).matrix - expected, 1e-10)
    )
    return checks


def _suite_measurement(case: CheckCase, report: BoundReport) -> list[tuple[str, float, float]]:
    deph = dephase(case.rho, case.x)
    twice = dephase(deph, case.x)
    out = measure(case.rho, case.x)
    rebuilt = np.zeros((4, 4), dtype=np.complex128)
    for y in range(2):
        ket = case.x.vectors[:, y]
        rebuilt += out.probs[y] * tensor_product(
            np.outer(ket, ket.conj()), out.conditional_states[y].matrix
        )
    q = incompatibility(case.x, case.z)
    return [
        _Identity.of("dephase_idempotent", twice.matrix - deph.matrix, 1e-10),
        (
            "dephase_entropy_nondecreasing",
            von_neumann_entropy(deph) - von_neumann_entropy(case.rho),
            1e-9,
        ),
        _Identity.of("outcome_probs_sum_to_one", float(out.probs.sum()) - 1.0, 1e-9),
        _Identity.of("joint_equals_dephased", out.joint_state.matrix - deph.matrix, 1e-10),
        _Identity.of("joint_block_decomposition", out.joint_state.matrix - rebuilt, 1e-10),
        _Identity.of(
            "dephase_commutes_with_marginal",
            marginal_a(deph).matrix - dephase(marginal_a(case.rho), case.x).matrix,
            1e-10,
        ),
        ("incompatibility_in_range", min(q, 1.0 - q), 1e-9),
    ]


def _suite_coherence(case: CheckCase, report: BoundReport) -> list[tuple[str, float, float]]:
    rho_a = marginal_a(case.rho)
    info = mutual_information(case.rho)
    p_uni = unilateral_purity(case.rho)
    p_loc = purity_rel(rho_a)
    checks = [_Identity.of("purity_decomposition", p_uni - (p_loc + info), 1e-9)]
    c_uni, h_cond = {}, {}
    for tag, basis in (("x", case.x), ("z", case.z)):
        c_uni[tag] = unilateral_coherence(case.rho, basis)
        h_cond[tag] = conditional_entropy(dephase(case.rho, basis))
        c_loc = coherence_rel(rho_a, basis)
        checks.extend(
            [
                _Identity.of(
                    f"coherence_decomposition_{tag}",
                    c_uni[tag] - (c_loc + info - holevo(case.rho, basis)),
                    1e-9,
                ),
                (f"purity_dominates_coherence_{tag}", p_loc - c_loc, 1e-9),
                (f"unilateral_purity_dominates_{tag}", p_uni - c_uni[tag], 1e-9),
            ]
        )
    checks.append(
        _Identity.of(
            "coherence_vs_relative_entropy",
            c_uni["x"] - relative_entropy(case.rho, dephase(case.rho, case.x)),
            1e-8,
        )
    )
    # H(X|B) + H(Z|B) = C_B|A(X) + C_B|A(Z) + 2 S(A|B), H(Y|B) from the dephased joint state
    checks.append(
        _Identity.of(
            "conversion_identity_measured",
            h_cond["x"] + h_cond["z"] - (c_uni["x"] + c_uni["z"] + 2 * report.cond_entropy),
            1e-9,
        )
    )
    return checks


def _suite_correlations(case: CheckCase, report: BoundReport) -> list[tuple[str, float, float]]:
    info = report.mutual_info
    j_a = (info - report.discord_gap) / 2.0
    d_a = (info + report.discord_gap) / 2.0
    rng = np.random.default_rng((case.state_seed, 5))
    probe_t = np.arccos(rng.uniform(-1.0, 1.0, size=50))
    probe_p = rng.uniform(0.0, 2.0 * np.pi, size=50)
    # The objective is chi - S(B); S(B) comes from the public marginal.
    probe_chi = _HolevoObjective(case.rho)(_bloch(probe_t, probe_p))
    probe_best = von_neumann_entropy(marginal_b(case.rho)) + float(np.max(probe_chi))
    u = tensor_product(np.eye(2), random_unitary(2, case.state_seed + 77))
    conjugated = _conjugated(case.rho, u)
    j_conj = classical_correlation(conjugated).classical_correlation
    # A unitary on A rotates the objective against the search's fixed grid,
    # so unlike the B-side one this check reaches the search itself.
    u = tensor_product(random_unitary(2, case.state_seed + 78), np.eye(2))
    conjugated = _conjugated(case.rho, u)
    j_conj_a = classical_correlation(conjugated).classical_correlation
    return [
        ("classical_correlation_nonnegative", j_a, 1e-9),
        ("classical_correlation_below_mutual_info", info - j_a, 1e-9),
        ("discord_nonnegative", d_a, 1e-9),
        ("holevo_below_mutual_info_x", info - report.holevo_x, 1e-9),
        ("holevo_below_mutual_info_z", info - report.holevo_z, 1e-9),
        ("optimizer_dominates_probes", j_a - probe_best, 1e-9),
        _Identity.of("classical_correlation_b_unitary_invariant", j_a - j_conj, 1e-6),
        _Identity.of("classical_correlation_a_unitary_invariant", j_a - j_conj_a, 1e-9),
    ]


def _suite_bounds(case: CheckCase, report: BoundReport) -> list[tuple[str, float, float]]:
    lhs_t1, lb_t1 = coherence_bound_t1(marginal_a(case.rho), case.x, case.z)
    return [
        ("lhs_coherence>=lb_theorem2", report.lhs_coherence - report.lb_theorem2, 1e-9),
        ("lhs_coherence>=lb_theorem3", report.lhs_coherence - report.lb_theorem3, 1e-6),
        ("lhs_coherence>=lb_theorem4", report.lhs_coherence - report.lb_theorem4, 1e-9),
        ("ub_holevo>=lhs_coherence", report.ub_holevo - report.lhs_coherence, 1e-9),
        ("ub_purity>=lhs_coherence", report.ub_purity - report.lhs_coherence, 1e-9),
        ("ub_purity>=ub_holevo", report.ub_purity - report.ub_holevo, 1e-9),
        ("lhs_eur>=eur_berta", report.lhs_eur - report.eur_berta, 1e-9),
        ("lhs_eur>=eur_pati", report.lhs_eur - report.eur_pati, 1e-6),
        ("lhs_eur>=eur_adabi", report.lhs_eur - report.eur_adabi, 1e-9),
        ("certainty_ub>=lhs_eur", report.certainty_ub - report.lhs_eur, 1e-9),
        _Identity.of(
            "conversion_identity", report.lhs_eur - report.lhs_coherence - 2.0 * report.cond_entropy, 1e-9
        ),
        ("monopartite_coherence_bound", lhs_t1 - lb_t1, 1e-9),
    ]


_SUITE_FNS = {
    "linalg": _suite_linalg,
    "entropy": _suite_entropy,
    "states": _suite_states,
    "measurement": _suite_measurement,
    "coherence": _suite_coherence,
    "correlations": _suite_correlations,
    "bounds": _suite_bounds,
}
SUITE_NAMES = tuple(_SUITE_FNS)


def _record(case: CheckCase, inequality: str, margin: float, tol: float, identity: bool) -> CheckRecord:
    angles = (case.theta_x, case.phi_x, case.theta_z, case.phi_z)
    return CheckRecord(case.state_seed, *angles, inequality, margin, tol, identity)


def run_checks(seed: int, cases: int) -> RunResult:
    """Run every suite over `cases` seeded random states.

    Records each case's verdict per suite and each named check's worst margin.
    The cases are generate_cases(seed, cases), drawn one at a time: a run
    holds only the case it checks.
    Each suite is looked up in _SUITE_FNS per case, so replacing an entry
    (a suite with shifted margins, say) exercises the failure path.
    A count below 1 raises ValidationError: it would check nothing and pass.
    So does a negative seed, which numpy's generator rejects.
    """
    if cases < 1:
        raise ValidationError(f"cases: need at least 1, got {cases}")
    if seed < 0:
        raise ValidationError(f"seed: need a non-negative integer, got {seed}")
    results = {name: SuiteResult(name=name) for name in SUITE_NAMES}
    for case in _draw_cases(seed, cases):
        report = evaluate_all(case.rho, case.x, case.z)
        for name in SUITE_NAMES:
            suite = results[name]
            suite.total += 1
            bad = None
            for check in _SUITE_FNS[name](case, report):
                label, margin, tol = check
                margin = float(margin)
                identity = isinstance(check, _Identity)
                worst = suite.worst.get(label)
                if worst is None or margin < worst.margin:
                    suite.worst[label] = _record(case, label, margin, tol, identity)
                if bad is None and not margin >= -tol:
                    bad = _record(case, label, margin, tol, identity)
            if bad is not None:
                suite.violations.append(bad)
    return RunResult(seed=seed, cases=cases, suites=[results[name] for name in SUITE_NAMES])

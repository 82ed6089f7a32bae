"""End-to-end acceptance gate.

Each test covers one headline claim at its stated tolerance and prints a
single PASS/FAIL line outside pytest's capture so the verdicts always show.
Tolerances: 1e-9 for entropic identities and bounds, 1e-6 where the discord
optimizer enters, 1e-12 for basis-independence of the purity cap.

The three fuzz criteria judge the worst margins that the session's one
run_checks(42, 1000) recorded (the `reference_run` fixture), each at its own
tolerance here.
"""

import numpy as np
import pytest

from coherence_bounds.bounds import evaluate_all, sweep_family
from coherence_bounds.correlations import classical_correlation
from coherence_bounds.entropy import binary_entropy, xlog2x
from coherence_bounds.measurement import pauli_basis
from coherence_bounds.states import werner, x_state

# Tag in the inequality-fuzz-1000 line -> (bounds suite check, tolerance).
FUZZ_BOUNDS = {
    "t1": ("monopartite_coherence_bound", 1e-9),
    "t2": ("lhs_coherence>=lb_theorem2", 1e-9),
    "t3": ("lhs_coherence>=lb_theorem3", 1e-6),
    "t4": ("lhs_coherence>=lb_theorem4", 1e-9),
    "ubh": ("ub_holevo>=lhs_coherence", 1e-9),
    "ubp": ("ub_purity>=lhs_coherence", 1e-9),
}
GRID = np.linspace(0.0, 1.0, 101)

X = pauli_basis(1)
Y = pauli_basis(2)
Z = pauli_basis(3)


@pytest.fixture()
def criterion(capsys):
    def _criterion(tag: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _criterion


def _worst(run, suite):
    return next(s for s in run.suites if s.name == suite).worst


@pytest.fixture(scope="module")
def fig1_rows():
    return sweep_family("xstate", X, Z, GRID)


@pytest.fixture(scope="module")
def fig2_rows():
    return sweep_family("bell_diagonal", X, Z, GRID)


@pytest.fixture(scope="module")
def fig3_rows():
    return sweep_family("bell_diagonal", X, Y, GRID)


@pytest.fixture(scope="module")
def fig4_rows():
    return sweep_family("werner", X, Z, GRID)


def test_inequality_fuzz_suite(reference_run, criterion):
    bounds = _worst(reference_run, "bounds")
    worst = {tag: bounds[label].margin for tag, (label, _) in FUZZ_BOUNDS.items()}
    ok = all(worst[tag] >= -tol for tag, (_, tol) in FUZZ_BOUNDS.items())
    detail = ", ".join(f"{k} margin {v:.3g}" for k, v in worst.items())
    criterion("inequality-fuzz-1000", ok, detail)


def test_conversion_identity(reference_run, criterion):
    worst = max(
        -_worst(reference_run, "coherence")["conversion_identity_measured"].margin,
        -_worst(reference_run, "bounds")["conversion_identity"].margin,
    )
    criterion("conversion-identity", worst <= 1e-9, f"max defect {worst:.3g}")


def test_decomposition_identities(reference_run, criterion):
    coherence = _worst(reference_run, "coherence")
    worst_c = max(-coherence[f"coherence_decomposition_{tag}"].margin for tag in "xz")
    worst_p = -coherence["purity_decomposition"].margin
    ok = worst_c <= 1e-9 and worst_p <= 1e-9
    criterion("decomposition-identities", ok, f"coherence {worst_c:.3g}, purity {worst_p:.3g}")


def test_figure1_lower_bound_ordering(fig1_rows, criterion):
    t2 = np.array([r.lb_theorem2 for _, r in fig1_rows])
    t3 = np.array([r.lb_theorem3 for _, r in fig1_rows])
    t4 = np.array([r.lb_theorem4 for _, r in fig1_rows])
    ordered = np.all(t4 >= t3 - 1e-6) and np.all(t3 >= t2 - 1e-6)
    # measured peak interior gap is ~0.30; demand a healthy fraction of it
    separation = np.max((t4 - t2)[1:-1])
    ok = ordered and separation > 0.1
    criterion("figure1-ordering", ok, f"max interior t4-t2 gap {separation:.4f}")


def test_figures_2_3_upper_bounds(fig2_rows, fig3_rows, criterion):
    p = GRID
    purity = 2.0 * (2.0 + xlog2x(p) + 2.0 * xlog2x((1.0 - p) / 2.0))
    hol_x = 1.0 - np.array([binary_entropy(v) for v in p])
    hol_z = 1.0 - np.array([binary_entropy((1.0 + v) / 2.0) for v in p])
    closed_ub = purity - np.maximum(hol_x, hol_z) - np.minimum(hol_x, hol_z)

    ub_p2 = np.array([r.ub_purity for _, r in fig2_rows])
    ub_p3 = np.array([r.ub_purity for _, r in fig3_rows])
    ub_h2 = np.array([r.ub_holevo for _, r in fig2_rows])
    ub_h3 = np.array([r.ub_holevo for _, r in fig3_rows])
    lhs2 = np.array([r.lhs_coherence for _, r in fig2_rows])
    lhs3 = np.array([r.lhs_coherence for _, r in fig3_rows])

    pair_independent = np.max(np.abs(ub_p2 - ub_p3)) <= 1e-12
    closed_form = max(np.max(np.abs(ub_h2 - closed_ub)), np.max(np.abs(ub_h3 - closed_ub))) <= 1e-9
    dominated = np.all(ub_h2 <= ub_p2 + 1e-9) and np.all(ub_h3 <= ub_p3 + 1e-9)
    sound = np.all(lhs2 <= ub_h2 + 1e-9) and np.all(lhs3 <= ub_h3 + 1e-9)
    ok = pair_independent and closed_form and dominated and sound
    criterion(
        "figures2-3-upper-bounds",
        ok,
        f"purity pair gap {np.max(np.abs(ub_p2 - ub_p3)):.2g}, "
        f"closed-form defect {np.max(np.abs(ub_h2 - closed_ub)):.2g}",
    )


def test_figure4_sign_structure(fig4_rows, criterion):
    cond = np.array([r.cond_entropy for _, r in fig4_rows])
    signs = np.sign(cond)
    flips = int(np.sum(signs[:-1] != signs[1:]))
    tighter = np.array([r.lb_theorem2 > r.eur_berta for _, r in fig4_rows])
    negative = cond < 0
    ok = flips == 1 and np.array_equal(tighter, negative)
    criterion(
        "figure4-sign-structure",
        ok,
        f"{flips} sign flip, coherence bound tighter on {int(negative.sum())} points",
    )


def test_certainty_equality_for_maximally_mixed_marginal(fig2_rows, fig4_rows, criterion):
    worst = 0.0
    for rows in (fig2_rows, fig4_rows):
        for _, rep in rows:
            worst = max(worst, abs(rep.lhs_eur - rep.certainty_ub))
    criterion("certainty-equality", worst <= 1e-9, f"max defect {worst:.3g}")


def test_analytic_fixed_points(criterion):
    ok = True
    details = []
    for label, rho in (("werner(1)", werner(1.0)), ("xstate(1)", x_state(1.0))):
        rep = evaluate_all(rho, X, Z)
        disc = classical_correlation(rho)
        bell_ok = (
            abs(rep.cond_entropy + 1.0) <= 1e-9
            and abs(rep.mutual_info - 2.0) <= 1e-9
            and abs(rep.lhs_eur) <= 1e-9
            and abs(rep.lhs_coherence - 2.0) <= 1e-9
            and abs(disc.discord - 1.0) <= 1e-6
            and abs(disc.classical_correlation - 1.0) <= 1e-6
        )
        ok = ok and bell_ok
        details.append(f"{label} {'ok' if bell_ok else 'BAD'}")

    rep0 = evaluate_all(werner(0.0), X, Z)
    mixed_ok = (
        abs(rep0.lhs_eur - 2.0) <= 1e-9
        and abs(rep0.eur_berta - 2.0) <= 1e-9
        and abs(rep0.certainty_ub - 2.0) <= 1e-9
        and abs(rep0.lhs_coherence) <= 1e-9
        and abs(rep0.lb_theorem2) <= 1e-9
        and abs(rep0.ub_purity) <= 1e-9
        and abs(rep0.ub_holevo) <= 1e-9
    )
    ok = ok and mixed_ok
    details.append(f"werner(0) {'ok' if mixed_ok else 'BAD'}")
    criterion("analytic-fixed-points", ok, ", ".join(details))


def test_discord_oracle_on_werner_line(criterion):
    worst = 0.0
    for p in np.linspace(0.1, 0.9, 9):
        got = classical_correlation(werner(p)).classical_correlation
        expected = 1.0 - binary_entropy((1.0 + p) / 2.0)
        worst = max(worst, abs(got - expected))
    criterion("discord-oracle-werner", worst <= 1e-6, f"max defect {worst:.3g}")

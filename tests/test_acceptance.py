"""End-to-end acceptance gate.

Each test covers one headline claim at its stated tolerance and prints a
single PASS/FAIL line outside pytest's capture so the verdicts always show.
Tolerances: 1e-9 for entropic identities and bounds, 1e-6 where the discord
optimizer enters, 1e-12 for basis-independence of the purity cap.
"""

import numpy as np
import pytest

from coherence_bounds.bounds import coherence_bound_t1, evaluate_all, sweep_family
from coherence_bounds.checks import generate_cases
from coherence_bounds.coherence import (
    coherence_rel,
    purity_rel,
    unilateral_coherence,
    unilateral_purity,
)
from coherence_bounds.correlations import (
    classical_correlation,
    conditional_entropy,
    mutual_information,
)
from coherence_bounds.entropy import binary_entropy, xlog2x
from coherence_bounds.measurement import measure, pauli_basis
from coherence_bounds.states import marginal_a, werner, x_state

FUZZ_SEED = 42
FUZZ_CASES = 1000
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


@pytest.fixture(scope="module")
def fuzz_corpus():
    rows = []
    for case in generate_cases(FUZZ_SEED, FUZZ_CASES):
        report = evaluate_all(case.rho, case.x, case.z)
        rho_a = marginal_a(case.rho)
        t1_lhs, t1_lb = coherence_bound_t1(rho_a, case.x, case.z)
        per_basis = {}
        for tag, basis in (("x", case.x), ("z", case.z)):
            joint = measure(case.rho, basis).joint_state
            per_basis[tag] = {
                "h_cond": conditional_entropy(joint),
                "coh": unilateral_coherence(case.rho, basis),
                "coh_local": coherence_rel(rho_a, basis),
                "i_yb": mutual_information(joint),
            }
        rows.append(
            {
                "report": report,
                "t1_margin": t1_lhs - t1_lb,
                "i_ab": mutual_information(case.rho),
                "purity": unilateral_purity(case.rho),
                "purity_local": purity_rel(rho_a),
                "x": per_basis["x"],
                "z": per_basis["z"],
            }
        )
    return rows


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


def test_inequality_fuzz_suite(fuzz_corpus, criterion):
    worst = {"t1": np.inf, "t2": np.inf, "t3": np.inf, "t4": np.inf, "ubh": np.inf, "ubp": np.inf}
    for row in fuzz_corpus:
        rep = row["report"]
        worst["t1"] = min(worst["t1"], row["t1_margin"])
        worst["t2"] = min(worst["t2"], rep.lhs_coherence - rep.lb_theorem2)
        worst["t3"] = min(worst["t3"], rep.lhs_coherence - rep.lb_theorem3)
        worst["t4"] = min(worst["t4"], rep.lhs_coherence - rep.lb_theorem4)
        worst["ubh"] = min(worst["ubh"], rep.ub_holevo - rep.lhs_coherence)
        worst["ubp"] = min(worst["ubp"], rep.ub_purity - rep.lhs_coherence)
    ok = (
        worst["t1"] >= -1e-9
        and worst["t2"] >= -1e-9
        and worst["t4"] >= -1e-9
        and worst["t3"] >= -1e-6
        and worst["ubh"] >= -1e-9
        and worst["ubp"] >= -1e-9
    )
    detail = ", ".join(f"{k} margin {v:.3g}" for k, v in worst.items())
    criterion("inequality-fuzz-1000", ok, detail)


def test_conversion_identity(fuzz_corpus, criterion):
    worst = 0.0
    for row in fuzz_corpus:
        rep = row["report"]
        lhs = row["x"]["h_cond"] + row["z"]["h_cond"]
        rhs = row["x"]["coh"] + row["z"]["coh"] + 2 * rep.cond_entropy
        worst = max(worst, abs(lhs - rhs))
        worst = max(worst, abs(rep.lhs_eur - (rep.lhs_coherence + 2 * rep.cond_entropy)))
    criterion("conversion-identity", worst <= 1e-9, f"max defect {worst:.3g}")


def test_decomposition_identities(fuzz_corpus, criterion):
    worst_c = 0.0
    worst_p = 0.0
    for row in fuzz_corpus:
        for tag in ("x", "z"):
            e = row[tag]
            defect = e["coh"] - (e["coh_local"] + row["i_ab"] - e["i_yb"])
            worst_c = max(worst_c, abs(defect))
        worst_p = max(worst_p, abs(row["purity"] - (row["purity_local"] + row["i_ab"])))
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

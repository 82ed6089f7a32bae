"""The four workloads: inputs made from a seed, one unit of work, and its verification.

A unit is one call the loop times. It yields one item, except on `figures`,
where a unit renders one whole figure and yields one item per CSV row.
Every output is checked against values the benchmark does not compute with
the library at run time: the reference files under refs/ (written at the
parent commit by make_refs.py), the committed data/figure{n}.csv, Luo's
closed form for J_A, and identities checked with plain numpy.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"

# 42 is the corpus seed of `coherence-bounds check` and of the acceptance fuzz
# fixture; 1912 is held out. Each pool holds the cases of both, and --seed
# picks the order in which the closed loop walks the pool.
CORPUS_SEEDS = (42, 1912)

REPORT_FIELDS = (
    "lhs_coherence", "lhs_eur", "q_mu", "cond_entropy", "lb_theorem2", "lb_theorem3",
    "lb_theorem4", "ub_purity", "ub_holevo", "eur_berta", "eur_pati", "eur_adabi",
    "certainty_ub", "delta", "discord_gap", "mutual_info", "holevo_x", "holevo_z",
)
# Report fields that depend on the discord optimiser are compared at 1e-6.
OPTIMIZER_FIELDS = frozenset({"discord_gap", "lb_theorem3", "eur_pati"})

# The bounds suite of coherence_bounds.checks, restated: (name, margin, tolerance).
# A check passes when margin >= -tolerance.
BOUND_CHECKS = (
    ("lhs_coherence>=lb_theorem2", lambda r: r["lhs_coherence"] - r["lb_theorem2"], 1e-9),
    ("lhs_coherence>=lb_theorem3", lambda r: r["lhs_coherence"] - r["lb_theorem3"], 1e-6),
    ("lhs_coherence>=lb_theorem4", lambda r: r["lhs_coherence"] - r["lb_theorem4"], 1e-9),
    ("ub_holevo>=lhs_coherence", lambda r: r["ub_holevo"] - r["lhs_coherence"], 1e-9),
    ("ub_purity>=ub_holevo", lambda r: r["ub_purity"] - r["ub_holevo"], 1e-9),
    ("lhs_eur>=eur_berta", lambda r: r["lhs_eur"] - r["eur_berta"], 1e-9),
    ("lhs_eur>=eur_pati", lambda r: r["lhs_eur"] - r["eur_pati"], 1e-6),
    ("lhs_eur>=eur_adabi", lambda r: r["lhs_eur"] - r["eur_adabi"], 1e-9),
    ("certainty_ub>=lhs_eur", lambda r: r["certainty_ub"] - r["lhs_eur"], 1e-9),
    (
        "conversion_identity",
        lambda r: -abs(r["lhs_eur"] - r["lhs_coherence"] - 2.0 * r["cond_entropy"]),
        1e-9,
    ),
)

PRIMITIVE_FIELDS = (
    "prob_x0", "prob_x1", "cond_entropy", "mutual_info", "holevo_x", "holevo_z",
    "coh_uni_x", "coh_uni_z", "coh_loc_x", "coh_loc_z", "purity_uni", "purity_loc",
    "rel_entropy_dephased_x", "t1_lhs", "t1_lb",
)

# Correlation triple t of the states behind the Bell-diagonal and Werner figures.
LUO_TRIPLES = {
    "bell_diagonal": lambda p: (1.0 - 2.0 * p, -p, -p),
    "werner": lambda p: (p, p, -p),
}
LUO_TOL = 1e-6

SHIFT = 1e-6


@dataclasses.dataclass
class Verdict:
    failed: int
    messages: list[str]
    identical_rows: int = 0


def import_library() -> SimpleNamespace:
    """Import coherence_bounds afresh from the checkout's src/ and return its namespaces."""
    for name in [n for n in sys.modules if n.split(".")[0] == "coherence_bounds"]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    pkg = importlib.import_module("coherence_bounds")
    return SimpleNamespace(
        pkg=pkg,
        checks=importlib.import_module("coherence_bounds.checks"),
        cli=importlib.import_module("coherence_bounds.cli"),
    )


def scalar(value) -> float:
    """A float from a plain number or from a result object carrying `.value`.

    The coherence functions return CoherenceValue today; the roadmap retires
    it, and the benchmark should keep working when they return floats.
    """
    return float(getattr(value, "value", value))


def report_fields(report) -> dict[str, float]:
    if isinstance(report, dict):
        return report
    return {f: float(getattr(report, f)) for f in REPORT_FIELDS}


def load_refs(name: str) -> list[dict[str, float]] | None:
    """Reference rows of one workload, or None before make_refs.py has written them."""
    path = REFS / f"{name}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    return [dict(zip(data["fields"], row)) for row in data["rows"]]


def compare(values: dict[str, float], ref: dict[str, float] | None, loose=frozenset()) -> list[str]:
    if ref is None:
        return ["no reference values"]
    bad = []
    for key, want in ref.items():
        got = values.get(key)
        tol = 1e-6 if key in loose else 1e-9
        if got is None or not abs(got - want) <= tol:
            bad.append(f"{key}={got!r} reference {want!r} (tol {tol:g})")
    return bad


def dephase_np(m: np.ndarray, vectors: np.ndarray, dim_b: int) -> np.ndarray:
    """sum_y (P_y x I) M (P_y x I) for the basis columns of `vectors`, in plain numpy."""
    out = np.zeros_like(m)
    for y in range(vectors.shape[1]):
        proj = np.kron(np.outer(vectors[:, y], vectors[:, y].conj()), np.eye(dim_b))
        out += proj @ m @ proj
    return out


def luo_classical_correlation(t: tuple[float, float, float]) -> float:
    """J_A of a Bell-diagonal state (S. Luo, PRA 77, 042303, 2008)."""
    c = max(abs(v) for v in t)
    return 0.5 * sum((1.0 + s * c) * np.log2(1.0 + s * c) for s in (1.0, -1.0) if 1.0 + s * c > 0.0)


def probes(lib, rho, x, z) -> dict:
    """One call per traced layer (span name as in tracing.LAYERS) on the given inputs."""
    pkg, cli, checks = lib.pkg, lib.cli, lib.checks
    return {
        "states.make_density": lambda: pkg.make_density(rho.matrix, rho.dim_a, rho.dim_b),
        "entropy.von_neumann": lambda: pkg.von_neumann_entropy(rho),
        "measurement.measure": lambda: pkg.measure(rho, x),
        "coherence.unilateral_coherence": lambda: pkg.unilateral_coherence(rho, x),
        "correlations.holevo": lambda: pkg.holevo(rho, x),
        "correlations.classical_correlation": lambda: pkg.classical_correlation(rho),
        "bounds.evaluate_all": lambda: pkg.evaluate_all(rho, x, z),
        "cli.render_figure": lambda: cli.render_figure_csv(dataclasses.replace(cli.FIGURES[1], steps=2)),
        "checks.generate_cases": lambda: checks.generate_cases(CORPUS_SEEDS[0], 128),
    }


class Workload:
    """Base: a pool of units walked in a seeded order, each unit verified afterwards."""

    name = ""
    faults: tuple[str, ...] = ("raise",)
    # The first `count_units` units of the pool, in pool order, give the exact counters.
    count_units = 64

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.seed = seed

    def order(self) -> list:
        rng = np.random.default_rng(self.seed)
        return [self.units[i] for i in rng.permutation(len(self.units))]

    def warm_up(self) -> None:
        self.run(self.units[0])

    def expected_items(self, unit) -> int:
        return 1

    def probe_input(self):
        return self.cases[0]


class ReportWorkload(Workload):
    """evaluate_all on a pool of (state, X, Z) cases, checked against refs/<name>.json."""

    faults = ("raise", "shift")

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self.cases = self.make_cases(lib)
        self.units = list(range(len(self.cases)))
        self.refs = load_refs(self.name)
        self._t1_margin: dict[int, float] = {}

    def run(self, i: int):
        rho, x, z = self.cases[i]
        return self.lib.pkg.evaluate_all(rho, x, z), 1

    def corrupt(self, output, fault: str):
        values = dict(report_fields(output))
        values["ub_holevo"] += SHIFT
        return values

    def verify(self, i: int, output) -> Verdict:
        values = report_fields(output)
        bad = compare(values, self.refs and self.refs[i], OPTIMIZER_FIELDS)
        bad += [f"{name} margin {m:.3e}" for name, fn, tol in BOUND_CHECKS if not (m := fn(values)) >= -tol]
        if i not in self._t1_margin:
            rho, x, z = self.cases[i]
            lhs, lb = self.lib.pkg.coherence_bound_t1(self.lib.pkg.marginal_a(rho), x, z)
            self._t1_margin[i] = lhs - lb
        if not self._t1_margin[i] >= -1e-9:
            bad.append(f"monopartite_coherence_bound margin {self._t1_margin[i]:.3e}")
        return Verdict(int(bool(bad)), [f"case {i}: {b}" for b in bad])


def generated_cases(lib, per_seed: int) -> list[tuple]:
    return [
        (c.rho, c.x, c.z)
        for seed in CORPUS_SEEDS
        for c in lib.checks.generate_cases(seed, per_seed)
    ]


class Fuzz2x2(ReportWorkload):
    name = "fuzz2x2"

    @staticmethod
    def make_cases(lib):
        return generated_cases(lib, 128)


class Memory8(ReportWorkload):
    name = "memory8"
    count_units = 16

    @staticmethod
    def make_cases(lib):
        pkg = lib.pkg
        cases = []
        for seed in CORPUS_SEEDS:
            rng = np.random.default_rng(seed)
            for _ in range(16):
                state_seed = int(rng.integers(0, 2**31 - 1))
                tx, px = float(np.arccos(rng.uniform(-1.0, 1.0))), float(rng.uniform(0.0, 2.0 * np.pi))
                tz, pz = float(np.arccos(rng.uniform(-1.0, 1.0))), float(rng.uniform(0.0, 2.0 * np.pi))
                cases.append(
                    (pkg.random_density(2, 8, state_seed), pkg.bloch_basis(tx, px), pkg.bloch_basis(tz, pz))
                )
        return cases


class Primitives(Workload):
    """The public calls of the acceptance fixture and the check suites, on one state per item."""

    name = "primitives"
    faults = ("raise", "shift")

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self.cases = generated_cases(lib, 128)
        self.units = list(range(len(self.cases)))
        self.refs = load_refs(self.name)

    def run(self, i: int):
        pkg = self.lib.pkg
        rho, x, z = self.cases[i]
        out = pkg.measure(rho, x)
        dephased = pkg.dephase(rho, x)
        rho_a = pkg.marginal_a(rho)
        rho_b = pkg.marginal_b(rho)
        t1_lhs, t1_lb = pkg.coherence_bound_t1(rho_a, x, z)
        values = {
            "prob_x0": float(out.probs[0]),
            "prob_x1": float(out.probs[1]),
            "cond_entropy": pkg.conditional_entropy(rho),
            "mutual_info": pkg.mutual_information(rho),
            "holevo_x": pkg.holevo(rho, x),
            "holevo_z": pkg.holevo(rho, z),
            "coh_uni_x": scalar(pkg.unilateral_coherence(rho, x)),
            "coh_uni_z": scalar(pkg.unilateral_coherence(rho, z)),
            "coh_loc_x": scalar(pkg.coherence_rel(rho_a, x)),
            "coh_loc_z": scalar(pkg.coherence_rel(rho_a, z)),
            "purity_uni": pkg.unilateral_purity(rho),
            "purity_loc": pkg.purity_rel(rho_a),
            "rel_entropy_dephased_x": pkg.relative_entropy(rho, dephased),
            "t1_lhs": t1_lhs,
            "t1_lb": t1_lb,
        }
        matrices = {
            "joint": out.joint_state.matrix,
            "conditional": [c.matrix for c in out.conditional_states],
            "dephased": dephased.matrix,
            "dephased_a": pkg.dephase(rho_a, x).matrix,
            "marginal_b": rho_b.matrix,
        }
        return ({k: float(v) for k, v in values.items()}, matrices), 1

    def corrupt(self, output, fault: str):
        values, matrices = output
        return {**values, "holevo_x": values["holevo_x"] + SHIFT}, matrices

    def verify(self, i: int, output) -> Verdict:
        v, m = output
        rho, x, _ = self.cases[i]
        vec = x.vectors
        dim_b = rho.dim_b
        probs = np.array([v["prob_x0"], v["prob_x1"]])
        rebuilt = sum(
            p * np.kron(np.outer(vec[:, y], vec[:, y].conj()), c)
            for y, (p, c) in enumerate(zip(probs, m["conditional"]))
        )
        averaged = sum(p * c for p, c in zip(probs, m["conditional"]))
        traced_b = np.einsum("ikjk->ij", m["dephased"].reshape(2, dim_b, 2, dim_b))
        # (name, error or margin, tolerance, is_identity): identities need |error| <= tol.
        checks = [
            ("purity_decomposition", v["purity_uni"] - (v["purity_loc"] + v["mutual_info"]), 1e-9, True),
            ("unilateral_purity_closed_form", v["purity_uni"] - max(0.0, 1.0 - v["cond_entropy"]), 1e-9, True),
            ("coherence_vs_relative_entropy", v["coh_uni_x"] - v["rel_entropy_dephased_x"], 1e-8, True),
            ("outcome_probs_sum_to_one", probs.sum() - 1.0, 1e-9, True),
            ("joint_equals_dephased", np.max(np.abs(m["joint"] - m["dephased"])), 1e-10, True),
            ("joint_block_decomposition", np.max(np.abs(m["joint"] - rebuilt)), 1e-10, True),
            ("conditionals_average_to_marginal", np.max(np.abs(averaged - m["marginal_b"])), 1e-10, True),
            ("dephase_commutes_with_marginal", np.max(np.abs(traced_b - m["dephased_a"])), 1e-10, True),
            (
                "dephase_idempotent",
                np.max(np.abs(dephase_np(m["dephased"], vec, dim_b) - m["dephased"])),
                1e-10,
                True,
            ),
            ("monopartite_coherence_bound", v["t1_lhs"] - v["t1_lb"], 1e-9, False),
        ]
        for tag in ("x", "z"):
            checks += [
                (
                    f"coherence_decomposition_{tag}",
                    v[f"coh_uni_{tag}"] - (v[f"coh_loc_{tag}"] + v["mutual_info"] - v[f"holevo_{tag}"]),
                    1e-9,
                    True,
                ),
                (f"purity_dominates_coherence_{tag}", v["purity_loc"] - v[f"coh_loc_{tag}"], 1e-9, False),
                (f"unilateral_purity_dominates_{tag}", v["purity_uni"] - v[f"coh_uni_{tag}"], 1e-9, False),
            ]
        bad = compare(v, self.refs and self.refs[i])
        for name, value, tol, identity in checks:
            ok = abs(value) <= tol if identity else value >= -tol
            if not ok:
                bad.append(f"{name} {'error' if identity else 'margin'} {value:.3e}")
        return Verdict(int(bool(bad)), [f"case {i}: {b}" for b in bad])


class Figures(Workload):
    """cli.render_figure_csv on the four FIGURES sweeps, checked against data/figure{n}.csv."""

    name = "figures"
    faults = ("raise", "digit")
    count_units = 4

    def __init__(self, lib, seed: int):
        super().__init__(lib, seed)
        self.configs = lib.cli.FIGURES
        self.units = sorted(self.configs)
        self.refs = {
            n: (ROOT / "data" / f"figure{n}.csv").read_text(encoding="utf-8").splitlines()
            for n in self.units
        }
        # Keep the reports behind the rendered rows for the Luo oracle.
        sweep = lib.cli.sweep_family
        self._rows = None

        def capture(*args, **kwargs):
            self._rows = sweep(*args, **kwargs)
            return self._rows

        lib.cli.sweep_family = capture

    def warm_up(self) -> None:
        for n in self.units:
            self.lib.cli.render_figure_csv(dataclasses.replace(self.configs[n], steps=2))

    def expected_items(self, n) -> int:
        return len(self.refs[n]) - 1

    def probe_input(self):
        pkg = self.lib.pkg
        return pkg.bell_diagonal_family(0.3), pkg.pauli_basis(1), pkg.pauli_basis(3)

    def run(self, n):
        self._rows = None
        text = self.lib.cli.render_figure_csv(self.configs[n])
        return (text, self._rows), text.count("\n") - 1

    def corrupt(self, output, fault: str):
        """Change the leading digit of the first value in row 1 that is at least 1e-3."""
        text, rows = output
        lines = text.split("\n")
        fields = lines[1].split(",")
        col = next(i for i in range(1, len(fields)) if abs(float(fields[i])) >= 1e-3)
        lead = next(i for i, ch in enumerate(fields[col]) if ch in "123456789")
        digit = int(fields[col][lead]) % 9 + 1
        fields[col] = f"{fields[col][:lead]}{digit}{fields[col][lead + 1:]}"
        lines[1] = ",".join(fields)
        return "\n".join(lines), rows

    def verify(self, n, output) -> Verdict:
        text, rows = output
        ref = self.refs[n]
        lines = text.splitlines()
        config = self.configs[n]
        bad_rows: dict[int, str] = {}
        if not lines or lines[0] != ref[0]:
            return Verdict(len(ref) - 1, [f"figure {n}: header {lines[:1]!r} != {ref[0]!r}"])
        tols = [1e-6 if col == "lb_pati_coh" else 1e-9 for col in ref[0].split(",")]
        identical = 0
        for k in range(1, max(len(lines), len(ref))):
            got = lines[k] if k < len(lines) else None
            want = ref[k] if k < len(ref) else None
            if got == want:
                identical += 1
                continue
            try:
                a = [float(s) for s in got.split(",")]
                b = [float(s) for s in want.split(",")]
            except (AttributeError, ValueError):
                bad_rows[k] = f"row {got!r} != {want!r}"
                continue
            if len(a) != len(b) or not all(abs(u - w) <= t for u, w, t in zip(a, b, tols)):
                bad_rows[k] = f"row {got!r} != {want!r}"
        triple = LUO_TRIPLES.get(config.family)
        if triple is not None:
            if rows is None:  # render_figure_csv built its rows without cli.sweep_family
                x, z = self.lib.cli.parse_basis(config.x_selector), self.lib.cli.parse_basis(config.z_selector)
                rows = self.lib.pkg.sweep_family(config.family, x, z, config.grid())
            for k, (p, report) in enumerate(rows, start=1):
                j_a = (report.mutual_info - report.discord_gap) / 2.0
                want = luo_classical_correlation(triple(p))
                if not abs(j_a - want) <= LUO_TOL:
                    bad_rows.setdefault(k, f"p={p!r}: J_A {j_a!r} != Luo {want!r}")
        messages = [f"figure {n} line {k}: {msg}" for k, msg in sorted(bad_rows.items())]
        return Verdict(len(bad_rows), messages, identical)


WORKLOADS = {w.name: w for w in (Fuzz2x2, Memory8, Figures, Primitives)}

from pathlib import Path

import numpy as np
import pytest

from coherence_bounds.checks import _SUITE_FNS, _Identity, generate_cases, run_checks
from coherence_bounds.measurement import bloch_basis, pauli_basis
from coherence_bounds.states import (
    bell_diagonal_family,
    load_state_file,
    make_density,
    marginal_a,
    random_density,
    werner,
    x_state,
)


@pytest.fixture(scope="session")
def reference_run():
    """The seed-42 1000-case corpus through every check suite, evaluated once per session."""
    return run_checks(42, 1000)


@pytest.fixture()
def break_suite(monkeypatch):
    """break_suite(name) lowers every margin of that check suite by 1e-3, so it
    fails, and returns the shift; identity checks stay _Identity triples.
    """
    shift = 1e-3

    def apply(name):
        suite = _SUITE_FNS[name]

        def shifted(case, report):
            return [
                check._replace(margin=check.margin - shift)
                if isinstance(check, _Identity)
                else (check[0], check[1] - shift, check[2])
                for check in suite(case, report)
            ]

        monkeypatch.setitem(_SUITE_FNS, name, shifted)
        return shift

    return apply


@pytest.fixture()
def measured_pairs():
    """(state, basis) pairs of the reference path, on fresh state objects that keep nothing yet.

    The seed-42 x100 check corpus in X and in Z, the A marginals of its
    first ten states in X and in Z, 20 states each at 2x3 and 2x8, the
    committed rank-2 2x4 state in sigma1 and sigma3, the three families at p
    in {0, 0.5, 1} in sigma1, sigma2 and sigma3, and a valid 2x2 state whose
    rho_A = diag(1 + 5e-13, -5e-13) gives a probability in [-SUPPORT_CUT, 0)
    in sigma3, which measure clamps to 0.
    """
    cases = generate_cases(42, 100)
    pairs = [(c.rho, b) for c in cases for b in (c.x, c.z)]
    pairs += [(marginal_a(c.rho), b) for c in cases[:10] for b in (c.x, c.z)]
    for dim_b in (3, 8):
        for seed in range(20):
            rho = random_density(2, dim_b, 500 + seed)
            pairs += [(rho, bloch_basis(0.3 * seed, 0.7 * seed)), (rho, pauli_basis(3))]
    for family in (x_state, werner, bell_diagonal_family):
        for p in (0.0, 0.5, 1.0):
            pairs += [(family(p), pauli_basis(which)) for which in (1, 2, 3)]
    rank2 = load_state_file(Path(__file__).parent / "data" / "rank2_2x4.txt")
    pairs += [(rank2, pauli_basis(1)), (rank2, pauli_basis(3))]
    clamped = make_density(np.diag([1.0 + 5e-13, 0.0, -5e-13, 0.0]), 2, 2)
    pairs.append((clamped, pauli_basis(3)))
    return pairs

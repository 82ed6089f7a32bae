#!/usr/bin/env python3
"""Print the discord search's objective evaluations per class of state, as README's table.

Each row runs classical_correlation on a seeded corpus and gives the
smallest, largest and median DiscordResult.optimizer_evals. The Ginibre states are
coherence_bounds._corpora.ginibre draws, G G^dag / Tr with G a complex
(2 dim_b) x rank Gaussian matrix. The counts are deterministic, so reruns
print the same table, but they depend on the last bits of numpy's
`g @ g^dag`: with G G^dag summed in Python floats (_corpora.float_ginibre)
4 of the 21 rows read other counts.

    PYTHONPATH=src python3 scripts/count_evaluations.py
"""
import statistics

import numpy as np

from coherence_bounds._corpora import classical_quantum, family_points, ginibre
from coherence_bounds.checks import generate_cases
from coherence_bounds.correlations import classical_correlation
from coherence_bounds.states import make_density, random_density

MEMORIES = (2, 3, 4, 8)


def corpora():
    """(class, corpus, states) per row of the table."""
    yield "full rank, 2x2", "the states of `check --seed 42 --cases 1000`", [c.rho for c in generate_cases(42, 1000)]
    for db in MEMORIES:
        yield f"full rank, 2x{db}", f"`random_density(2, {db}, s)`, s = 0..99", [random_density(2, db, s) for s in range(100)]
    for db in MEMORIES:
        rng = np.random.default_rng((db, 2))
        states = [np.kron(ginibre(rng, 2, 2), ginibre(rng, db, db)) for _ in range(100)]
        states += [np.kron(np.eye(2) / 2, ginibre(rng, db, db)) for _ in range(10)]
        yield f"product, 2x{db}", f"100 Ginibre rho_A (x) rho_B, 10 I/2 (x) rho_B; rng ({db}, 2)", _states(states, db)
    yield "one-parameter families", "the 3 x 101 points of the figure grid", family_points()
    for db in MEMORIES:
        rng = np.random.default_rng((db, 3))
        states = [ginibre(rng, 2 * db, 1) for _ in range(100)]
        yield f"pure, 2x{db}", f"100 Ginibre rank 1; rng ({db}, 3)", _states(states, db)
    for db in MEMORIES[1:]:
        rng = np.random.default_rng((db, 4))
        states = [ginibre(rng, 2 * db, rank) for rank in range(2, db) for _ in range(50)]
        yield f"rank 2 to dim_b - 1, 2x{db}", f"50 Ginibre per rank; rng ({db}, 4)", _states(states, db)
    for db in MEMORIES:
        rng = np.random.default_rng((db, 5))
        states = [classical_quantum(rng, db) for _ in range(100)]
        yield f"classical-quantum, 2x{db}", f"100 states; rng ({db}, 5)", _states(states, db)


def _states(matrices, dim_b: int):
    return [make_density(m, 2, dim_b) for m in matrices]


def main() -> None:
    print("| States | Corpus | Evaluations | Median |")
    print("|---|---|---|---|")
    for name, corpus, states in corpora():
        counts = [classical_correlation(rho).optimizer_evals for rho in states]
        print(f"| {name} | {corpus} | {min(counts)}–{max(counts)} | {statistics.median(counts):g} |")


if __name__ == "__main__":
    main()

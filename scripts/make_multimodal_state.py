#!/usr/bin/env python3
"""Write the rank-3 2x3 test states whose discord objective has separated local maxima.

Each state is one draw G G^dag / Tr of a corpus of rank-3 2x3 states, with
G a 6x3 complex Ginibre matrix, drawn one after another from
numpy.random.default_rng(seed). The test suite loads the files to hold the
discord search to the global maximum of J_A:

- multimodal_2x3.txt, state 160 (0-based) of default_rng(11): a single
  Newton ascent from the best point of a 16-row hemisphere grid (113 points)
  ends on a local maximum 7.45e-3 below the global one. classical_correlation
  reaches the global maximum.
- search_miss_2x3.txt, state 875 of default_rng((7, 3, 3)): classical_correlation
  gives J_A = 0.4129481, 2.737e-3 below the 0.4156854 of a single ascent from
  the best point of a 64-row hemisphere grid (1985 points). Each of the eight
  rotations (U (x) I) of the state reaches that value, and J_A is invariant
  under them, so the search misses the global maximum on this state.

G G^dag and the trace are summed in Python floats, so the bytes do not
depend on the BLAS library. Reruns are byte-identical.
"""
import argparse
from pathlib import Path

import numpy as np

from coherence_bounds.states import make_density, save_state_file

# (file name, corpus seed, 0-based index of the state in the corpus)
STATES = (
    ("multimodal_2x3.txt", 11, 160),
    ("search_miss_2x3.txt", (7, 3, 3), 875),
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="tests/data", help="output directory (default ./tests/data)")
    return parser.parse_args()


def corpus_state(seed, index: int):
    """State `index` of the rank-3 2x3 Ginibre corpus drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        g = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    rows = g.tolist()
    m = [[sum(a * b.conjugate() for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    trace = sum(m[i][i].real for i in range(len(m)))
    return make_density(np.array([[z / trace for z in row] for row in m]), 2, 3)


def main():
    args = parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, seed, index in STATES:
        path = outdir / name
        save_state_file(corpus_state(seed, index), path)
        print(f"wrote {path} (state {index} of the default_rng({seed}) corpus)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Write a 2x3 state whose discord objective has two separated local maxima.

The corpus is 300 rank-3 states G G^dag / Tr, with G a 6x3 complex Ginibre
matrix, drawn one after another from numpy.random.default_rng(11). On state
160 (0-based), a single Newton ascent from the best point of the 113-point
coarse grid ends on a local maximum 7.45e-3 below the global one. The test
suite loads the file this script writes to hold the multi-start search to
the global maximum. G G^dag and the trace are summed in Python floats, so
the bytes do not depend on the BLAS library. Reruns are byte-identical.
"""
import argparse
from pathlib import Path

import numpy as np

from coherence_bounds.states import make_density, save_state_file

SEED = 11
INDEX = 160
NAME = "multimodal_2x3.txt"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="tests/data", help="output directory (default ./tests/data)")
    return parser.parse_args()


def corpus_state(index: int):
    """State `index` of the seeded rank-3 2x3 Ginibre corpus."""
    rng = np.random.default_rng(SEED)
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
    path = outdir / NAME
    save_state_file(corpus_state(INDEX), path)
    print(f"wrote {path} (state {INDEX} of the default_rng({SEED}) corpus)")


if __name__ == "__main__":
    main()

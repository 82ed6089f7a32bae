#!/usr/bin/env python3
"""Write the committed test states of the discord search: multimodal_2x3.txt,
search_miss_2x3.txt and rank2_2x4.txt.

Each state is one draw of a seeded Ginibre corpus, named with its seed,
shape, index and draw in the table coherence_bounds._corpora.COMMITTED,
which also says what each state shows. The test suite loads the files to
hold the search to the global maximum of J_A. Reruns are byte-identical.

    PYTHONPATH=src python3 scripts/make_multimodal_state.py --outdir tests/data
"""
import argparse
from pathlib import Path

from coherence_bounds._corpora import COMMITTED, committed_state
from coherence_bounds.states import save_state_file


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="tests/data", help="output directory (default ./tests/data)")
    outdir = Path(parser.parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (seed, _, index, draw) in COMMITTED.items():
        path = outdir / name
        save_state_file(committed_state(name), path)
        print(f"wrote {path} (draw {index} of {draw.__name__} from default_rng({seed}))")


if __name__ == "__main__":
    main()

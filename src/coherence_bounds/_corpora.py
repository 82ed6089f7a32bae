"""Seeded state corpora, the committed test states and the 1985-point oracle of the discord search.

The tests and scripts/ read the states that judge the search from here, so
each corpus has one definition. Nothing in the package imports this module,
so `import coherence_bounds` does not load it, and it adds no public name.

A Ginibre state is G G^dag / Tr for a complex Gaussian G with as many
columns as the rank. Two draws compute G G^dag and its trace in different
arithmetic, and the bytes of what each built depend on it: `ginibre`, the
draw of states.random_density, uses numpy's `g @ g^dag`, whose last bits
depend on the BLAS library, and `float_ginibre` sums in Python floats,
whose bits do not.
"""
import math

import numpy as np

from .bounds import FAMILIES
from .correlations import _HolevoObjective, _bloch, _refine, _tangent_frame
from .entropy import von_neumann_entropy
from .states import DensityMatrix, _gaussian, _ginibre as ginibre, make_density, marginal_b, random_unitary


def float_ginibre(rng, dim: int, rank: int) -> np.ndarray:
    """ginibre's draw with G G^dag and its trace summed in Python floats."""
    rows = _gaussian(rng, dim, rank).tolist()
    m = [[sum(a * b.conjugate() for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    trace = sum(m[i][i].real for i in range(dim))
    return np.array([[z / trace for z in row] for row in m])


def classical_quantum(rng, dim_b: int, power: int = 1) -> np.ndarray:
    """sum_a w_a |u_a><u_a| (x) rho_a for a random basis u of A and rho_a of random rank.

    The weight w_0 is a uniform draw to the given power.
    """
    u = random_unitary(2, int(rng.integers(2**31)))
    w = rng.uniform() ** power
    blocks = [ginibre(rng, dim_b, int(rng.integers(1, dim_b + 1))) for _ in range(2)]
    return sum(p * np.kron(np.outer(u[:, a], u[:, a].conj()), blocks[a]) for a, p in enumerate((w, 1.0 - w)))


def strata(dim_b: int) -> dict[str, list[DensityMatrix]]:
    """Seeded states with a memory of dim_b, 4 per stratum (one more for product)."""
    count = 4
    rng = np.random.default_rng(dim_b)
    d = 2 * dim_b
    ranks = {"pure": 1, "rank2": 2, "rank3": 3, "rank4": 4, "full": d}
    drawn = {name: [ginibre(rng, d, rank) for _ in range(count)] for name, rank in ranks.items()}
    # I/2 (x) rho_B makes every coarse value exactly equal
    drawn["product"] = [np.kron(np.eye(2) / 2, ginibre(rng, dim_b, dim_b))]
    drawn["product"] += [np.kron(ginibre(rng, 2, 2), ginibre(rng, dim_b, dim_b)) for _ in range(count)]
    drawn["classical-quantum"] = [classical_quantum(rng, dim_b) for _ in range(count)]
    return {name: [make_density(m, 2, dim_b) for m in states] for name, states in drawn.items()}


def family_points() -> list[DensityMatrix]:
    """The 3 x 101 points of the figure grid: each family, in name order, at p = 0, 0.01, ..., 1."""
    return [FAMILIES[f](float(p)) for f in sorted(FAMILIES) for p in np.linspace(0.0, 1.0, 101)]


# The states under tests/data that scripts/make_multimodal_state.py writes:
# file name -> (corpus seed, shape of G, 0-based index of the draw, the draw).
# Draw `index` of `draw(numpy.random.default_rng(seed), 2 dim_b, rank)`:
# - multimodal_2x3.txt: a single ascent from the best point of a 16-row
#   hemisphere grid (113 points) ends on a local maximum 7.45e-3 below the
#   global one; classical_correlation reaches the global maximum.
# - search_miss_2x3.txt: classical_correlation gives J_A = 0.4129481,
#   2.737e-3 below the oracle's 0.4156854. Each of the eight rotations
#   (U (x) I) of the state reaches that value, and J_A is invariant under
#   them, so the search misses the global maximum on this state.
# - rank2_2x4.txt: every ascent point takes the 9-point stencil, since both
#   measurement blocks lose rank.
COMMITTED = {
    "multimodal_2x3.txt": (11, (6, 3), 160, float_ginibre),
    "search_miss_2x3.txt": ((7, 3, 3), (6, 3), 875, float_ginibre),
    "rank2_2x4.txt": (4, (8, 2), 0, ginibre),
}


def committed_state(name: str) -> DensityMatrix:
    """The state of tests/data/<name>, drawn anew from its COMMITTED entry."""
    seed, (dim, rank), index, draw = COMMITTED[name]
    rng = np.random.default_rng(seed)
    rng.standard_normal(2 * dim * rank * index)  # the normals of the draws before it
    return make_density(draw(rng, dim, rank), 2, dim // 2)


def hemisphere_grid(rows: int) -> np.ndarray:
    """The upper half of the rows x rows (theta, phi) grid: the pole once, then
    theta_k = k pi / (rows - 1) for k = 1..rows / 2 - 1 at every phi.

    For even rows the map (k, j) -> (rows - 1 - k, j + rows / 2) sends the full
    grid onto itself and each point to its antipode, and chi(n) = chi(-n), so
    this half sees every value. 64 rows give 1985 points.
    """
    thetas = np.linspace(0.0, np.pi, rows)[1 : rows // 2]
    phis = np.linspace(0.0, 2.0 * np.pi, rows, endpoint=False)
    pole = np.array([[0.0], [0.0], [1.0]])
    return np.hstack([pole, _bloch(np.repeat(thetas, rows), np.tile(phis, thetas.size))])


def grid_search(rho: DensityMatrix, rows: int = 64) -> float:
    """J_A from one ascent at the first maximum of hemisphere_grid(rows), with the
    phi spacing as the initial trust radius; 64 rows make the 1985-point oracle."""
    objective = _HolevoObjective(rho)
    grid = hemisphere_grid(rows)
    frame = _tangent_frame(*grid[:, int(np.argmax(objective(grid)))].tolist())
    s_b = von_neumann_entropy(marginal_b(rho))
    return max(0.0, s_b + _refine(objective, frame, 2.0 * math.pi / rows, 0)[0])

"""Coherence and entropic uncertainty bounds for small bipartite quantum states."""

from .bounds import BoundReport, coherence_bound_t1, evaluate_all, sweep_family
from .coherence import coherence_rel, purity_rel, unilateral_coherence, unilateral_purity
from .correlations import (
    DiscordResult,
    classical_correlation,
    conditional_entropy,
    holevo,
    mutual_information,
)
from .entropy import binary_entropy, relative_entropy, shannon_entropy, von_neumann_entropy
from .errors import (
    DimensionError,
    DomainError,
    ParseError,
    ProbabilityError,
    UnsupportedDimension,
    ValidationError,
)
from .linalg import partial_trace, tensor_product
from .measurement import (
    MeasurementOutcome,
    ObservableBasis,
    bloch_basis,
    computational_basis,
    dephase,
    incompatibility,
    measure,
    pauli_basis,
)
from .states import (
    DensityMatrix,
    bell_diagonal,
    bell_diagonal_family,
    load_state_file,
    make_density,
    marginal_a,
    marginal_b,
    random_density,
    random_unitary,
    save_state_file,
    werner,
    x_state,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DensityMatrix",
    "DimensionError",
    "DiscordResult",
    "DomainError",
    "MeasurementOutcome",
    "ObservableBasis",
    "ParseError",
    "ProbabilityError",
    "UnsupportedDimension",
    "ValidationError",
    "bell_diagonal",
    "bell_diagonal_family",
    "binary_entropy",
    "bloch_basis",
    "classical_correlation",
    "coherence_bound_t1",
    "coherence_rel",
    "computational_basis",
    "conditional_entropy",
    "dephase",
    "evaluate_all",
    "holevo",
    "incompatibility",
    "load_state_file",
    "make_density",
    "marginal_a",
    "marginal_b",
    "measure",
    "mutual_information",
    "partial_trace",
    "pauli_basis",
    "purity_rel",
    "random_density",
    "random_unitary",
    "relative_entropy",
    "save_state_file",
    "shannon_entropy",
    "sweep_family",
    "tensor_product",
    "unilateral_coherence",
    "unilateral_purity",
    "von_neumann_entropy",
    "werner",
    "x_state",
]

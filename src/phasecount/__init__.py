"""Phase estimation with weak coherent pulses and displaced-photon counting.

Simulation and analysis toolkit: detector POVMs and outcome likelihoods,
quantum/classical Fisher information, seeded Monte Carlo measurement
records, and grid-based Bayesian phase estimation, plus a CSV-emitting
benchmark CLI (``phasecount``).
"""

__version__ = "0.1.0"

from .bayes import (
    DEFAULT_GRID_SIZE,
    GridResolutionError,
    PosteriorGrid,
    PosteriorUnderflowError,
    estimate,
    posterior,
    sequential_estimates,
)
from .fisher import (
    FiConvergenceError,
    FiResult,
    Scheme,
    fi_analytic,
    fi_numeric,
    qfi_coherent,
    qfi_pure_state,
)
from .photonics import (
    DetectorKind,
    DetectorModel,
    FockTruncationError,
    LikelihoodModel,
    ModelMismatchError,
    ProbeConfig,
    born_probability_oracle,
    coherent_number_amplitudes,
    onoff_likelihood,
    pnrd_likelihood,
    povm_element,
)
from .sampling import (
    PRNG_IDENTITY,
    SEED_MIXER_IDENTITY,
    ExperimentConfig,
    OutcomeRecord,
    count_distribution,
    sample,
    split_seed,
)

__all__ = [
    "DEFAULT_GRID_SIZE",
    "DetectorKind",
    "DetectorModel",
    "ExperimentConfig",
    "FiConvergenceError",
    "FiResult",
    "FockTruncationError",
    "GridResolutionError",
    "LikelihoodModel",
    "ModelMismatchError",
    "OutcomeRecord",
    "PRNG_IDENTITY",
    "PosteriorGrid",
    "PosteriorUnderflowError",
    "ProbeConfig",
    "SEED_MIXER_IDENTITY",
    "Scheme",
    "born_probability_oracle",
    "coherent_number_amplitudes",
    "count_distribution",
    "estimate",
    "fi_analytic",
    "fi_numeric",
    "onoff_likelihood",
    "pnrd_likelihood",
    "posterior",
    "povm_element",
    "qfi_coherent",
    "qfi_pure_state",
    "sample",
    "sequential_estimates",
    "split_seed",
]

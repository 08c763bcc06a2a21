"""Seeded, reproducible measurement records for any scheme at a true phase.

The generator identity is frozen as part of the output contract:
outcomes come from numpy's PCG64 stream, counts via inverse-CDF lookup on
the truncated count distribution, quadratures via Gaussian sampling.
Per-trial seeds are derived from one master seed with a splitmix64
avalanche mixer, so each trial's stream is independent of the others.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .fisher import FiConvergenceError, FiOptions, Scheme
from .photonics import (
    DetectorKind,
    DetectorModel,
    LikelihoodModel,
    ProbeConfig,
    count_model,
    homodyne_mean,
    onoff_likelihood,
)
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .photonics import fringe_mean, mixture_component_means

PRNG_IDENTITY = "numpy.random.PCG64"
SEED_MIXER_IDENTITY = "splitmix64"

# Residual count-distribution mass ignored by the inverse-CDF table; kept in
# sync with the Fisher-information tail guard so sampling and analysis see
# the same distribution.
COUNT_TAIL_MASS = FiOptions().count_tail_mass

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated acquisition run: scheme, physics, pulse count, and seed."""

    scheme: Scheme
    phi_true: float
    probe: ProbeConfig
    det: DetectorModel
    pulses: int
    model: LikelihoodModel = LikelihoodModel.POISSON_FRINGE
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.phi_true <= math.pi:
            raise ValueError(f"phi_true must lie in [0, pi], got {self.phi_true!r}")
        if self.pulses < 0:
            # pulses == 0 is allowed so that an empty record (posterior ==
            # prior) remains constructible
            raise ValueError(f"pulses must be >= 0, got {self.pulses!r}")
        if not 0 <= self.seed <= _U64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """Outcomes of one run; dtype depends on the scheme and detector.

    int64 counts for number-resolving counting, bool click flags for the
    on/off detector, float64 for homodyne quadratures, complex128 for
    heterodyne outcomes.
    """

    config: ExperimentConfig
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.values) != self.config.pulses:
            raise ValueError(
                f"record length {len(self.values)} != configured pulses {self.config.pulses}"
            )

    def __len__(self) -> int:
        return len(self.values)


def split_seed(seed: int, trial_index: int) -> int:
    """Derive an independent per-trial seed via splitmix64 avalanche mixing.

    split_seed(0, 0) == 0xE220A8397B1DCDAF.
    """
    if not 0 <= seed <= _U64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index!r}")
    z = (seed + (trial_index + 1) * _GOLDEN) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def count_distribution(phi: float, probe: ProbeConfig, det: DetectorModel,
                       model: LikelihoodModel, tail_mass: float = COUNT_TAIL_MASS) -> np.ndarray:
    """Count probabilities p(0..N | phi), truncated once the residual mass
    drops below ``tail_mass``."""
    counts = count_model(probe, det, model)
    means = [float(lam) for lam in counts.means(phi)]
    terms = [w * math.exp(-lam) for w, lam in zip(counts.weights, means)]
    pmf = [sum(terms)]
    running = pmf[0]
    n = 0
    while True:
        # The running sum is within len(pmf) ulps of the exactly rounded
        # fsum, so only that close to the threshold does fsum decide.
        residual = 1.0 - running
        if abs(residual - tail_mass) <= (len(pmf) + 2) * sys.float_info.epsilon:
            residual = 1.0 - math.fsum(pmf)
        if residual < tail_mass:
            return np.array(pmf)
        terms = [t * lam / (n + 1) for t, lam in zip(terms, means)]
        n += 1
        if not any(terms) or n > 1_000_000:
            # all-zero terms stay zero, so the mass is never reached
            raise FiConvergenceError(
                f"count distribution did not reach tail mass {tail_mass:g} "
                f"within {n} counts at mean count {max(means):.6g}; above about "
                "700 counts exp(-mean) underflows and the pmf loses mass")
        pmf.append(sum(terms))
        running += pmf[-1]


def sample(config: ExperimentConfig) -> OutcomeRecord:
    """Draw ``config.pulses`` i.i.d. outcomes at the true phase.

    Identical configs (seed included) produce bit-identical records.
    """
    rng = np.random.default_rng(config.seed)
    m = config.pulses

    if config.scheme is Scheme.DISPLACED_COUNTING:
        if config.det.kind is DetectorKind.ON_OFF:
            p_click = onoff_likelihood(True, config.phi_true, config.probe,
                                       config.det, config.model)
            values = rng.random(m) < p_click
        else:
            pmf = count_distribution(config.phi_true, config.probe,
                                     config.det, config.model)
            cdf = np.cumsum(pmf)
            draws = np.searchsorted(cdf, rng.random(m), side="right")
            values = np.minimum(draws, len(pmf) - 1).astype(np.int64)
    elif config.scheme is Scheme.HOMODYNE:
        mean = float(homodyne_mean(config.phi_true, config.probe))
        values = mean + math.sqrt(0.5) * rng.standard_normal(m)
    elif config.scheme is Scheme.HETERODYNE:
        mx = config.probe.alpha * math.cos(config.phi_true)
        my = config.probe.alpha * math.sin(config.phi_true)
        noise = math.sqrt(0.5) * rng.standard_normal((m, 2))
        values = (mx + noise[:, 0]) + 1j * (my + noise[:, 1])
    else:
        raise ValueError(f"unknown scheme {config.scheme!r}")

    return OutcomeRecord(config=config, values=values)

"""Seeded, reproducible measurement records for any scheme at a true phase.

The generator identity is frozen as part of the output contract:
outcomes come from numpy's PCG64 stream, counts via inverse-CDF lookup on
the truncated count distribution, quadratures via Gaussian sampling.
Per-trial seeds are derived from one master seed with a splitmix64
avalanche mixer, so each trial's stream is independent of the others.
:func:`statistic_sampler` draws the sufficient statistics of the counting
schemes without the record: on/off click counts straight from the uniforms
below the click probability, the histogram of inverse-CDF lookups counted
from the sorted uniforms, or under the one-component (poisson-fringe) count
model only its total S, as the pair (k, S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fisher import Scheme, count_masses
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
        _check_seed(self.seed)


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


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def split_seed(seed: int, trial_index: int) -> int:
    """Derive an independent per-trial seed via splitmix64 avalanche mixing.

    split_seed(0, 0) == 0xE220A8397B1DCDAF.
    """
    _check_seed(seed)
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index!r}")
    z = (seed + (trial_index + 1) * _GOLDEN) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def count_distribution(phi: float, probe: ProbeConfig, det: DetectorModel,
                       model: LikelihoodModel) -> np.ndarray:
    """Count probabilities p(0..N | phi): the Fisher-information count masses
    (``fisher.count_masses``), cut where the count FI sum stops, so sampling
    and analysis see the same distribution."""
    return np.array(count_masses(phi, count_model(probe, det, model)))


def sampler(config: ExperimentConfig):
    """The draw of :func:`sample` for ``config`` as a function of the seed.

    The outcome law at the true phase (click probability, count table or
    quadrature means) is computed once, here; each draw checks
    ``replace(config, seed=seed)`` and reads a fresh PCG64 stream.
    """
    m, phi, probe, det = config.pulses, config.phi_true, config.probe, config.det
    if config.scheme is Scheme.DISPLACED_COUNTING and det.kind is DetectorKind.ON_OFF:
        p_click = onoff_likelihood(True, phi, probe, det, config.model)

        def outcomes(rng):
            return rng.random(m) < p_click
    elif config.scheme is Scheme.DISPLACED_COUNTING:
        cdf = np.cumsum(count_distribution(phi, probe, det, config.model))

        def outcomes(rng):
            draws = np.searchsorted(cdf, rng.random(m), side="right")
            np.minimum(draws, len(cdf) - 1, out=draws)
            return draws.astype(np.int64, copy=False)
    elif config.scheme is Scheme.HOMODYNE:
        mean = float(homodyne_mean(phi, probe))

        def outcomes(rng):
            return mean + math.sqrt(0.5) * rng.standard_normal(m)
    elif config.scheme is Scheme.HETERODYNE:
        mx, my = probe.alpha * math.cos(phi), probe.alpha * math.sin(phi)

        def outcomes(rng):
            noise = math.sqrt(0.5) * rng.standard_normal((m, 2))
            return (mx + noise[:, 0]) + 1j * (my + noise[:, 1])
    else:
        raise ValueError(f"unknown scheme {config.scheme!r}")

    def draw(seed: int) -> OutcomeRecord:
        return OutcomeRecord(replace(config, seed=seed), outcomes(np.random.default_rng(seed)))
    return draw


def sample(config: ExperimentConfig) -> OutcomeRecord:
    """Draw ``config.pulses`` i.i.d. outcomes at the true phase.

    Identical configs (seed included) produce bit-identical records.
    """
    return sampler(config)(config.seed)


def record_statistics(config: ExperimentConfig, values: np.ndarray, checkpoints):
    """Yield the hashable sufficient statistic of the first k outcomes for each
    increasing checkpoint k: (silent, click) counts, (k, total count) for the
    one-component count model, the count histogram up to the record's largest
    count for the mixture, or the quadrature statistic (k, sum, sum of squares)."""
    counting = config.scheme is Scheme.DISPLACED_COUNTING
    if counting and config.det.kind is DetectorKind.ON_OFF:
        for k in checkpoints:
            n_click = int(np.count_nonzero(values[:k]))
            yield k - n_click, n_click
    elif counting and config.model is LikelihoodModel.POISSON_FRINGE:
        # one Poisson component: the counts reach the likelihood through their total
        total, prev = 0, 0
        for k in checkpoints:
            total += int(values[prev:k].sum())
            prev = k
            yield k, total
    elif counting:
        histogram = np.zeros(int(values.max(initial=0)) + 1, dtype=np.int64)
        prev = 0
        for k in checkpoints:
            histogram += np.bincount(values[prev:k], minlength=len(histogram))
            prev = k
            yield tuple(histogram.tolist())
    else:
        # each prefix is summed afresh: chunked float sums round differently
        for k in checkpoints:
            head = values[:k]
            if config.scheme is Scheme.HOMODYNE:
                yield k, float(np.sum(head)), float(np.sum(head * head))
            else:
                yield k, complex(np.sum(head)), float(np.sum(head.real**2 + head.imag**2))


def lookup_histogram(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Histogram of min(searchsorted(cdf, u, "right"), len(cdf) - 1) over the
    uniforms, sorted in place: count n holds the uniforms below cdf[n] less
    those below cdf[n - 1], and the last count the rest, as the clamp does."""
    uniforms.sort()
    below = np.searchsorted(uniforms, cdf[:-1], side="left")
    return np.diff(below, prepend=0, append=len(uniforms))


def statistic_sampler(config: ExperimentConfig, checkpoints):
    """:func:`sampler`'s draw reduced to :func:`record_statistics` at the
    checkpoints, as a list, from the same PCG64 stream.  The counting
    schemes keep no record, only the uniforms: on/off click counts are the
    uniforms below the click probability, counted per checkpoint segment;
    number-resolving counts sort the uniforms per segment.  The total count
    S is the dot product of the counts 0..N with the histogram, an exact
    integer like the record's sum.  Quadratures draw the record, whose
    prefix sums are summed afresh."""
    if config.scheme is not Scheme.DISPLACED_COUNTING:
        draw = sampler(config)
        return lambda seed: list(record_statistics(config, draw(seed).values, checkpoints))
    if config.det.kind is DetectorKind.ON_OFF:
        p_click = onoff_likelihood(True, config.phi_true, config.probe, config.det, config.model)

        def draw_clicks(seed: int) -> list:
            _check_seed(seed)
            u = np.random.default_rng(seed).random(config.pulses)
            statistics, clicks, prev = [], 0, 0
            for k in checkpoints:
                clicks += int(np.count_nonzero(u[prev:k] < p_click))
                prev = k
                statistics.append((k - clicks, clicks))
            return statistics
        return draw_clicks
    cdf = np.cumsum(count_distribution(config.phi_true, config.probe, config.det, config.model))
    fringe = config.model is LikelihoodModel.POISSON_FRINGE
    counts = np.arange(len(cdf))

    def draw_counts(seed: int) -> list:
        _check_seed(seed)
        u = np.random.default_rng(seed).random(config.pulses)
        if not fringe:  # the histograms stop at the record's largest count
            top = min(int(np.searchsorted(cdf, u.max(initial=0.0), side="right")), len(cdf) - 1)
        histogram = np.zeros(len(cdf), dtype=np.int64)
        statistics, prev = [], 0
        for k in checkpoints:
            histogram += lookup_histogram(cdf, u[prev:k])
            prev = k
            statistics.append((k, int(counts @ histogram)) if fringe
                              else tuple(histogram[:top + 1].tolist()))
        return statistics
    return draw_counts

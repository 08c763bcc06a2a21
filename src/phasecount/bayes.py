"""Grid-based Bayesian phase estimation from a measurement record.

The posterior over phi lives on a uniform grid spanning [0, pi] (the
identifiable half-interval: every likelihood here depends on phi only
through cos(phi)) with a flat prior and trapezoid integration.  Likelihoods
are accumulated in the log domain with max-subtraction, since products over
~1e6 pulses underflow any direct evaluation.  Additive constants in the
log-likelihood are dropped; they cancel in the normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fisher import Scheme
from .photonics import (
    DetectorKind,
    LikelihoodModel,
    fringe_mean,
    mixture_component_means,
    mixture_weights,
    require_matched_amplitudes,
)
from .sampling import ExperimentConfig, OutcomeRecord

DEFAULT_GRID_SIZE = 4097
MIN_GRID_SIZE = 65


class PosteriorUnderflowError(RuntimeError):
    """Every grid node has zero posterior mass: the record is impossible
    under the configured likelihood model."""


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """Discretized posterior density over phi on [0, pi], trapezoid rule."""

    nodes: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.nodes.shape != self.density.shape:
            raise ValueError("nodes and density must have matching shapes")
        if np.any(self.density < 0.0):
            raise ValueError("posterior density must be nonnegative")

    def normalization(self) -> float:
        return float(np.trapezoid(self.density, self.nodes))


def _phase_grid(grid_size: int) -> np.ndarray:
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size!r}")
    return np.linspace(0.0, math.pi, grid_size)


# ---------------------------------------------------------------------------
# log-likelihood as a function of the sufficient statistic
# ---------------------------------------------------------------------------

def _loglik_function(config: ExperimentConfig, grid: np.ndarray):
    """log p(record | phi) over the grid as a function of the record's
    sufficient statistic, up to additive constants.

    Everything that depends on the configuration alone is evaluated here,
    once: the count means over the grid and their logs, log p0 and log p1,
    the quadrature means.
    """
    probe, det = config.probe, config.det
    if config.scheme is Scheme.HOMODYNE:
        # density exp(-(x - mean)^2)/sqrt(pi): the phi-dependent part of the
        # summed log-likelihood is -(s2 - 2*mean*s1 + k*mean^2)
        mean = math.sqrt(2.0) * probe.alpha * np.sin(grid)

        def homodyne(statistic):
            k, s1, s2 = statistic
            return -(s2 - 2.0 * mean * s1 + k * mean * mean)
        return homodyne
    if config.scheme is Scheme.HETERODYNE:
        mx = probe.alpha * np.cos(grid)
        my = probe.alpha * np.sin(grid)
        m2 = mx * mx + my * my

        def heterodyne(statistic):
            k, s1, s2 = statistic
            return -(s2 - 2.0 * (mx * s1.real + my * s1.imag) + k * m2)
        return heterodyne
    if config.scheme is not Scheme.DISPLACED_COUNTING:
        raise ValueError(f"unknown scheme {config.scheme!r}")

    fringe = config.model is LikelihoodModel.POISSON_FRINGE
    if fringe:
        lam = fringe_mean(grid, probe, det)
    else:
        require_matched_amplitudes(probe)
        w1, w2 = mixture_weights(det)
        lam1, lam2 = mixture_component_means(grid, probe, det)

    if det.kind is DetectorKind.ON_OFF:
        with np.errstate(divide="ignore"):
            if fringe:
                log_p0, log_p1 = -lam, np.log(-np.expm1(-lam))
            else:
                p0 = w1 * np.exp(-lam1) + w2 * np.exp(-lam2)
                log_p0, log_p1 = np.log(p0), np.log1p(-p0)

        def clicks(statistic):
            n_silent, n_click = statistic
            total = np.zeros_like(grid)
            if n_silent:
                total += n_silent * log_p0
            if n_click:
                total += n_click * log_p1
            return total
        return clicks

    # log p(n | phi) up to the common -lgamma(n+1) constant
    with np.errstate(divide="ignore"):
        if fringe:
            log_lam = np.log(lam)

            def log_pmf(n):
                return -lam if n == 0 else n * log_lam - lam
        else:
            log_lam1, log_lam2 = np.log(lam1), np.log(lam2)
            logw1 = math.log(w1) if w1 > 0.0 else -np.inf
            logw2 = math.log(w2) if w2 > 0.0 else -np.inf

            def log_pmf(n):
                l1 = -lam1 if n == 0 else n * log_lam1 - lam1
                l2 = -lam2 if n == 0 else n * log_lam2 - lam2
                return np.logaddexp(logw1 + l1, logw2 + l2)

    def counts(statistic):
        total = np.zeros_like(grid)
        for n, multiplicity in enumerate(statistic):
            if multiplicity:
                total += multiplicity * (log_pmf(n) - math.lgamma(n + 1))
        return total
    return counts


def _normalize(loglik: np.ndarray, grid: np.ndarray) -> np.ndarray:
    peak = float(np.max(loglik))
    if not np.isfinite(peak):
        raise PosteriorUnderflowError(
            "posterior vanished at every grid node; the record is impossible "
            "under the configured likelihood model"
        )
    density = np.exp(loglik - peak)  # flat prior: constant factor cancels
    norm = float(np.trapezoid(density, grid))
    if norm <= 0.0 or not math.isfinite(norm):
        raise PosteriorUnderflowError("posterior normalization underflowed")
    return density / norm


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

class LikelihoodTable:
    """Grid posterior of one configuration as a function of a record's
    sufficient statistic.

    A record reaches the posterior only through its sufficient statistic:
    (silent, click) counts, the count histogram, or the quadrature
    statistic (k, sum, sum of squares).  Records with equal statistics
    share one posterior.  The phase-dependent tables are built once, on
    construction.
    """

    def __init__(self, config: ExperimentConfig, grid_size: int = DEFAULT_GRID_SIZE):
        self.config = config
        self.grid = _phase_grid(grid_size)
        self.loglik = _loglik_function(config, self.grid)

    def statistics(self, record: OutcomeRecord, checkpoints):
        """Yield the hashable sufficient statistic of the first k outcomes
        for each increasing checkpoint k."""
        values = record.values
        counting = self.config.scheme is Scheme.DISPLACED_COUNTING
        if counting and self.config.det.kind is DetectorKind.ON_OFF:
            for k in checkpoints:
                n_click = int(np.count_nonzero(values[:k]))
                yield k - n_click, n_click
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
                if self.config.scheme is Scheme.HOMODYNE:
                    yield k, float(np.sum(head)), float(np.sum(head * head))
                else:
                    yield k, complex(np.sum(head)), float(np.sum(head.real**2 + head.imag**2))

    def posterior(self, statistic) -> PosteriorGrid:
        return PosteriorGrid(nodes=self.grid,
                             density=_normalize(self.loglik(statistic), self.grid))

    def moments(self, statistic) -> tuple[float, float]:
        """Posterior mean and variance, as :func:`estimate` gives them."""
        return estimate(self.posterior(statistic))


def posterior(record: OutcomeRecord, grid_size: int = DEFAULT_GRID_SIZE) -> PosteriorGrid:
    """Posterior over phi given the record, on a uniform [0, pi] grid.

    An empty record returns the flat prior 1/pi.
    """
    table = LikelihoodTable(record.config, grid_size)
    (statistic,) = table.statistics(record, (len(record),))
    return table.posterior(statistic)


def estimate(post: PosteriorGrid) -> tuple[float, float]:
    """Posterior mean and posterior variance under the grid's trapezoid rule."""
    phi_hat = float(np.trapezoid(post.nodes * post.density, post.nodes))
    variance = float(np.trapezoid((phi_hat - post.nodes) ** 2 * post.density, post.nodes))
    return phi_hat, variance


def sequential_estimates(
    record: OutcomeRecord,
    grid_size: int = DEFAULT_GRID_SIZE,
    checkpoints=(),
) -> list[tuple[int, float, float]]:
    """Running (k, phi_hat, variance) at each checkpoint k.

    Sufficient statistics accumulate along the record and the likelihood
    table is built once; the realized estimate at k equals the one-shot
    posterior of the first k outcomes exactly.
    """
    ks = [int(k) for k in checkpoints]
    if not ks:
        raise ValueError("checkpoints must be a nonempty increasing sequence")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if ks[0] < 1 or ks[-1] > record.config.pulses:
        raise ValueError("checkpoints must lie within [1, pulses]")

    table = LikelihoodTable(record.config, grid_size)
    return [(k, *table.moments(statistic))
            for k, statistic in zip(ks, table.statistics(record, ks))]

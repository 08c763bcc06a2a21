"""Grid-based Bayesian phase estimation from a measurement record.

The posterior over phi lives on a uniform grid spanning [0, pi] (the
identifiable half-interval: every likelihood here depends on phi only
through cos(phi)) with a flat prior and trapezoid integration.  Likelihoods
are accumulated in the log domain with max-subtraction, since products over
~1e6 pulses underflow any direct evaluation.  Additive constants in the
log-likelihood are dropped; they cancel in the normalization.  A
single-Poisson (poisson-fringe) count record enters only through (k, S),
its pulses and total count: S log(lam) - k lam, taken relative to its value
at lam = S/k so that the large constant never reaches the subtraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fisher import Scheme
from .photonics import DetectorKind, LikelihoodModel, count_model
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .photonics import fringe_mean, mixture_component_means
from .sampling import ExperimentConfig, OutcomeRecord, record_statistics

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
        return _trapezoid(self.density, np.diff(self.nodes))


def _trapezoid(y: np.ndarray, spacing: np.ndarray) -> float:
    # np.trapezoid(y, x) for spacing = np.diff(x): its operations, so its bits
    return float((spacing * (y[1:] + y[:-1]) / 2.0).sum())


def _phase_grid(grid_size: int) -> np.ndarray:
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size!r}")
    return np.linspace(0.0, math.pi, grid_size)


# ---------------------------------------------------------------------------
# log-likelihood as a function of the sufficient statistic
# ---------------------------------------------------------------------------

def _loglik_function(config: ExperimentConfig, grid: np.ndarray):
    """log p(record | phi) over the grid up to additive constants, as a
    function of a list of sufficient statistics: one row per statistic.

    Everything that depends on the configuration alone is evaluated here,
    once: the count means over the grid and their logs, log p0 and log p1,
    the quadrature means.
    """
    probe, det = config.probe, config.det
    if config.scheme is Scheme.HOMODYNE:
        # density exp(-(x - mean)^2)/sqrt(pi): the phi-dependent part of the
        # summed log-likelihood is -(s2 - 2*mean*s1 + k*mean^2)
        mean = math.sqrt(2.0) * probe.alpha * np.sin(grid)

        def homodyne(statistics):
            return (-(s2 - 2.0 * mean * s1 + k * mean * mean) for k, s1, s2 in statistics)
        return homodyne
    if config.scheme is Scheme.HETERODYNE:
        mx = probe.alpha * np.cos(grid)
        my = probe.alpha * np.sin(grid)
        m2 = mx * mx + my * my

        def heterodyne(statistics):
            return (-(s2 - 2.0 * (mx * s1.real + my * s1.imag) + k * m2)
                    for k, s1, s2 in statistics)
        return heterodyne
    if config.scheme is not Scheme.DISPLACED_COUNTING:
        raise ValueError(f"unknown scheme {config.scheme!r}")

    model = count_model(probe, det, config.model)
    if det.kind is DetectorKind.ON_OFF:
        log_p0, log_p1 = model.log_silent_click(grid)

        def click(n_silent, n_click):
            total = np.zeros_like(grid)
            if n_silent:
                total += n_silent * log_p0
            if n_click:
                total += n_click * log_p1
            return total
        return lambda statistics: (click(*statistic) for statistic in statistics)

    if config.model is LikelihoodModel.POISSON_FRINGE:
        (lam,) = model.means(grid)

        def centred(k, s):
            # S log(lam) - k lam less its value at the peak lam = S/k, so that
            # no large constant cancels when the posterior takes off its peak
            if s == 0:
                return -k * lam
            x = lam * (k / s) - 1.0
            with np.errstate(divide="ignore"):  # lam = 0 nodes: log1p(-1) = -inf
                return s * (np.log1p(x) - x)
        return lambda statistics: (centred(*statistic) for statistic in statistics)

    # log p(n | phi) up to the common -lgamma(n+1) constant, per component;
    # a zero-weight component adds nothing and is left out
    def component_log_pmf(log_w, lam, log_lam):
        def log_pmf(n):
            part = -lam if n == 0 else n * log_lam - lam
            return part + log_w if log_w else part  # adding 0 would cost a grid pass
        return log_pmf

    with np.errstate(divide="ignore"):
        log_pmf = functools.reduce(
            lambda f, g: lambda n: np.logaddexp(f(n), g(n)),
            [component_log_pmf(math.log(w), lam, np.log(lam))
             for w, lam in zip(model.weights, model.means(grid)) if w > 0.0])

    def counts(statistics):
        # count-major: each count's row is evaluated once and added to every
        # histogram holding it, in increasing n as a per-histogram loop would
        width = max(map(len, statistics), default=0)
        totals = np.zeros((len(statistics), grid.size))
        for n, column in enumerate(zip(*(s + (0,) * (width - len(s)) for s in statistics))):
            if any(column):
                row = log_pmf(n) - math.lgamma(n + 1)
                for total, multiplicity in zip(totals, column):
                    if multiplicity:
                        total += multiplicity * row
        return totals
    return counts


def _normalize(loglik: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    peak = float(np.max(loglik))
    if not np.isfinite(peak):
        raise PosteriorUnderflowError(
            "posterior vanished at every grid node; the record is impossible "
            "under the configured likelihood model"
        )
    density = np.exp(loglik - peak)  # flat prior: constant factor cancels
    norm = _trapezoid(density, spacing)
    if norm <= 0.0 or not math.isfinite(norm):
        raise PosteriorUnderflowError("posterior normalization underflowed")
    return density / norm


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

class LikelihoodTable:
    """Grid posterior of one likelihood as a function of a record's
    sufficient statistic.

    A record reaches the posterior only through its sufficient statistic:
    (silent, click) counts, (k, S) pulses and total count under the
    one-component count model, the count histogram under the mixture, or
    the quadrature statistic (k, sum, sum of squares).  The likelihood does
    not depend on the true phase, pulse count or seed, so one table serves
    a whole run: its grid tables and spacing are built once, on
    construction, and the moments of each distinct statistic are computed
    once.
    """

    def __init__(self, config: ExperimentConfig, grid_size: int = DEFAULT_GRID_SIZE):
        self.config = config
        self.grid = _phase_grid(grid_size)
        self.spacing = np.diff(self.grid)
        self.loglik = _loglik_function(config, self.grid)
        self._moments = {}

    def statistics(self, record: OutcomeRecord, checkpoints):
        """The record's statistic at each checkpoint (:func:`record_statistics`)."""
        return record_statistics(self.config, record.values, checkpoints)

    def posteriors(self, statistics: list):
        """Yield the posterior of each statistic in the list."""
        for loglik in self.loglik(statistics):
            yield PosteriorGrid(nodes=self.grid, density=_normalize(loglik, self.spacing))

    def moments(self, statistics) -> list[tuple[float, float]]:
        """Posterior mean and variance of each statistic, as :func:`estimate`
        gives them; a statistic seen before is not evaluated again."""
        statistics = list(statistics)
        new = [s for s in dict.fromkeys(statistics) if s not in self._moments]
        for statistic, post in zip(new, self.posteriors(new)):
            self._moments[statistic] = _estimate(post, self.spacing)
        return [self._moments[s] for s in statistics]


def posterior(record: OutcomeRecord, grid_size: int = DEFAULT_GRID_SIZE) -> PosteriorGrid:
    """Posterior over phi given the record, on a uniform [0, pi] grid.

    An empty record returns the flat prior 1/pi.
    """
    table = LikelihoodTable(record.config, grid_size)
    (post,) = table.posteriors(list(table.statistics(record, (len(record),))))
    return post


def _estimate(post: PosteriorGrid, spacing: np.ndarray) -> tuple[float, float]:
    phi_hat = _trapezoid(post.nodes * post.density, spacing)
    variance = _trapezoid((phi_hat - post.nodes) ** 2 * post.density, spacing)
    return phi_hat, variance


def estimate(post: PosteriorGrid) -> tuple[float, float]:
    """Posterior mean and posterior variance under the grid's trapezoid rule."""
    return _estimate(post, np.diff(post.nodes))


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
    return [(k, *moments) for k, moments in zip(ks, table.moments(table.statistics(record, ks)))]

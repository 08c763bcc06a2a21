"""Grid-based Bayesian phase estimation from a measurement record.

The posterior over phi lives on a uniform grid spanning [0, pi] with a flat
prior and trapezoid integration: the half-interval on which counting (a
function of cos(phi)) and heterodyne identify phi, and homodyne, whose mean
sqrt(2)*alpha*sin(phi) is the same at pi - phi, scores no record.  Likelihoods
are accumulated in the log domain with max-subtraction, since products over
~1e6 pulses underflow any direct evaluation; additive constants cancel in
the normalization and are dropped.  Each posterior is exactly 0 outside its
live window, from the first to the last node within e^-80 of its peak
(about 12.6 sd each side of a Gaussian peak).  The log-likelihood of a
sufficient statistic over the grid is the measurement's
(``fisher.Measurement.loglik``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fisher import Measurement, checked_checkpoints
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .photonics import fringe_mean, mixture_component_means
from .sampling import OutcomeRecord

DEFAULT_GRID_SIZE = 4097
MIN_GRID_SIZE = 65

# a posterior is 0 before its first and after its last log-density at or
# above this floor and takes exp only between them.  Against the exp of every
# node, some 30,000 statistics over every scheme and model keep their moments'
# bits at floors -60, -80, -100 and -708, and some move at -45 (by a few parts
# in 1e15): nodes below e^-80 ~ 1.8e-35 of the peak go with a margin of e^35
_EXP_FLOOR = -80.0


class PosteriorUnderflowError(RuntimeError):
    """Every grid node has zero posterior mass: the record is impossible
    under the configured likelihood model."""


class GridResolutionError(RuntimeError):
    """The Cramer-Rao sd is below one grid spacing: the moments are wrong."""


def require_resolved(fisher_information: float, pulses: int, grid_size: int) -> None:
    """Raise GridResolutionError when the Cramer-Rao sd after ``pulses``
    pulses, 1/sqrt(pulses * F), is below one spacing pi/(grid_size - 1)."""
    spacing = math.pi / (grid_size - 1)
    if pulses * fisher_information * spacing * spacing > 1.0:
        raise GridResolutionError(
            f"grid_size {grid_size} cannot resolve the posterior after {pulses} pulses: its "
            f"Cramer-Rao sd is {(pulses * fisher_information) ** -0.5 / spacing:.3g} of a "
            "grid spacing; raise grid_size")


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
        return _Window(np.diff(self.nodes)).trapezoid(self.density)


class _Window:
    """The nodes outside which a function on a grid is 0, and np.trapezoid
    over the whole grid for such a function.

    The window runs from the node before ``lo`` to the node after
    ``hi - 1``, where the grid has them, so that the function is 0 at the
    window's ends unless they are the grid's.  Every sum goes through one
    zero row of all the grid's terms, fresh per window, in which only the
    terms between the window's nodes are written.  Every other term is an
    exact 0, so the pairwise sum over the row has the bits of np.trapezoid.
    x * 0.5 and x / 2.0 round the same real number; ndarray.sum is
    add.reduce.
    """

    def __init__(self, spacing: np.ndarray, lo: int = 0, hi: int | None = None):
        size = len(spacing) + 1
        self.nodes = slice(max(lo - 1, 0), min(size if hi is None else hi + 1, size))
        self._row = np.zeros(len(spacing))
        self._terms = self._row[self.nodes.start:self.nodes.stop - 1]
        self._spacing = spacing[self.nodes.start:self.nodes.stop - 1]

    def trapezoid(self, y: np.ndarray) -> float:
        """The integral of the function that is y on the window's nodes."""
        np.add(y[1:], y[:-1], out=self._terms)
        self._terms *= self._spacing
        self._terms *= 0.5
        return float(np.add.reduce(self._row))


def _phase_grid(grid_size: int) -> np.ndarray:
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size!r}")
    return np.linspace(0.0, math.pi, grid_size)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

class LikelihoodTable:
    """Grid posterior of one likelihood as a function of a record's
    sufficient statistic.

    A record reaches the posterior only through its sufficient statistic:
    (silent, click) counts, (k, S) pulses and total count under the
    one-component count model, the count histogram under the mixture, or
    the heterodyne statistic (k, sum, sum of squared moduli).  The likelihood does
    not depend on the true phase, pulse count or seed, so one table serves
    a whole run: its grid tables and spacing are built once, on
    construction, and the moments of each distinct statistic are computed
    once.

    Each ``loglik`` call gives one statistic's log-likelihood in a fresh row,
    which its posterior overwrites with the density.  Only the peak and the
    live test take full-grid passes; every other step runs on the live window
    from the first to the last node within ``_EXP_FLOOR`` of the peak (about
    12.6 sd each side of a Gaussian one), the density being exactly 0 outside
    it.  Each trapezoid sum runs over a fresh zero row of all the grid's terms,
    so every moment keeps the bits of the full-grid evaluation.
    """

    def __init__(self, measurement: Measurement, grid_size: int = DEFAULT_GRID_SIZE):
        self.grid = _phase_grid(grid_size)
        self.spacing = np.diff(self.grid)
        self.loglik = measurement.loglik(self.grid)
        self._moments = {}

    def _posterior(self, statistic) -> tuple[np.ndarray, _Window]:
        """The posterior density of a statistic, in its log-likelihood row,
        and the window outside which it is 0."""
        density = self.loglik(statistic)
        peak = float(density.max())  # NaN anywhere makes it NaN
        if not math.isfinite(peak):
            raise PosteriorUnderflowError(
                "posterior vanished at every grid node; the record is impossible "
                "under the configured likelihood model"
            )
        density -= peak  # flat prior: constant factor cancels
        # the first and last live node: memchr over the mask's bytes, where
        # argmax would copy the reversed mask
        live = (density >= _EXP_FLOOR).tobytes()
        lo, hi = live.find(1), live.rfind(1) + 1
        density[:lo] = 0.0
        density[hi:] = 0.0
        values = density[lo:hi]
        np.exp(values, out=values)
        window = _Window(self.spacing, lo, hi)
        norm = window.trapezoid(density[window.nodes])
        if norm <= 0.0 or not math.isfinite(norm):
            raise PosteriorUnderflowError("posterior normalization underflowed")
        values /= norm
        return density, window

    def posteriors(self, statistics):
        """Yield the posterior of each statistic."""
        for statistic in statistics:
            yield PosteriorGrid(nodes=self.grid, density=self._posterior(statistic)[0])

    def moments(self, statistics) -> list[tuple[float, float]]:
        """Posterior mean and variance of each statistic, as :func:`estimate`
        gives them; a statistic seen before is not evaluated again."""
        statistics = list(statistics)
        for statistic in [s for s in dict.fromkeys(statistics) if s not in self._moments]:
            self._moments[statistic] = _estimate(self.grid, *self._posterior(statistic))
        return [self._moments[s] for s in statistics]


def posterior(record: OutcomeRecord, grid_size: int = DEFAULT_GRID_SIZE) -> PosteriorGrid:
    """Posterior over phi given the record, on a uniform [0, pi] grid.

    An empty record returns the flat prior 1/pi.
    """
    kind = record.config.measurement
    (statistic,) = kind.statistics(record.values, (len(record),))
    return next(LikelihoodTable(kind, grid_size).posteriors([statistic]))


def _estimate(nodes: np.ndarray, density: np.ndarray,
              window: _Window) -> tuple[float, float]:
    # over the window's nodes, in one temporary; np.square is what ** 2 calls
    nodes, density = nodes[window.nodes], density[window.nodes]
    row = nodes * density
    phi_hat = window.trapezoid(row)
    np.subtract(phi_hat, nodes, out=row)
    np.square(row, out=row)
    row *= density
    return phi_hat, window.trapezoid(row)


def estimate(post: PosteriorGrid) -> tuple[float, float]:
    """Posterior mean and posterior variance under the grid's trapezoid rule."""
    return _estimate(post.nodes, post.density, _Window(np.diff(post.nodes)))


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
    ks = checked_checkpoints(checkpoints, record.config.pulses, least=1)
    if not ks:
        raise ValueError("checkpoints must be a nonempty increasing sequence")

    kind = record.config.measurement
    table = LikelihoodTable(kind, grid_size)
    statistics = kind.statistics(record.values, ks)
    return [(k, *moments) for k, moments in zip(ks, table.moments(statistics))]

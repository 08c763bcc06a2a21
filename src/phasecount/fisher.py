"""Quantum and classical Fisher information for the supported measurements.

``fi_numeric`` derives the classical Fisher information mechanically from
the outcome likelihoods (summing over counts, Gauss-Hermite quadrature over
quadratures), while ``fi_analytic`` ships the ideal-parameter closed forms.
The numeric path is the ground truth the closed forms are validated against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .photonics import (
    CountModel,
    DetectorKind,
    DetectorModel,
    LikelihoodModel,
    ProbeConfig,
    count_model,
    homodyne_mean,
)
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .photonics import (
    fringe_mean,
    fringe_mean_derivative,
    mixture_component_means,
    mixture_interfering_mean_derivative,
)

# Terms with probability below this are skipped in count sums (0*inf guard).
PROB_FLOOR = 1e-300

# Hard cap on the number of count terms before declaring non-convergence.
MAX_COUNT_TERMS = 1_000_000

# Count sums stop once the residual probability mass falls below this.
COUNT_TAIL_MASS = 1e-14

# Step in radians of the central-difference derivative rule.
DIFFERENCE_STEP = 1e-5

# Gauss-Hermite nodes for continuous outcomes: 2 would be exact for their quadratic
# log-densities, but the shipped homodyne and heterodyne values carry the bits of 128.
QUAD_POINTS = 128


class FiConvergenceError(RuntimeError):
    """The count-outcome sum failed to reach its tail-mass target."""


class Scheme(Enum):
    DISPLACED_COUNTING = "displaced"
    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"


class DerivativeRule(Enum):
    ANALYTIC = "analytic"
    CENTRAL_DIFFERENCE = "central"


@dataclass(frozen=True)
class FiOptions:
    """Knobs for the numeric Fisher-information evaluation.

    derivative     -- analytic d(mean)/d(phi) where available, or central
                      differences (step DIFFERENCE_STEP) with one Richardson
                      extrapolation level
    phi_zero_surrogate -- displaced counting is evaluated here when asked
                      for phi = 0 exactly, where the ideal likelihood is
                      degenerate; the substitution is flagged in the result

    Count sums stop at COUNT_TAIL_MASS; continuous outcomes are integrated
    on the fixed QUAD_POINTS-node rule.
    """

    derivative: DerivativeRule = DerivativeRule.ANALYTIC
    phi_zero_surrogate: float = 1e-6

    def __post_init__(self):
        if self.phi_zero_surrogate <= 0.0:
            raise ValueError("phi_zero_surrogate must be > 0")


class FiResult(NamedTuple):
    """Numeric FI value plus where it was actually evaluated."""

    value: float
    phi_requested: float
    phi_evaluated: float
    zero_substituted: bool

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# quantum Fisher information
# ---------------------------------------------------------------------------

def qfi_pure_state(amplitudes) -> float:
    """QFI of a pure state under a photon-number phase generator.

    Four times the photon-number variance, 4*(<K^2> - <K>^2).
    """
    amps = np.asarray(amplitudes, dtype=complex)
    weights = np.abs(amps) ** 2
    norm = float(weights.sum())
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state must be normalized to 1e-9; got sum |c_k|^2 = {norm!r}")
    k = np.arange(weights.size)
    mean = float(np.dot(k, weights))
    mean_sq = float(np.dot(k * k, weights))
    return 4.0 * (mean_sq - mean * mean)


def qfi_coherent(probe: ProbeConfig) -> float:
    """QFI of a coherent probe: 4*alpha^2."""
    return 4.0 * probe.alpha**2


# ---------------------------------------------------------------------------
# analytic classical Fisher information (ideal parameters)
# ---------------------------------------------------------------------------

def fi_analytic(scheme: Scheme, phi: float, probe: ProbeConfig) -> float:
    """Ideal-parameter closed forms (eta=1, nu=0, xi=1, beta=alpha).

    Displaced counting: 2*alpha^2*(1 + cos(phi)), the single-parameter
    Poisson information (d lam/d phi)^2 / lam of the nulled-mode mean
    lam = 2*alpha^2*(1 - cos(phi)); it matches the numeric FI everywhere
    and reaches the QFI as phi -> 0.
    Homodyne: 4*alpha^2*cos^2(phi).  Heterodyne: 2*alpha^2 for all phi.
    """
    a2 = probe.alpha**2
    if scheme is Scheme.DISPLACED_COUNTING:
        return 2.0 * a2 * (1.0 + math.cos(phi))
    if scheme is Scheme.HOMODYNE:
        return 4.0 * a2 * math.cos(phi) ** 2
    if scheme is Scheme.HETERODYNE:
        return 2.0 * a2
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# numeric classical Fisher information
# ---------------------------------------------------------------------------

def fi_numeric(
    scheme: Scheme,
    phi: float,
    probe: ProbeConfig,
    det: DetectorModel | None = None,
    opts: FiOptions = FiOptions(),
    model: LikelihoodModel = LikelihoodModel.POISSON_FRINGE,
) -> FiResult:
    """Classical FI computed directly from the outcome likelihood.

    Count outcomes are summed until the residual probability mass drops
    below ``COUNT_TAIL_MASS``; continuous outcomes are integrated by
    Gauss-Hermite quadrature.  ``det`` defaults to an ideal number-resolving
    detector and is ignored by the homodyne/heterodyne schemes, whose
    densities carry no detector imperfections.
    """
    if scheme is Scheme.DISPLACED_COUNTING:
        if det is None:
            det = DetectorModel()
        phi_eval, substituted = (opts.phi_zero_surrogate, True) if phi == 0.0 else (phi, False)
        counts = count_model(probe, det, model)
        if det.kind is DetectorKind.ON_OFF:
            value = _fi_onoff(phi_eval, counts, opts)
        else:
            value = _fi_counts(phi_eval, counts, opts)
        return FiResult(value, phi, phi_eval, substituted)
    if scheme is Scheme.HOMODYNE:
        return FiResult(_fi_homodyne(phi, probe, opts), phi, phi, False)
    if scheme is Scheme.HETERODYNE:
        return FiResult(_fi_heterodyne(phi, probe, opts), phi, phi, False)
    raise ValueError(f"unknown scheme {scheme!r}")


def _poisson_stream(w: float, lam: float, wdlam: float):
    """Yield (w*p_n, w*dp_n/dphi) of one Poisson component, n = 0, 1, 2, ...,
    until p_n underflows to 0; it stays 0 from there on.

    The derivative of the n-th mass of a Poisson family is
    d(lam)/dphi * (p_{n-1} - p_n), which avoids dividing by a vanishing
    mean near perfect nulling.  ``wdlam`` is w * d(lam)/dphi.
    """
    p = math.exp(-lam)
    prev = 0.0
    n = 0
    while p:
        yield w * p, wdlam * (prev - p)
        prev = p
        n += 1
        p *= lam / n


def _add_streams(a, b):
    """Termwise sum of two (p, dp) streams; a finished stream adds zeros."""
    return ((pa + pb, da + db)
            for (pa, da), (pb, db) in itertools.zip_longest(a, b, fillvalue=(0.0, 0.0)))


def _analytic_stream(phi: float, counts: CountModel):
    return functools.reduce(_add_streams, (
        _poisson_stream(w, float(lam), w * float(dlam))
        for w, lam, dlam in zip(counts.weights, counts.means(phi), counts.dmeans(phi))))


def _count_pmf_stream(phi: float, counts: CountModel, opts: FiOptions):
    """Yield (p_n, dp_n/dphi) for n = 0, 1, 2, ... until every component's
    mass has underflowed to 0, after which the total mass cannot grow."""
    if opts.derivative is DerivativeRule.ANALYTIC:
        return _analytic_stream(phi, counts)
    h = DIFFERENCE_STEP
    offsets = (phi + h, phi - h, phi + 0.5 * h, phi - 0.5 * h, phi)
    return ((p0, (4.0 * ((pp2 - pm2) / h) - (pp - pm) / (2.0 * h)) / 3.0)
            for (pp, _), (pm, _), (pp2, _), (pm2, _), (p0, _)
            in zip(*(_analytic_stream(x, counts) for x in offsets)))


def _count_tail_error(phi: float, counts: CountModel, terms: int) -> FiConvergenceError:
    mean = max(float(lam) for lam in counts.means(phi))
    return FiConvergenceError(
        f"count distribution did not reach tail mass {COUNT_TAIL_MASS:g} after "
        f"{terms} terms at mean count {mean:.6g} (phi={phi!r}); above about 700 "
        "counts exp(-mean) underflows and the count masses lose mass")


def count_masses(phi: float, counts: CountModel) -> list[float]:
    """Count probabilities p_n, n = 0, 1, 2, ..., up to the first n at which
    the residual mass 1 - (p_0 + ... + p_n), summed left to right, falls
    below ``COUNT_TAIL_MASS``: the terms the count FI sum runs over."""
    masses = []
    mass = 0.0
    for p, _ in itertools.islice(_analytic_stream(phi, counts), MAX_COUNT_TERMS):
        masses.append(p)
        mass += p
        if 1.0 - mass < COUNT_TAIL_MASS:
            return masses
    raise _count_tail_error(phi, counts, len(masses))


def _fi_counts(phi: float, counts: CountModel, opts: FiOptions) -> float:
    stream = _count_pmf_stream(phi, counts, opts)
    total = 0.0
    mass = 0.0
    n = 0
    for n, (p, dp) in enumerate(itertools.islice(stream, MAX_COUNT_TERMS), 1):
        if p > PROB_FLOOR:
            total += dp * dp / p
        mass += p
        if 1.0 - mass < COUNT_TAIL_MASS:
            return total
    raise _count_tail_error(phi, counts, n)


def _fi_onoff(phi: float, counts: CountModel, opts: FiOptions) -> float:
    # silence is the n = 0 count; an empty stream means p0 underflowed to 0
    p0, dp0 = next(_count_pmf_stream(phi, counts, opts), (0.0, 0.0))
    p_click = counts.silent_click(phi)[1]
    total = 0.0
    if p0 > PROB_FLOOR:
        total += dp0 * dp0 / p0
    if p_click > PROB_FLOOR:
        total += dp0 * dp0 / p_click
    return total


@functools.lru_cache(maxsize=None)
def _hermgauss_normalized(points: int):
    """Gauss-Hermite rule for the weight exp(-t^2)/sqrt(pi).  A constant per
    node count, built once per process; read-only because it is shared."""
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    weights = weights / math.sqrt(math.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _hermgauss_product_weight(points: int) -> np.ndarray:
    """The weight w_i w_j of the product Gauss-Hermite rule on the plane,
    built once per node count and read-only like the rule itself."""
    _, w = _hermgauss_normalized(points)
    weight = w[:, None] * w[None, :]
    weight.flags.writeable = False
    return weight


def _fi_homodyne(phi: float, probe, opts: FiOptions) -> float:
    # x = mean + t with t the Hermite nodes: the density has variance 1/2,
    # so log p(x|phi) = -(x - mean(phi))^2 + const.
    t, w = _hermgauss_normalized(QUAD_POINTS)
    mean = float(homodyne_mean(phi, probe))
    if opts.derivative is DerivativeRule.ANALYTIC:
        dmean = math.sqrt(2.0) * probe.alpha * math.cos(phi)
        score = 2.0 * t * dmean
    else:
        x = mean + t
        h = DIFFERENCE_STEP

        def logp(p):
            return -((x - float(homodyne_mean(p, probe))) ** 2)

        coarse = (logp(phi + h) - logp(phi - h)) / (2.0 * h)
        fine = (logp(phi + 0.5 * h) - logp(phi - 0.5 * h)) / h
        score = (4.0 * fine - coarse) / 3.0
    return float(np.dot(w, score**2))


def _fi_heterodyne(phi: float, probe, opts: FiOptions) -> float:
    t, _ = _hermgauss_normalized(QUAD_POINTS)
    weight = _hermgauss_product_weight(QUAD_POINTS)
    mx = probe.alpha * math.cos(phi)
    my = probe.alpha * math.sin(phi)
    if opts.derivative is DerivativeRule.ANALYTIC:
        dmx, dmy = -my, mx
        # score(u, v) = 2*u*dmx + 2*v*dmy on the product Hermite grid
        score = np.add.outer(t * dmx, t * dmy)
        score *= 2.0
    else:
        re = mx + t[:, None]
        im = my + t[None, :]
        h = DIFFERENCE_STEP

        def logp(p):
            cx = probe.alpha * math.cos(p)
            cy = probe.alpha * math.sin(p)
            return -((re - cx) ** 2) - (im - cy) ** 2

        coarse = (logp(phi + h) - logp(phi - h)) / (2.0 * h)
        fine = (logp(phi + 0.5 * h) - logp(phi - 0.5 * h)) / h
        score = (4.0 * fine - coarse) / 3.0
    np.square(score, out=score)  # the weighted sum of score**2, in place
    score *= weight
    return float(score.sum())

"""Quantum and classical Fisher information for the supported measurements.

``fi_numeric`` derives the classical Fisher information mechanically from
the outcome likelihoods (sums over ``count_law``, Gauss-Hermite quadrature
over quadratures), while ``fi_analytic`` ships the ideal-parameter closed
forms.  The numeric path is the ground truth they are validated against.
"""

from __future__ import annotations

import functools
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

    derivative     -- analytic d(mean)/d(phi) where available, or the one
                      central-difference rule (step DIFFERENCE_STEP, one
                      Richardson level) for counts and quadratures alike
    phi_zero_surrogate -- displaced counting is evaluated here when asked
                      for phi = 0 exactly, where the ideal likelihood is
                      degenerate; the substitution is flagged in the result

    Count sums run over the terms of ``count_law``, which stops at
    COUNT_TAIL_MASS; continuous outcomes use the QUAD_POINTS-node rule.
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
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
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
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    if scheme is Scheme.DISPLACED_COUNTING:
        if det is None:
            det = DetectorModel()
        phi_eval, substituted = (opts.phi_zero_surrogate, True) if phi == 0.0 else (phi, False)
        fi = _fi_onoff if det.kind is DetectorKind.ON_OFF else _fi_counts
        value = fi(phi_eval, count_model(probe, det, model), opts)
        return FiResult(value, phi, phi_eval, substituted)
    if scheme is Scheme.HOMODYNE:
        return FiResult(_fi_homodyne(phi, probe, opts), phi, phi, False)
    if scheme is Scheme.HETERODYNE:
        return FiResult(_fi_heterodyne(phi, probe, opts), phi, phi, False)
    raise ValueError(f"unknown scheme {scheme!r}")


def count_law(phi: float, counts: CountModel,
              terms: int | None = None) -> tuple[list[float], list[float]]:
    """The lists (p_n, dp_n/dphi), n = 0, 1, 2, ..., up to the first n at
    which 1 - (p_0 + ... + p_n), summed left to right, falls below
    ``COUNT_TAIL_MASS``, or ``terms`` of them: the terms of the count sums.

    Component w Pois(lam) adds w*p_n, with p_n = p_{n-1} * (lam / n), and
    w*dlam*(p_{n-1} - p_n), free of any division by a vanishing mean, until
    p_n underflows to 0, and (0, 0) from there.  The first runs on local
    floats, so one component costs one Poisson loop; others ride in lists.
    """
    lams = [float(lam) for lam in counts.means(phi)]
    if any(map(math.isnan, lams)):  # a NaN mass never underflows, so the sum would not end
        raise FiConvergenceError(f"count mean is NaN at phi={phi!r}: the intensities overflow")
    (p, prev, lam, w, wdlam), *others = [
        [math.exp(-lam), 0.0, lam, w, w * float(dlam)]
        for w, lam, dlam in zip(counts.weights, lams, counts.dmeans(phi))]
    masses, slopes = [], []
    total, n = 0.0, 0
    while True:
        n += 1
        live = p
        p_n = w * p
        dp_n = wdlam * (prev - p) if p else 0.0
        prev, p = p, p * (lam / n)
        for other in others:
            q, q_prev, lam_q, w_q, wdlam_q = other
            if q:
                p_n += w_q * q
                dp_n += wdlam_q * (q_prev - q)
                other[0] = q * (lam_q / n)
                other[1] = q
                live = True
        if not (live or terms):  # every mass has underflowed: the tail is out of reach
            raise FiConvergenceError(
                f"count distribution did not reach tail mass {COUNT_TAIL_MASS:g} after "
                f"{len(masses)} terms at mean count {max(lams):.6g} (phi={phi!r}); above "
                "about 700 counts exp(-mean) underflows and the count masses lose mass")
        masses.append(p_n)
        slopes.append(dp_n)
        total += p_n
        if n == terms or (terms is None and 1.0 - total < COUNT_TAIL_MASS):
            return masses, slopes


def _central_difference(f, phi: float):
    """d f/d phi: central differences of step DIFFERENCE_STEP and h/2, one Richardson level."""
    h = DIFFERENCE_STEP
    coarse = (f(phi + h) - f(phi - h)) / (2.0 * h)
    fine = (f(phi + 0.5 * h) - f(phi - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


def _count_table(phi: float, counts: CountModel, opts: FiOptions, terms: int | None = None):
    """:func:`count_law` with the slopes of ``opts.derivative``, on the terms phi needs."""
    masses, slopes = count_law(phi, counts, terms)
    if opts.derivative is DerivativeRule.CENTRAL_DIFFERENCE:
        slopes = _central_difference(
            lambda x: np.array(count_law(x, counts, len(masses))[0]), phi).tolist()
    return masses, slopes


def _fi_counts(phi: float, counts: CountModel, opts: FiOptions) -> float:
    total = 0.0
    for p, dp in zip(*_count_table(phi, counts, opts)):
        if p > PROB_FLOOR:
            total += dp * dp / p
    return total


def _fi_onoff(phi: float, counts: CountModel, opts: FiOptions) -> float:
    # silence is the n = 0 count, (0, 0) once every component's p0 underflows
    (p0,), (dp0,) = _count_table(phi, counts, opts, terms=1)
    p_click = counts.silent_click(phi)[1]
    total = dp0 * dp0 / p0 if p0 > PROB_FLOOR else 0.0
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
        score = _central_difference(lambda p: -((x - float(homodyne_mean(p, probe))) ** 2), phi)
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
        score = _central_difference(lambda p: -((re - probe.alpha * math.cos(p)) ** 2)
                                    - (im - probe.alpha * math.sin(p)) ** 2, phi)
    np.square(score, out=score)  # the weighted sum of score**2, in place
    score *= weight
    return float(score.sum())

"""Quantum and classical Fisher information for the supported measurements.

``fi_numeric`` derives the classical Fisher information mechanically from
the outcome likelihoods (summing over counts, Gauss-Hermite quadrature over
quadratures), while ``fi_analytic`` ships the ideal-parameter closed forms.
The numeric path is the ground truth the closed forms are validated against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .photonics import (
    DetectorKind,
    DetectorModel,
    LikelihoodModel,
    ProbeConfig,
    fringe_mean,
    fringe_mean_derivative,
    homodyne_mean,
    mixture_component_means,
    mixture_interfering_mean_derivative,
    mixture_weights,
    require_matched_amplitudes,
)

# Terms with probability below this are skipped in count sums (0*inf guard).
PROB_FLOOR = 1e-300

# Hard cap on the number of count terms before declaring non-convergence.
MAX_COUNT_TERMS = 1_000_000


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
                      differences with one Richardson extrapolation level
    step           -- central-difference step in radians
    count_tail_mass -- stop summing count outcomes once the residual
                      probability mass falls below this (must be <= 1e-6)
    quad_points    -- Gauss-Hermite nodes for continuous outcomes (>= 64)
    phi_zero_surrogate -- displaced counting is evaluated here when asked
                      for phi = 0 exactly, where the ideal likelihood is
                      degenerate; the substitution is flagged in the result
    """

    derivative: DerivativeRule = DerivativeRule.ANALYTIC
    step: float = 1e-5
    count_tail_mass: float = 1e-14
    quad_points: int = 128
    phi_zero_surrogate: float = 1e-6

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step!r}")
        if not 0.0 < self.count_tail_mass <= 1e-6:
            raise ValueError(
                f"count_tail_mass must lie in (0, 1e-6], got {self.count_tail_mass!r}"
            )
        if self.quad_points < 64:
            raise ValueError(f"quad_points must be >= 64, got {self.quad_points!r}")
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
    below ``opts.count_tail_mass``; continuous outcomes are integrated by
    Gauss-Hermite quadrature.  ``det`` defaults to an ideal number-resolving
    detector and is ignored by the homodyne/heterodyne schemes, whose
    densities carry no detector imperfections.
    """
    if scheme is Scheme.DISPLACED_COUNTING:
        if det is None:
            det = DetectorModel()
        phi_eval, substituted = (opts.phi_zero_surrogate, True) if phi == 0.0 else (phi, False)
        if det.kind is DetectorKind.ON_OFF:
            value = _fi_onoff(phi_eval, probe, det, opts, model)
        else:
            value = _fi_counts(phi_eval, probe, det, opts, model)
        return FiResult(value, phi, phi_eval, substituted)
    if scheme is Scheme.HOMODYNE:
        return FiResult(_fi_homodyne(phi, probe, opts), phi, phi, False)
    if scheme is Scheme.HETERODYNE:
        return FiResult(_fi_heterodyne(phi, probe, opts), phi, phi, False)
    raise ValueError(f"unknown scheme {scheme!r}")


def _count_pmf_stream(phi: float, probe, det, model):
    """Yield (p_n, dp_n/dphi) pairs for n = 0, 1, 2, ... with analytic derivatives.

    Both models are (mixtures of) Poisson families, so the derivative of the
    n-th mass is d(lam)/dphi * (p_{n-1} - p_n) componentwise, which avoids
    dividing by a vanishing mean near perfect nulling.
    """
    if model is LikelihoodModel.POISSON_FRINGE:
        lam = float(fringe_mean(phi, probe, det))
        dlam = float(fringe_mean_derivative(phi, probe, det))
        p = math.exp(-lam)
        prev = 0.0
        n = 0
        while True:
            yield p, dlam * (prev - p)
            prev = p
            p *= lam / (n + 1)
            n += 1
    else:
        require_matched_amplitudes(probe)
        w1, w2 = mixture_weights(det)
        lam1, lam2 = (float(v) for v in mixture_component_means(phi, probe, det))
        dlam1 = float(mixture_interfering_mean_derivative(phi, probe, det))
        a, b = math.exp(-lam1), math.exp(-lam2)
        a_prev = 0.0
        n = 0
        while True:
            yield w1 * a + w2 * b, w1 * dlam1 * (a_prev - a)
            a_prev = a
            a *= lam1 / (n + 1)
            b *= lam2 / (n + 1)
            n += 1


def _fi_counts(phi: float, probe, det, opts: FiOptions, model) -> float:
    if opts.derivative is DerivativeRule.ANALYTIC:
        streams = [_count_pmf_stream(phi, probe, det, model)]

        def term(values):
            (p, dp), = values
            return p, dp
    else:
        h = opts.step
        offsets = (phi + h, phi - h, phi + 0.5 * h, phi - 0.5 * h, phi)
        streams = [_count_pmf_stream(x, probe, det, model) for x in offsets]

        def term(values):
            (pp, _), (pm, _), (pp2, _), (pm2, _), (p0, _) = values
            coarse = (pp - pm) / (2.0 * h)
            fine = (pp2 - pm2) / h
            return p0, (4.0 * fine - coarse) / 3.0

    total = 0.0
    mass = 0.0
    for n in range(MAX_COUNT_TERMS):
        p, dp = term([next(s) for s in streams])
        if p > PROB_FLOOR:
            total += dp * dp / p
        mass += p
        if 1.0 - mass < opts.count_tail_mass:
            return total
    raise FiConvergenceError(
        f"count sum did not reach tail mass {opts.count_tail_mass:g} "
        f"within {MAX_COUNT_TERMS} terms (phi={phi!r})"
    )


def _silent_probability(phi: float, probe, det, model) -> float:
    if model is LikelihoodModel.POISSON_FRINGE:
        return math.exp(-float(fringe_mean(phi, probe, det)))
    require_matched_amplitudes(probe)
    w1, w2 = mixture_weights(det)
    lam1, lam2 = (float(v) for v in mixture_component_means(phi, probe, det))
    return w1 * math.exp(-lam1) + w2 * math.exp(-lam2)


def _fi_onoff(phi: float, probe, det, opts: FiOptions, model) -> float:
    p0 = _silent_probability(phi, probe, det, model)
    if model is LikelihoodModel.POISSON_FRINGE:
        lam = float(fringe_mean(phi, probe, det))
        p_click = float(-np.expm1(-lam))
    else:
        p_click = 1.0 - p0

    if opts.derivative is DerivativeRule.ANALYTIC:
        if model is LikelihoodModel.POISSON_FRINGE:
            dp0 = -float(fringe_mean_derivative(phi, probe, det)) * p0
        else:
            w1, _ = mixture_weights(det)
            lam1, _ = mixture_component_means(phi, probe, det)
            dlam1 = float(mixture_interfering_mean_derivative(phi, probe, det))
            dp0 = -w1 * dlam1 * math.exp(-float(lam1))
    else:
        h = opts.step
        coarse = (
            _silent_probability(phi + h, probe, det, model)
            - _silent_probability(phi - h, probe, det, model)
        ) / (2.0 * h)
        fine = (
            _silent_probability(phi + 0.5 * h, probe, det, model)
            - _silent_probability(phi - 0.5 * h, probe, det, model)
        ) / h
        dp0 = (4.0 * fine - coarse) / 3.0

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


def _fi_homodyne(phi: float, probe, opts: FiOptions) -> float:
    # x = mean + t with t the Hermite nodes: the density has variance 1/2,
    # so log p(x|phi) = -(x - mean(phi))^2 + const.
    t, w = _hermgauss_normalized(opts.quad_points)
    mean = float(homodyne_mean(phi, probe))
    if opts.derivative is DerivativeRule.ANALYTIC:
        dmean = math.sqrt(2.0) * probe.alpha * math.cos(phi)
        score = 2.0 * t * dmean
    else:
        x = mean + t
        h = opts.step

        def logp(p):
            return -((x - float(homodyne_mean(p, probe))) ** 2)

        coarse = (logp(phi + h) - logp(phi - h)) / (2.0 * h)
        fine = (logp(phi + 0.5 * h) - logp(phi - 0.5 * h)) / h
        score = (4.0 * fine - coarse) / 3.0
    return float(np.dot(w, score**2))


def _fi_heterodyne(phi: float, probe, opts: FiOptions) -> float:
    t, w = _hermgauss_normalized(opts.quad_points)
    mx = probe.alpha * math.cos(phi)
    my = probe.alpha * math.sin(phi)
    if opts.derivative is DerivativeRule.ANALYTIC:
        dmx, dmy = -my, mx
        # score(u, v) = 2*u*dmx + 2*v*dmy on the product Hermite grid
        u = t[:, None]
        v = t[None, :]
        score = 2.0 * (u * dmx + v * dmy)
    else:
        re = mx + t[:, None]
        im = my + t[None, :]
        h = opts.step

        def logp(p):
            cx = probe.alpha * math.cos(p)
            cy = probe.alpha * math.sin(p)
            return -((re - cx) ** 2) - (im - cy) ** 2

        coarse = (logp(phi + h) - logp(phi - h)) / (2.0 * h)
        fine = (logp(phi + 0.5 * h) - logp(phi - 0.5 * h)) / h
        score = (4.0 * fine - coarse) / 3.0
    weight = w[:, None] * w[None, :]
    return float(np.sum(weight * score**2))

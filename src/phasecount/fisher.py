"""Quantum and classical Fisher information for the supported measurements.

``fi_numeric`` derives the classical Fisher information mechanically from
the outcome likelihoods (sums over ``count_law``, Gauss-Hermite quadrature
over quadratures), with one analytic derivative d(mean)/d(phi) per scheme,
while ``fi_analytic`` ships the ideal-parameter closed forms.  The numeric
path is the ground truth they are validated against.
"""

from __future__ import annotations

import functools
import math
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
    exp_neg,
)
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .photonics import (
    fringe_mean,
    fringe_mean_derivative,
    homodyne_mean,
    mixture_component_means,
    mixture_interfering_mean_derivative,
)

# Terms with probability below this are skipped in count sums (0*inf guard).
PROB_FLOOR = 1e-300

# Count sums stop once the residual probability mass falls below this.
COUNT_TAIL_MASS = 1e-14

# Displaced counting is evaluated at this phase when asked for phi = 0 exactly,
# where the ideal likelihood is degenerate; the substitution is flagged in the result.
PHI_ZERO_SURROGATE = 1e-6

# Phases per count-law pass: its (phases x terms) arrays stay within a few MB.
PHASE_BLOCK = 256

# Gauss-Hermite nodes for continuous outcomes: 2 would be exact for their quadratic
# log-densities, but the shipped homodyne and heterodyne values carry the bits of 128.
QUAD_POINTS = 128


class FiConvergenceError(RuntimeError):
    """The count-outcome sum failed to reach its tail-mass target."""


class Scheme(Enum):
    DISPLACED_COUNTING = "displaced"
    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"


class FiResult(NamedTuple):
    """Numeric FI value plus where it was evaluated; arrays for an array of phases."""

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
    phi,
    probe: ProbeConfig,
    det: DetectorModel | None = None,
    *,
    model: LikelihoodModel = LikelihoodModel.POISSON_FRINGE,
) -> FiResult:
    """Classical FI computed directly from the outcome likelihood, at a phase
    or over a 1-D array of phases: then every field of the result is an array,
    and each value has the bits of its single-phase call.

    Count outcomes are summed over the terms of ``count_law``, until the
    residual probability mass drops below ``COUNT_TAIL_MASS``, with the
    analytic slopes dp_n/dphi; continuous outcomes are integrated by the
    QUAD_POINTS-node Gauss-Hermite rule with the analytic score.  Displaced
    counting at phi = 0 is evaluated at ``PHI_ZERO_SURROGATE`` and flagged.
    ``det`` defaults to an ideal number-resolving detector and is ignored by
    the homodyne/heterodyne schemes, whose densities carry no detector
    imperfections.
    """
    phis = np.asarray(phi, dtype=float)
    if not np.isfinite(phis).all():
        raise ValueError(f"phi must be finite, got {phi!r}")
    substituted = (phis == 0.0) & (scheme is Scheme.DISPLACED_COUNTING)
    phi_eval = np.where(substituted, PHI_ZERO_SURROGATE, phis)
    if scheme is Scheme.DISPLACED_COUNTING:
        det = det or DetectorModel()
        fi = _fi_onoff if det.kind is DetectorKind.ON_OFF else _fi_counts
        counts, flat = count_model(probe, det, model), np.atleast_1d(phi_eval)
        values = np.concatenate([fi(flat[i:i + PHASE_BLOCK], counts)
                                 for i in range(0, flat.size, PHASE_BLOCK)])
    elif scheme in (Scheme.HOMODYNE, Scheme.HETERODYNE):
        fi = _fi_homodyne if scheme is Scheme.HOMODYNE else _fi_heterodyne
        values = np.array([fi(x, probe) for x in np.ravel(phis).tolist()])
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if phis.ndim == 0:
        return FiResult(float(values[0]), phi, float(phi_eval), bool(substituted))
    return FiResult(values, phi, phi_eval, substituted)


def count_law(phi, counts: CountModel, terms: int | None = None):
    """The count table at a phase or over a 1-D array of phases: arrays
    (masses, slopes) of p_n and dp_n/dphi, a row per phase with n = 0, 1, ...
    along it, and the terms each phase takes: up to the first n at which
    1 - (p_0 + ... + p_n), summed left to right, falls below ``COUNT_TAIL_MASS``,
    or exactly ``terms``.  Component w Pois(lam) adds w*p_n, p_n = p_{n-1}*(lam/n)
    from p_0 = exp(-lam), and w*dlam*(p_{n-1} - p_n) until p_n underflows to 0.
    Both run along the rows in numpy's sequential accumulate, so every entry has
    the bits of the term-by-term recurrence at any window length.  There is one
    window, ``terms`` long or some 8 sd past the largest mean with p_0 > 0, and a
    phase that has not stopped inside it raises ``FiConvergenceError``: on a sweep
    of single Poisson means from 1e-10 to 760 and of both count models from
    intensity 1e-6 to 320, a wider window stopped no phase that this one missed.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    lams = [np.broadcast_to(lam, phi.shape) for lam in counts.means(phi)]
    nan = np.isnan(lams).any(axis=0)
    if nan.any():  # a NaN mass fails the on/off sum's floor tests, which would give 0
        raise FiConvergenceError(
            f"count mean is NaN at phi={float(phi[nan.argmax()])!r}: the intensities overflow")
    components = [(w, lam, exp_neg(lam), w * np.broadcast_to(dlam, phi.shape))
                  for w, lam, dlam in zip(counts.weights, lams, counts.dmeans(phi))]
    top = max(float(lam[p0 > 0.0].max(initial=0.0)) for _, lam, p0, _ in components)
    width = terms or int(top + 8.0 * math.sqrt(top)) + 16
    masses, slopes = None, None
    for w, lam, p0, wdlam in components:
        p = np.empty((phi.size, width))
        p[:, 0] = p0
        np.divide(lam[:, None], np.arange(1.0, width), out=p[:, 1:])
        np.multiply.accumulate(p, axis=1, out=p)
        slope = np.empty_like(p)  # -(p_{n-1} - p_n), exactly, with p_{-1} = 0
        slope[:, 0] = p[:, 0]
        np.subtract(p[:, 1:], p[:, :-1], out=slope[:, 1:])
        slope *= -wdlam[:, None]
        slope[p == 0.0] = 0.0  # an underflowed component adds (0, 0)
        p *= w
        masses = p if masses is None else np.add(masses, p, out=masses)
        slopes = slope if slopes is None else np.add(slopes, slope, out=slopes)
    if terms:
        return masses, slopes, np.full(phi.shape, terms)
    below = 1.0 - np.add.accumulate(masses, axis=1) < COUNT_TAIL_MASS
    stopped = below.any(axis=1)
    if not stopped.all():  # the tail is out of reach
        k = stopped.argmin()
        raise FiConvergenceError(
            f"count distribution did not reach tail mass {COUNT_TAIL_MASS:g}: its masses "
            f"are short of 1 by {1.0 - masses[k].sum():.3g} at mean count "
            f"{max(float(lam[k]) for lam in lams):.6g} (phi={float(phi[k])!r}); above about "
            "700 counts exp(-mean) underflows and the count masses lose mass")
    return masses, slopes, below.argmax(axis=1) + 1


def _fi_counts(phi, counts: CountModel):
    masses, slopes, terms = count_law(phi, counts)
    floor = masses <= PROB_FLOOR
    info = np.divide(np.square(slopes, out=slopes), masses, out=slopes, where=~floor)
    info[floor] = 0.0
    np.add.accumulate(info, axis=1, out=info)
    return info[np.arange(len(terms)), terms - 1]


def _fi_onoff(phi, counts: CountModel):
    # silence is the n = 0 count, (0, 0) once every component's p0 underflows
    masses, slopes, _ = count_law(phi, counts, terms=1)
    p0, info = masses[:, 0], np.square(slopes[:, 0])
    p_click = counts.silent_click(phi)[1]
    total = np.divide(info, p0, out=np.zeros_like(p0), where=p0 > PROB_FLOOR)
    return total + np.divide(info, p_click, out=np.zeros_like(p0), where=p_click > PROB_FLOOR)


@functools.cache
def _hermite_rule():
    """The QUAD_POINTS-node Gauss-Hermite rule for the weight exp(-t^2)/sqrt(pi), nodes,
    weights and product weight w_i w_j on the plane: built once, read-only as shared."""
    nodes, weights = np.polynomial.hermite.hermgauss(QUAD_POINTS)
    weights = weights / math.sqrt(math.pi)
    product = weights[:, None] * weights[None, :]
    nodes.flags.writeable = weights.flags.writeable = product.flags.writeable = False
    return nodes, weights, product


def _fi_homodyne(phi: float, probe) -> float:
    # x = mean + t with t the Hermite nodes: the density has variance 1/2,
    # so log p(x|phi) = -(x - mean(phi))^2 + const, with score 2*t*dmean.
    t, w, _ = _hermite_rule()
    dmean = math.sqrt(2.0) * probe.alpha * math.cos(phi)
    score = 2.0 * t * dmean
    return float(np.dot(w, score**2))


@functools.cache
def _product_rule():
    """The product rule on the plane flattened row-major, as ``score.sum()`` reduces
    a (QUAD_POINTS, QUAD_POINTS) array: node pairs (2*t_i, 2*t_j), weight w_i w_j."""
    t, _, product = _hermite_rule()
    u, v = np.repeat(2.0 * t, QUAD_POINTS), np.tile(2.0 * t, QUAD_POINTS)
    u.flags.writeable = v.flags.writeable = False
    return u, v, product.ravel()


def _fi_heterodyne(phi: float, probe) -> float:
    u, v, weight = _product_rule()
    mx = probe.alpha * math.cos(phi)
    my = probe.alpha * math.sin(phi)
    # score(u, v) = 2*u*dmx + 2*v*dmy with dmx = -my, dmy = mx; 2*t scales exactly
    score = u * -my
    score += v * mx
    np.square(score, out=score)  # the weighted sum of score**2, in place
    score *= weight
    return float(np.add.reduce(score))

"""The supported measurements, and their quantum and classical Fisher information.

``measurement`` resolves a scheme, detector and count model to one of five
measurement kinds, each with its record draw, sufficient statistic, grid
log-likelihood and numeric FI, save homodyne, which has only its FI;
sampling and bayes reach them only through it.
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

HOMODYNE_UNIDENTIFIED = (
    "homodyne cannot estimate phi: its mean sqrt(2)*alpha*sin(phi) is the same at phi and "
    "pi - phi, as sin(phi) = sin(pi - phi) on the estimation domain [0, pi]; homodyne is a "
    "Fisher-information reference only")

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
    values, phi_eval = measurement(scheme, probe, det or DetectorModel(), model).fi(
        np.atleast_1d(phis))
    substituted = phi_eval != phis
    if phis.ndim == 0:
        return FiResult(float(values[0]), phi, float(phi_eval[0]), bool(substituted[0]))
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
    A phase that is not finite raises ``ValueError``.
    """
    if not np.isfinite(phi).all():
        raise ValueError(f"phi must be finite, got {phi!r}")
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    lams = [np.broadcast_to(lam, phi.shape) for lam in counts.means(phi)]
    nan = np.isnan(lams).any(axis=0)
    if nan.any():  # a NaN mass fails the on/off sum's floor tests, which would give 0
        raise FiConvergenceError(f"count mean is NaN at phi={float(phi[nan.argmax()])!r}")
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


# ---------------------------------------------------------------------------
# the measurements
# ---------------------------------------------------------------------------

def measurement(scheme: Scheme, probe: ProbeConfig, det: DetectorModel,
                model: LikelihoodModel) -> Measurement:
    """The measurement of ``scheme``, the one place that tells the kinds apart;
    homodyne and heterodyne ignore the detector and the count model."""
    if scheme is Scheme.HOMODYNE:
        return Homodyne(probe)
    if scheme is Scheme.HETERODYNE:
        return Heterodyne(probe)
    if scheme is not Scheme.DISPLACED_COUNTING:
        raise ValueError(f"unknown scheme {scheme!r}")
    if det.kind is DetectorKind.ON_OFF:
        return OnOff(probe, det, model)
    if model is LikelihoodModel.POISSON_FRINGE:
        return FringeCounts(probe, det, model)
    return MixtureCounts(probe, det, model)


def checked_checkpoints(checkpoints, pulses: int, least: int = 0) -> list[int]:
    """The checkpoints as ints, checked to increase strictly within [least, pulses]:
    a statistic past the record's end would count pulses that were never drawn."""
    ks = [int(k) for k in checkpoints]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if ks and (ks[0] < least or ks[-1] > pulses):
        raise ValueError(f"checkpoints must lie within [{least}, pulses] = [{least}, {pulses}], "
                         f"got {ks[0]} .. {ks[-1]}")
    return ks


class Measurement:
    """One measurement of the probe.

    ``outcomes(phi, pulses)`` and :meth:`statistic_draw` compute the outcome
    law at the true phase once and return a draw from a PCG64 Generator (one
    of ``sampling.trial_streams``).  ``loglik(grid)`` is log p(record | phi)
    over the grid up to additive constants, as a function of one hashable
    sufficient statistic, in a fresh row; everything that depends on the
    measurement alone is evaluated there, once: the count means over the grid
    and their logs, log p0 and log p1, the quadrature means.  ``fi(phis)`` is
    the FI at a 1-D array of phases, and the phases it was evaluated at.
    Homodyne has only ``fi``: the others raise ``HOMODYNE_UNIDENTIFIED``.
    """

    def statistics(self, values: np.ndarray, checkpoints):
        """Yield the statistic of the first k outcomes for each checkpoint k."""
        return self._statistics(values, checked_checkpoints(checkpoints, len(values)))

    def statistic_draw(self, phi: float, pulses: int, checkpoints):
        """A trial's statistics at the checkpoints, as a list: by default the
        record's, drawn and reduced bit for bit."""
        ks = checked_checkpoints(checkpoints, pulses)
        outcomes = self.outcomes(phi, pulses)
        return lambda rng: list(self._statistics(outcomes(rng), ks))


class _Counting(Measurement):
    """Displaced counting: counts drawn by inverse-CDF lookup on the count table,
    and the FI in blocks of phases, phi = 0 evaluated at ``PHI_ZERO_SURROGATE``."""

    def __init__(self, probe: ProbeConfig, det: DetectorModel, model: LikelihoodModel):
        self.counts = count_model(probe, det, model)

    def table(self, phi: float) -> np.ndarray:
        """``sampling.count_distribution``: the masses of :func:`count_law` at ``phi``."""
        masses, _, (terms,) = count_law(phi, self.counts)
        return masses[0, :terms]

    def outcomes(self, phi: float, pulses: int):
        cdf = np.cumsum(self.table(phi))

        def outcomes(rng):
            draws = np.searchsorted(cdf, rng.random(pulses), side="right")
            np.minimum(draws, len(cdf) - 1, out=draws)
            return draws.astype(np.int64, copy=False)
        return outcomes

    def fi(self, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi_eval = np.where(phis == 0.0, PHI_ZERO_SURROGATE, phis)
        values = np.empty_like(phi_eval)
        for i in range(0, phi_eval.size, PHASE_BLOCK):
            values[i:i + PHASE_BLOCK] = self._fi(phi_eval[i:i + PHASE_BLOCK])
        return values, phi_eval

    def _fi(self, phi):
        masses, slopes, terms = count_law(phi, self.counts)
        floor = masses <= PROB_FLOOR
        info = np.divide(np.square(slopes, out=slopes), masses, out=slopes, where=~floor)
        info[floor] = 0.0
        np.add.accumulate(info, axis=1, out=info)
        return info[np.arange(len(terms)), terms - 1]


class OnOff(_Counting):
    """Displaced counting with an on/off detector."""

    def outcomes(self, phi: float, pulses: int):
        p_click = self.counts.silent_click(phi)[1]
        return lambda rng: rng.random(pulses) < p_click

    def _statistics(self, values, checkpoints):
        clicks, prev = 0, 0
        for k in checkpoints:
            clicks += int(np.count_nonzero(values[prev:k]))
            prev = k
            yield k - clicks, clicks

    def loglik(self, grid):
        # + 0.0 turns -0.0 (log p0 = -lam at lam = 0) into 0.0, so that a row,
        # one product and one sum, has the bits of its terms added to a zero row
        log_p0, log_p1 = (log_p + 0.0 for log_p in self.counts.log_silent_click(grid))

        def click(statistic):
            n_silent, n_click = statistic
            # 0 * log p1 is NaN where an ideal detector nulls, log p1 = -inf
            if not n_click:
                return log_p0 * n_silent if n_silent else np.zeros_like(grid)
            row = log_p1 * n_click
            if n_silent:
                row += log_p0 * n_silent
            return row
        return click

    def _fi(self, phi):
        # silence is the n = 0 count, (0, 0) once every component's p0 underflows
        masses, slopes, _ = count_law(phi, self.counts, terms=1)
        p0, info = masses[:, 0], np.square(slopes[:, 0])
        p_click = self.counts.silent_click(phi)[1]
        total = np.divide(info, p0, out=np.zeros_like(p0), where=p0 > PROB_FLOOR)
        return total + np.divide(info, p_click, out=np.zeros_like(p0), where=p_click > PROB_FLOOR)


class FringeCounts(_Counting):
    """Number-resolving counts under the one-component (poisson-fringe) count
    model.  A record enters the likelihood only through (k, S), its pulses
    and total count: S log(lam) - k lam, taken relative to its value at
    lam = S/k so that the large constant never reaches the subtraction.  Each
    checkpoint segment of Δk pulses draws its total count from its exact law,
    Poisson(Δk·λ(φ_true)), in one call per trial: the record's law, not its bits.
    """

    def _statistics(self, values, checkpoints):
        total, prev = 0, 0
        for k in checkpoints:
            total += int(values[prev:k].sum())
            prev = k
            yield k, total

    def statistic_draw(self, phi: float, pulses: int, checkpoints):
        ks = checked_checkpoints(checkpoints, pulses)
        (lam,) = self.counts.means(phi)
        means = float(lam) * np.diff(ks, prepend=0)
        return lambda rng: list(zip(ks, np.cumsum(rng.poisson(means)).tolist()))

    def loglik(self, grid):
        (lam,) = self.counts.means(grid)
        if lam.all():
            log1p = np.log1p
        else:  # lam = 0, an ideal detector's null: log1p(-1) = -inf
            def log1p(x):  # np.errstate costs about a grid pass: only here
                with np.errstate(divide="ignore"):
                    return np.log1p(x)

        def centred(statistic):
            k, s = statistic
            # S log(lam) - k lam less its value at the peak lam = S/k, so that
            # no large constant cancels when the posterior takes off its peak
            if s == 0:
                return lam * -k
            x = lam * (k / s)
            x -= 1.0
            row = log1p(x)
            row -= x
            row *= s
            return row
        return centred


class MixtureCounts(_Counting):
    """Number-resolving counts under the visibility-mixture count model, with
    the count histogram of counts 0 up to their largest as the statistic.
    Each checkpoint segment of Δk pulses draws its histogram from its exact
    law, Multinomial(Δk, p) over the count table, whose last entry takes the
    tail mass as the record's clamp does, in one call per trial; each
    histogram ends at the largest count at its checkpoint."""

    def _statistics(self, values, checkpoints):
        histogram = np.zeros(int(values.max(initial=0)) + 1, dtype=np.int64)
        prev = 0
        for k in checkpoints:
            histogram += np.bincount(values[prev:k], minlength=len(histogram))
            prev = k
            yield tuple(np.trim_zeros(histogram, "b").tolist())

    def statistic_draw(self, phi: float, pulses: int, checkpoints):
        segments = np.diff((0, *checked_checkpoints(checkpoints, pulses)))
        table = self.table(phi)

        def draw_histograms(rng) -> list:
            histograms = np.cumsum(rng.multinomial(segments, table), axis=0)
            return [tuple(np.trim_zeros(row, "b").tolist()) for row in histograms]
        return draw_histograms

    def loglik(self, grid):
        # log p(n | phi) up to the common -lgamma(n+1) constant, per component;
        # a zero-weight component adds nothing and is left out
        with np.errstate(divide="ignore"):
            components = [(math.log(w), lam, np.log(lam))
                          for w, lam in zip(self.counts.weights, self.counts.means(grid))
                          if w > 0.0]

        def component_log_pmf(n, log_w, lam, log_lam):
            part = -lam if n == 0 else n * log_lam - lam
            return part + log_w if log_w else part  # adding 0 would cost a grid pass

        @functools.cache  # per table: a count's row, kept for every histogram that holds it
        def count_row(n):
            return (functools.reduce(np.logaddexp,
                                     [component_log_pmf(n, *c) for c in components])
                    - math.lgamma(n + 1))

        def counts(histogram):
            total = np.zeros_like(grid)
            for n, multiplicity in enumerate(histogram):
                if multiplicity:
                    total += multiplicity * count_row(n)
            return total
        return counts


@functools.cache
def _hermite_rule():
    """The QUAD_POINTS-node Gauss-Hermite rule for the weight exp(-t^2)/sqrt(pi), nodes,
    weights and product weight w_i w_j on the plane: built once, read-only as shared."""
    nodes, weights = np.polynomial.hermite.hermgauss(QUAD_POINTS)
    weights = weights / math.sqrt(math.pi)
    product = weights[:, None] * weights[None, :]
    nodes.flags.writeable = weights.flags.writeable = product.flags.writeable = False
    return nodes, weights, product


@functools.cache
def _product_rule():
    """The first half of the row-major flattened product rule on the plane, as
    ``score.sum()`` reduces a (QUAD_POINTS, QUAD_POINTS) array: (2*t_i, 2*t_j), w_i w_j.

    ``hermgauss`` nodes are negatives of each other and weights equal in mirrored
    places, bit for bit, so the other half of the heterodyne FI terms is this half
    reversed (scores differ only in sign). numpy sums 2n contiguous terms (n a multiple
    of 8, 2n > 128) as its two halves' pairwise sums added, which ``Heterodyne._fi``
    adds itself: the half's sum plus its reverse's keeps the full sum's bits."""
    t, _, product = _hermite_rule()
    rows = QUAD_POINTS // 2
    u, v = np.repeat(2.0 * t[:rows], QUAD_POINTS), np.tile(2.0 * t, rows)
    u.flags.writeable = v.flags.writeable = False
    return u, v, product[:rows].ravel()


class _Quadrature(Measurement):
    """A quadrature measurement, its FI taken phase by phase."""

    def __init__(self, probe: ProbeConfig):
        self.probe = probe

    def fi(self, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self._fi(x) for x in phis.tolist()]), phis.copy()


class Homodyne(_Quadrature):
    """Static homodyne, a Fisher-information reference only (``HOMODYNE_UNIDENTIFIED``)."""

    def _refuse(self, *args):
        raise ValueError(HOMODYNE_UNIDENTIFIED)

    outcomes = statistics = statistic_draw = loglik = _refuse

    def _fi(self, phi: float) -> float:
        # x = mean + t with t the Hermite nodes: the density has variance 1/2,
        # so log p(x|phi) = -(x - mean(phi))^2 + const, with score 2*t*dmean.
        t, w, _ = _hermite_rule()
        dmean = math.sqrt(2.0) * self.probe.alpha * math.cos(phi)
        score = 2.0 * t * dmean
        return float(np.dot(w, score**2))


class Heterodyne(_Quadrature):
    def _statistics(self, values, checkpoints):
        # each prefix is summed afresh: chunked float sums round differently
        for k in checkpoints:
            head = values[:k]
            yield k, complex(np.sum(head)), float(np.sum(head.real**2 + head.imag**2))

    def outcomes(self, phi: float, pulses: int):
        mx, my = self.probe.alpha * math.cos(phi), self.probe.alpha * math.sin(phi)

        def outcomes(rng):
            noise = math.sqrt(0.5) * rng.standard_normal((pulses, 2))
            return (mx + noise[:, 0]) + 1j * (my + noise[:, 1])
        return outcomes

    def loglik(self, grid):
        mx = self.probe.alpha * np.cos(grid)
        my = self.probe.alpha * np.sin(grid)
        m2 = mx * mx + my * my

        def heterodyne(statistic):
            k, s1, s2 = statistic
            return -(s2 - 2.0 * (mx * s1.real + my * s1.imag) + k * m2)
        return heterodyne

    def _fi(self, phi: float) -> float:
        u, v, weight = _product_rule()
        mx = self.probe.alpha * math.cos(phi)
        my = self.probe.alpha * math.sin(phi)
        # score(u, v) = 2*u*dmx + 2*v*dmy with dmx = -my, dmy = mx; 2*t scales exactly
        score = u * -my + v * mx
        np.square(score, out=score)  # the weighted sum of score**2, in place
        score *= weight
        # the second half of the terms is the first reversed (``_product_rule``)
        return float(np.add.reduce(score) + np.add.reduce(score[::-1]))

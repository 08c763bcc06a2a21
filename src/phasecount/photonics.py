"""Physical models for a displaced-photon-counting phase sensor.

The probe is a weak coherent pulse of amplitude ``alpha`` that picks up an
unknown phase shift ``phi``.  The receiver displaces the field by ``-beta``
(nominally ``beta == alpha``, which nulls the signal at ``phi = 0``) and
counts the residual photons.  This module evaluates the detector POVM and
the outcome likelihoods of that receiver, plus the quadrature mean of the
homodyne reference.

Quadrature convention: vacuum variance 1/2, i.e. x = (a + a^dag)/sqrt(2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# Relative amplitude mismatch tolerated by the matched-amplitude mixture model.
AMPLITUDE_MATCH_RTOL = 1e-6

# Maximum probability mass allowed beyond the Fock cutoff when building states.
STATE_TAIL_GUARD = 1e-12


class ModelMismatchError(ValueError):
    """A likelihood model was asked to operate outside its validity range."""


class FockTruncationError(RuntimeError):
    """The configured Fock cutoff leaves too much probability mass uncaptured."""


class DetectorKind(Enum):
    NUMBER_RESOLVING = "pnrd"
    ON_OFF = "onoff"


class LikelihoodModel(Enum):
    """Count-statistics model for the displaced-counting receiver.

    VISIBILITY_MIXTURE
        Visibility-weighted mixture of the nulled-mode Poisson statistics
        and a phase-insensitive Poisson background, renormalized to unit
        mass.  Only valid for matched amplitudes (``beta == alpha``).
    POISSON_FRINGE
        Single Poisson distribution whose mean follows the interference
        fringe ``eta*(alpha^2 + beta^2 - 2*xi*alpha*beta*cos(phi)) + nu``.
        Handles amplitude mismatch and reduces to the nulled-mode model
        for matched, ideal parameters.
    """

    VISIBILITY_MIXTURE = "visibility-mixture"
    POISSON_FRINGE = "poisson-fringe"


@dataclass(frozen=True)
class ProbeConfig:
    """Coherent amplitudes of the signal (``alpha``) and the displacement (``beta``).

    Both are real and nonnegative; ``alpha**2`` is the mean photon number
    per pulse of the signal.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        # bounds every product in fringe_mean and mixture_component_means,
        # the largest of which is 4*alpha*beta <= 2*(alpha^2 + beta^2)
        if not math.isfinite(4.0 * (self.alpha * self.alpha + self.beta * self.beta)):
            raise ValueError(f"intensities overflow: 4*(alpha^2 + beta^2) must be finite, "
                             f"got alpha={self.alpha!r}, beta={self.beta!r}")

    @classmethod
    def from_intensities(cls, signal: float, displacement: float | None = None) -> "ProbeConfig":
        """Build from mean photon numbers |alpha|^2 and |beta|^2."""
        if signal < 0.0:
            raise ValueError("signal intensity must be >= 0")
        if displacement is None:
            displacement = signal
        if displacement < 0.0:
            raise ValueError("displacement intensity must be >= 0")
        return cls(alpha=math.sqrt(signal), beta=math.sqrt(displacement))


@dataclass(frozen=True)
class DetectorModel:
    """Detector imperfections.

    eta  -- detection efficiency in [0, 1]
    nu   -- dark counts per pulse, >= 0
    xi   -- interference visibility in [0, 1]
    kind -- photon-number resolving or click/no-click
    """

    eta: float = 1.0
    nu: float = 0.0
    xi: float = 1.0
    kind: DetectorKind = DetectorKind.NUMBER_RESOLVING

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu!r}")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {self.xi!r}")


def _cutoff_for(mean_photons: float) -> int:
    return max(30, math.ceil(mean_photons + 10.0 * math.sqrt(mean_photons)))


# ---------------------------------------------------------------------------
# helpers shared by the likelihood models
# ---------------------------------------------------------------------------

def fringe_mean(phi, probe: ProbeConfig, det: DetectorModel):
    """Mean detected count of the single-Poisson interference-fringe model.

    eta*((alpha-beta)^2 + 2*alpha*beta*(1-xi) + 4*xi*alpha*beta*sin^2(phi/2)) + nu,
    which equals eta*(alpha^2 + beta^2 - 2*xi*alpha*beta*cos(phi)) + nu.
    """
    a, b = probe.alpha, probe.beta
    s = np.sin(np.asarray(phi, dtype=float) / 2.0)
    mismatch = (a - b) ** 2 + 2.0 * a * b * (1.0 - det.xi)
    return det.eta * (mismatch + 4.0 * det.xi * a * b * s * s) + det.nu


def fringe_mean_derivative(phi, probe: ProbeConfig, det: DetectorModel):
    """d/dphi of :func:`fringe_mean`."""
    return 2.0 * det.eta * det.xi * probe.alpha * probe.beta * np.sin(np.asarray(phi, dtype=float))


def mixture_weights(det: DetectorModel) -> tuple[float, float]:
    """Normalized weights of the interfering and background mixture components."""
    w_interfering = det.xi / (2.0 - det.xi)
    w_background = 2.0 * (1.0 - det.xi) / (2.0 - det.xi)
    return w_interfering, w_background


def mixture_component_means(phi, probe: ProbeConfig, det: DetectorModel):
    """Poisson means (interfering, background) of the matched-amplitude mixture."""
    a = probe.alpha
    s = np.sin(np.asarray(phi, dtype=float) / 2.0)
    lam_interfering = 4.0 * det.eta * a * a * s * s + det.nu
    lam_background = det.eta * a * a + det.nu
    return lam_interfering, lam_background


def mixture_interfering_mean_derivative(phi, probe: ProbeConfig, det: DetectorModel):
    return 2.0 * det.eta * probe.alpha**2 * np.sin(np.asarray(phi, dtype=float))


def require_matched_amplitudes(probe: ProbeConfig) -> None:
    """Raise unless beta matches alpha to within AMPLITUDE_MATCH_RTOL."""
    scale = max(probe.alpha, probe.beta)
    if scale > 0.0 and abs(probe.alpha - probe.beta) > AMPLITUDE_MATCH_RTOL * scale:
        raise ModelMismatchError(
            "the visibility-mixture model assumes matched amplitudes; "
            f"got alpha={probe.alpha!r}, beta={probe.beta!r} "
            f"(relative mismatch {abs(probe.alpha - probe.beta) / scale:.3g})"
        )


def require_finite_means(probe: ProbeConfig, det: DetectorModel) -> None:
    """Raise unless 4*(alpha^2 + beta^2) + nu, which bounds every count mean, is finite."""
    if not math.isfinite(4.0 * (probe.alpha * probe.alpha + probe.beta * probe.beta) + det.nu):
        raise ValueError(f"nu overflows the count mean: 4*(alpha^2 + beta^2) + nu must be "
                         f"finite, got nu={det.nu!r} at alpha={probe.alpha!r}, beta={probe.beta!r}")


def exp_neg(lam):
    """exp(-lam) by libm per element; numpy's SIMD exp may differ in the last ulp."""
    return np.array([math.exp(-x) for x in np.ravel(lam).tolist()]).reshape(np.shape(lam))


def _poisson_pmf(n: int, lam: float) -> float:
    if lam < 0.0:
        raise ValueError(f"Poisson mean must be >= 0, got {lam!r}")
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))


@dataclass(frozen=True)
class CountModel:
    """The detected count as a Poisson mixture sum_i w_i Pois(lam_i(phi)).

    weights -- component weights w_i, summing to 1
    means   -- phi -> (lam_1(phi), lam_2(phi), ...), elementwise over arrays
    dmeans  -- phi -> (d lam_1/d phi, ...), same shape as ``means``

    Built only by :func:`count_model`; every count and click likelihood,
    Fisher-information sum, sampler table and grid log-likelihood is
    derived from these three fields.
    """

    weights: tuple[float, ...]
    means: Callable
    dmeans: Callable

    def silent_click(self, phi):
        """Probabilities of no click and of a click at a phase or an array of phases."""
        lams = self.means(phi)
        p0 = sum([w * exp_neg(lam) for w, lam in zip(self.weights, lams)])
        if len(lams) == 1:
            # one Poisson: expm1 keeps the click probability accurate at small means
            return p0, -np.expm1(-lams[0])
        return p0, 1.0 - p0

    def log_silent_click(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """log p(no click) and log p(click) over an array of phases."""
        lams = self.means(phi)
        with np.errstate(divide="ignore"):
            if len(lams) == 1:
                return -lams[0], np.log(-np.expm1(-lams[0]))
            p0 = sum(w * np.exp(-lam) for w, lam in zip(self.weights, lams))
            return np.log(p0), np.log1p(-p0)


def count_model(probe: ProbeConfig, det: DetectorModel, model: LikelihoodModel) -> CountModel:
    """The count model of ``model`` for this probe and detector.

    A new Poisson-mixture noise model is one more branch here.  The means
    look ``fringe_mean`` and its kin up at call time.
    """
    require_finite_means(probe, det)
    if model is LikelihoodModel.POISSON_FRINGE:
        return CountModel(
            weights=(1.0,),
            means=lambda phi: (fringe_mean(phi, probe, det),),
            dmeans=lambda phi: (fringe_mean_derivative(phi, probe, det),),
        )
    require_matched_amplitudes(probe)
    return CountModel(
        weights=mixture_weights(det),
        means=lambda phi: mixture_component_means(phi, probe, det),
        dmeans=lambda phi: (mixture_interfering_mean_derivative(phi, probe, det), 0.0),
    )


# ---------------------------------------------------------------------------
# detector POVM
# ---------------------------------------------------------------------------

def povm_element(n: int, det: DetectorModel, cutoff: int | None = None) -> np.ndarray:
    """Diagonal coefficients of the lossy, dark-count-afflicted counter POVM.

    Element ``n`` of a number-resolving detector with efficiency ``eta`` and
    dark-count rate ``nu`` acts diagonally in the Fock basis.  The returned
    vector holds the coefficient of |k><k| for k = 0..cutoff:

        c_k = e^{-nu} * sum_{l=0}^{n} (nu^l / l!) * C(k, n-l)
              * eta^{n-l} * (1-eta)^{k-(n-l)}

    i.e. binomial photon loss followed by Poisson dark-count convolution.
    """
    if n < 0:
        raise ValueError(f"photon-count outcome must be >= 0, got {n!r}")
    if det.kind is not DetectorKind.NUMBER_RESOLVING:
        raise ValueError("povm_element is defined for number-resolving detectors")
    if cutoff is None:
        cutoff = _cutoff_for(0.0)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff!r}")

    coeffs = np.zeros(cutoff + 1)
    dark = math.exp(-det.nu)  # Poisson(nu) mass at l = 0
    for l in range(n + 1):
        detected = n - l
        if detected <= cutoff:
            # binomial factor C(k, detected) eta^detected (1-eta)^(k-detected),
            # built by recurrence in k to avoid factorial overflow
            b = det.eta**detected
            for k in range(detected, cutoff + 1):
                coeffs[k] += dark * b
                b *= (k + 1) / (k + 1 - detected) * (1.0 - det.eta)
                if b == 0.0:
                    break
        dark *= det.nu / (l + 1)
    return coeffs


# ---------------------------------------------------------------------------
# outcome likelihoods
# ---------------------------------------------------------------------------

def pnrd_likelihood(
    n: int,
    phi: float,
    probe: ProbeConfig,
    det: DetectorModel,
    model: LikelihoodModel = LikelihoodModel.POISSON_FRINGE,
) -> float:
    """Probability of counting ``n`` photons at phase shift ``phi``."""
    if n < 0:
        raise ValueError(f"photon-count outcome must be >= 0, got {n!r}")
    if det.kind is not DetectorKind.NUMBER_RESOLVING:
        raise ValueError("pnrd_likelihood needs a number-resolving detector")
    counts = count_model(probe, det, model)
    return sum(w * _poisson_pmf(n, float(lam)) for w, lam in zip(counts.weights, counts.means(phi)))


def onoff_likelihood(
    click: bool,
    phi: float,
    probe: ProbeConfig,
    det: DetectorModel,
    model: LikelihoodModel = LikelihoodModel.POISSON_FRINGE,
) -> float:
    """Probability of a click (or of silence) for a threshold detector."""
    p_silent, p_click = count_model(probe, det, model).silent_click(phi)
    return p_click if click else p_silent


def homodyne_mean(phi, probe: ProbeConfig):
    """Mean of the measured quadrature, sqrt(2)*alpha*sin(phi)."""
    return math.sqrt(2.0) * probe.alpha * np.sin(np.asarray(phi, dtype=float))


# ---------------------------------------------------------------------------
# brute-force Fock-space oracle
# ---------------------------------------------------------------------------

def coherent_number_amplitudes(gamma: complex, cutoff: int) -> np.ndarray:
    """Fock-basis amplitudes of a coherent state, c_k = e^{-|g|^2/2} g^k / sqrt(k!)."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff!r}")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = math.exp(-abs(gamma) ** 2 / 2.0)
    for k in range(cutoff):
        amps[k + 1] = amps[k] * gamma / math.sqrt(k + 1)
    return amps


def born_probability_oracle(n: int, phi: float, probe: ProbeConfig, det: DetectorModel,
                            cutoff: int | None = None) -> float:
    """Outcome probability Tr[Pi_n rho] computed in the truncated Fock basis.

    Builds the photon-number distribution of the displaced signal
    |alpha e^{i phi} - beta> and contracts it with :func:`povm_element`.
    Deliberately independent of the closed-form likelihoods so it can serve
    as their cross-check; models no mode mismatch, hence requires xi = 1.
    The Fock truncation ``cutoff`` defaults to ``max(30, ceil(mu + 10*sqrt(mu)))``
    for the displaced signal's mean photon number ``mu``.
    """
    if n < 0:
        raise ValueError(f"photon-count outcome must be >= 0, got {n!r}")
    if det.kind is not DetectorKind.NUMBER_RESOLVING:
        raise ValueError("the Fock-space oracle needs a number-resolving detector")
    if det.xi != 1.0:
        raise ValueError("the Fock-space oracle models no mode mismatch; set xi = 1")

    gamma = probe.alpha * cmath.exp(1j * phi) - probe.beta
    if cutoff is None:
        cutoff = _cutoff_for(abs(gamma) ** 2)
    number_pmf = np.abs(coherent_number_amplitudes(gamma, cutoff)) ** 2
    tail = 1.0 - float(number_pmf.sum())
    if tail > STATE_TAIL_GUARD:
        raise FockTruncationError(
            f"state tail mass {tail:.3e} beyond cutoff {cutoff} exceeds "
            f"{STATE_TAIL_GUARD:g}; raise fock_cutoff"
        )
    return float(np.dot(povm_element(n, det, cutoff=cutoff), number_pmf))

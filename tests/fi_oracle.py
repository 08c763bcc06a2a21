"""Central-difference Fisher information: the oracle for the analytic
derivatives of :func:`phasecount.fi_numeric`.

Every derivative d/dphi is taken by one rule, central differences of step
``STEP`` and ``STEP/2`` combined by one Richardson level, on the same
likelihoods that ``fi_numeric`` differentiates analytically: the count
masses of ``fisher.count_law`` and the Gaussian quadrature log-densities on
the Gauss-Hermite nodes.  Its values are pinned in ``test_count_law_pins``
and ``test_pinned_values`` under the key ``"central"``.
"""

import math

import numpy as np

from phasecount import DetectorKind, DetectorModel, LikelihoodModel, Scheme
from phasecount.fisher import (
    PHASE_BLOCK,
    PHI_ZERO_SURROGATE,
    PROB_FLOOR,
    QUAD_POINTS,
    count_law,
)
from phasecount.photonics import count_model, homodyne_mean

# Step in radians of the central differences.
STEP = 1e-5

# The Gauss-Hermite rule of fi_numeric, for the weight exp(-t^2)/sqrt(pi).
NODES, WEIGHTS = np.polynomial.hermite.hermgauss(QUAD_POINTS)
WEIGHTS = WEIGHTS / math.sqrt(math.pi)


def central_difference(f, phi):
    """d f/d phi: central differences of step STEP and STEP/2, one Richardson level."""
    h = STEP
    coarse = (f(phi + h) - f(phi - h)) / (2.0 * h)
    fine = (f(phi + 0.5 * h) - f(phi - 0.5 * h)) / h
    return (4.0 * fine - coarse) / 3.0


def central_fi(scheme, phi, probe, det=None, *, model=LikelihoodModel.POISSON_FRINGE):
    """The numeric FI of ``fi_numeric`` with every derivative taken by
    :func:`central_difference`: a float at a phase, an array over an array."""
    phis = np.asarray(phi, dtype=float)
    if scheme is Scheme.DISPLACED_COUNTING:
        det = det or DetectorModel()
        fi = _onoff if det.kind is DetectorKind.ON_OFF else _counts
        counts = count_model(probe, det, model)
        flat = np.atleast_1d(np.where(phis == 0.0, PHI_ZERO_SURROGATE, phis))
        values = np.concatenate([fi(flat[i:i + PHASE_BLOCK], counts)
                                 for i in range(0, flat.size, PHASE_BLOCK)])
    else:
        fi = _homodyne if scheme is Scheme.HOMODYNE else _heterodyne
        values = np.array([fi(x, probe) for x in np.ravel(phis).tolist()])
    return float(values[0]) if phis.ndim == 0 else values


def _table(phi, counts, terms=None):
    """count_law's masses and terms, with slopes by differences over its window."""
    masses, _, terms = count_law(phi, counts, terms)
    slopes = central_difference(lambda x: count_law(x, counts, masses.shape[1])[0], phi)
    return masses, slopes, terms


def _counts(phi, counts):
    masses, slopes, terms = _table(phi, counts)
    floor = masses <= PROB_FLOOR
    info = np.divide(np.square(slopes, out=slopes), masses, out=slopes, where=~floor)
    info[floor] = 0.0
    np.add.accumulate(info, axis=1, out=info)
    return info[np.arange(len(terms)), terms - 1]


def _onoff(phi, counts):
    masses, slopes, _ = _table(phi, counts, terms=1)
    p0, info = masses[:, 0], np.square(slopes[:, 0])
    p_click = counts.silent_click(phi)[1]
    total = np.divide(info, p0, out=np.zeros_like(p0), where=p0 > PROB_FLOOR)
    return total + np.divide(info, p_click, out=np.zeros_like(p0), where=p_click > PROB_FLOOR)


def _homodyne(phi, probe):
    x = float(homodyne_mean(phi, probe)) + NODES
    score = central_difference(lambda p: -((x - float(homodyne_mean(p, probe))) ** 2), phi)
    return float(np.dot(WEIGHTS, score**2))


def _heterodyne(phi, probe):
    re = probe.alpha * math.cos(phi) + NODES[:, None]
    im = probe.alpha * math.sin(phi) + NODES[None, :]
    score = central_difference(lambda p: -((re - probe.alpha * math.cos(p)) ** 2)
                               - (im - probe.alpha * math.sin(p)) ** 2, phi)
    np.square(score, out=score)
    score *= WEIGHTS[:, None] * WEIGHTS[None, :]
    return float(score.sum())

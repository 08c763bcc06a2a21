"""Property tests over the count models' parameter range.

Mean counts run from 1e-4 to about 700, every component mean staying below
where exp(-mean) leaves the normal float range.  Both count models; any
efficiency and visibility; dark counts up to 0.1 per pulse.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasecount import (
    DetectorKind,
    DetectorModel,
    LikelihoodModel,
    ProbeConfig,
    Scheme,
    count_distribution,
    fi_analytic,
    fi_numeric,
    pnrd_likelihood,
    qfi_coherent,
)
from phasecount.photonics import count_model

EPS = np.finfo(np.float64).eps

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def count_setups(draw):
    """(phi, probe, det, model): mean count at phi >= 1e-4, and every
    component mean <= eta * (alpha + beta)^2 + nu <= 700.1."""
    model = draw(st.sampled_from(list(LikelihoodModel)))
    # (alpha + beta)^2, the mean count of a lossless detector at the bright fringe
    bright = 10.0 ** draw(st.floats(-4.0, math.log10(700.0)))
    ratio = 1.0 if model is LikelihoodModel.VISIBILITY_MIXTURE else draw(st.floats(0.8, 1.25))
    signal = bright / (1.0 + math.sqrt(ratio)) ** 2
    probe = ProbeConfig.from_intensities(signal, signal * ratio)
    det = DetectorModel(eta=draw(st.floats(0.0, 1.0)), nu=draw(st.floats(0.0, 0.1)),
                        xi=draw(st.floats(0.0, 1.0)))
    phi = draw(st.floats(0.0, math.pi))
    counts = count_model(probe, det, model)
    assume(sum(w * float(lam) for w, lam in zip(counts.weights, counts.means(phi))) >= 1e-4)
    return phi, probe, det, model


@PROPERTY_SETTINGS
@given(count_setups())
def test_count_table_tail_and_entries(setup):
    phi, probe, det, model = setup
    pmf = count_distribution(phi, probe, det, model)
    assert 1.0 - np.cumsum(pmf)[-1] < 1e-14
    # pnrd_likelihood takes exp(n log lam - lam - lgamma(n + 1)): the exponent
    # carries a rounding error of a few eps times the size of its terms, and
    # the table's recurrence one rounding per step
    lams = [float(lam) for lam in count_model(probe, det, model).means(phi)]
    log_lam = max(abs(math.log(lam)) for lam in lams if lam > 0.0)
    for n, got in enumerate(pmf):
        want = pnrd_likelihood(n, phi, probe, det, model)
        scale = n * (log_lam + 1.0) + max(lams) + math.lgamma(n + 1) + 1.0
        assert abs(got - want) <= 2.0 * EPS * scale * want, (n, got, want)


@PROPERTY_SETTINGS
@given(count_setups())
def test_counting_fi_ordering(setup):
    phi, probe, det, model = setup
    pnrd = fi_numeric(Scheme.DISPLACED_COUNTING, phi, probe, det, model=model).value
    onoff_det = DetectorModel(eta=det.eta, nu=det.nu, xi=det.xi, kind=DetectorKind.ON_OFF)
    onoff = fi_numeric(Scheme.DISPLACED_COUNTING, phi, probe, onoff_det, model=model).value
    # FI <= QFI (Braunstein & Caves); a click detector garbles the counts
    # (data-processing inequality), so it never carries more information
    assert pnrd <= qfi_coherent(probe) * (1.0 + 16 * EPS)
    assert onoff <= pnrd * (1.0 + 16 * EPS)


# Numeric count FI sums stop on residual mass and so fall short of the true
# FI by a little at small means (about 2.3e-10 relative at worst, near a mean
# count of 6.5e-4); comparisons of numeric FIs allow that shortfall with a
# margin, fixed here rather than fitted to the examples drawn.
FI_RTOL = 1e-9


def _counting_fi(phi, probe, det, model):
    return fi_numeric(Scheme.DISPLACED_COUNTING, phi, probe, det, model=model).value


@PROPERTY_SETTINGS
@given(count_setups(), st.floats(0.0, 1.0), st.floats(0.0, 0.1),
       st.sampled_from(list(DetectorKind)))
def test_loss_and_dark_counts_never_raise_counting_fi(setup, keep, extra_dark, kind):
    # binomial thinning and added Poisson noise are garblings of the counts
    # (data-processing inequality); a click is a garbling of the clicks under
    # added dark counts, but not under loss (see the test below)
    phi, probe, det, model = setup
    det = DetectorModel(eta=det.eta, nu=det.nu, xi=det.xi, kind=kind)
    base = _counting_fi(phi, probe, det, model)
    darker = DetectorModel(eta=det.eta, nu=det.nu + extra_dark, xi=det.xi, kind=kind)
    assert _counting_fi(phi, probe, darker, model) <= base * (1.0 + FI_RTOL)
    if kind is DetectorKind.NUMBER_RESOLVING:
        lossier = DetectorModel(eta=det.eta * keep, nu=det.nu, xi=det.xi, kind=kind)
        assert _counting_fi(phi, probe, lossier, model) <= base * (1.0 + FI_RTOL)


def test_loss_can_raise_click_fi_of_a_bright_probe():
    # the click FI eta^2 lam'^2 / (exp(eta lam + nu) - 1) falls with eta once
    # the mean count is a few photons: a saturating click detector gains from loss
    probe = ProbeConfig.from_intensities(2.0)
    fi = [_counting_fi(1.5, probe, DetectorModel(eta=eta, kind=DetectorKind.ON_OFF),
                       LikelihoodModel.POISSON_FRINGE) for eta in (1.0, 0.5)]
    assert fi[1] > 1.5 * fi[0]


@PROPERTY_SETTINGS
@given(st.floats(-4.0, math.log10(700.0)), st.floats(1e-3, math.pi),
       st.sampled_from(list(LikelihoodModel)))
def test_numeric_fi_equals_analytic_at_ideal_parameters(log_mean, phi, model):
    # ideal, matched receiver: mean count 2 alpha^2 (1 - cos phi) from 1e-4 to 700;
    # the closed form 2 alpha^2 (1 + cos phi) cancels near pi, to a few eps of
    # the FI scale 4 alpha^2
    signal = 10.0 ** log_mean / (2.0 * (1.0 - math.cos(phi)))
    probe = ProbeConfig.from_intensities(signal)
    numeric = _counting_fi(phi, probe, DetectorModel(), model)
    analytic = fi_analytic(Scheme.DISPLACED_COUNTING, phi, probe)
    assert abs(numeric - analytic) <= FI_RTOL * analytic + 4 * EPS * qfi_coherent(probe)

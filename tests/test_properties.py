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

"""Bit pins of the count law: the numeric FI over the phase grids of the
shipped fi-curve configs, one bright count table, and the exact failure
messages of bright probes.  A grid evaluated as one array must give the
bits of its phases evaluated one at a time, which must give the pins.

Each FI pin is the first 16 hex digits of the SHA-256 of the values written
with ``float.hex``, one per line, in grid order.  Every parameter set of the
three shipped fi-curve configs is pinned under both derivative rules (the
analytic rule of ``fi_numeric`` and the central differences of
``fi_oracle``) and both detector kinds (the configured number-resolving
detector and an on/off detector with the same efficiency, dark counts and
visibility); the ideal config's quadrature columns are pinned too.
"""

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fi_oracle import central_fi
from phasecount import (
    DetectorKind,
    DetectorModel,
    FiConvergenceError,
    LikelihoodModel,
    ProbeConfig,
    Scheme,
    count_distribution,
    fi_numeric,
    runconfig,
)
from phasecount.fisher import PHI_ZERO_SURROGATE, count_law
from phasecount.photonics import count_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

FI_GRID_PINS = {
    ("fi_curves_ideal", "ideal", "analytic", "pnrd"): "369ec5666ee5b17a",
    ("fi_curves_ideal", "ideal", "analytic", "onoff"): "3950a497908e38e1",
    ("fi_curves_ideal", "ideal", "analytic", "homodyne"): "c88d0a31f17d8cf2",
    ("fi_curves_ideal", "ideal", "analytic", "heterodyne"): "3d0a455f52b19c02",
    ("fi_curves_ideal", "ideal", "central", "pnrd"): "4d05e9edf496d12c",
    ("fi_curves_ideal", "ideal", "central", "onoff"): "51e073dd781ffe9b",
    ("fi_curves_ideal", "ideal", "central", "homodyne"): "97ccc2051c88aeb2",
    ("fi_curves_ideal", "ideal", "central", "heterodyne"): "cda0800f9b48a8e3",
    ("fi_curves_imperfect_weak", "ideal", "analytic", "pnrd"): "eea0a4e6ebb3e268",
    ("fi_curves_imperfect_weak", "ideal", "analytic", "onoff"): "c633cf6b9353f5fc",
    ("fi_curves_imperfect_weak", "ideal", "central", "pnrd"): "2337af6a86349054",
    ("fi_curves_imperfect_weak", "ideal", "central", "onoff"): "0836f49fc298d322",
    ("fi_curves_imperfect_weak", "vis0.998", "analytic", "pnrd"): "6450835ecee96aec",
    ("fi_curves_imperfect_weak", "vis0.998", "analytic", "onoff"): "116fa3db6a67527e",
    ("fi_curves_imperfect_weak", "vis0.998", "central", "pnrd"): "942c461a93739f6d",
    ("fi_curves_imperfect_weak", "vis0.998", "central", "onoff"): "006b202e410faf54",
    ("fi_curves_imperfect_weak", "vis0.99", "analytic", "pnrd"): "f03423258f86161c",
    ("fi_curves_imperfect_weak", "vis0.99", "analytic", "onoff"): "f46d1926513c079b",
    ("fi_curves_imperfect_weak", "vis0.99", "central", "pnrd"): "cbfe3ad9af2f14bd",
    ("fi_curves_imperfect_weak", "vis0.99", "central", "onoff"): "cff2956a535bad84",
    ("fi_curves_imperfect_weak", "eta0.602", "analytic", "pnrd"): "3043e8e5e8fd4575",
    ("fi_curves_imperfect_weak", "eta0.602", "analytic", "onoff"): "e733eb999d704f64",
    ("fi_curves_imperfect_weak", "eta0.602", "central", "pnrd"): "275e414f4cb194c8",
    ("fi_curves_imperfect_weak", "eta0.602", "central", "onoff"): "5f552ba81948d10f",
    ("fi_curves_imperfect_weak", "bench", "analytic", "pnrd"): "791e3aa3369d9c74",
    ("fi_curves_imperfect_weak", "bench", "analytic", "onoff"): "28bbb92b790fadcb",
    ("fi_curves_imperfect_weak", "bench", "central", "pnrd"): "a0f2c743a7c08768",
    ("fi_curves_imperfect_weak", "bench", "central", "onoff"): "1d3a6a34489497eb",
    ("fi_curves_imperfect_bright", "ideal", "analytic", "pnrd"): "27fa7275fc398a41",
    ("fi_curves_imperfect_bright", "ideal", "analytic", "onoff"): "1c31559b050b8a60",
    ("fi_curves_imperfect_bright", "ideal", "central", "pnrd"): "d8b8e27b0136f8cb",
    ("fi_curves_imperfect_bright", "ideal", "central", "onoff"): "b1684ce98415df72",
    ("fi_curves_imperfect_bright", "vis0.998", "analytic", "pnrd"): "75421d94f4503574",
    ("fi_curves_imperfect_bright", "vis0.998", "analytic", "onoff"): "8e37cda2f04f5f78",
    ("fi_curves_imperfect_bright", "vis0.998", "central", "pnrd"): "cf9a8292e01a7f0c",
    ("fi_curves_imperfect_bright", "vis0.998", "central", "onoff"): "482481d3a53cf971",
    ("fi_curves_imperfect_bright", "vis0.99", "analytic", "pnrd"): "1440fbf47053742b",
    ("fi_curves_imperfect_bright", "vis0.99", "analytic", "onoff"): "47cb84b34d05f6e7",
    ("fi_curves_imperfect_bright", "vis0.99", "central", "pnrd"): "e25cc46347e76660",
    ("fi_curves_imperfect_bright", "vis0.99", "central", "onoff"): "2f6d364debf2cae8",
    ("fi_curves_imperfect_bright", "eta0.602", "analytic", "pnrd"): "f8bfb6c934d0b43c",
    ("fi_curves_imperfect_bright", "eta0.602", "analytic", "onoff"): "7cbe4c421bb3badd",
    ("fi_curves_imperfect_bright", "eta0.602", "central", "pnrd"): "f9cd38d7050d93ee",
    ("fi_curves_imperfect_bright", "eta0.602", "central", "onoff"): "effbd2772e8f9ce9",
}

# count_distribution of the bright number-resolving simulate workload:
# experiment parameters at intensities 200/202 and phi = 2.88, mean count ~474
BRIGHT_TABLE = (652, "b309ae02d9c8bc191128ac1ff10db5d8c2d5ae02e4c7d0423f44d0e638b7f1b0")

_TAIL = ("; above about 700 counts exp(-mean) underflows and the count masses lose mass")
BRIGHT_FAILURES = {
    # exp(-786.392) is 0: no count mass at all
    "ideal-200": (LikelihoodModel.POISSON_FRINGE, (200.0, 200.0), DetectorModel(), 2.88,
                  "count distribution did not reach tail mass 1e-14: its masses are short "
                  "of 1 by 1 at mean count 786.392 (phi=2.88)" + _TAIL),
    # exp(-726.008) is subnormal: the masses grow from a p_0 with too few bits
    "fringe-300": (LikelihoodModel.POISSON_FRINGE, (300.0, 303.0),
                   DetectorModel(eta=0.602, nu=1.13e-4), math.pi,
                   "count distribution did not reach tail mass 1e-14: its masses are short "
                   "of 1 by 3.41e-10 at mean count 726.008 (phi=3.141592653589793)" + _TAIL),
    # the interfering component is 0 throughout, only the background's 2/11 is left
    "mixture-310": (LikelihoodModel.VISIBILITY_MIXTURE, (310.0, 310.0),
                    DetectorModel(eta=0.602, nu=1.13e-4, xi=0.9), math.pi,
                    "count distribution did not reach tail mass 1e-14: its masses are short "
                    "of 1 by 0.818 at mean count 746.48 (phi=3.141592653589793)" + _TAIL),
}


def _digest(values) -> str:
    text = "\n".join(float.hex(float(v)) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _case(key):
    """(phases, scheme, probe, detector, model) of one pin."""
    stem, label, _, column = key
    run = runconfig.parse_fi_curve(runconfig.load_config(CONFIGS / f"{stem}.yaml"))
    (pset,) = [p for p in run.sets if p.label == label]
    if column in {k.value for k in DetectorKind}:
        det = replace(pset.det, kind=DetectorKind(column))
        return run.phi_values, Scheme.DISPLACED_COUNTING, pset.probe, det, pset.model
    return run.phi_values, Scheme(column), pset.probe, pset.det, pset.model


def _fi(key):
    """The pinned FI of ``key`` as a function of a phase or an array of phases."""
    _, scheme, probe, det, model = _case(key)
    if key[2] == "central":
        return lambda phi: central_fi(scheme, phi, probe, det, model=model)
    return lambda phi: fi_numeric(scheme, phi, probe, det, model=model).value


@pytest.mark.parametrize("key", sorted(FI_GRID_PINS), ids="-".join)
def test_fi_per_phase_is_pinned(key):
    fi = _fi(key)
    assert _digest([fi(phi) for phi in _case(key)[0]]) == FI_GRID_PINS[key]


@pytest.mark.parametrize("key", sorted(FI_GRID_PINS), ids="-".join)
def test_fi_over_the_grid_is_pinned(key):
    phases, scheme, probe, det, model = _case(key)
    assert _digest(_fi(key)(np.array(phases))) == FI_GRID_PINS[key]
    res = fi_numeric(scheme, np.array(phases), probe, det, model=model)
    zero = np.array(phases) == 0.0
    if scheme is not Scheme.DISPLACED_COUNTING:
        zero[:] = False
    np.testing.assert_array_equal(res.zero_substituted, zero)
    np.testing.assert_array_equal(res.phi_evaluated,
                                  np.where(zero, PHI_ZERO_SURROGATE, phases))


def test_zero_phase_row_is_the_surrogate():
    # the ideal grid starts at phi = 0, where displaced counting is evaluated
    # at the surrogate phase and says so, in the array and at the single phase
    phases, scheme, probe, det, model = _case(("fi_curves_ideal", "ideal", "analytic", "pnrd"))
    assert phases[0] == 0.0
    grid = fi_numeric(scheme, np.array(phases), probe, det, model=model)
    single = fi_numeric(scheme, 0.0, probe, det, model=model)
    assert single.zero_substituted and grid.zero_substituted[0]
    assert not grid.zero_substituted[1:].any()
    assert single.phi_evaluated == grid.phi_evaluated[0] == PHI_ZERO_SURROGATE
    assert single.phi_requested == 0.0
    assert float.hex(single.value) == float.hex(float(grid.value[0]))


@pytest.mark.parametrize("model,xi", [(LikelihoodModel.POISSON_FRINGE, 1.0),
                                      (LikelihoodModel.VISIBILITY_MIXTURE, 0.99)])
def test_count_law_rows_do_not_depend_on_the_window(model, xi):
    # each row's table is the single-phase table, and a wider window only
    # appends entries to it
    counts = count_model(ProbeConfig.from_intensities(10.0), DetectorModel(nu=1e-5, xi=xi),
                         model)
    phases = np.linspace(0.02, math.pi, 17)
    masses, slopes, terms = count_law(phases, counts)
    wide_masses, wide_slopes, _ = count_law(phases, counts, 2 * masses.shape[1])
    for k, phi in enumerate(phases):
        one_masses, one_slopes, (one_terms,) = count_law(phi, counts)
        assert terms[k] == one_terms
        for table in (masses, wide_masses):
            assert table[k, :one_terms].tobytes() == one_masses[0, :one_terms].tobytes()
        for table in (slopes, wide_slopes):
            assert table[k, :one_terms].tobytes() == one_slopes[0, :one_terms].tobytes()


def _term_by_term(phi, counts):
    """The count table as a loop over n: the recurrence count_law vectorises."""
    lams = [float(lam) for lam in counts.means(phi)]
    state = [[math.exp(-lam), 0.0, lam, w, w * float(dlam)]
             for w, lam, dlam in zip(counts.weights, lams, counts.dmeans(phi))]
    masses, slopes, total, n = [], [], 0.0, 0
    while not masses or 1.0 - total >= 1e-14:
        n += 1
        p_n, dp_n = 0.0, 0.0
        for i, (q, q_prev, lam, w, wdlam) in enumerate(state):
            if q or i == 0:
                p_n += w * q
                dp_n += wdlam * (q_prev - q) if q else 0.0
            state[i][:2] = q * (lam / n), q
        masses.append(p_n)
        slopes.append(dp_n)
        total += p_n
    return np.array(masses), np.array(slopes)


@pytest.mark.parametrize("model,intensity,xi,phases", [
    (LikelihoodModel.POISSON_FRINGE, 0.1, 1.0, (1e-6, 0.5, 2.0, math.pi)),
    (LikelihoodModel.VISIBILITY_MIXTURE, 0.1, 0.993, (1e-6, 0.5, 2.0, math.pi)),
    # at phi = 0.02 the interfering component underflows at n = 102, before
    # the background's tail stop at 124 terms, and its slope must stop with it
    (LikelihoodModel.VISIBILITY_MIXTURE, 100.0, 0.99, (0.02, 0.05)),
    (LikelihoodModel.POISSON_FRINGE, 200.0, 0.993, (2.88,)),
    # signal mean counts from about 1e-6 to 700 over the dark counts
    *[(model, intensity, xi, (0.5, math.pi)) for model in LikelihoodModel
      for xi in (0.99, 1.0) for intensity in np.geomspace(4.2e-7, 290.0, 30).tolist()],
])
def test_count_law_is_the_term_by_term_recurrence(model, intensity, xi, phases):
    # masses bit for bit; slopes by value, as the sign of a zero slope is free;
    # the recurrence has no window, so equal terms show one window holds every stop
    counts = count_model(ProbeConfig.from_intensities(intensity),
                         DetectorModel(eta=0.602, nu=1.13e-4, xi=xi), model)
    masses, slopes, terms = count_law(np.array(phases), counts)
    for k, phi in enumerate(phases):
        want_masses, want_slopes = _term_by_term(phi, counts)
        assert terms[k] == len(want_masses)
        assert masses[k, :terms[k]].tobytes() == want_masses.tobytes()
        np.testing.assert_array_equal(slopes[k, :terms[k]], want_slopes)


def test_bright_count_table_is_pinned():
    table = count_distribution(2.88, ProbeConfig.from_intensities(200.0, 202.0),
                               DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993),
                               LikelihoodModel.POISSON_FRINGE)
    assert (len(table), hashlib.sha256(table.tobytes()).hexdigest()) == BRIGHT_TABLE


@pytest.mark.parametrize("case", sorted(BRIGHT_FAILURES))
@pytest.mark.usefixtures("gc_paused")
def test_bright_failure_message_is_pinned(case):
    model, intensities, det, phi, message = BRIGHT_FAILURES[case]
    probe = ProbeConfig.from_intensities(*intensities)
    start = time.perf_counter()
    with pytest.raises(FiConvergenceError) as info:
        fi_numeric(Scheme.DISPLACED_COUNTING, phi, probe, det, model=model)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == message
    # in an array the first failing phase names itself, whatever comes before
    with pytest.raises(FiConvergenceError) as info:
        fi_numeric(Scheme.DISPLACED_COUNTING, np.array([1.0, phi, 0.5]), probe, det,
                   model=model)
    assert str(info.value) == message

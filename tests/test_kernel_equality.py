"""The fi-curve kernels against verbatim copies of their earlier forms.

``fisher.Heterodyne``'s FI sums the flattened product rule as two half sums,
``fisher.count_law`` takes its slopes without ``np.diff``'s copy, and
``bench.run_fi_curve`` zips each set's rows from its columns.  Each must
give the bits of the form it replaced, copied below as it stood.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from phasecount import DetectorModel, LikelihoodModel, ProbeConfig, Scheme, runconfig
from phasecount import bench, fisher
from phasecount.fisher import (
    COUNT_TAIL_MASS,
    FiConvergenceError,
    _hermite_rule,
    fi_numeric,
    qfi_coherent,
)
from phasecount.photonics import count_model, exp_neg

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# the earlier kernels, verbatim
# ---------------------------------------------------------------------------

def _earlier_fi_heterodyne(phi: float, probe) -> float:
    t, _, weight = _hermite_rule()
    mx = probe.alpha * math.cos(phi)
    my = probe.alpha * math.sin(phi)
    dmx, dmy = -my, mx
    # score(u, v) = 2*u*dmx + 2*v*dmy on the product Hermite grid
    score = np.add.outer(t * dmx, t * dmy)
    score *= 2.0
    np.square(score, out=score)  # the weighted sum of score**2, in place
    score *= weight
    return float(score.sum())


def _earlier_count_law(phi, counts, terms=None):
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
        slope = np.diff(p, axis=1, prepend=0.0)  # -(p_{n-1} - p_n), exactly
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


def _earlier_fi_curve_rows(run):
    phis = np.array(run.phi_values)
    columns = []  # per set: label, QFI, phi_eval and the FI rows, one fi_numeric call per scheme
    for pset in run.sets:
        results = {scheme: fi_numeric(scheme, phis, pset.probe, pset.det, model=pset.model)
                   for scheme in run.schemes}
        displaced = results.get(Scheme.DISPLACED_COUNTING)
        evaluated = phis if displaced is None else displaced.phi_evaluated
        columns.append((pset.label, qfi_coherent(pset.probe), evaluated.tolist(),
                        list(zip(*(res.value.tolist() for res in results.values())))))
    rows = [(phi, phi_eval[i], label, *values[i], qfi, *(v / qfi for v in values[i]))
            for i, phi in enumerate(run.phi_values) for label, qfi, phi_eval, values in columns]
    return tuple(rows)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# heterodyne
# ---------------------------------------------------------------------------

# 401 phases over [-50, 50], the grid's ends and zero among them, and the
# shipped range [0, pi] with its ends
HETERODYNE_PHASES = [*np.linspace(-50.0, 50.0, 401).tolist(),
                     *np.linspace(0.0, math.pi, 37).tolist(), -math.pi, 1e-6, -1e-300]


@pytest.mark.parametrize("intensity", [0.0, 1e-6, 0.1, 10.0, 200.0, 1e300])
def test_heterodyne_keeps_the_bits_of_the_outer_sum(intensity):
    probe = ProbeConfig.from_intensities(intensity)
    want = [_earlier_fi_heterodyne(phi, probe) for phi in HETERODYNE_PHASES]
    got = [fisher.Heterodyne(probe)._fi(phi) for phi in HETERODYNE_PHASES]
    assert got == want
    assert np.array_equal(_bits(got), _bits(want))
    got, phi_eval = fisher.Heterodyne(probe).fi(np.array(HETERODYNE_PHASES))
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(phi_eval), _bits(HETERODYNE_PHASES))


def test_heterodyne_product_rule_is_shared_and_read_only():
    u, v, weight = fisher._product_rule()
    assert fisher._product_rule()[0] is u
    assert u.shape == v.shape == weight.shape == (fisher.QUAD_POINTS ** 2 // 2,)
    assert not (u.flags.writeable or v.flags.writeable or weight.flags.writeable)
    # the mirror the half rule rests on: each node's negative and each weight
    # sit in the mirrored place, bit for bit
    t, w, _ = _hermite_rule()
    assert np.array_equal(_bits(t[::-1]), _bits(-t))
    assert np.array_equal(_bits(w[::-1]), _bits(w))


@pytest.mark.parametrize("seed", range(8))
def test_numpy_sums_a_row_as_its_two_halves(seed):
    # the sum Heterodyne._fi rests on: a 16,384-term float64 reduce is the sum of
    # its halves' reduces, and a reversed view reduces as its reversed copy does
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-4.0, 4.0, fisher.QUAD_POINTS ** 2)  # 8 decades
    halves = np.add.reduce(x[:x.size // 2]) + np.add.reduce(x[x.size // 2:])
    assert np.array_equal(_bits(np.add.reduce(x)), _bits(halves))
    assert np.array_equal(_bits(np.add.reduce(x[::-1])), _bits(np.add.reduce(x[::-1].copy())))


# ---------------------------------------------------------------------------
# count law
# ---------------------------------------------------------------------------

COUNT_CASES = {
    "ideal-weak": (0.1, 0.1, DetectorModel()),
    "experiment": (0.100, 0.101, DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993)),
    "lossy-mid": (10.0, 10.1, DetectorModel(eta=0.602, nu=1.13e-4, xi=0.9)),
    "bright": (200.0, 202.0, DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993)),
    "faint": (1e-6, 1e-6, DetectorModel(xi=0.99)),
}
COUNT_PHASES = np.concatenate([np.linspace(0.0, math.pi, 65), [1e-6, 2.88, 0.3, 1.0]])


@pytest.mark.parametrize("model", list(LikelihoodModel))
@pytest.mark.parametrize("case", sorted(COUNT_CASES))
@pytest.mark.parametrize("terms", [None, 1, 40])
def test_count_law_keeps_the_bits_of_the_diff_slopes(model, case, terms):
    signal, displacement, det = COUNT_CASES[case]
    if model is LikelihoodModel.VISIBILITY_MIXTURE:  # it takes matched amplitudes only
        displacement = signal
    counts = count_model(ProbeConfig.from_intensities(signal, displacement), det, model)
    for phi in (COUNT_PHASES, *COUNT_PHASES[::16]):
        got, want = fisher.count_law(phi, counts, terms), _earlier_count_law(phi, counts, terms)
        for g, w in zip(got, want):
            assert g.shape == w.shape and (g == w).all()
            assert np.array_equal(_bits(g), _bits(w))


def test_count_law_cases_hold_underflowed_components():
    # the bright case reaches masses that underflow to 0, whose slopes are set to 0
    signal, displacement, det = COUNT_CASES["bright"]
    counts = count_model(ProbeConfig.from_intensities(signal, displacement), det,
                         LikelihoodModel.POISSON_FRINGE)
    masses, _, _ = fisher.count_law(COUNT_PHASES, counts)
    assert (masses == 0.0).any()


# ---------------------------------------------------------------------------
# fi-curve rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stem", ["fi_curves_ideal", "fi_curves_imperfect_weak",
                                  "fi_curves_imperfect_bright"])
@pytest.mark.parametrize("schemes", [["homodyne"], ["displaced", "homodyne", "heterodyne"],
                                     ["heterodyne", "displaced"]])
def test_fi_curve_rows_equal_the_row_by_row_build(stem, schemes):
    cfg = {**runconfig.load_config(CONFIGS / f"{stem}.yaml"), "schemes": schemes}
    run = runconfig.parse_fi_curve(cfg)
    got, want = bench.run_fi_curve(run).rows, _earlier_fi_curve_rows(run)
    assert type(got) is tuple and got == want
    assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]
    if schemes == ["homodyne"]:  # phi_eval is phi
        assert all(row[0] == row[1] for row in got)

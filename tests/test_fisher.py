"""Quantum Fisher information, analytic closed forms, and the numeric FI."""

import math
import time

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
    coherent_number_amplitudes,
    fi_analytic,
    fi_numeric,
    qfi_coherent,
    qfi_pure_state,
)
from phasecount import fisher
from phasecount.photonics import CountModel

PHI_GRID = (0.1, 0.5, 1.0, 2.0, 3.0)
INTENSITIES = (0.1, 1.0, 10.0)


class TestQfi:
    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_number_state_carries_no_phase_information(self, n):
        amps = np.zeros(10)
        amps[n] = 1.0
        assert qfi_pure_state(amps) == 0.0

    def test_equal_superposition(self):
        amps = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert qfi_pure_state(amps) == pytest.approx(1.0, abs=1e-12)

    def test_truncated_coherent_state(self):
        amps = coherent_number_amplitudes(math.sqrt(0.1), 30)
        assert qfi_pure_state(amps) == pytest.approx(0.4, abs=1e-9)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            qfi_pure_state([1.0, 0.5])

    @pytest.mark.parametrize("intensity,expected", [(0.1, 0.4), (0.0, 0.0), (10.0, 40.0)])
    def test_coherent_closed_form(self, intensity, expected):
        probe = ProbeConfig.from_intensities(intensity)
        assert qfi_coherent(probe) == pytest.approx(expected, abs=1e-12)


class TestAnalyticFi:
    @pytest.mark.parametrize("intensity", INTENSITIES)
    def test_endpoints(self, intensity):
        probe = ProbeConfig.from_intensities(intensity)
        half_pi = math.pi / 2.0
        assert fi_analytic(Scheme.HOMODYNE, 0.0, probe) == pytest.approx(
            4.0 * intensity, abs=1e-12)
        assert abs(fi_analytic(Scheme.HOMODYNE, half_pi, probe)) < 1e-12
        assert fi_analytic(Scheme.DISPLACED_COUNTING, 0.0, probe) == pytest.approx(
            4.0 * intensity, abs=1e-12)
        assert fi_analytic(Scheme.DISPLACED_COUNTING, half_pi, probe) == pytest.approx(
            2.0 * intensity, abs=1e-12)
        for phi in PHI_GRID:
            assert fi_analytic(Scheme.HETERODYNE, phi, probe) == pytest.approx(
                2.0 * intensity, abs=1e-12)

    def test_nonnegative(self):
        probe = ProbeConfig.from_intensities(0.1)
        for scheme in Scheme:
            for phi in np.linspace(0.0, math.pi, 50):
                assert fi_analytic(scheme, phi, probe) >= 0.0


class TestNumericFi:
    @pytest.mark.parametrize("scheme", [Scheme.HOMODYNE, Scheme.HETERODYNE])
    @pytest.mark.parametrize("intensity", INTENSITIES)
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_continuous_schemes_match_closed_form(self, scheme, intensity, phi):
        probe = ProbeConfig.from_intensities(intensity)
        numeric = fi_numeric(scheme, phi, probe).value
        analytic = fi_analytic(scheme, phi, probe)
        assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("intensity", INTENSITIES)
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_displaced_counting_matches_closed_form(self, intensity, phi):
        probe = ProbeConfig.from_intensities(intensity)
        numeric = fi_numeric(Scheme.DISPLACED_COUNTING, phi, probe).value
        assert numeric == pytest.approx(
            fi_analytic(Scheme.DISPLACED_COUNTING, phi, probe), rel=1e-6)

    def test_near_zero_limit_reaches_qfi(self):
        probe = ProbeConfig.from_intensities(0.1)
        res = fi_numeric(Scheme.DISPLACED_COUNTING, 1e-3, probe)
        assert res.value == pytest.approx(0.4, rel=1e-4)
        assert not res.zero_substituted

    def test_zero_phase_substitution_is_flagged(self):
        probe = ProbeConfig.from_intensities(0.1)
        res = fi_numeric(Scheme.DISPLACED_COUNTING, 0.0, probe)
        assert res.zero_substituted
        assert res.phi_evaluated == fisher.PHI_ZERO_SURROGATE
        assert res.value == pytest.approx(0.4, rel=1e-6)

    def test_phase_insensitive_noise_degrades_at_zero(self):
        # small signal, tiny dark counts, slightly imperfect visibility:
        # the zero-phase value drops well below the ideal 4*|alpha|^2
        probe = ProbeConfig.from_intensities(0.1)
        det = DetectorModel(eta=1.0, nu=1e-5, xi=0.998)
        res = fi_numeric(Scheme.DISPLACED_COUNTING, 0.0, probe, det,
                         model=LikelihoodModel.VISIBILITY_MIXTURE)
        assert res.zero_substituted
        assert res.value < 0.4

    @pytest.mark.parametrize("model,intensities,xi", [
        (LikelihoodModel.POISSON_FRINGE, (300.0, 303.0), 1.0),  # mean count ~726
        # xi = 1 leaves the background component with weight 0
        (LikelihoodModel.VISIBILITY_MIXTURE, (310.0, 310.0), 1.0),
        (LikelihoodModel.VISIBILITY_MIXTURE, (310.0, 310.0), 0.9),
    ])
    @pytest.mark.usefixtures("gc_paused")
    def test_bright_probe_fails_fast(self, model, intensities, xi):
        # exp(-mean) is subnormal or 0: the count masses can no longer reach
        # the tail-mass target, and the sum must say so at once
        probe = ProbeConfig.from_intensities(*intensities)
        det = DetectorModel(eta=0.602, nu=1.13e-4, xi=xi)
        start = time.perf_counter()
        with pytest.raises(FiConvergenceError, match="tail mass"):
            fi_numeric(Scheme.DISPLACED_COUNTING, math.pi, probe, det, model=model)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.usefixtures("gc_paused")
    def test_non_finite_phase_is_rejected_at_once(self, scheme, phi):
        # a NaN count mass never underflows to end the count sum, and the
        # quadratures would return nan or fail in math.cos
        probe = ProbeConfig.from_intensities(0.1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"phi must be finite, got (nan|inf|-inf)"):
            fi_numeric(scheme, phi, probe)
        with pytest.raises(ValueError, match=r"phi must be finite"):
            fi_analytic(scheme, phi, probe)
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @pytest.mark.usefixtures("gc_paused")
    def test_overflowing_intensities_fail_fast(self, kind, monkeypatch):
        # ProbeConfig rejects intensities that overflow, so a count model
        # with a NaN mean is built by hand: a NaN mass fails every floor test,
        # and the count sum must stop at once, not return a number
        nan_model = CountModel(weights=(1.0,), means=lambda phi: (math.nan,),
                               dmeans=lambda phi: (0.0,))
        monkeypatch.setattr(fisher, "count_model", lambda probe, det, model: nan_model)
        start = time.perf_counter()
        with pytest.raises(FiConvergenceError, match="NaN"):
            fi_numeric(Scheme.DISPLACED_COUNTING, 1.0, ProbeConfig.from_intensities(0.1),
                       DetectorModel(kind=kind))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_never_exceeds_qfi_for_ideal_parameters(self, scheme):
        probe = ProbeConfig.from_intensities(0.1)
        bound = qfi_coherent(probe) + 1e-6
        for phi in PHI_GRID:
            assert fi_numeric(scheme, phi, probe).value <= bound

    def test_monotone_in_efficiency_and_dark_counts(self, ideal_probe):
        etas = (0.3, 0.602, 1.0)
        nus = (0.0, 1e-5, 1e-4)
        table = {
            (eta, nu): fi_numeric(
                Scheme.DISPLACED_COUNTING, 1.0, ideal_probe,
                DetectorModel(eta=eta, nu=nu)).value
            for eta in etas for nu in nus
        }
        for nu in nus:
            column = [table[(eta, nu)] for eta in etas]
            assert all(b >= a for a, b in zip(column, column[1:]))
        for eta in etas:
            row = [table[(eta, nu)] for nu in nus]
            assert all(b <= a for a, b in zip(row, row[1:]))

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("phi", [0.4, 1.3])
    def test_even_in_phase(self, scheme, phi, ideal_probe):
        plus = fi_numeric(scheme, phi, ideal_probe).value
        minus = fi_numeric(scheme, -phi, ideal_probe).value
        assert minus == pytest.approx(plus, abs=1e-15)

    def test_onoff_degraded_value(self, experiment_probe, experiment_detector_onoff):
        # independent two-outcome closed form: F = lam'^2 e^-lam / (1 - e^-lam)
        det = experiment_detector_onoff
        a, b = experiment_probe.alpha, experiment_probe.beta
        lam = det.eta * (a * a + b * b - 2.0 * det.xi * a * b * math.cos(1.0)) + det.nu
        dlam = det.eta * 2.0 * det.xi * a * b * math.sin(1.0)
        expected = dlam**2 * math.exp(-lam) / (1.0 - math.exp(-lam))
        got = fi_numeric(Scheme.DISPLACED_COUNTING, 1.0, experiment_probe, det).value
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("model,det_kwargs", [
        (LikelihoodModel.POISSON_FRINGE, {"eta": 0.7, "nu": 1e-4}),
        (LikelihoodModel.VISIBILITY_MIXTURE, {"eta": 0.9, "nu": 1e-5, "xi": 0.99}),
    ])
    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_central_difference_agrees_with_analytic(self, ideal_probe, model,
                                                     det_kwargs, kind):
        det = DetectorModel(kind=kind, **det_kwargs)
        analytic = fi_numeric(Scheme.DISPLACED_COUNTING, 0.7, ideal_probe, det,
                              model=model).value
        central = central_fi(Scheme.DISPLACED_COUNTING, 0.7, ideal_probe, det, model=model)
        assert central == pytest.approx(analytic, rel=1e-6)

    @pytest.mark.parametrize("scheme", [Scheme.HOMODYNE, Scheme.HETERODYNE])
    def test_central_difference_continuous(self, scheme, ideal_probe):
        assert central_fi(scheme, 1.0, ideal_probe) == pytest.approx(
            fi_numeric(scheme, 1.0, ideal_probe).value, rel=1e-6)

    def test_hermite_rule_is_shared_and_read_only(self):
        nodes, weights, weight = fisher._hermite_rule()
        assert fisher._hermite_rule()[0] is nodes and fisher._hermite_rule()[2] is weight
        assert len(nodes) == fisher.QUAD_POINTS
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
        assert not weight.flags.writeable
        assert np.array_equal(weight, np.outer(weights, weights))

"""Detector POVM, count/click likelihoods, quadrature densities, Fock oracle."""

import math
import re
import sys

import numpy as np
import pytest

from phasecount import (
    DetectorKind,
    DetectorModel,
    FockTruncationError,
    LikelihoodModel,
    ModelMismatchError,
    ProbeConfig,
    born_probability_oracle,
    coherent_number_amplitudes,
    heterodyne_density,
    homodyne_density,
    onoff_likelihood,
    pnrd_likelihood,
    povm_element,
)
from phasecount import photonics

FRINGE = LikelihoodModel.POISSON_FRINGE
MIXTURE = LikelihoodModel.VISIBILITY_MIXTURE


class TestProbeAndDetectorValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ProbeConfig(alpha=-0.1, beta=0.1)

    def test_from_intensities_matches_default(self):
        probe = ProbeConfig.from_intensities(0.1)
        assert probe.alpha == probe.beta == math.sqrt(0.1)

    def test_overflowing_intensities_rejected(self):
        def fits(a, b):
            return math.isfinite(4.0 * (a * a + b * b))
        # the largest matched amplitude the bound admits, found by stepping ulps
        edge = math.sqrt(sys.float_info.max / 8.0)
        while fits(math.nextafter(edge, math.inf), math.nextafter(edge, math.inf)):
            edge = math.nextafter(edge, math.inf)
        while not fits(edge, edge):
            edge = math.nextafter(edge, 0.0)
        above = math.nextafter(edge, math.inf)
        with pytest.raises(ValueError, match="intensities overflow"):
            ProbeConfig(above, above)
        with pytest.raises(ValueError, match="intensities overflow"):
            ProbeConfig.from_intensities(1e308)
        with pytest.raises(ValueError, match="intensities overflow"):
            ProbeConfig.from_intensities(1e308, 0.0)
        # at the edge every count mean and its derivative is finite, with no
        # numpy warning (pytest turns RuntimeWarning into an error)
        phis = np.array([0.0, 1e-3, 1.0, math.pi / 2, math.pi])
        for beta in (edge, 0.5 * edge, 0.0):
            probe = ProbeConfig(edge, beta)
            for det in (DetectorModel(), DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993)):
                means = [photonics.fringe_mean(phis, probe, det),
                         photonics.fringe_mean_derivative(phis, probe, det),
                         *photonics.mixture_component_means(phis, probe, det),
                         photonics.mixture_interfering_mean_derivative(phis, probe, det)]
                assert all(np.all(np.isfinite(m)) for m in means)

    @pytest.mark.parametrize("model", [FRINGE, MIXTURE])
    def test_dark_counts_that_overflow_the_mean_rejected(self, model):
        # 4*(alpha^2 + beta^2) + nu bounds every count mean: the largest nu it
        # admits, found by stepping ulps, still gives finite means everywhere
        probe = ProbeConfig.from_intensities(2e307)
        bound = 4.0 * (probe.alpha * probe.alpha + probe.beta * probe.beta)
        edge = sys.float_info.max - bound
        while math.isfinite(bound + math.nextafter(edge, math.inf)):
            edge = math.nextafter(edge, math.inf)
        while not math.isfinite(bound + edge):
            edge = math.nextafter(edge, 0.0)
        phis = np.array([0.0, 1.0, math.pi])
        for xi in (1.0, 0.9):
            counts = photonics.count_model(probe, DetectorModel(nu=edge, xi=xi), model)
            assert all(np.all(np.isfinite(lam)) for lam in counts.means(phis))
        for nu in (math.nextafter(edge, math.inf), 1.7e308, sys.float_info.max):
            message = r"nu overflows the count mean: .* got nu=" + re.escape(repr(nu))
            with pytest.raises(ValueError, match=message):
                photonics.count_model(probe, DetectorModel(nu=nu), model)
        # nu alone, at the float maximum, is admitted with no signal
        photonics.count_model(ProbeConfig(0.0, 0.0), DetectorModel(nu=sys.float_info.max), model)

    @pytest.mark.parametrize("kwargs", [
        {"eta": 1.2}, {"eta": -0.1}, {"nu": -1e-6}, {"xi": 1.5},
        {"xi": -0.2},
    ])
    def test_detector_invariants(self, kwargs):
        with pytest.raises(ValueError):
            DetectorModel(**kwargs)

    def test_automatic_cutoff_rule(self):
        assert photonics._cutoff_for(0.0) == 30
        assert photonics._cutoff_for(40.0) == math.ceil(40 + 10 * math.sqrt(40))


class TestPovmElement:
    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_lossless_noiseless_is_projective(self, n):
        coeffs = povm_element(n, DetectorModel(eta=1.0, nu=0.0))
        expected = np.zeros(31)
        expected[n] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-15)

    def test_vacuum_element_is_loss_geometric(self):
        coeffs = povm_element(0, DetectorModel(eta=0.5, nu=0.0))
        np.testing.assert_allclose(coeffs, 0.5 ** np.arange(31), rtol=1e-13)

    @pytest.mark.parametrize("eta", [0.3, 0.602, 1.0])
    @pytest.mark.parametrize("nu", [0.0, 1e-4])
    def test_completeness(self, eta, nu):
        det = DetectorModel(eta=eta, nu=nu)
        total = np.zeros(31)
        for n in range(31 + 12):  # margin covers the dark-count tail
            coeffs = povm_element(n, det)
            assert np.all(coeffs >= 0.0) and np.all(coeffs <= 1.0)
            total += coeffs
        np.testing.assert_allclose(total, 1.0, atol=1e-8)

    def test_rejects_negative_outcome(self):
        with pytest.raises(ValueError):
            povm_element(-1, DetectorModel())

    def test_rejects_onoff_detector(self):
        with pytest.raises(ValueError):
            povm_element(0, DetectorModel(kind=DetectorKind.ON_OFF))

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            povm_element(0, DetectorModel(), cutoff=0)


class TestCountLikelihood:
    @pytest.mark.parametrize("model", [FRINGE, MIXTURE])
    def test_perfect_nulling_gives_vacuum(self, ideal_probe, ideal_detector, model):
        assert pnrd_likelihood(0, 0.0, ideal_probe, ideal_detector, model) == 1.0

    def test_pi_phase_value(self, ideal_probe, ideal_detector):
        # full constructive interference doubles the amplitude: mean 4*|alpha|^2
        p = pnrd_likelihood(0, math.pi, ideal_probe, ideal_detector)
        assert p == pytest.approx(math.exp(-0.4), abs=1e-12)

    @pytest.mark.parametrize("model,xi", [(FRINGE, 1.0), (FRINGE, 0.9),
                                          (MIXTURE, 1.0), (MIXTURE, 0.9)])
    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.0, math.pi])
    def test_normalization(self, ideal_probe, model, xi, phi):
        det = DetectorModel(eta=0.8, nu=1e-4, xi=xi)
        total = sum(pnrd_likelihood(n, phi, ideal_probe, det, model) for n in range(60))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mixture_rejects_amplitude_mismatch(self, experiment_probe):
        det = DetectorModel(xi=0.993)
        with pytest.raises(ModelMismatchError):
            pnrd_likelihood(0, 1.0, experiment_probe, det, MIXTURE)

    def test_fringe_accepts_amplitude_mismatch(self, experiment_probe):
        det = DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993)
        p = pnrd_likelihood(0, 1.0, experiment_probe, det, FRINGE)
        assert 0.0 < p < 1.0

    @pytest.mark.parametrize("model", [FRINGE, MIXTURE])
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("phi", [0.3, 1.2, 2.9])
    def test_even_in_phase(self, ideal_probe, model, n, phi):
        det = DetectorModel(eta=0.7, nu=1e-4, xi=0.95)
        assert pnrd_likelihood(n, phi, ideal_probe, det, model) == pytest.approx(
            pnrd_likelihood(n, -phi, ideal_probe, det, model), abs=1e-15)

    def test_rejects_negative_count(self, ideal_probe, ideal_detector):
        with pytest.raises(ValueError):
            pnrd_likelihood(-1, 0.5, ideal_probe, ideal_detector)

    def test_rejects_onoff_kind(self, ideal_probe):
        with pytest.raises(ValueError):
            pnrd_likelihood(0, 0.5, ideal_probe, DetectorModel(kind=DetectorKind.ON_OFF))


class TestOnOffLikelihood:
    def test_ideal_nulling(self, ideal_probe, ideal_detector):
        assert onoff_likelihood(False, 0.0, ideal_probe, ideal_detector) == 1.0
        assert onoff_likelihood(True, 0.0, ideal_probe, ideal_detector) == 0.0

    @pytest.mark.parametrize("model", [FRINGE, MIXTURE])
    def test_complementarity(self, ideal_probe, model):
        det = DetectorModel(eta=0.6, nu=1e-4, xi=0.99, kind=DetectorKind.ON_OFF)
        for phi in (0.0, 0.4, 1.5, 3.0):
            p0 = onoff_likelihood(False, phi, ideal_probe, det, model)
            p1 = onoff_likelihood(True, phi, ideal_probe, det, model)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-15)

    def test_experiment_click_probability(self, experiment_probe, experiment_detector_onoff):
        det = experiment_detector_onoff
        a, b = experiment_probe.alpha, experiment_probe.beta
        lam = det.eta * (a * a + b * b - 2.0 * det.xi * a * b * math.cos(1.0)) + det.nu
        p = onoff_likelihood(True, 1.0, experiment_probe, det, FRINGE)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(1.0 - math.exp(-lam), rel=1e-12)

    def test_click_probability_nondecreasing_ideal(self, ideal_probe, ideal_detector):
        grid = np.linspace(0.0, math.pi, 200)
        clicks = [onoff_likelihood(True, phi, ideal_probe, ideal_detector) for phi in grid]
        assert all(b >= a for a, b in zip(clicks, clicks[1:]))


class TestQuadratureDensities:
    def test_homodyne_peak_at_zero_phase(self, ideal_probe):
        assert homodyne_density(0.0, 0.0, ideal_probe) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.5])
    def test_homodyne_normalization(self, ideal_probe, phi):
        x = np.linspace(-9.0, 9.0, 4001)
        dens = [homodyne_density(v, phi, ideal_probe) for v in x]
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-8)

    def test_heterodyne_peak_value(self, ideal_probe):
        phi = 0.8
        mx = ideal_probe.alpha * math.cos(phi)
        my = ideal_probe.alpha * math.sin(phi)
        assert heterodyne_density(mx, my, phi, ideal_probe) == pytest.approx(
            1.0 / math.pi, abs=1e-15)

    def test_heterodyne_normalization(self, ideal_probe):
        grid = np.linspace(-7.0, 7.0, 501)
        re, im = np.meshgrid(grid, grid)
        dens = np.exp(-((re - ideal_probe.alpha) ** 2) - im**2) / math.pi
        total = np.trapezoid(np.trapezoid(dens, grid, axis=1), grid)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestBornOracle:
    def test_vacuum_projection(self, ideal_probe, ideal_detector):
        assert born_probability_oracle(0, 0.0, ideal_probe, ideal_detector) == \
            pytest.approx(1.0, abs=1e-12)

    def test_full_fringe_single_count(self, ideal_probe, ideal_detector):
        p = born_probability_oracle(1, math.pi, ideal_probe, ideal_detector)
        assert p == pytest.approx(0.4 * math.exp(-0.4), abs=1e-12)

    @pytest.mark.parametrize("eta", [1.0, 0.602])
    @pytest.mark.parametrize("nu", [0.0, 1.13e-4])
    def test_matches_fringe_likelihood(self, ideal_probe, eta, nu):
        det = DetectorModel(eta=eta, nu=nu, xi=1.0)
        worst = max(
            abs(pnrd_likelihood(n, phi, ideal_probe, det, FRINGE)
                - born_probability_oracle(n, phi, ideal_probe, det, cutoff=30))
            for phi in (0.0, 0.5, 1.0, math.pi)
            for n in range(11)
        )
        assert worst < 1e-8

    def test_matches_with_mismatched_displacement(self, experiment_probe):
        det = DetectorModel(eta=0.602, nu=1.13e-4, xi=1.0)
        for n in range(6):
            assert born_probability_oracle(n, 1.0, experiment_probe, det, cutoff=30) == \
                pytest.approx(pnrd_likelihood(n, 1.0, experiment_probe, det, FRINGE),
                              abs=1e-10)

    def test_requires_unit_visibility(self, ideal_probe):
        with pytest.raises(ValueError, match="xi"):
            born_probability_oracle(0, 0.5, ideal_probe, DetectorModel(xi=0.99))

    def test_truncation_guard(self):
        probe = ProbeConfig.from_intensities(10.0)
        with pytest.raises(FockTruncationError):
            born_probability_oracle(0, math.pi, probe, DetectorModel(), cutoff=3)

    def test_rejects_cutoff_below_one(self, ideal_probe, ideal_detector):
        with pytest.raises(ValueError, match="cutoff must be >= 1, got 0"):
            born_probability_oracle(0, 0.5, ideal_probe, ideal_detector, cutoff=0)

    def test_coherent_amplitudes_normalized(self):
        amps = coherent_number_amplitudes(math.sqrt(0.1), 30)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

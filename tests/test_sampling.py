"""Seeded outcome generation: determinism, seed mixing, statistical checks."""

import math

import numpy as np
import pytest
from scipy import stats

from phasecount import (
    DetectorKind,
    DetectorModel,
    ExperimentConfig,
    LikelihoodModel,
    ProbeConfig,
    Scheme,
    count_distribution,
    onoff_likelihood,
    sample,
    split_seed,
)

SPLITMIX_GOLDEN = 0xE220A8397B1DCDAF  # split_seed(0, 0), frozen


class TestSplitSeed:
    def test_golden_value(self):
        assert split_seed(0, 0) == SPLITMIX_GOLDEN

    def test_deterministic(self):
        assert split_seed(12345, 678) == split_seed(12345, 678)

    def test_no_adjacent_collisions(self):
        rng = np.random.default_rng(2024)
        seeds = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        assert all(split_seed(int(s), 0) != split_seed(int(s), 1) for s in seeds)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            split_seed(-1, 0)
        with pytest.raises(ValueError):
            split_seed(2**64, 0)
        with pytest.raises(ValueError):
            split_seed(0, -1)


def _experiment_config(**overrides):
    base = dict(
        scheme=Scheme.DISPLACED_COUNTING,
        phi_true=1.0,
        probe=ProbeConfig.from_intensities(0.100, 0.101),
        det=DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993, kind=DetectorKind.ON_OFF),
        pulses=1000,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSampleContracts:
    def test_identical_configs_identical_records(self):
        a = sample(_experiment_config())
        b = sample(_experiment_config())
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = sample(_experiment_config(seed=1))
        b = sample(_experiment_config(seed=2))
        assert np.any(a.values != b.values)

    def test_perfect_nulling_yields_all_zero_counts(self):
        cfg = ExperimentConfig(
            scheme=Scheme.DISPLACED_COUNTING, phi_true=0.0,
            probe=ProbeConfig.from_intensities(0.1), det=DetectorModel(),
            pulses=1000, seed=5)
        record = sample(cfg)
        assert record.values.dtype == np.int64
        assert np.all(record.values == 0)

    def test_record_length_matches_pulses(self):
        assert len(sample(_experiment_config(pulses=321))) == 321

    def test_onoff_records_are_boolean(self):
        assert sample(_experiment_config()).values.dtype == np.bool_

    def test_phase_domain_enforced(self):
        with pytest.raises(ValueError):
            _experiment_config(phi_true=-0.5)
        with pytest.raises(ValueError):
            _experiment_config(phi_true=math.pi + 0.1)


class TestSampleStatistics:
    def test_click_frequency_matches_likelihood(self):
        cfg = _experiment_config(pulses=100_000, seed=31)
        p_click = onoff_likelihood(True, cfg.phi_true, cfg.probe, cfg.det, cfg.model)
        freq = float(np.mean(sample(cfg).values))
        sd = math.sqrt(p_click * (1.0 - p_click) / cfg.pulses)
        assert abs(freq - p_click) < 4.0 * sd

    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.5])
    def test_count_histogram_chi_square(self, phi):
        cfg = ExperimentConfig(
            scheme=Scheme.DISPLACED_COUNTING, phi_true=phi,
            probe=ProbeConfig.from_intensities(0.100, 0.101),
            det=DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993),
            pulses=100_000, seed=17)
        record = sample(cfg)
        pmf = count_distribution(phi, cfg.probe, cfg.det, cfg.model)
        observed = np.bincount(record.values, minlength=len(pmf)).astype(float)
        expected = pmf * cfg.pulses
        # merge the sparse tail so every bin has a healthy expectation
        keep = len(expected) - 1
        while keep > 1 and expected[keep:].sum() < 5.0:
            keep -= 1
        obs = np.append(observed[:keep], observed[keep:].sum())
        exp = np.append(expected[:keep], expected[keep:].sum())
        exp *= obs.sum() / exp.sum()
        result = stats.chisquare(obs, exp)
        assert result.pvalue > 1e-3

    def test_homodyne_mean_converges(self):
        probe = ProbeConfig.from_intensities(0.1)
        cfg = ExperimentConfig(scheme=Scheme.HOMODYNE, phi_true=1.0, probe=probe,
                               det=DetectorModel(), pulses=100_000, seed=23)
        record = sample(cfg)
        assert record.values.dtype == np.float64
        target = math.sqrt(2.0) * probe.alpha * math.sin(1.0)
        stderr = math.sqrt(0.5 / cfg.pulses)
        assert abs(float(np.mean(record.values)) - target) < 5.0 * stderr

    def test_heterodyne_mean_converges(self):
        probe = ProbeConfig.from_intensities(0.1)
        cfg = ExperimentConfig(scheme=Scheme.HETERODYNE, phi_true=0.7, probe=probe,
                               det=DetectorModel(), pulses=100_000, seed=29)
        values = sample(cfg).values
        assert values.dtype == np.complex128
        stderr = math.sqrt(0.5 / cfg.pulses)
        assert abs(float(np.mean(values.real)) - probe.alpha * math.cos(0.7)) < 5.0 * stderr
        assert abs(float(np.mean(values.imag)) - probe.alpha * math.sin(0.7)) < 5.0 * stderr

    def test_count_distribution_mass(self):
        probe = ProbeConfig.from_intensities(0.1)
        pmf = count_distribution(1.0, probe, DetectorModel(), LikelihoodModel.POISSON_FRINGE)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", list(LikelihoodModel))
    @pytest.mark.parametrize("xi", [0.9, 0.993, 1.0])
    def test_count_table_ignores_less_than_tail_mass(self, model, xi):
        # inverse-CDF draws through np.cumsum(pmf): the mass past its last
        # entry, as that left-to-right sum sees it, is what sampling ignores
        det = DetectorModel(eta=0.602, nu=1.13e-4, xi=xi)
        for intensity in np.geomspace(1e-4, 280.0, 40):
            probe = ProbeConfig.from_intensities(intensity)
            for phi in np.linspace(0.0, math.pi, 9):
                pmf = count_distribution(phi, probe, det, model)
                assert 1.0 - np.cumsum(pmf)[-1] < 1e-14, (intensity, phi)

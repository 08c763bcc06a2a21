"""Posterior grid construction, moments, and sequential estimation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from phasecount import (
    DetectorKind,
    DetectorModel,
    ExperimentConfig,
    OutcomeRecord,
    PosteriorUnderflowError,
    ProbeConfig,
    Scheme,
    estimate,
    posterior,
    sample,
    sequential_estimates,
    split_seed,
)
from phasecount.bayes import LikelihoodTable
from phasecount.photonics import fringe_mean
from phasecount.sampling import record_statistics, statistic_sampler, trial_streams


def _ideal_counts_config(pulses, phi=0.5, seed=0):
    return ExperimentConfig(
        scheme=Scheme.DISPLACED_COUNTING, phi_true=phi,
        probe=ProbeConfig.from_intensities(0.1), det=DetectorModel(),
        pulses=pulses, seed=seed)


def _experiment_config(pulses, seed):
    return ExperimentConfig(
        scheme=Scheme.DISPLACED_COUNTING, phi_true=1.0,
        probe=ProbeConfig.from_intensities(0.100, 0.101),
        det=DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993, kind=DetectorKind.ON_OFF),
        pulses=pulses, seed=seed)


class TestPosterior:
    def test_empty_record_returns_prior(self):
        record = OutcomeRecord(config=_ideal_counts_config(0),
                               values=np.array([], dtype=np.int64))
        assert list(record_statistics(record.config, record.values, (0,))) == [(0, 0)]
        post = posterior(record)
        assert np.all(post.density == post.density[0])
        np.testing.assert_allclose(post.density, 1.0 / math.pi, rtol=1e-12)
        phi_hat, variance = estimate(post)
        assert phi_hat == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert variance == pytest.approx(math.pi**2 / 12.0, abs=1e-6)

    def test_all_zero_counts_concentrate_at_zero(self):
        config = _ideal_counts_config(100)
        record = OutcomeRecord(config=config, values=np.zeros(100, dtype=np.int64))
        post = posterior(record, grid_size=513)
        assert post.density[0] == post.density.max()
        assert np.all(np.diff(post.density) < 0.0)

    def test_normalized_under_trapezoid_rule(self):
        record = sample(_experiment_config(5000, seed=3))
        post = posterior(record)
        assert post.normalization() == pytest.approx(1.0, abs=1e-9)

    def test_grid_and_domain(self):
        post = posterior(sample(_experiment_config(100, seed=4)), grid_size=65)
        assert post.nodes[0] == 0.0
        assert post.nodes[-1] == pytest.approx(math.pi, abs=0.0)
        assert np.all(post.density >= 0.0)

    def test_minimum_grid_size_enforced(self):
        with pytest.raises(ValueError):
            posterior(sample(_experiment_config(10, seed=1)), grid_size=64)

    def test_impossible_record_raises(self):
        config = ExperimentConfig(
            scheme=Scheme.DISPLACED_COUNTING, phi_true=0.5,
            probe=ProbeConfig(0.0, 0.0), det=DetectorModel(),
            pulses=1, seed=0)
        record = OutcomeRecord(config=config, values=np.array([1], dtype=np.int64))
        with pytest.raises(PosteriorUnderflowError):
            posterior(record, grid_size=65)

    def test_long_experiment_run_localizes_truth(self):
        # 9e5-pulse record at phi = 1.00: nearly all mass within +-0.01
        record = sample(_experiment_config(900_000, seed=8))
        post = posterior(record)
        window = (post.nodes >= 0.99) & (post.nodes <= 1.01)
        mass = np.trapezoid(post.density[window], post.nodes[window])
        assert mass > 0.99


class TestEstimate:
    def test_delta_like_posterior(self):
        record = sample(_ideal_counts_config(200_000, phi=1.2, seed=2))
        phi_hat, variance = estimate(posterior(record))
        assert phi_hat == pytest.approx(1.2, abs=0.01)
        assert variance < 1e-4

    def test_moments_use_grid_rule(self):
        record = sample(_experiment_config(2000, seed=5))
        post = posterior(record)
        phi_hat, variance = estimate(post)
        assert phi_hat == pytest.approx(
            float(np.trapezoid(post.nodes * post.density, post.nodes)), abs=0.0)
        assert variance >= 0.0


class TestSequentialEstimates:
    def test_final_checkpoint_matches_one_shot_counts(self):
        record = sample(_ideal_counts_config(5000, phi=1.0, seed=11))
        ((k, phi_hat, variance),) = sequential_estimates(record, 257, [5000])
        phi_ref, var_ref = estimate(posterior(record, 257))
        assert k == 5000
        assert phi_hat == phi_ref
        assert variance == var_ref

    def test_final_checkpoint_matches_one_shot_clicks(self):
        record = sample(_experiment_config(4000, seed=12))
        *_, (k, phi_hat, variance) = sequential_estimates(record, 257, [10, 100, 4000])
        phi_ref, var_ref = estimate(posterior(record, 257))
        assert (phi_hat, variance) == (phi_ref, var_ref)

    def test_final_checkpoint_matches_one_shot_homodyne(self):
        cfg = ExperimentConfig(scheme=Scheme.HOMODYNE, phi_true=0.8,
                               probe=ProbeConfig.from_intensities(0.1),
                               det=DetectorModel(), pulses=300, seed=13)
        record = sample(cfg)
        ((_, phi_hat, variance),) = sequential_estimates(record, 129, [300])
        phi_ref, var_ref = estimate(posterior(record, 129))
        assert (phi_hat, variance) == (phi_ref, var_ref)

    def test_checkpoint_validation(self):
        record = sample(_ideal_counts_config(100, seed=14))
        with pytest.raises(ValueError):
            sequential_estimates(record, 129, [])
        with pytest.raises(ValueError):
            sequential_estimates(record, 129, [10, 10])
        with pytest.raises(ValueError):
            sequential_estimates(record, 129, [0, 10])
        with pytest.raises(ValueError):
            sequential_estimates(record, 129, [10, 101])

    def test_variance_shrinks_with_more_data(self):
        shrunk = 0
        for trial in range(100):
            cfg = _ideal_counts_config(10_000, phi=1.0, seed=split_seed(77, trial))
            seq = sequential_estimates(sample(cfg), 513, [100, 10_000])
            shrunk += seq[1][2] < seq[0][2]
        assert shrunk >= 95


class TestOneComponentCounts:
    """The poisson-fringe count posterior, scored from (k, S) in one grid pass."""

    def test_nulled_node_gets_no_mass_once_a_count_is_seen(self):
        config = _ideal_counts_config(5)
        table = LikelihoodTable(config, 129)
        assert fringe_mean(table.grid[0], config.probe, config.det) == 0.0
        (post,) = table.posteriors([(5, 2)])
        assert post.density[0] == 0.0
        assert np.all(post.density[1:] > 0.0)

    def test_zero_total_gives_exp_minus_k_lam(self):
        config = _ideal_counts_config(40)
        table = LikelihoodTable(config, 129)
        (post,) = table.posteriors([(40, 0)])
        want = np.exp(-40 * fringe_mean(table.grid, config.probe, config.det))
        np.testing.assert_allclose(post.density, want / np.trapezoid(want, table.grid),
                                   rtol=1e-14)

    def test_impossible_total_raises(self):
        config = ExperimentConfig(
            scheme=Scheme.DISPLACED_COUNTING, phi_true=0.5,
            probe=ProbeConfig(0.0, 0.0), det=DetectorModel(), pulses=3, seed=0)
        table = LikelihoodTable(config, 65)
        with pytest.raises(PosteriorUnderflowError):
            table.moments([(3, 1)])
        assert table.moments([(3, 0)]) == table.moments([(0, 0)])  # no counts: flat

    def test_memo_keys_are_pulse_and_count_totals(self):
        config = _ideal_counts_config(2000, phi=1.0)
        checkpoints = (10, 100, 2000)
        table = LikelihoodTable(config, 129)
        draw = statistic_sampler(config, checkpoints)
        record = sample(replace(config, seed=1))
        for statistics in (draw(rng) for rng in trial_streams([1, 2])):
            assert [k for k, _ in statistics] == list(checkpoints)
            assert all(b >= a for (_, a), (_, b) in zip(statistics, statistics[1:]))
            table.moments(statistics)
        table.moments(record_statistics(config, record.values, checkpoints))
        assert table._moments
        assert all(len(key) == 2 and all(type(v) is int for v in key) for key in table._moments)


class TestPosteriorKernel:
    """LikelihoodTable evaluates every posterior in rows it owns and reuses."""

    @staticmethod
    def _ideal_onoff_config(pulses):
        # beta = alpha at eta = 1, nu = 0, xi = 1: log p1 = -inf at phi = 0
        return ExperimentConfig(
            scheme=Scheme.DISPLACED_COUNTING, phi_true=0.5,
            probe=ProbeConfig.from_intensities(0.1),
            det=DetectorModel(kind=DetectorKind.ON_OFF), pulses=pulses)

    @pytest.mark.parametrize("clicks", [0, 7, 40], ids=["silent", "mixed", "clicks"])
    def test_ideal_onoff_moments_equal_one_shot_estimate(self, clicks):
        config = self._ideal_onoff_config(40)
        record = OutcomeRecord(config=config, values=np.arange(40) < clicks)
        table = LikelihoodTable(config, 257)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            statistics = list(record_statistics(config, record.values, (40,)))
            assert statistics == [(40 - clicks, clicks)]
            assert table.moments(statistics) == [estimate(posterior(record, 257))]

    # a config and statistics of 100 pulses under it: (silent, click) or (k, S)
    REUSE_CASES = {
        "onoff": (_experiment_config(100, 0), [(100, 0), (97, 3), (50, 50), (0, 100)]),
        "pnrd-fringe": (_ideal_counts_config(100), [(100, 0), (100, 3), (100, 50), (100, 400)]),
    }

    @pytest.mark.parametrize("name", sorted(REUSE_CASES))
    def test_posteriors_do_not_alias_the_reused_rows(self, name):
        config, (_, first_stat, second_stat, _) = self.REUSE_CASES[name]
        posts = LikelihoodTable(config, 129).posteriors([first_stat, second_stat])
        first = next(posts)
        kept = first.density.copy()
        second = next(posts)
        assert np.array_equal(first.density, kept)
        assert not np.shares_memory(first.density, second.density)
        assert not np.array_equal(first.density, second.density)
        (alone,) = LikelihoodTable(config, 129).posteriors([first_stat])
        assert np.array_equal(first.density, alone.density)

    @pytest.mark.parametrize("name", sorted(REUSE_CASES))
    def test_moments_repeat_exactly_in_any_order(self, name):
        config, statistics = self.REUSE_CASES[name]
        table = LikelihoodTable(config, 129)
        once = table.moments(statistics)
        assert table.moments(statistics) == once
        assert LikelihoodTable(config, 129).moments(statistics[::-1])[::-1] == once
        assert all(type(v) is float for moments in once for v in moments)

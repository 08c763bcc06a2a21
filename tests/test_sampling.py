"""Seeded outcome generation: determinism, seed mixing, statistical checks."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import phasecount
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
from phasecount.sampling import split_seeds, trial_streams

SPLITMIX_GOLDEN = 0xE220A8397B1DCDAF  # split_seed(0, 0), frozen


class TestSplitSeed:
    def test_golden_value(self):
        assert split_seed(0, 0) == SPLITMIX_GOLDEN

    def test_deterministic(self):
        assert split_seed(12345, 678) == split_seed(12345, 678)

    def test_no_adjacent_collisions(self):
        rng = np.random.default_rng(2024)
        seeds = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
        first, second = split_seeds(seeds, 0, 1), split_seeds(seeds, 1, 1)
        assert np.all(first != second)
        for i in range(0, len(seeds), 99_991):
            assert (first[i], second[i]) == (split_seed(int(seeds[i]), 0),
                                             split_seed(int(seeds[i]), 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            split_seed(-1, 0)
        with pytest.raises(ValueError):
            split_seed(2**64, 0)
        with pytest.raises(ValueError):
            split_seed(0, -1)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 1, 2**64 - 40, 2**70])
    def test_split_seeds_equal_split_seed(self, seed, first):
        # 2^64 - 40 + 80 trials run the trial index past 2^64
        got = split_seeds(seed, first, 80)
        assert got.dtype == np.uint64
        assert got.tolist() == [split_seed(seed, first + i) for i in range(80)]

    def test_split_seeds_of_seed_array(self):
        seeds = np.array([0, 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
        for t in (0, 5, 2**64 + 3):
            assert split_seeds(seeds, t, 1).tolist() == [split_seed(int(s), t) for s in seeds]
        assert split_seeds(SPLITMIX_GOLDEN, 0, 0).tolist() == []

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_split_seeds_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a 64-bit unsigned integer, got {seed}"):
            split_seeds(seed, 0, 3)

    def test_split_seeds_rejects_negative_first_index(self):
        with pytest.raises(ValueError, match="trial_index must be >= 0, got -1"):
            split_seeds(0, -1, 3)


# seeds whose entropy is one or two 32-bit words, and the ends of the range
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _stream_seeds():
    rng = np.random.default_rng(20261018)
    return EDGE_SEEDS + rng.integers(0, 2**64, size=2000, dtype=np.uint64).tolist()


class TestTrialStreams:
    """trial_streams seeds default_rng(seed)'s PCG64 stream, bit for bit."""

    def test_states_equal_default_rng(self):
        seeds = _stream_seeds()
        for seed, rng in zip(seeds, trial_streams(seeds), strict=True):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_seed_array_states_equal_default_rng(self):
        seeds = split_seeds(11, 0, 300)
        for seed, rng in zip(seeds.tolist(), trial_streams(seeds), strict=True):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_draws_equal_default_rng(self):
        seeds = _stream_seeds()
        out = np.empty(7)
        for seed, rng in zip(seeds, trial_streams(seeds), strict=True):
            ref = np.random.default_rng(seed)
            assert np.array_equal(rng.random(7), ref.random(7))
            rng.random(out=out)
            assert np.array_equal(out, ref.random(7))
            assert np.array_equal(rng.standard_normal((5, 2)), ref.standard_normal((5, 2)))

    def test_stream_left_mid_word_is_reset(self):
        # an odd number of uint32 draws leaves half a 64-bit word buffered
        seeds = EDGE_SEEDS + [12345, 678]
        for seed, rng in zip(seeds, trial_streams(seeds), strict=True):
            ref = np.random.default_rng(seed)
            assert rng.bit_generator.state == ref.bit_generator.state
            got = rng.integers(0, 2**32, size=3, dtype=np.uint32)
            assert np.array_equal(got, ref.integers(0, 2**32, size=3, dtype=np.uint32))
            assert rng.bit_generator.state["has_uint32"] == 1

    def test_each_stream_is_its_own_generator(self):
        # every stream taken first, then drawn from last to first
        seeds = EDGE_SEEDS + [12345, 678]
        streams = list(trial_streams(seeds))
        for seed, rng in reversed(list(zip(seeds, streams, strict=True))):
            ref = np.random.default_rng(seed)
            assert np.array_equal(rng.random(5), ref.random(5))
            assert np.array_equal(rng.integers(0, 2**64, 3, dtype=np.uint64),
                                  ref.integers(0, 2**64, 3, dtype=np.uint64))
        assert len({id(rng) for rng in streams}) == len(seeds)
        assert list(trial_streams([])) == []

    def test_package_import_leaves_numpy_random_unloaded(self):
        # numpy.random is imported when the first streams are seeded, not with
        # the package: loading it costs every command tens of milliseconds
        code = "import sys, phasecount, phasecount.cli; print('numpy.random' in sys.modules)"
        src = str(Path(phasecount.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env=env, check=True).stdout
        assert out == "False\n"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_seed_before_drawing(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a 64-bit unsigned integer, got {seed}"):
            trial_streams([0, seed])


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
    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phase_is_named(self, model, phi):
        # named as the phase it is, not as a NaN count mean
        probe = ProbeConfig.from_intensities(0.1)
        with pytest.raises(ValueError, match=f"^phi must be finite, got {phi!r}$"):
            count_distribution(phi, probe, DetectorModel(), model)

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


# ---------------------------------------------------------------------------
# number-resolving statistics drawn from their exact law vs the record path
# ---------------------------------------------------------------------------

# Fixed before the first run: each comparison below rejects at 1e-3, so a
# correct draw fails one of the 20 comparisons with probability about 2%,
# and the fixed seeds make each outcome repeat.
DRAW_ALPHA = 1e-3
DRAW_TRIALS = 2000


def _counts_config(phi, probe, det=DetectorModel(), pulses=300,
                   model=LikelihoodModel.POISSON_FRINGE):
    return ExperimentConfig(scheme=Scheme.DISPLACED_COUNTING, phi_true=phi, probe=probe,
                            det=det, pulses=pulses, model=model)


BENCH_DET = DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993)
# the poisson-fringe cases, with checkpoints that end at the record's end
FRINGE_DRAWS = {
    "fringe-ideal": _counts_config(1.0, ProbeConfig.from_intensities(0.1)),
    "fringe-bench": _counts_config(1.0, ProbeConfig.from_intensities(0.100, 0.101),
                                   BENCH_DET),
    "fringe-bright": _counts_config(2.88, ProbeConfig.from_intensities(200, 202), BENCH_DET,
                                    pulses=40),  # mean count ~474
}
# the visibility-mixture cases, with checkpoints that stop short of the
# record's end: each histogram ends at the largest count at its checkpoint
MIXTURE_DRAWS = {
    "mixture-matched": _counts_config(0.7, ProbeConfig.from_intensities(0.5),
                                      DetectorModel(eta=0.602, nu=1.13e-4, xi=0.9),
                                      model=LikelihoodModel.VISIBILITY_MIXTURE),
    "mixture-ideal": _counts_config(0.3, ProbeConfig.from_intensities(0.1),
                                    model=LikelihoodModel.VISIBILITY_MIXTURE),
}
EXACT_LAW_DRAWS = {**FRINGE_DRAWS, **MIXTURE_DRAWS}


def _drawn_and_recorded(config, checkpoints, seed):
    """DRAW_TRIALS statistics from the measurement's statistic draw on the trial
    streams of ``seed``, and as many from sample + its statistics on those of seed + 1."""
    draw = config.measurement.statistic_draw(config.phi_true, config.pulses, checkpoints)
    drawn = [draw(rng) for rng in trial_streams(split_seeds(seed, 0, DRAW_TRIALS))]
    recorded = [list(config.measurement.statistics(sample(replace(config, seed=s)).values,
                                       checkpoints))
                for s in split_seeds(seed + 1, 0, DRAW_TRIALS).tolist()]
    return drawn, recorded


def _chi_square_pvalue(first, second):
    """Chi-square homogeneity p-value of two count vectors over the same
    categories, adjacent categories pooled until each bin holds 10 counts."""
    bins, pending = [], np.zeros(2)
    for pair in zip(first, second):
        pending = pending + pair
        if pending.sum() >= 10:
            bins.append(pending)
            pending = np.zeros(2)
    if len(bins) < 2:
        return 1.0
    bins[-1] = bins[-1] + pending
    return stats.chi2_contingency(np.array(bins).T, correction=False).pvalue


def _padded(histograms):
    """The histograms as the rows of one array, zero-padded to the longest."""
    out = np.zeros((len(histograms), max(map(len, histograms))), dtype=np.int64)
    for row, histogram in zip(out, histograms):
        row[:len(histogram)] = histogram
    return out


class TestExactLawDraw:
    """The statistic draw takes number-resolving statistics from their exact law;
    the record path (sample + the measurement's statistics) is the reference."""

    @pytest.mark.parametrize("name", sorted(FRINGE_DRAWS))
    def test_total_count_law_equals_record_path(self, name):
        config = FRINGE_DRAWS[name]
        checkpoints = (1, 10, config.pulses // 2, config.pulses)
        drawn, recorded = _drawn_and_recorded(config, checkpoints, seed=61)
        for statistics in (drawn, recorded):
            assert all([k for k, _ in trial] == list(checkpoints) for trial in statistics)
            assert all(type(s) is int for trial in statistics for _, s in trial)
        for j in range(len(checkpoints)):
            totals = [[trial[j][1] for trial in statistics] for statistics in (drawn, recorded)]
            assert stats.ks_2samp(*totals).pvalue > DRAW_ALPHA, checkpoints[j]

    @pytest.mark.parametrize("name", sorted(MIXTURE_DRAWS))
    def test_histogram_law_equals_record_path(self, name):
        config = MIXTURE_DRAWS[name]
        checkpoints = (1, 10, config.pulses // 2)
        drawn, recorded = _drawn_and_recorded(config, checkpoints, seed=67)
        for j, k in enumerate(checkpoints):
            both = _padded([trial[j] for trial in drawn + recorded])
            assert np.all(both.sum(axis=1) == k)
            pooled = both[:DRAW_TRIALS].sum(axis=0), both[DRAW_TRIALS:].sum(axis=0)
            assert _chi_square_pvalue(*pooled) > DRAW_ALPHA, k
        # the histogram lengths at the first checkpoint: each stops at the
        # largest count among its pulses
        lengths = _padded([np.bincount([len(trial[0]) for trial in statistics])
                           for statistics in (drawn, recorded)])
        assert _chi_square_pvalue(*lengths) > DRAW_ALPHA

    @pytest.mark.parametrize("name", sorted(MIXTURE_DRAWS))
    def test_histograms_end_at_their_largest_count(self, name):
        config = MIXTURE_DRAWS[name]
        checkpoints = (1, 10, config.pulses // 2)
        draw = config.measurement.statistic_draw(config.phi_true, config.pulses, checkpoints)
        drawn = [draw(rng) for rng in trial_streams(split_seeds(73, 0, 200))]
        for seed in split_seeds(79, 0, 200).tolist():
            values = sample(replace(config, seed=seed)).values
            recorded = list(config.measurement.statistics(values, checkpoints))
            assert recorded == [tuple(np.bincount(values[:k]).tolist()) for k in checkpoints]
            drawn.append(recorded)
        for trial in drawn:
            assert [sum(histogram) for histogram in trial] == list(checkpoints)
            assert all(histogram[-1] > 0 for histogram in trial)

    def test_mixture_draws_only_the_checkpoint_segments(self):
        config = MIXTURE_DRAWS["mixture-matched"]
        checkpoints = (1, 10, config.pulses // 2)
        segments = []

        class Recording:
            def multinomial(self, n, pvals):
                segments.append(np.asarray(n).tolist())
                return rng.multinomial(n, pvals)
        rng = np.random.default_rng(83)
        config.measurement.statistic_draw(config.phi_true, config.pulses, checkpoints)(Recording())
        assert segments == [[1, 9, config.pulses // 2 - 10]]

    @pytest.mark.parametrize("name", sorted(EXACT_LAW_DRAWS))
    def test_no_pulses_give_no_statistics(self, name):
        empty = replace(EXACT_LAW_DRAWS[name], pulses=0)
        draw = empty.measurement.statistic_draw(empty.phi_true, empty.pulses, ())
        assert draw(np.random.default_rng(0)) == []

    def test_zero_mean_gives_zero_counts(self):
        # perfect nulling: the count mean is 0 at phi = 0 for an ideal detector
        checkpoints = (1, 10, 1000)
        for model, want in ((LikelihoodModel.POISSON_FRINGE, [(1, 0), (10, 0), (1000, 0)]),
                            (LikelihoodModel.VISIBILITY_MIXTURE, [(1,), (10,), (1000,)])):
            config = _counts_config(0.0, ProbeConfig.from_intensities(0.1), pulses=1000,
                                    model=model)
            draw = config.measurement.statistic_draw(config.phi_true, config.pulses, checkpoints)
            assert all(draw(rng) == want for rng in trial_streams(split_seeds(3, 0, 20)))

    @pytest.mark.parametrize("name", sorted(EXACT_LAW_DRAWS))
    def test_draws_are_prefix_stable_in_trials(self, name):
        # raising the trial count extends a run: its first trials draw as before
        config = EXACT_LAW_DRAWS[name]
        checkpoints = (1, 10, config.pulses)
        draw = config.measurement.statistic_draw(config.phi_true, config.pulses, checkpoints)
        few, many = ([draw(rng) for rng in trial_streams(split_seeds(71, 0, trials))]
                     for trials in (5, 50))
        assert many[:5] == few
        assert len({repr(trial) for trial in many}) > 1

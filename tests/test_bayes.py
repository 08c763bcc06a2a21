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
    LikelihoodModel,
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
from phasecount.bayes import _EXP_FLOOR, GridResolutionError, LikelihoodTable, require_resolved
from phasecount.photonics import count_model, fringe_mean
from phasecount.sampling import trial_streams


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
        assert list(record.config.measurement.statistics(record.values, (0,))) == [(0, 0)]
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


class TestHeterodyneRecovery:
    """Heterodyne posteriors recover the true phase at the Cramer-Rao bound
    1/(m*2*alpha^2): a quadrature estimate checked against phi_true.  Both
    tolerances were fixed before the first run."""

    PULSES, TRIALS = 10_000, 200
    STDERRS = 4.0  # |mean phi_hat - phi_true| within this many standard errors
    VARIANCE_RTOL = 0.05  # mean posterior variance within 5% of the bound

    @pytest.mark.parametrize("phi,seed", [(0.3, 301), (1.0, 1001), (1.4, 1401)],
                             ids=["0.3", "1.0", "1.4"])
    def test_mean_estimate_and_variance(self, phi, seed):
        probe = ProbeConfig.from_intensities(0.1)
        estimates, variances = [], []
        for t in range(self.TRIALS):
            cfg = ExperimentConfig(scheme=Scheme.HETERODYNE, phi_true=phi, probe=probe,
                                   det=DetectorModel(), pulses=self.PULSES,
                                   seed=split_seed(seed, t))
            ((_, phi_hat, variance),) = sequential_estimates(sample(cfg),
                                                             checkpoints=[self.PULSES])
            estimates.append(phi_hat)
            variances.append(variance)
        stderr = float(np.std(estimates, ddof=1)) / math.sqrt(self.TRIALS)
        assert abs(float(np.mean(estimates)) - phi) <= self.STDERRS * stderr
        bound = 1.0 / (self.PULSES * 2.0 * probe.alpha**2)
        assert float(np.mean(variances)) == pytest.approx(bound, rel=self.VARIANCE_RTOL)


class TestOneComponentCounts:
    """The poisson-fringe count posterior, scored from (k, S) in one grid pass."""

    def test_nulled_node_gets_no_mass_once_a_count_is_seen(self):
        config = _ideal_counts_config(5)
        table = LikelihoodTable(config.measurement, 129)
        assert fringe_mean(table.grid[0], config.probe, config.det) == 0.0
        (post,) = table.posteriors([(5, 2)])
        assert post.density[0] == 0.0
        assert np.all(post.density[1:] > 0.0)

    def test_zero_total_gives_exp_minus_k_lam(self):
        config = _ideal_counts_config(40)
        table = LikelihoodTable(config.measurement, 129)
        (post,) = table.posteriors([(40, 0)])
        want = np.exp(-40 * fringe_mean(table.grid, config.probe, config.det))
        np.testing.assert_allclose(post.density, want / np.trapezoid(want, table.grid),
                                   rtol=1e-14)

    def test_impossible_total_raises(self):
        config = ExperimentConfig(
            scheme=Scheme.DISPLACED_COUNTING, phi_true=0.5,
            probe=ProbeConfig(0.0, 0.0), det=DetectorModel(), pulses=3, seed=0)
        table = LikelihoodTable(config.measurement, 65)
        with pytest.raises(PosteriorUnderflowError):
            table.moments([(3, 1)])
        assert table.moments([(3, 0)]) == table.moments([(0, 0)])  # no counts: flat

    def test_memo_keys_are_pulse_and_count_totals(self):
        config = _ideal_counts_config(2000, phi=1.0)
        checkpoints = (10, 100, 2000)
        table = LikelihoodTable(config.measurement, 129)
        draw = config.measurement.statistic_draw(config.phi_true, config.pulses, checkpoints)
        record = sample(replace(config, seed=1))
        for statistics in (draw(rng) for rng in trial_streams([1, 2])):
            assert [k for k, _ in statistics] == list(checkpoints)
            assert all(b >= a for (_, a), (_, b) in zip(statistics, statistics[1:]))
            table.moments(statistics)
        table.moments(config.measurement.statistics(record.values, checkpoints))
        assert table._moments
        assert all(len(key) == 2 and all(type(v) is int for v in key) for key in table._moments)


class TestRequireResolved:
    """The Cramer-Rao sd after the pulses must span one grid spacing."""

    @pytest.mark.parametrize("pulses", [1, 10**6])
    def test_threshold_is_one_spacing(self, pulses):
        spacing = math.pi / 4096
        require_resolved(1.0 / (pulses * (1.01 * spacing) ** 2), pulses, 4097)
        with pytest.raises(GridResolutionError, match=(
                f"grid_size 4097 cannot resolve the posterior after {pulses} pulses: "
                "its Cramer-Rao sd is 0.99 of a grid spacing")):
            require_resolved(1.0 / (pulses * (0.99 * spacing) ** 2), pulses, 4097)

    def test_no_information_is_no_failure(self):
        require_resolved(0.0, 10**9, 65)


def _full_grid_trapezoid(y, spacing):
    row = y[1:] + y[:-1]
    row *= spacing
    row *= 0.5
    return float(np.add.reduce(row))


def _full_grid_loglik(table, config, statistic):
    # the on/off row as a zero row plus one multiply-add per nonzero count
    if config.scheme is Scheme.DISPLACED_COUNTING and config.det.kind is DetectorKind.ON_OFF:
        row = np.zeros_like(table.grid)
        model = count_model(config.probe, config.det, config.model)
        for n, log_p in zip(statistic, model.log_silent_click(table.grid)):
            if n:
                row += log_p * n
        return row
    return table.loglik(statistic)


def _full_grid_posterior(loglik, spacing, floor=_EXP_FLOOR):
    """Every step of the posterior over every node: the composition whose
    bits the live-window kernel keeps."""
    peak = float(loglik.max())
    if not math.isfinite(peak):
        raise PosteriorUnderflowError("posterior vanished at every grid node")
    density = loglik - peak
    live = density >= floor
    lo, hi = int(live.argmax()), len(live) - int(live[::-1].argmax())
    density[:lo] = 0.0
    density[hi:] = 0.0
    np.exp(density[lo:hi], out=density[lo:hi])
    density /= _full_grid_trapezoid(density, spacing)
    return density


def _full_grid_moments(nodes, density, spacing):
    row = nodes * density
    phi_hat = _full_grid_trapezoid(row, spacing)
    np.subtract(phi_hat, nodes, out=row)
    np.square(row, out=row)
    row *= density
    return phi_hat, _full_grid_trapezoid(row, spacing)


def _bits(moments):
    return np.array(moments, dtype=float).tobytes()


class TestPosteriorKernel:
    """LikelihoodTable evaluates every posterior in fresh rows, elementwise
    only on its live window, with the bits of the full-grid evaluation."""

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
        table = LikelihoodTable(config.measurement, 257)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            statistics = list(config.measurement.statistics(record.values, (40,)))
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
        posts = LikelihoodTable(config.measurement, 129).posteriors([first_stat, second_stat])
        first = next(posts)
        kept = first.density.copy()
        second = next(posts)
        assert np.array_equal(first.density, kept)
        assert not np.shares_memory(first.density, second.density)
        assert not np.array_equal(first.density, second.density)
        (alone,) = LikelihoodTable(config.measurement, 129).posteriors([first_stat])
        assert np.array_equal(first.density, alone.density)

    @pytest.mark.parametrize("name", sorted(REUSE_CASES))
    def test_moments_repeat_exactly_in_any_order(self, name):
        config, statistics = self.REUSE_CASES[name]
        table = LikelihoodTable(config.measurement, 129)
        once = table.moments(statistics)
        assert table.moments(statistics) == once
        assert LikelihoodTable(config.measurement, 129).moments(statistics[::-1])[::-1] == once
        assert all(type(v) is float for moments in once for v in moments)

    @staticmethod
    def _assert_full_grid_bits(table, config, statistics):
        spacing = np.diff(table.grid)
        rows = [_full_grid_loglik(table, config, s) for s in statistics]
        for row, statistic in zip(rows, statistics):
            got = table.loglik(statistic)
            assert got.tobytes() == row.tobytes()
        want = [_full_grid_posterior(row, spacing) for row in rows]
        for post, density in zip(table.posteriors(statistics), want, strict=True):
            assert post.density.tobytes() == density.tobytes()
        moments = [_full_grid_moments(table.grid, density, spacing) for density in want]
        assert _bits(table.moments(statistics)) == _bits(moments)
        return want

    def test_window_touching_the_first_node(self):
        # no counts in 2,000 pulses: the peak is the nulled node phi = 0
        config = _ideal_counts_config(2000)
        table = LikelihoodTable(config.measurement)
        (density,) = self._assert_full_grid_bits(table, config, [(2000, 0)])
        assert density[0] > 0.0 and density[-1] == 0.0

    def test_window_touching_the_last_node(self):
        # S/k = 0.4 = 4 alpha^2, the largest mean, reached at phi = pi
        config = _ideal_counts_config(2000)
        table = LikelihoodTable(config.measurement)
        (density,) = self._assert_full_grid_bits(table, config, [(2000, 800)])
        assert density[-1] > 0.0 and density[0] == 0.0

    def test_single_live_node(self):
        # S/k is the mean at node 20 of 65 and k is so large that both
        # neighbours lie more than -_EXP_FLOOR below the peak
        config = _ideal_counts_config(10**8)
        table = LikelihoodTable(config.measurement, 65)
        k = 10**8
        s = round(k * float(fringe_mean(table.grid[20], config.probe, config.det)))
        (density,) = self._assert_full_grid_bits(table, config, [(k, s)])
        assert np.flatnonzero(density).tolist() == [20]

    @pytest.mark.parametrize("name", ["flat", "onoff-few-pulses"])
    def test_whole_grid_live(self, name):
        config, statistic = {
            "flat": (_ideal_counts_config(0), (0, 0)),
            "onoff-few-pulses": (_experiment_config(10, 0), (7, 3)),
        }[name]
        table = LikelihoodTable(config.measurement)
        (density,) = self._assert_full_grid_bits(table, config, [statistic])
        assert np.all(density > 0.0)

    @pytest.mark.parametrize("name", ["onoff", "pnrd-fringe"])
    def test_ideal_detector_rows_with_minus_inf_nodes(self, name):
        # a click, or a count, is impossible at the nulled node phi = 0
        config, statistics = {
            "onoff": (self._ideal_onoff_config(40), [(33, 7), (0, 40), (40, 0)]),
            "pnrd-fringe": (_ideal_counts_config(40), [(40, 2), (40, 30), (40, 0)]),
        }[name]
        table = LikelihoodTable(config.measurement, 257)
        assert np.isneginf(_full_grid_loglik(table, config, statistics[0])[0])
        densities = self._assert_full_grid_bits(table, config, statistics)
        assert densities[0][0] == 0.0 and densities[1][0] == 0.0

    @pytest.mark.parametrize("name", ["impossible-count", "nan-quadrature"])
    def test_statistic_after_an_underflow_gets_fresh_table_moments(self, name):
        config, bad, good = {
            # no light and no dark counts: one count is impossible everywhere
            "impossible-count": (
                ExperimentConfig(scheme=Scheme.DISPLACED_COUNTING, phi_true=0.5,
                                 probe=ProbeConfig(0.0, 0.0), det=DetectorModel(), pulses=3),
                (3, 1), (3, 0)),
            # a NaN heterodyne sum makes every node NaN
            "nan-quadrature": (
                ExperimentConfig(scheme=Scheme.HETERODYNE, phi_true=0.8,
                                 probe=ProbeConfig.from_intensities(0.1), det=DetectorModel(),
                                 pulses=3),
                (3, complex(math.nan, math.nan), 1.0), (3, 0.5 + 0.25j, 1.2)),
        }[name]
        table = LikelihoodTable(config.measurement, 129)
        with pytest.raises(PosteriorUnderflowError):
            table.moments([bad])
        fresh = LikelihoodTable(config.measurement, 129).moments([good])
        assert _bits(table.moments([good])) == _bits(fresh)
        with pytest.raises(PosteriorUnderflowError):
            next(table.posteriors([bad]))
        (post,) = table.posteriors([good])
        (fresh_post,) = LikelihoodTable(config.measurement, 129).posteriors([good])
        assert post.density.tobytes() == fresh_post.density.tobytes()


# below exp's underflow edge, -745.13: the full-row composition at this floor
# takes the exp of every node
_UNDERFLOW_FLOOR = -746.0


def _sweep_configs():
    """(config, statistics) sets over every scheme and count model."""
    experiment = _experiment_config(10, 0)
    ideal_onoff = TestPosteriorKernel._ideal_onoff_config(10)
    pnrd = replace(experiment, det=replace(experiment.det, kind=DetectorKind.NUMBER_RESOLVING))
    bright = replace(pnrd, probe=ProbeConfig.from_intensities(200, 202))
    ideal_pnrd = _ideal_counts_config(10)
    clicks = [(m - c, c) for m, step in ((10, 1), (1000, 1), (10_000, 7))
              for c in range(0, m + 1, step)]
    ideal_clicks = [(m - c, c) for m in (40, 4000) for c in range(0, m + 1, m // 40)]

    def totals(config, count=150):
        # (k, S) from no counts to past the largest mean count of the grid
        lam_max = float(count_model(config.probe, config.det, config.model).means(math.pi)[0])
        return [(k, s) for k in (10, 1000, 100_000)
                for s in np.unique(np.linspace(0, 1.2 * k * lam_max, count).astype(int)).tolist()]

    def drawn(config, checkpoints, seeds=range(6)):
        draw = config.measurement.statistic_draw(config.phi_true, checkpoints[-1], checkpoints)
        return [s for rng in trial_streams(list(seeds)) for s in draw(rng)]

    checkpoints = (10, 100, 1000, 10_000, 100_000)
    mixture = replace(pnrd, phi_true=0.7, probe=ProbeConfig.from_intensities(0.5),
                      det=replace(pnrd.det, xi=0.9), model=LikelihoodModel.VISIBILITY_MIXTURE)
    heterodyne = replace(experiment, scheme=Scheme.HETERODYNE, phi_true=2.2)
    return {
        "onoff": (experiment, clicks),
        "onoff-ideal": (ideal_onoff, ideal_clicks),
        "pnrd-fringe-weak": (pnrd, totals(pnrd)),
        "pnrd-fringe-bright": (bright, totals(bright)),
        "pnrd-fringe-ideal": (ideal_pnrd, totals(ideal_pnrd, 40)),
        "pnrd-mixture": (mixture, drawn(mixture, checkpoints[:4])),
        "heterodyne": (heterodyne, drawn(heterodyne, checkpoints)),
    }


SWEEP = _sweep_configs()


def test_trailing_zero_counts_leave_the_moments():
    # a histogram ends at its largest count: zeros past it add nothing
    config, statistics = SWEEP["pnrd-mixture"]
    histograms = statistics[:40]
    assert all(histogram[-1] for histogram in histograms)
    padded = [histogram + (0, 0, 0) for histogram in histograms]
    assert (LikelihoodTable(config.measurement).moments(padded)
            == LikelihoodTable(config.measurement).moments(histograms))


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_floor_keeps_the_bits_of_the_whole_row_moments(name):
    """The moments of the live window cut at ``_EXP_FLOOR`` have the bits of
    the posterior that takes every node's exp."""
    config, statistics = SWEEP[name]
    table = LikelihoodTable(config.measurement)
    spacing = np.diff(table.grid)
    want = []
    for statistic in statistics:
        density = _full_grid_posterior(_full_grid_loglik(table, config, statistic),
                                       spacing, _UNDERFLOW_FLOOR)
        want.append(_full_grid_moments(table.grid, density, spacing))
    assert _bits(table.moments(statistics)) == _bits(want)

"""Output identity: the shipped configs' CSV bytes, and the sufficient-statistic
posterior path against the per-record reference it replaced.

The reference functions below are kept verbatim from the per-record
implementation (one grid likelihood rebuilt per record and per checkpoint,
a quadratic-time count table); results are compared with ``==``, except the
count table, whose recurrence now rounds in another order and is compared
within a tolerance derived from float64 epsilon, and poisson-fringe count
posteriors, now scored from (k, S) in a centred form, which are compared
with an np.longdouble posterior of the record's counts within
``LONGDOUBLE_RTOL``.
"""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import phasecount
from phasecount import (
    DetectorKind,
    DetectorModel,
    ExperimentConfig,
    LikelihoodModel,
    OutcomeRecord,
    ProbeConfig,
    Scheme,
    cli,
    count_distribution,
    estimate,
    fi_analytic,
    fi_numeric,
    onoff_likelihood,
    posterior,
    runconfig,
    sample,
    sequential_estimates,
    split_seed,
)
from phasecount.bayes import (
    _EXP_FLOOR,
    LikelihoodTable,
    PosteriorGrid,
    PosteriorUnderflowError,
    _phase_grid,
)
from phasecount.bench import run_saturate
from phasecount.photonics import (
    fringe_mean,
    homodyne_mean,
    mixture_component_means,
    mixture_weights,
    require_matched_amplitudes,
)
from phasecount.sampling import trial_streams
from test_traced_fi_curves import _load

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# SHA-256 of the CSV each shipped config produces: the byte-identity
# contract of the shipped outputs, held once, by the benchmark's workloads.
with pytest.MonkeyPatch.context() as _monkeypatch:
    SHIPPED_CSV_SHA256 = _load("workloads", _monkeypatch).SHIPPED_CSV_SHA256


# ---------------------------------------------------------------------------
# per-record reference implementation
# ---------------------------------------------------------------------------

def _ref_log_count_pmf(n, config, grid):
    if config.model is LikelihoodModel.POISSON_FRINGE:
        lam = fringe_mean(grid, config.probe, config.det)
        with np.errstate(divide="ignore", invalid="ignore"):
            logpmf = np.where(n == 0, -lam, n * np.log(lam) - lam)
        logpmf[np.isnan(logpmf)] = -np.inf  # n > 0 where lam == 0
        return logpmf
    require_matched_amplitudes(config.probe)
    w1, w2 = mixture_weights(config.det)
    lam1, lam2 = mixture_component_means(grid, config.probe, config.det)
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = np.where(n == 0, -lam1, n * np.log(lam1) - lam1)
        l1[np.isnan(l1)] = -np.inf
        l2 = np.where(n == 0, -lam2, n * np.log(lam2) - lam2)
        logw1 = math.log(w1) if w1 > 0.0 else -np.inf
        logw2 = math.log(w2) if w2 > 0.0 else -np.inf
    return np.logaddexp(logw1 + l1, logw2 + l2)


def _ref_loglik_counts(pairs, config, grid):
    total = np.zeros_like(grid)
    for n, multiplicity in pairs:
        total += multiplicity * (_ref_log_count_pmf(int(n), config, grid)
                                 - math.lgamma(int(n) + 1))
    return total


def _ref_loglik_clicks(n_silent, n_click, config, grid):
    if config.model is LikelihoodModel.POISSON_FRINGE:
        lam = fringe_mean(grid, config.probe, config.det)
        log_p0 = -lam
        with np.errstate(divide="ignore"):
            log_p1 = np.log(-np.expm1(-lam))
    else:
        require_matched_amplitudes(config.probe)
        w1, w2 = mixture_weights(config.det)
        lam1, lam2 = mixture_component_means(grid, config.probe, config.det)
        p0 = w1 * np.exp(-lam1) + w2 * np.exp(-lam2)
        with np.errstate(divide="ignore"):
            log_p0 = np.log(p0)
            log_p1 = np.log1p(-p0)
    total = np.zeros_like(grid)
    if n_silent:
        total += n_silent * log_p0
    if n_click:
        total += n_click * log_p1
    return total


def _ref_loglik_heterodyne(k, s1, s2, config, grid):
    mx = config.probe.alpha * np.cos(grid)
    my = config.probe.alpha * np.sin(grid)
    return -(s2 - 2.0 * (mx * s1.real + my * s1.imag) + k * (mx * mx + my * my))


def _ref_count_pairs(values):
    histogram = np.bincount(values)
    return [(n, int(c)) for n, c in enumerate(histogram) if c]


def _ref_loglik_grid(record, grid, upto=None):
    config = record.config
    values = record.values if upto is None else record.values[:upto]
    if len(values) == 0:
        return np.zeros_like(grid)
    if config.scheme is Scheme.DISPLACED_COUNTING:
        if config.det.kind is DetectorKind.ON_OFF:
            n_click = int(np.count_nonzero(values))
            return _ref_loglik_clicks(len(values) - n_click, n_click, config, grid)
        return _ref_loglik_counts(_ref_count_pairs(values), config, grid)
    if config.scheme is Scheme.HETERODYNE:
        return _ref_loglik_heterodyne(len(values), complex(np.sum(values)),
                                      float(np.sum(values.real**2 + values.imag**2)),
                                      config, grid)
    raise ValueError(f"unknown scheme {config.scheme!r}")


def _ref_normalize(loglik, grid):
    peak = float(np.max(loglik))
    if not np.isfinite(peak):
        raise PosteriorUnderflowError("posterior vanished at every grid node")
    density = np.exp(loglik - peak)
    norm = float(np.trapezoid(density, grid))
    if norm <= 0.0 or not math.isfinite(norm):
        raise PosteriorUnderflowError("posterior normalization underflowed")
    return density / norm


def _ref_sequential_estimates(record, grid_size, checkpoints):
    ks = [int(k) for k in checkpoints]
    grid = _phase_grid(grid_size)
    config = record.config
    results = []

    if (config.scheme is Scheme.DISPLACED_COUNTING
            and config.det.kind is DetectorKind.NUMBER_RESOLVING):
        histogram = np.zeros(int(record.values.max()) + 1, dtype=np.int64)
        prev = 0
        for k in ks:
            histogram += np.bincount(record.values[prev:k], minlength=len(histogram))
            prev = k
            pairs = [(n, int(c)) for n, c in enumerate(histogram) if c]
            density = _ref_normalize(_ref_loglik_counts(pairs, config, grid), grid)
            results.append((k, *estimate(PosteriorGrid(nodes=grid, density=density))))
        return results

    if (config.scheme is Scheme.DISPLACED_COUNTING
            and config.det.kind is DetectorKind.ON_OFF):
        clicks_so_far = np.cumsum(record.values.astype(np.int64))
        for k in ks:
            n_click = int(clicks_so_far[k - 1])
            density = _ref_normalize(_ref_loglik_clicks(k - n_click, n_click, config, grid), grid)
            results.append((k, *estimate(PosteriorGrid(nodes=grid, density=density))))
        return results

    for k in ks:
        density = _ref_normalize(_ref_loglik_grid(record, grid, upto=k), grid)
        results.append((k, *estimate(PosteriorGrid(nodes=grid, density=density))))
    return results


def _ref_count_distribution(phi, probe, det, model, tail_mass=1e-14):
    if model is LikelihoodModel.POISSON_FRINGE:
        weights = [1.0]
        means = [float(fringe_mean(phi, probe, det))]
    else:
        require_matched_amplitudes(probe)
        weights = list(mixture_weights(det))
        means = [float(v) for v in mixture_component_means(phi, probe, det)]

    terms = [w * math.exp(-lam) for w, lam in zip(weights, means)]
    pmf = [sum(terms)]
    n = 0
    while 1.0 - math.fsum(pmf) >= tail_mass:
        terms = [t * lam / (n + 1) for t, lam in zip(terms, means)]
        pmf.append(sum(terms))
        n += 1
        if n > 1_000_000:
            raise RuntimeError(f"count distribution did not reach tail mass {tail_mass:g}")
    return np.array(pmf)


# ---------------------------------------------------------------------------
# extended-precision reference for the one-component count model
# ---------------------------------------------------------------------------

# Fixed before the first comparison: the relative distance allowed between a
# poisson-fringe number-resolving posterior's mean or variance and the
# np.longdouble reference.  The per-count float64 sum it replaced misses it on
# bright probes, where S log(lam) - k lam is large and the peak subtraction
# cancels its leading digits.
LONGDOUBLE_RTOL = 1e-10


def _ld_density(values, config, grid):
    """The fringe count posterior of ``values`` on the float64 ``grid``, summed
    per distinct count as sum_n c_n (n log lam - lam) and normalized, all in
    np.longdouble."""
    ld = np.longdouble
    nodes = grid.astype(ld)
    a, b = ld(config.probe.alpha), ld(config.probe.beta)
    eta, nu, xi = (ld(v) for v in (config.det.eta, config.det.nu, config.det.xi))
    s = np.sin(nodes / 2)
    lam = eta * ((a - b) ** 2 + 2 * a * b * (1 - xi) + 4 * xi * a * b * s * s) + nu
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    loglik = np.zeros_like(nodes)
    for n, multiplicity in _ref_count_pairs(values):
        loglik += multiplicity * (n * log_lam - lam if n else -lam)
    density = np.exp(loglik - loglik.max())
    return nodes, density / _ld_trapezoid(density, nodes)


def _ld_trapezoid(y, nodes):
    return (np.diff(nodes) * (y[1:] + y[:-1]) / 2).sum()


def _ld_moments(values, config, grid):
    nodes, density = _ld_density(values, config, grid)
    mean = _ld_trapezoid(nodes * density, nodes)
    return mean, _ld_trapezoid((nodes - mean) ** 2 * density, nodes)


def _ld_sequential_estimates(record, grid_size, checkpoints):
    grid = _phase_grid(grid_size)
    return [(k, *_ld_moments(record.values[:k], record.config, grid)) for k in checkpoints]


def _assert_within_longdouble(got, want):
    """Each float in ``got`` within LONGDOUBLE_RTOL of ``want``; the rest equal."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            _assert_within_longdouble(g, w)
        elif isinstance(w, np.longdouble):
            assert abs(np.longdouble(g) - w) <= LONGDOUBLE_RTOL * abs(w), (g, w)
        else:
            assert g == w


FRINGE_COUNTS = {"pnrd-fringe", "pnrd-fringe-bright"}


# ---------------------------------------------------------------------------
# shipped configs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stem", sorted(SHIPPED_CSV_SHA256))
def test_shipped_config_csv_bytes(stem, tmp_path):
    command = "saturate" if stem == "experiment_saturate" else "fi-curve"
    out = tmp_path / f"{stem}.csv"
    assert cli.main([command, "--config", str(CONFIGS / f"{stem}.yaml"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_CSV_SHA256[stem]


# Number-resolving Monte Carlo runs: a shipped config plus overrides, cut to a
# few trials, and the SHA-256 of its CSV.  These pin the exact-law statistic
# draws (numpy's Generator.poisson and multinomial streams) and the count
# table the mixture draws over.
PNRD_RUNS = {
    "simulate-desk": ("simulate", "experiment_simulate", {"detector": "pnrd", "trials": 10},
                      "35c5b30905470fcfe82f71a48eef4ac58b61866459ad6a6fa495596cfea8dd77"),
    "simulate-bright": ("simulate", "experiment_simulate", {
        "detector": "pnrd", "signal_intensity": 200, "displacement_intensity": 202,
        "phi_true": 2.88, "pulses": 100000, "trials": 4},
        "638ebed8995e5b15c5e132da01ba153f426d7d6238541c0e5040a86d024b252f"),
    "simulate-mixture": ("simulate", "experiment_simulate", {
        "detector": "pnrd", "model": "visibility-mixture", "signal_intensity": 0.5,
        "displacement_intensity": 0.5, "xi": 0.9, "phi_true": 0.7, "trials": 10},
        "9b3f830ee0f45e04ad63d1d8b417805205d42c7343170b2db3670fda621f71df"),
    "saturate-desk": ("saturate", "experiment_saturate", {"detector": "pnrd", "trials": 10},
                      "0d74e302f5ee26d5699297de337dc7776e22f8c1b615f1de1c1354542585b505"),
}


@pytest.mark.parametrize("name", sorted(PNRD_RUNS))
def test_pnrd_monte_carlo_csv_bytes(name, tmp_path):
    command, stem, overrides, sha256 = PNRD_RUNS[name]
    cfg = {**yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text()), **overrides}
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / f"{name}.csv"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# Simulate runs of the other schemes: the shipped on/off config as it stands,
# and a small heterodyne run of it, with the SHA-256 of each CSV.
SIMULATE_RUNS = {
    "onoff-shipped": ({}, "175a8e5d825824bc3abb797331eedfe6192080f5712cb86bcd88a1775d14bc34"),
    "heterodyne": ({"scheme": "heterodyne", "pulses": 2000, "trials": 5},
                   "b9428b5439942caa6fdf56053e0a7ef8d275dbfa632ac194a2f3492b92502bd8"),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_RUNS))
def test_simulate_csv_bytes(name, tmp_path):
    overrides, sha256 = SIMULATE_RUNS[name]
    cfg = {**yaml.safe_load((CONFIGS / "experiment_simulate.yaml").read_text()), **overrides}
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / f"{name}.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# sufficient-statistic posterior vs the per-record reference
# ---------------------------------------------------------------------------

EXPERIMENT = dict(probe=ProbeConfig.from_intensities(0.100, 0.101),
                  det=DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993))
MATCHED = dict(probe=ProbeConfig.from_intensities(0.5),
               det=DetectorModel(eta=0.602, nu=1.13e-4, xi=0.9))
BRIGHT = dict(probe=ProbeConfig.from_intensities(200, 202),
              det=DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993))


def _config(scheme, phi, parts, kind=DetectorKind.NUMBER_RESOLVING,
            model=LikelihoodModel.POISSON_FRINGE, pulses=3000, seed=0):
    det = DetectorModel(eta=parts["det"].eta, nu=parts["det"].nu, xi=parts["det"].xi, kind=kind)
    return ExperimentConfig(scheme=scheme, phi_true=phi, probe=parts["probe"], det=det,
                            pulses=pulses, model=model, seed=seed)


CASES = {
    "onoff-fringe": _config(Scheme.DISPLACED_COUNTING, 1.0, EXPERIMENT, DetectorKind.ON_OFF),
    "onoff-mixture": _config(Scheme.DISPLACED_COUNTING, 0.4, MATCHED, DetectorKind.ON_OFF,
                             LikelihoodModel.VISIBILITY_MIXTURE),
    "pnrd-fringe": _config(Scheme.DISPLACED_COUNTING, 2.0, MATCHED),
    "pnrd-fringe-bright": _config(Scheme.DISPLACED_COUNTING, 2.88, BRIGHT, pulses=500),
    "pnrd-mixture": _config(Scheme.DISPLACED_COUNTING, 0.7, MATCHED,
                            model=LikelihoodModel.VISIBILITY_MIXTURE),
    "pnrd-mixture-ideal": _config(Scheme.DISPLACED_COUNTING, 0.3,
                                  dict(probe=ProbeConfig.from_intensities(0.1),
                                       det=DetectorModel()),
                                  model=LikelihoodModel.VISIBILITY_MIXTURE),
    "heterodyne": _config(Scheme.HETERODYNE, 2.2, EXPERIMENT),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [3, 4])
def test_sequential_estimates_equal_per_record_reference(name, seed):
    config = CASES[name]
    record = sample(replace(config, seed=seed))
    checkpoints = sorted({1, 7, 10, 100, 316, config.pulses // 2, config.pulses})
    got = sequential_estimates(record, 257, checkpoints)
    if name in FRINGE_COUNTS:
        _assert_within_longdouble(got, _ld_sequential_estimates(record, 257, checkpoints))
    else:
        assert got == _ref_sequential_estimates(record, 257, checkpoints)


def _assert_reference_on_window(density, loglik, grid):
    """``density`` has the bytes of the whole-row reference posterior of
    ``loglik`` on the live window, from the first to the last node whose
    log-density lies within ``_EXP_FLOOR`` of the peak, and is exactly 0
    outside it; every reference value cut lies below e^_EXP_FLOOR of the
    reference peak, and the moments keep the reference's bits.  Returns the
    reference density."""
    ref = _ref_normalize(loglik, grid)
    live = np.flatnonzero(loglik - loglik.max() >= _EXP_FLOOR)
    lo, hi = live[0], live[-1] + 1
    assert density[lo:hi].tobytes() == ref[lo:hi].tobytes()
    assert not density[:lo].any() and not density[hi:].any()
    assert np.all(np.concatenate([ref[:lo], ref[hi:]]) < math.exp(_EXP_FLOOR) * ref.max())
    assert estimate(PosteriorGrid(nodes=grid, density=density)) == _ref_estimate(grid, ref)
    return ref


@pytest.mark.parametrize("name", sorted(CASES))
def test_posterior_equals_per_record_reference(name):
    config = CASES[name]
    record = sample(config)
    grid = _phase_grid(129)
    post = posterior(record, 129)
    if name in FRINGE_COUNTS:
        _assert_within_longdouble(estimate(post), _ld_moments(record.values, config, grid))
        _, density = _ld_density(record.values, config, grid)
        assert np.all(np.abs(post.density - density) <= LONGDOUBLE_RTOL * density.max())
    else:
        _assert_reference_on_window(post.density, _ref_loglik_grid(record, grid), grid)
    empty = OutcomeRecord(replace(config, pulses=0), record.values[:0])
    assert np.array_equal(posterior(empty, 129).density, _ref_normalize(np.zeros_like(grid), grid))


class _TwoModes:
    """A measurement for ``LikelihoodTable`` with two posterior modes: the
    Gaussian quadrature log-likelihood of mean sqrt(2)*alpha*sin(phi),
    variance 1/2, which takes the same value at phi and pi - phi."""

    def __init__(self, probe):
        self.probe = probe

    def loglik(self, grid):
        mean = homodyne_mean(grid, self.probe)

        def two_modes(statistic):
            k, s1, s2 = statistic
            return -(s2 - 2.0 * mean * s1 + k * mean * mean)
        return two_modes


def test_posterior_density_is_the_whole_row_exp_across_underflow():
    # 200,000 quadratures at phi = 0.3 and seed 0: modes at phi and pi - phi,
    # both in one window, cut at both ends and with nodes whose exp is 0 or
    # subnormal between them
    probe = EXPERIMENT["probe"]
    rng = next(trial_streams([0]))
    values = float(homodyne_mean(0.3, probe)) + math.sqrt(0.5) * rng.standard_normal(200_000)
    statistic = (len(values), float(np.sum(values)), float(np.sum(values * values)))
    grid = _phase_grid(4097)
    two_modes = _TwoModes(probe)
    (post,) = LikelihoodTable(two_modes, 4097).posteriors([statistic])
    density = post.density
    ref = _assert_reference_on_window(density, two_modes.loglik(grid)(statistic), grid)
    assert np.any((density == 0.0) & (ref > 0.0))
    zero = np.flatnonzero(density == 0.0)
    assert zero[0] == 0 and zero[-1] == grid.size - 1
    assert np.any((zero > np.argmax(grid >= 0.3)) & (zero < np.argmax(grid >= math.pi - 0.3)))
    assert np.any((density > 0.0) & (density < np.finfo(float).tiny))


@pytest.mark.parametrize("seed", [3, 4])
def test_bright_fringe_estimates_within_longdouble_bound(seed):
    # mean count ~474 over 2e4 pulses: S ~ 1e7, where the per-count float64 sum
    # was off by ~1e-9 in the variance at the default grid
    config = replace(CASES["pnrd-fringe-bright"], pulses=20_000, seed=seed)
    record = sample(config)
    checkpoints = runconfig._default_checkpoints(config.pulses)
    _assert_within_longdouble(
        sequential_estimates(record, 4097, checkpoints),
        _ld_sequential_estimates(record, 4097, checkpoints))


def test_saturate_with_shared_click_counts_matches_per_trial_reference():
    run = runconfig.parse_saturate({
        "phi_grid": {"values": [0.3, 2.5]}, "pulses": [20, 60], "trials": 40,
        "grid_size": 257, "seed": 99, "signal_intensity": 0.100,
        "displacement_intensity": 0.101, "eta": 0.602, "nu": 1.13e-4, "xi": 0.993,
        "detector": "onoff",
    })
    result = run_saturate(run)
    pset = run.params
    for i, phi in enumerate(run.phi_values):
        for j, m in enumerate(run.pulses_list):
            base = (i * len(run.pulses_list) + j) * run.trials
            inv_mvar, variances, clicks = [], [], set()
            for t in range(run.trials):
                cfg = ExperimentConfig(
                    scheme=Scheme.DISPLACED_COUNTING, phi_true=phi, probe=pset.probe,
                    det=pset.det, pulses=m, model=pset.model,
                    seed=split_seed(run.seed, base + t),
                )
                record = sample(cfg)
                clicks.add(int(np.count_nonzero(record.values)))
                (_, _, var), = _ref_sequential_estimates(record, run.grid_size, (m,))
                inv_mvar.append(1.0 / (m * var))
                variances.append(var)
            assert len(clicks) < run.trials  # the cell does share click counts
            row = result.rows[i * len(run.pulses_list) + j]
            assert row[2:4] == (float(np.mean(inv_mvar)), float(np.mean(variances)))


# ---------------------------------------------------------------------------
# count table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", list(LikelihoodModel))
@pytest.mark.parametrize("xi", [0.9, 0.993, 1.0])
def test_count_distribution_matches_quadratic_reference(model, xi):
    # The table runs the recurrence as p *= lam / n, the reference as
    # t * lam / (n + 1): entry n carries up to about n + 1 roundings of each,
    # and the two tables may stop a few terms apart within the tail mass.
    eps = np.finfo(np.float64).eps
    det = DetectorModel(eta=0.602, nu=1.13e-4, xi=xi)
    for intensity in np.geomspace(1e-4, 200.0, 12):
        probe = ProbeConfig.from_intensities(intensity)
        for phi in np.linspace(0.0, math.pi, 5):
            got = count_distribution(phi, probe, det, model)
            want = _ref_count_distribution(phi, probe, det, model)
            common = min(len(got), len(want))
            bound = 2.0 * (np.arange(common) + 1) * eps * want[:common]
            assert np.all(np.abs(got[:common] - want[:common]) <= bound)
            assert got[common:].sum() < 1e-14 and want[common:].sum() < 1e-14


def test_bright_probe_fails_fast_with_exit_code_2(tmp_path):
    # mean count ~726: exp(-mean) is subnormal and the linear-domain count
    # table can no longer reach its tail mass; the run must end, not hang
    cfg = tmp_path / "bright.yaml"
    cfg.write_text(textwrap.dedent("""\
        phi_true: 3.14159
        signal_intensity: 300
        displacement_intensity: 303
        eta: 0.602
        xi: 1.0
        nu: 1.13e-4
        detector: pnrd
        pulses: 100
        trials: 2
        grid_size: 257
        seed: 1
    """))
    src = str(Path(phasecount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "phasecount.cli", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "bright.csv")],
        capture_output=True, text=True, timeout=10, env=env)
    assert time.monotonic() - start < 10.0
    assert proc.returncode in (0, 2), proc.stderr
    if proc.returncode == 2:
        assert "count distribution" in proc.stderr
        assert "tail mass" in proc.stderr


# ---------------------------------------------------------------------------
# trapezoid moments with the spacing computed once, and the per-run table
# ---------------------------------------------------------------------------

def _ref_estimate(nodes, density):
    phi_hat = float(np.trapezoid(nodes * density, nodes))
    variance = float(np.trapezoid((phi_hat - nodes) ** 2 * density, nodes))
    return phi_hat, variance


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_moments_equal_trapezoid_reference(name):
    config = CASES[name]
    record = sample(replace(config, seed=5))
    grid = _phase_grid(257)
    checkpoints = sorted({1, 10, 316, config.pulses})
    table = LikelihoodTable(config.measurement, 257)
    if name in FRINGE_COUNTS:
        _assert_within_longdouble(
            table.moments(config.measurement.statistics(record.values, checkpoints)),
            [_ld_moments(record.values[:k], config, grid) for k in checkpoints])
        return
    densities = [_ref_normalize(_ref_loglik_grid(record, grid, upto=k), grid)
                 for k in checkpoints]
    expected = [_ref_estimate(grid, density) for density in densities]
    assert table.moments(config.measurement.statistics(record.values, checkpoints)) == expected
    for density, moments in zip(densities, expected):
        post = PosteriorGrid(nodes=grid, density=density)
        assert estimate(post) == moments
        assert post.normalization() == float(np.trapezoid(density, grid))


def test_table_evaluates_each_statistic_once():
    config = CASES["onoff-fringe"]
    table = LikelihoodTable(config.measurement, 129)
    seen = []
    loglik = table.loglik
    table.loglik = lambda statistic: (seen.append(statistic), loglik(statistic))[1]
    first = table.moments([(5, 1), (4, 2), (5, 1)])
    assert seen == [(5, 1), (4, 2)]
    assert table.moments([(4, 2), (6, 0)]) == [first[1], table.moments([(6, 0)])[0]]
    assert seen == [(5, 1), (4, 2), (6, 0)]
    assert first[0] == first[2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estimate_on_nonuniform_nodes_equals_trapezoid(seed):
    rng = np.random.default_rng(seed)
    nodes = np.concatenate(([0.0], np.sort(rng.uniform(0.0, math.pi, 300)), [math.pi]))
    density = rng.exponential(size=nodes.size) * np.exp(-((nodes - 1.0) / 0.05) ** 2)
    post = PosteriorGrid(nodes=nodes, density=density)
    assert estimate(post) == _ref_estimate(nodes, density)
    assert post.normalization() == float(np.trapezoid(density, nodes))


# (detector, model, intensities, xi): the cells at phi 0.3 and 0.5 share
# statistics, so the run's one table answers one phase's records from the
# other's posteriors
SHARED_RUNS = {
    "onoff-fringe": ("onoff", "poisson-fringe", (0.100, 0.101), 0.993),
    "pnrd-fringe": ("pnrd", "poisson-fringe", (0.100, 0.101), 0.993),
    "pnrd-mixture": ("pnrd", "visibility-mixture", (0.5, 0.5), 0.9),
}


def _counts_with_statistic(config, statistic):
    """``config.pulses`` counts whose number-resolving statistic is ``statistic``:
    the total (k, S) spread as evenly as it goes, or the histogram's counts."""
    if config.model is LikelihoodModel.POISSON_FRINGE:
        k, total = statistic
        return total // k + (np.arange(k) < total % k)
    return np.repeat(np.arange(len(statistic)), statistic)


@pytest.mark.parametrize("name", sorted(SHARED_RUNS))
def test_saturate_run_table_matches_per_trial_reference(name):
    detector, model, (signal, displacement), xi = SHARED_RUNS[name]
    run = runconfig.parse_saturate({
        "phi_grid": {"values": [0.3, 0.5]}, "pulses": [8, 30], "trials": 30,
        "grid_size": 257, "seed": 7, "signal_intensity": signal,
        "displacement_intensity": displacement, "eta": 0.602, "nu": 1.13e-4, "xi": xi,
        "detector": detector, "model": model,
    })
    result = run_saturate(run)
    pset = run.params
    seen = {}
    for i, phi in enumerate(run.phi_values):
        for j, m in enumerate(run.pulses_list):
            base = (i * len(run.pulses_list) + j) * run.trials
            inv_mvar, variances = [], []
            cell = ExperimentConfig(
                scheme=Scheme.DISPLACED_COUNTING, phi_true=phi, probe=pset.probe,
                det=pset.det, pulses=m, model=pset.model)
            draw = cell.measurement.statistic_draw(cell.phi_true, cell.pulses, (m,))
            for t in range(run.trials):
                seed = split_seed(run.seed, base + t)
                if detector == "onoff":
                    record = sample(replace(cell, seed=seed))
                else:  # a record with the statistic the trial's stream draws
                    (statistic,) = draw(next(trial_streams([seed])))
                    record = OutcomeRecord(cell, _counts_with_statistic(cell, statistic))
                (statistic,) = cell.measurement.statistics(record.values, (m,))
                seen.setdefault(statistic, set()).add(phi)
                (_, _, var), = (_ld_sequential_estimates if name in FRINGE_COUNTS
                                else _ref_sequential_estimates)(record, run.grid_size, (m,))
                inv_mvar.append(1.0 / (m * var))
                variances.append(var)
            if name in FRINGE_COUNTS:
                means = (np.mean(inv_mvar), np.mean(variances))  # np.longdouble
            else:
                means = (float(np.mean(inv_mvar)), float(np.mean(variances)))
            _assert_within_longdouble(result.rows[i * len(run.pulses_list) + j], (
                phi, m, *means,
                fi_numeric(Scheme.DISPLACED_COUNTING, phi, pset.probe, pset.det,
                           model=pset.model).value,
                fi_analytic(Scheme.DISPLACED_COUNTING, phi, pset.probe),
                fi_analytic(Scheme.HOMODYNE, phi, pset.probe)))
    assert any(len(phases) > 1 for phases in seen.values())  # phases do share statistics


def _ref_sample(config):
    rng = np.random.default_rng(config.seed)
    m = config.pulses
    if config.scheme is Scheme.DISPLACED_COUNTING:
        if config.det.kind is DetectorKind.ON_OFF:
            p_click = onoff_likelihood(True, config.phi_true, config.probe,
                                       config.det, config.model)
            values = rng.random(m) < p_click
        else:
            pmf = count_distribution(config.phi_true, config.probe, config.det, config.model)
            cdf = np.cumsum(pmf)
            draws = np.searchsorted(cdf, rng.random(m), side="right")
            values = np.minimum(draws, len(pmf) - 1).astype(np.int64)
    else:
        mx = config.probe.alpha * math.cos(config.phi_true)
        my = config.probe.alpha * math.sin(config.phi_true)
        noise = math.sqrt(0.5) * rng.standard_normal((m, 2))
        values = (mx + noise[:, 0]) + 1j * (my + noise[:, 1])
    return OutcomeRecord(config=config, values=values)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampler_draws_equal_per_call_reference(name):
    config = CASES[name]
    for seed in (0, 11, 2**64 - 1):
        want = _ref_sample(replace(config, seed=seed))
        got = sample(replace(config, seed=seed))
        assert got.config == want.config
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)
    with pytest.raises(ValueError, match=f"seed must be a 64-bit unsigned integer, got {2**64}"):
        sample(replace(config, seed=2**64))


# ---------------------------------------------------------------------------
# statistics drawn without the record vs the record's statistics
# ---------------------------------------------------------------------------

def _checkpoint_sets(m):
    return [(1,), (m,), (1, 2, m), runconfig._default_checkpoints(m)]


# number-resolving statistics are drawn from their exact law, not from the
# record's stream: tests/test_sampling.py::TestExactLawDraw compares their
# distribution with the record path's
RECORD_DRAWS = sorted(n for n, c in CASES.items()
                      if not (c.scheme is Scheme.DISPLACED_COUNTING
                              and c.det.kind is DetectorKind.NUMBER_RESOLVING))


@pytest.mark.parametrize("name", RECORD_DRAWS)
def test_statistic_draw_equals_record_statistics(name):
    config = CASES[name]
    kind = config.measurement
    for checkpoints in _checkpoint_sets(config.pulses):
        draw = kind.statistic_draw(config.phi_true, config.pulses, checkpoints)
        seeds = (5, 6, 2**64 - 1)
        for seed, rng in zip(seeds, trial_streams(seeds)):
            record = sample(replace(config, seed=seed))
            want = list(kind.statistics(record.values, checkpoints))
            assert draw(rng) == want
    empty = replace(config, pulses=0)
    assert (kind.statistic_draw(empty.phi_true, 0, ())(next(trial_streams([0])))
            == list(kind.statistics(sample(empty).values, ())) == [])


@pytest.mark.parametrize("name", ["onoff-fringe", "onoff-mixture"])
def test_click_counts_equal_prefix_counts(name):
    # the on/off statistics count the clicks of each checkpoint segment and
    # carries the running count; the reference counts each prefix afresh
    config = CASES[name]
    records = [sample(replace(config, seed=seed)).values for seed in (5, 6)]
    records.append(np.ones(config.pulses, dtype=bool))
    for values in records:
        for checkpoints in _checkpoint_sets(config.pulses):
            clicks = [int(np.count_nonzero(values[:k])) for k in checkpoints]
            assert (list(config.measurement.statistics(values, checkpoints))
                    == [(k - c, c) for k, c in zip(checkpoints, clicks)])
    empty = replace(config, pulses=0)
    assert list(empty.measurement.statistics(sample(empty).values, ())) == []
    assert list(empty.measurement.statistics(sample(empty).values, (0,))) == [(0, 0)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_statistic_draw_checks_its_seed(name):
    # the draw reads a stream of trial_streams, which checks every seed before any draw
    config = CASES[name]
    draw = config.measurement.statistic_draw(config.phi_true, config.pulses, (1,))
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match=f"seed must be a 64-bit unsigned integer, got {seed}"):
            [draw(rng) for rng in trial_streams([0, seed])]

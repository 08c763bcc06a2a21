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
from phasecount.bayes import LikelihoodTable, PosteriorGrid, PosteriorUnderflowError, _phase_grid
from phasecount.bench import run_saturate
from phasecount.photonics import (
    fringe_mean,
    homodyne_mean,
    mixture_component_means,
    mixture_weights,
    require_matched_amplitudes,
)
from phasecount.sampling import lookup_histogram, sampler, statistic_sampler

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# SHA-256 of the CSV each shipped config produces: the byte-identity
# contract of the shipped outputs.
SHIPPED_CSV_SHA256 = {
    "fi_curves_ideal": "7c108e4133930fec5964bed52e992324e5080beebc6a3025efa7966e7d4ce8c9",
    "fi_curves_imperfect_weak": "15af39bee2c3069b8faa74f080ad6ffbe7d10a37374ec73c0ea7a8a925fe6f01",
    "fi_curves_imperfect_bright": "929f52a7a0ffbeb7bfc3bcbf592f4bf6f790a6678dbaff257b0c06bcae72460c",
    "experiment_saturate": "5684e8c4fb3bc8d36ca917e43d1b60a75dc4e1a9538b28e9d45cad33aa0f119d",
}


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


def _ref_loglik_homodyne(k, s1, s2, config, grid):
    mean = math.sqrt(2.0) * config.probe.alpha * np.sin(grid)
    return -(s2 - 2.0 * mean * s1 + k * mean * mean)


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
    if config.scheme is Scheme.HOMODYNE:
        return _ref_loglik_homodyne(len(values), float(np.sum(values)),
                                    float(np.sum(values * values)), config, grid)
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
# few trials, and the SHA-256 of its CSV.  The sampler draws through the count
# table, so these pin the draws that table yields.
PNRD_RUNS = {
    "simulate-desk": ("simulate", "experiment_simulate", {"detector": "pnrd", "trials": 10},
                      "cba725641107125ad6f6a5883d4c5b6320f895d3524f3c96384f16df26971a48"),
    "simulate-bright": ("simulate", "experiment_simulate", {
        "detector": "pnrd", "signal_intensity": 200, "displacement_intensity": 202,
        "phi_true": 2.88, "pulses": 100000, "trials": 4},
        "df9acb68be022315cfc864352b75665708ffe00f7f6e6296a59f6eebe0903034"),
    "simulate-mixture": ("simulate", "experiment_simulate", {
        "detector": "pnrd", "model": "visibility-mixture", "signal_intensity": 0.5,
        "displacement_intensity": 0.5, "xi": 0.9, "phi_true": 0.7, "trials": 10},
        "6f513a1537b8da207921f120feddb08fccd8f96883eca4cfc9897a9869b5135a"),
    "saturate-desk": ("saturate", "experiment_saturate", {"detector": "pnrd", "trials": 10},
                      "a92ebe45eef1f321911c808f24ccb8a14ac4c976cf095c6012ca6b49eb6e1741"),
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
# and small homodyne and heterodyne runs of it, with the SHA-256 of each CSV.
SIMULATE_RUNS = {
    "onoff-shipped": ({}, "175a8e5d825824bc3abb797331eedfe6192080f5712cb86bcd88a1775d14bc34"),
    "homodyne": ({"scheme": "homodyne", "pulses": 2000, "trials": 5},
                 "3228249b566a5f1d6dde7058d0796790f2d21c5db9367df2c03f0fa9719c6f8f"),
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
    "homodyne": _config(Scheme.HOMODYNE, 0.8, EXPERIMENT),
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
        assert np.array_equal(post.density, _ref_normalize(_ref_loglik_grid(record, grid), grid))
    empty = OutcomeRecord(replace(config, pulses=0), record.values[:0])
    assert np.array_equal(posterior(empty, 129).density, _ref_normalize(np.zeros_like(grid), grid))


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
    table = LikelihoodTable(config, 257)
    if name in FRINGE_COUNTS:
        _assert_within_longdouble(
            table.moments(table.statistics(record, checkpoints)),
            [_ld_moments(record.values[:k], config, grid) for k in checkpoints])
        return
    densities = [_ref_normalize(_ref_loglik_grid(record, grid, upto=k), grid)
                 for k in checkpoints]
    expected = [_ref_estimate(grid, density) for density in densities]
    assert table.moments(table.statistics(record, checkpoints)) == expected
    for density, moments in zip(densities, expected):
        post = PosteriorGrid(nodes=grid, density=density)
        assert estimate(post) == moments
        assert post.normalization() == float(np.trapezoid(density, grid))


def test_table_evaluates_each_statistic_once():
    config = CASES["onoff-fringe"]
    table = LikelihoodTable(config, 129)
    seen = []
    loglik = table.loglik
    table.loglik = lambda statistics: (seen.extend(statistics), loglik(statistics))[1]
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
            for t in range(run.trials):
                record = sample(ExperimentConfig(
                    scheme=Scheme.DISPLACED_COUNTING, phi_true=phi, probe=pset.probe,
                    det=pset.det, pulses=m, model=pset.model,
                    seed=split_seed(run.seed, base + t)))
                values = record.values.astype(np.int64)
                seen.setdefault((m, tuple(np.bincount(values).tolist())), set()).add(phi)
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
    elif config.scheme is Scheme.HOMODYNE:
        mean = float(homodyne_mean(config.phi_true, config.probe))
        values = mean + math.sqrt(0.5) * rng.standard_normal(m)
    else:
        mx = config.probe.alpha * math.cos(config.phi_true)
        my = config.probe.alpha * math.sin(config.phi_true)
        noise = math.sqrt(0.5) * rng.standard_normal((m, 2))
        values = (mx + noise[:, 0]) + 1j * (my + noise[:, 1])
    return OutcomeRecord(config=config, values=values)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampler_draws_equal_per_call_reference(name):
    config = CASES[name]
    draw = sampler(config)
    for seed in (0, 11, 2**64 - 1):
        want = _ref_sample(replace(config, seed=seed))
        for got in (draw(seed), sample(replace(config, seed=seed))):
            assert got.config == want.config
            assert got.values.dtype == want.values.dtype
            assert np.array_equal(got.values, want.values)
    with pytest.raises(ValueError, match="seed"):
        draw(2**64)


# ---------------------------------------------------------------------------
# statistics drawn without the record vs the record's statistics
# ---------------------------------------------------------------------------

def _checkpoint_sets(m):
    return [(1,), (m,), (1, 2, m), runconfig._default_checkpoints(m)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_statistic_draw_equals_record_statistics(name):
    config = CASES[name]
    table = LikelihoodTable(config, 129)
    for checkpoints in _checkpoint_sets(config.pulses):
        draw = statistic_sampler(config, checkpoints)
        for seed in (5, 6, 2**64 - 1):
            want = list(table.statistics(sample(replace(config, seed=seed)), checkpoints))
            assert draw(seed) == want
    empty = replace(config, pulses=0)
    assert statistic_sampler(empty, ())(0) == list(table.statistics(sample(empty), ())) == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_statistic_draw_checks_its_seed(name):
    draw = statistic_sampler(CASES[name], (1,))
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="seed"):
            draw(seed)


def _ref_lookup_histogram(cdf, uniforms):
    counts = np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)
    return np.bincount(counts, minlength=len(cdf))


# (cdf, uniforms): uniforms on CDF entries, runs of equal entries (counts of
# zero mass), uniforms at or past cdf[-1] (the clamp), zero mass at count 0
CRAFTED_LOOKUPS = {
    "on-entries": ([0.25, 0.5, 0.75, 1.0], [0.0, 0.25, 0.5, 0.75, 0.5, 0.2499, 0.7501]),
    "equal-runs": ([0.25, 0.5, 0.5, 0.5, 0.75, 0.75, 0.9], [0.5, 0.4999, 0.75, 0.6, 0.1]),
    "clamp": ([0.3, 0.6, 0.9], [0.9, 0.95, 0.999999, 0.3, 0.89]),
    "zero-first": ([0.0, 0.0, 0.5, 0.99], [0.0, 0.0, 0.2, 0.99, 0.5]),
    "one-count": ([0.7], [0.0, 0.7, 0.9]),
}


@pytest.mark.parametrize("name", sorted(CRAFTED_LOOKUPS))
def test_lookup_histogram_equals_searchsorted_bincount(name):
    cdf, uniforms = (np.array(a, dtype=float) for a in CRAFTED_LOOKUPS[name])
    want = _ref_lookup_histogram(cdf, uniforms)
    assert np.array_equal(lookup_histogram(cdf, uniforms.copy()), want)
    for u in uniforms:  # one-pulse segments
        assert np.array_equal(lookup_histogram(cdf, np.array([u])),
                              _ref_lookup_histogram(cdf, np.array([u])))


def test_lookup_histogram_on_count_table_with_ties():
    config = CASES["pnrd-fringe-bright"]
    cdf = np.cumsum(count_distribution(config.phi_true, config.probe, config.det, config.model))
    rng = np.random.default_rng(1)
    uniforms = np.concatenate([rng.random(5000), cdf[::7], cdf[-3:], [1.0 - 2**-53]])
    want = _ref_lookup_histogram(cdf, uniforms)
    segment = uniforms[100:]  # a view, sorted in place
    got = lookup_histogram(cdf, uniforms[:100]) + lookup_histogram(cdf, segment)
    assert np.array_equal(got, want)
    assert np.all(np.diff(segment) >= 0.0)

"""CLI surface: config validation, CSV/metadata contracts, exit codes."""

import math
import os
import re
import stat
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from phasecount import bench, cli, fisher, runconfig, sampling
from phasecount.photonics import DetectorModel, LikelihoodModel, ProbeConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

IDEAL_FI_CONFIG = textwrap.dedent("""\
    phi_grid:
      values: [0.0, 0.5, 1.5707963267948966]
    schemes: [displaced, homodyne, heterodyne]
    parameter_sets:
      - label: ideal
        signal_intensity: 0.1
""")

SIMULATE_CONFIG = textwrap.dedent("""\
    phi_true: 1.0
    signal_intensity: 0.100
    displacement_intensity: 0.101
    eta: 0.602
    nu: 1.13e-4
    xi: 0.993
    detector: onoff
    pulses: 500
    trials: 2
    checkpoints: [100, 500]
    grid_size: 257
    seed: 4242
""")


POVM_CONFIG = "signal_intensity: 0.1\nmax_n: 2\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(csv_path):
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestFiCurve:
    def test_ideal_rows(self, tmp_path):
        cfg = _write(tmp_path, "fi.yaml", IDEAL_FI_CONFIG)
        out = tmp_path / "fi.csv"
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _rows(out)
        assert len(rows) == 3
        col = {name: i for i, name in enumerate(header)}
        first = rows[0]
        assert float(first[col["phi"]]) == 0.0
        assert float(first[col["phi_eval"]]) == pytest.approx(1e-6)
        assert float(first[col["fi_homodyne_over_qfi"]]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[col["fi_heterodyne_over_qfi"]]) == pytest.approx(0.5, abs=1e-9)
        assert float(first[col["fi_displaced_over_qfi"]]) == pytest.approx(1.0, abs=1e-9)
        last = rows[-1]  # phi = pi/2
        assert float(last[col["fi_homodyne"]]) == pytest.approx(0.0, abs=1e-12)
        assert float(last[col["fi_displaced"]]) == pytest.approx(0.2, abs=1e-9)
        assert float(last[col["fi_heterodyne"]]) == pytest.approx(0.2, abs=1e-9)

    def test_row_count_is_grid_product(self, tmp_path):
        cfg = _write(tmp_path, "fi.yaml", textwrap.dedent("""\
            phi_grid: {start: 0.1, stop: 2.1, count: 5}
            schemes: [displaced]
            parameter_sets:
              - label: ideal
                signal_intensity: 0.1
              - label: lossy
                signal_intensity: 0.1
                eta: 0.602
        """))
        out = tmp_path / "fi.csv"
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _rows(out)
        assert len(rows) == 5 * 2
        assert "fi_homodyne" not in header

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = _write(tmp_path, "fi.yaml", IDEAL_FI_CONFIG + "typo_key: 3\n")
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_mixture_with_mismatched_amplitudes_fails(self, tmp_path, capsys):
        cfg = _write(tmp_path, "fi.yaml", textwrap.dedent("""\
            phi_grid: {values: [0.5]}
            schemes: [displaced]
            parameter_sets:
              - label: bad
                signal_intensity: 0.100
                displacement_intensity: 0.101
                model: visibility-mixture
        """))
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "matched amplitudes" in capsys.readouterr().err


    def test_mismatched_mixture_set_stops_at_config_load(self, tmp_path, capsys, monkeypatch):
        # the good set's column would come first if the check waited for the run
        monkeypatch.setattr(bench, "fi_numeric", lambda *a, **k: pytest.fail("computed"))
        cfg = _write(tmp_path, "fi.yaml", textwrap.dedent("""\
            phi_grid: {values: [0.5]}
            schemes: [displaced]
            parameter_sets:
              - label: good
                signal_intensity: 0.1
              - label: bad
                signal_intensity: 0.100
                displacement_intensity: 0.101
                model: visibility-mixture
        """))
        out = tmp_path / "x.csv"
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: invalid parameter in parameter_sets[1]: "
            "the visibility-mixture model assumes matched amplitudes")
        assert not out.exists()

    def test_bright_probe_count_sum_failure_exits_2(self, tmp_path, capsys):
        # mean count ~726: the count sum cannot reach its tail mass
        cfg = _write(tmp_path, "fi.yaml", textwrap.dedent("""\
            phi_grid: {values: [3.141592653589793]}
            schemes: [displaced]
            parameter_sets:
              - label: bright
                signal_intensity: 300
                displacement_intensity: 303
                eta: 0.602
                nu: 1.13e-4
        """))
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "tail mass" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        (IDEAL_FI_CONFIG.replace("schemes: [displaced, homodyne, heterodyne]", "schemes: []"),
         "key 'schemes' in fi-curve config must be a nonempty list"),
        # the FI/QFI columns would divide by a QFI of 0
        (IDEAL_FI_CONFIG + "  - label: dark\n    signal_intensity: 0\n"
                           "    displacement_intensity: 0.1\n",
         "key 'signal_intensity' in parameter_sets[1] must be > 0"),
    ], ids=["empty-schemes", "zero-signal"])
    def test_empty_schemes_and_zero_signal_stop_at_load(self, tmp_path, capsys, text,
                                                        message):
        cfg = _write(tmp_path, "fi.yaml", text)
        out = tmp_path / "fi.csv"
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err and "invalid parameter" not in err
        assert not out.exists()


class TestSimulate:
    @pytest.mark.usefixtures("gc_paused")
    def test_bright_probe_fails_before_drawing(self, tmp_path, capsys, monkeypatch):
        # mean count ~726, where the count sum cannot reach its tail mass: the
        # run stops at the FI reference, before any of the 1,000 trials
        seeded = []
        monkeypatch.setattr(bench, "trial_streams",
                            lambda seeds: seeded.append(seeds) or sampling.trial_streams(seeds))
        cfg = _write(tmp_path, "bright.yaml", textwrap.dedent("""\
            phi_true: 3.14159
            signal_intensity: 300
            displacement_intensity: 303
            eta: 0.602
            xi: 1.0
            nu: 1.13e-4
            detector: pnrd
            pulses: 900000
            trials: 1000
            seed: 1
        """))
        out = tmp_path / "bright.csv"
        start = time.perf_counter()
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "tail mass" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bright.yaml"]
        assert seeded == []

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_columns_and_rows(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _rows(out)
        assert header[:5] == ["k", "phi_hat_trial", "variance_trial",
                              "phi_hat_mean", "variance_mean"]
        assert [int(r[0]) for r in rows] == [100, 500]
        col = {name: i for i, name in enumerate(header)}
        k, f_het = 100, 2 * 0.100
        assert float(rows[0][col["crb_heterodyne_ideal"]]) == pytest.approx(1 / (k * f_het))

    def test_metadata_sidecar(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = yaml.safe_load((tmp_path / "sim.meta.yaml").read_text())
        assert meta["prng"] == "numpy.random.PCG64"
        assert meta["seed_mixer"] == "splitmix64"
        assert meta["config"]["seed"] == 4242
        assert meta["output"]["rows"] == 2
        assert meta["version"]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2),
                         "--seed", "1"]) == 0
        assert out1.read_bytes() != out2.read_bytes()
        meta = yaml.safe_load((tmp_path / "b.meta.yaml").read_text())
        assert meta["config"]["seed"] == 1

    def test_mean_variance_tracks_information_bound(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", textwrap.dedent("""\
            phi_true: 1.00
            signal_intensity: 0.100
            displacement_intensity: 0.101
            eta: 0.602
            nu: 1.13e-4
            xi: 0.993
            detector: onoff
            pulses: 10000
            trials: 50
            checkpoints: [1000, 3162, 10000]
            seed: 2468
        """))
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _rows(out)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:  # every checkpoint here has k >= 1e3
            var_mean = float(row[col["variance_mean"]])
            bound = float(row[col["crb_displaced_exp"]])
            assert var_mean == pytest.approx(bound, rel=0.15)

    def test_boundary_truth_is_biased_inward_but_small(self, tmp_path):
        # at phi_true = 0 the ideal receiver yields all-zero counts; the
        # posterior mean of the boundary-truncated density sits slightly
        # inside the domain
        cfg = _write(tmp_path, "sim.yaml", textwrap.dedent("""\
            phi_true: 0.0
            signal_intensity: 0.1
            pulses: 5000
            trials: 1
            checkpoints: [5000]
            seed: 3
        """))
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _rows(out)
        col = {name: i for i, name in enumerate(header)}
        phi_hat = float(rows[-1][col["phi_hat_trial"]])
        assert 0.0 < phi_hat < 0.05

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sim.yaml", "pulses: 100\nsignal_intensity: 0.1\n")
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "phi_true" in capsys.readouterr().err

    def test_homodyne_is_refused_at_config_load(self, tmp_path, capsys, monkeypatch):
        # sin(phi) = sin(pi - phi): a homodyne run would report pi/2 for every
        # record, so it stops at load, before the FI pass or any draw
        def fails(*args, **kwargs):
            raise AssertionError("the run went past config load")
        for module, name in ((fisher, "count_law"), (fisher, "fi_numeric"),
                             (bench, "fi_numeric"), (bench, "trial_streams")):
            monkeypatch.setattr(module, name, fails)
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG + "scheme: homodyne\n")
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: key 'scheme' in simulate config: " \
               f"{fisher.HOMODYNE_UNIDENTIFIED}" in err
        assert "invalid parameter" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "sim.yaml"]

    def test_non_integer_checkpoints_rejected(self, tmp_path, capsys):
        text = SIMULATE_CONFIG.replace("checkpoints: [100, 500]", "checkpoints: [10.7, 99.9, 500]")
        cfg = _write(tmp_path, "sim.yaml", text)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "'checkpoints'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["simulate", "saturate"])
def test_out_of_range_seed_exits_1_and_names_it(tmp_path, capsys, command, seed):
    text = SIMULATE_CONFIG if command == "simulate" else textwrap.dedent("""\
        phi_grid: {values: [1.0]}
        pulses: [100]
        trials: 2
        grid_size: 257
        seed: 4242
        signal_intensity: 0.1
    """)
    cfg = _write(tmp_path, "run.yaml", text.replace("seed: 4242", f"seed: {seed}"))
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert f"seed must be a 64-bit unsigned integer, got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_seed_stops_at_config_load(tmp_path, capsys, monkeypatch):
    # a bright number-resolving run sums its count law, some 650 terms, for
    # the FI of its phase before it seeds any trial; a seed out of range must
    # stop it before that, and a valid one reaches it
    def no_count_law(*args, **kwargs):
        raise AssertionError("count law summed")
    monkeypatch.setattr(fisher, "count_law", no_count_law)
    text = SIMULATE_CONFIG
    for old, new in (("detector: onoff", "detector: pnrd"),
                     ("signal_intensity: 0.100", "signal_intensity: 200"),
                     ("displacement_intensity: 0.101", "displacement_intensity: 202")):
        text = text.replace(old, new)
    out = tmp_path / "run.csv"
    with pytest.raises(AssertionError, match="count law summed"):
        cli.main(["simulate", "--config", _write(tmp_path, "ok.yaml", text), "--out", str(out)])
    cfg = _write(tmp_path, "run.yaml", text.replace("seed: 4242", "seed: -1"))
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "seed must be a 64-bit unsigned integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text,where", [
    ("simulate", (CONFIGS / "experiment_simulate.yaml").read_text(), "simulate config"),
    ("saturate", (CONFIGS / "experiment_saturate.yaml").read_text(), "saturate config"),
    ("fi-curve", IDEAL_FI_CONFIG, "parameter_sets[0]"),
], ids=["simulate", "saturate", "fi-curve"])
def test_overflowing_intensities_stop_at_config_load(tmp_path, capsys, command, text, where):
    # 4*(alpha^2 + beta^2) overflows: the fringe mean would be inf * 0 = NaN
    text = re.sub(r"(signal|displacement)_intensity: .*", r"\1_intensity: 1.0e+308", text)
    cfg = _write(tmp_path, "run.yaml", text)
    out = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"invalid parameter in {where}: intensities overflow" in err
    assert not out.exists()


@pytest.mark.parametrize("command,text,where", [
    ("simulate", (CONFIGS / "experiment_simulate.yaml").read_text(), "simulate config"),
    ("saturate", (CONFIGS / "experiment_saturate.yaml").read_text(), "saturate config"),
    ("fi-curve", IDEAL_FI_CONFIG, "parameter_sets[0]"),
], ids=["simulate", "saturate", "fi-curve"])
def test_dark_counts_that_overflow_the_mean_stop_at_config_load(tmp_path, capsys, command,
                                                               text, where):
    # 4*(alpha^2 + beta^2) is finite but adding nu overflows: the fringe mean
    # would be inf, and the count sum would blame its tail mass
    text = re.sub(r"(signal|displacement)_intensity: .*", r"\1_intensity: 2.0e+307", text)
    text = re.sub(r"nu: .*\n", "", text)
    text = text.replace("signal_intensity: 2.0e+307",
                        "signal_intensity: 2.0e+307\n    nu: 1.7e+308" if command == "fi-curve"
                        else "signal_intensity: 2.0e+307\nnu: 1.7e+308")
    cfg = _write(tmp_path, "run.yaml", text)
    out = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"invalid parameter in {where}: nu overflows the count mean" in err
    assert "nu=1.7e+308" in err
    assert not out.exists()


SATURATE_CONFIG = textwrap.dedent("""\
    phi_grid: {values: [1.0, 3.1]}
    pulses: [100]
    trials: 2
    grid_size: 257
    seed: 4242
    signal_intensity: 0.100
    displacement_intensity: 0.101
    detector: onoff
""")


def _run_config(command, bright, **values):
    """The simulate or saturate test config, with a bright number-resolving
    probe (mean count ~1200 at phi = 3.1) if asked and some keys replaced."""
    text = SIMULATE_CONFIG if command == "simulate" else SATURATE_CONFIG
    if bright:
        for old, new in (("detector: onoff", "detector: pnrd"),
                         ("signal_intensity: 0.100", "signal_intensity: 300"),
                         ("displacement_intensity: 0.101", "displacement_intensity: 303")):
            text = text.replace(old, new)
    for key, value in values.items():
        text = re.sub(rf"(?m)^{key}: .*$", f"{key}: {value}", text)
    return text


@pytest.mark.parametrize("bright", [False, True], ids=["weak", "bright"])
@pytest.mark.parametrize("command,key,value,message", [
    ("simulate", "phi_true", 3.3, "must lie in [0, pi], got 3.3"),
    ("simulate", "phi_true", -0.1, "must lie in [0, pi], got -0.1"),
    ("simulate", "phi_true", ".nan", "must lie in [0, pi], got nan"),
    ("simulate", "grid_size", 64, "must be >= 65, got 64"),
    ("saturate", "grid_size", 64, "must be >= 65, got 64"),
    ("saturate", "grid_size", 10, "must be >= 65, got 10"),
])
def test_out_of_range_key_stops_at_config_load(tmp_path, capsys, command, key, value,
                                               message, bright):
    # a bright probe fails its FI reference with exit 2; a bad key must stop
    # the run first, with exit 1 and the key named
    cfg = _write(tmp_path, "run.yaml", _run_config(command, bright, **{key: value}))
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert f"key '{key}' in {command} config {message}" in capsys.readouterr().err
    assert not out.exists()


UNRESOLVED_KEYS = textwrap.dedent("""\
    signal_intensity: 10
    displacement_intensity: 10.1
    eta: 0.602
    nu: 1.13e-4
    xi: 0.993
    detector: pnrd
    model: poisson-fringe
    trials: 3
""")


@pytest.mark.parametrize("command,keys", [
    ("simulate", "phi_true: 1.0\npulses: 1000000000\n"),
    ("saturate", "phi_grid: {values: [1.0, 2.0]}\npulses: [1000000000]\n"),
], ids=["simulate", "saturate"])
def test_unresolvable_posterior_fails_before_drawing(tmp_path, capsys, monkeypatch,
                                                     command, keys):
    # mean count ~10 over 1e9 pulses: the Cramer-Rao sd is about 1% of a grid
    # spacing, where the moments are wrong (simulate variances down to 0.0)
    # or there are none (a 0.0 variance divides 1/(m*Var) by zero)
    seeded = []
    monkeypatch.setattr(bench, "trial_streams",
                        lambda seeds: seeded.append(seeds) or sampling.trial_streams(seeds))
    cfg = _write(tmp_path, "run.yaml", keys + UNRESOLVED_KEYS)
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("grid_size 4097 cannot resolve the posterior after 1000000000 pulses: "
            "its Cramer-Rao sd is 0.00966 of a grid spacing") in err
    assert list(tmp_path.iterdir()) == [tmp_path / "run.yaml"]
    assert seeded == []


def test_bright_benchmark_simulate_is_resolved(tmp_path):
    # the 1e5-pulse bright number-resolving run: sd/spacing about 1.44
    text = (CONFIGS / "experiment_simulate.yaml").read_text()
    for key, value in (("detector", "pnrd"), ("pulses", 100000), ("signal_intensity", 200),
                       ("displacement_intensity", 202), ("phi_true", 2.88), ("trials", 1)):
        text = re.sub(rf"(?m)^{key}: .*$", f"{key}: {value}", text)
    cfg = _write(tmp_path, "run.yaml", text)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["simulate", "saturate"])
def test_smallest_grid_size_runs(tmp_path, command):
    cfg = _write(tmp_path, "run.yaml", _run_config(command, False, grid_size=65))
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("phi_true", [0.0, math.pi], ids=["zero", "pi"])
def test_phi_true_range_is_closed(tmp_path, phi_true):
    cfg = _write(tmp_path, "run.yaml", _run_config("simulate", False, phi_true=repr(phi_true)))
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_flag_is_a_config_error(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "sat.yaml", textwrap.dedent("""\
        phi_grid: {values: [1.0]}
        pulses: [100]
        signal_intensity: 0.1
    """))
    out = tmp_path / "sat.csv"
    assert cli.main(["saturate", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 1
    assert f"seed must be a 64-bit unsigned integer, got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text,message", [
    ("simulate", _run_config("simulate", False, xi=".nan"),
     "key 'xi' in simulate config must be a finite number, got nan"),
    ("saturate", _run_config("saturate", False, signal_intensity=".inf"),
     "key 'signal_intensity' in saturate config must be a finite number, got inf"),
    ("fi-curve", IDEAL_FI_CONFIG.replace("values: [0.0, 0.5, 1.5707963267948966]",
                                         "{start: 0.0, stop: .inf, count: 3}"),
     "key 'stop' in phi_grid must be a finite number, got inf"),
    ("fi-curve", IDEAL_FI_CONFIG.replace("[0.0, 0.5,", "[0.0, .nan,"),
     "entry 1 of 'values' in phi_grid must be a finite number, got nan"),
    # YAML integers beyond the float range, where float() raises OverflowError
    ("saturate", _run_config("saturate", False, signal_intensity="1" + "0" * 400),
     "key 'signal_intensity' in saturate config must be a finite number, got inf"),
    ("saturate", SATURATE_CONFIG.replace("[1.0, 3.1]", "[1.0, -1" + "0" * 400 + "]"),
     "entry 1 of 'values' in phi_grid must be a finite number, got -inf"),
], ids=["simulate-xi", "saturate-signal", "fi-curve-stop", "fi-curve-values",
        "saturate-signal-overflow", "saturate-values-overflow"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command, text, message):
    cfg = _write(tmp_path, "run.yaml", text)
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text,line", [
    ("simulate", _run_config("simulate", False, eta=".nan"),
     "configuration error: key 'eta' in simulate config must be a finite number, got nan"),
    ("simulate", _run_config("simulate", False, detector="foo"),
     "configuration error: key 'detector' in simulate config must be one of "
     "['onoff', 'pnrd'], got 'foo'"),
    ("fi-curve", IDEAL_FI_CONFIG + "    eta: .nan\n",
     "configuration error: key 'eta' in parameter_sets[0] must be a finite number, got nan"),
], ids=["simulate-eta", "simulate-detector", "fi-curve-eta"])
def test_detector_key_error_names_its_place_once(tmp_path, capsys, command, text, line):
    # the detector keys are read before the objects are built, so their own
    # message is not wrapped in "invalid parameter in <where>"
    cfg = _write(tmp_path, "run.yaml", text)
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "saturate"])
def test_trials_flag_gets_the_key_check(tmp_path, capsys, command):
    # a flag sets its key, so it fails with the key's own message
    cfg = _write(tmp_path, "run.yaml", _run_config(command, False))
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--trials", "0"]) == 1
    assert f"key 'trials' in {command} config must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text,flags,streams", [
    ("simulate", _run_config("simulate", False, trials="1" + "0" * 30), [], 10**30),
    ("simulate", _run_config("simulate", False), ["--trials", str(10**30)], 10**30),
    # 2**62 trials fit, but not over the config's two phases
    ("saturate", _run_config("saturate", False, trials=2**62), [], 2**63),
], ids=["simulate", "simulate-flag", "saturate"])
def test_more_trial_streams_than_an_array_holds_is_a_config_error(
        tmp_path, capsys, monkeypatch, command, text, flags, streams):
    monkeypatch.setattr(bench, "split_seeds", lambda *args: pytest.fail("seeds were made"))
    cfg = _write(tmp_path, "run.yaml", text)
    out = tmp_path / "run.csv"
    assert cli.main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert (f"configuration error: key 'trials' in {command} config asks for {streams} "
            "trial streams" in err)
    assert "invalid parameter" not in err
    assert not out.exists()


def test_run_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError
    monkeypatch.setattr(bench, "split_seeds", no_memory)
    cfg = _write(tmp_path, "run.yaml", SIMULATE_CONFIG)
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert ("configuration error: the run does not fit in memory"
            in capsys.readouterr().err)
    assert not out.exists()


class TestSaturate:
    def test_single_cell_single_row(self, tmp_path):
        cfg = _write(tmp_path, "sat.yaml", textwrap.dedent("""\
            phi_grid: {values: [1.0]}
            pulses: [400]
            trials: 1
            grid_size: 257
            seed: 7
            signal_intensity: 0.100
            displacement_intensity: 0.101
            eta: 0.602
            nu: 1.13e-4
            xi: 0.993
            detector: onoff
        """))
        out = tmp_path / "sat.csv"
        assert cli.main(["saturate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _rows(out)
        assert len(rows) == 1
        assert header[0] == "phi" and header[1] == "pulses"

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = _write(tmp_path, "sat.yaml", textwrap.dedent("""\
            phi_grid: {values: [1.0]}
            pulses: [100]
            trials: 1
            grid_size: 257
            seed: 7
            signal_intensity: 0.1
        """))
        out = tmp_path / "sat.csv"
        assert cli.main(["saturate", "--config", cfg, "--out", str(out),
                         "--seed", "8", "--trials", "2"]) == 0
        meta = yaml.safe_load((tmp_path / "sat.meta.yaml").read_text())
        assert (meta["config"]["seed"], meta["config"]["trials"]) == (8, 2)

    def test_grid_product_rows(self, tmp_path):
        cfg = _write(tmp_path, "sat.yaml", textwrap.dedent("""\
            phi_grid: {values: [0.5, 1.0, 2.0]}
            pulses: [200, 400]
            trials: 2
            grid_size: 257
            seed: 7
            signal_intensity: 0.1
        """))
        out = tmp_path / "sat.csv"
        assert cli.main(["saturate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _rows(out)
        assert len(rows) == 3 * 2

    @pytest.mark.usefixtures("gc_paused")
    def test_bright_phase_fails_before_drawing(self, tmp_path, capsys, monkeypatch):
        # mean count ~726 at the second phase, where the count sum cannot
        # reach its tail mass: the run stops at the FI references, before
        # the first phase's 2,000 trials are drawn
        seeded = []
        monkeypatch.setattr(bench, "trial_streams",
                            lambda seeds: seeded.append(seeds) or sampling.trial_streams(seeds))
        cfg = _write(tmp_path, "bright.yaml", textwrap.dedent("""\
            phi_grid: {values: [0.1, 3.14159]}
            pulses: [1000, 10000]
            trials: 2000
            seed: 1
            signal_intensity: 300
            displacement_intensity: 303
            eta: 0.602
            xi: 1.0
            nu: 1.13e-4
            detector: pnrd
        """))
        out = tmp_path / "bright.csv"
        start = time.perf_counter()
        assert cli.main(["saturate", "--config", cfg, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "tail mass" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "bright.yaml"]
        assert seeded == []

    def test_finite_sample_runs_leave_the_information_bound(self, tmp_path):
        # tiny records near phi = pi: the prior-bounded posterior variance
        # makes 1/(m*Var) land far above the Fisher information
        cfg = _write(tmp_path, "sat.yaml", textwrap.dedent("""\
            phi_grid: {values: [3.0]}
            pulses: [100]
            trials: 30
            grid_size: 513
            seed: 5
            signal_intensity: 0.100
            displacement_intensity: 0.101
            eta: 0.602
            nu: 1.13e-4
            xi: 0.993
            detector: onoff
        """))
        out = tmp_path / "sat.csv"
        assert cli.main(["saturate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = _rows(out)
        col = {name: i for i, name in enumerate(header)}
        inv_mean = float(rows[0][col["inv_m_var_mean"]])
        fisher = float(rows[0][col["fi_displaced_exp"]])
        assert inv_mean > 2.0 * fisher

    def test_phase_grid_must_be_interior(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sat.yaml", textwrap.dedent("""\
            phi_grid: {values: [0.0]}
            pulses: [100]
            signal_intensity: 0.1
        """))
        assert cli.main(["saturate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "phase value" in capsys.readouterr().err

    def test_empty_pulses_list_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sat.yaml", textwrap.dedent("""\
            phi_grid: {values: [1.0]}
            pulses: []
            signal_intensity: 0.1
        """))
        assert cli.main(["saturate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "key 'pulses' in saturate config must be a nonempty list" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_cell_c_trial_t_draws_stream_c_trials_plus_t(tmp_path):
    # a one-cell saturate run and a simulate run with the cell's phase, pulses
    # and one checkpoint at them draw the same streams 0 .. trials - 1
    shipped = runconfig.load_config(CONFIGS / "experiment_saturate.yaml")
    params = {k: shipped[k] for k in ("signal_intensity", "displacement_intensity", "eta",
                                      "nu", "xi", "detector", "model", "grid_size", "seed")}
    sat = _write(tmp_path, "sat.yaml", yaml.safe_dump(
        {**params, "phi_grid": {"values": [1.0]}, "pulses": [1000], "trials": 5}))
    sim = _write(tmp_path, "sim.yaml", yaml.safe_dump(
        {**params, "phi_true": 1.0, "pulses": 1000, "checkpoints": [1000], "trials": 5}))
    assert cli.main(["saturate", "--config", sat, "--out", str(tmp_path / "sat.csv")]) == 0
    assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path / "sim.csv")]) == 0
    (sat_header, (sat_row,)), (sim_header, (sim_row,)) = (
        _rows(tmp_path / f"{stem}.csv") for stem in ("sat", "sim"))
    assert sat_row[sat_header.index("variance_mean")] == \
        sim_row[sim_header.index("variance_mean")]


class TestPovmCheck:
    def test_passes_on_ideal_grid(self, tmp_path, capsys):
        cfg = _write(tmp_path, "povm.yaml", "signal_intensity: 0.1\n")
        assert cli.main(["povm-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "overall max deviation" in out and "PASS" in out

    def test_report_file(self, tmp_path, capsys):
        # the --out report holds the bytes printed to stdout
        cfg = _write(tmp_path, "povm.yaml", "signal_intensity: 0.1\nmax_n: 5\n")
        report = tmp_path / "report.txt"
        assert cli.main(["povm-check", "--config", cfg, "--out", str(report)]) == 0
        assert report.read_bytes() == capsys.readouterr().out.encode("ascii")
        assert "PASS" in report.read_text()

    def test_outcomes_past_the_last_nonzero_probability_are_skipped(self, tmp_path, capsys,
                                                                      monkeypatch):
        # every probability on the shipped config is 0 above n = 150: the
        # report of max_n 10^9 is that of max_n 2000, and no outcome past
        # 2000 is evaluated
        oracle = bench.born_probability_oracle

        def bounded_oracle(n, *args):
            assert n <= 2000, f"outcome {n} evaluated"
            return oracle(n, *args)
        monkeypatch.setattr(bench, "born_probability_oracle", bounded_oracle)
        shipped = (CONFIGS / "povm_check.yaml").read_text()
        assert "max_n: 10\n" in shipped
        reports = []
        for max_n in (2000, 1_000_000_000):
            cfg = _write(tmp_path, "povm.yaml", shipped.replace("max_n: 10\n", f"max_n: {max_n}\n"))
            start = time.perf_counter()
            assert cli.main(["povm-check", "--config", cfg]) == 0
            assert time.perf_counter() - start < 20.0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert reports[0].endswith("(PASS, tolerance 1e-08)\n")

    def test_mismatched_mixture_model_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "povm.yaml", textwrap.dedent("""\
            signal_intensity: 0.100
            displacement_intensity: 0.101
            model: visibility-mixture
        """))
        assert cli.main(["povm-check", "--config", cfg]) == 1
        assert "matched amplitudes" in capsys.readouterr().err

    def test_out_of_range_eta_stops_at_config_load(self, tmp_path, capsys, monkeypatch):
        # the eta = 1 block would be checked first if the check waited for the run
        monkeypatch.setattr(bench, "pnrd_likelihood", lambda *a, **k: pytest.fail("computed"))
        cfg = _write(tmp_path, "povm.yaml", "eta_values: [1.0, 2.0]\n")
        assert cli.main(["povm-check", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: invalid parameter in povm-check config: "
                                "eta must lie in [0, 1], got 2.0\n")
        assert captured.out == ""

    def test_insufficient_cutoff_reports_numeric_failure(self, tmp_path, capsys):
        # mean photon number 1,600 at phi = pi: e^{-mu/2} underflows, so the
        # derived cutoff of 2,000 captures no mass
        cfg = _write(tmp_path, "povm.yaml", textwrap.dedent("""\
            signal_intensity: 400.0
            phi_values: [3.141592653589793]
        """))
        assert cli.main(["povm-check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "tail mass 1.000e+00 beyond Fock cutoff 2000" in err
        assert "at mean photon number 1600" in err
        assert "fock_cutoff" not in err

    def test_bright_state_gets_a_derived_cutoff(self, tmp_path, capsys):
        # mean photon number 40 at phi = pi, beyond a fixed cutoff of 30
        cfg = _write(tmp_path, "povm.yaml", textwrap.dedent("""\
            signal_intensity: 10.0
            phi_values: [3.141592653589793]
        """))
        assert cli.main(["povm-check", "--config", cfg]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_phase_is_a_config_error(self, tmp_path, capsys, value):
        cfg = _write(tmp_path, "povm.yaml", f"signal_intensity: 0.1\nphi_values: [{value}]\n")
        assert cli.main(["povm-check", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "entry 0 of 'phi_values' in povm-check config must be a finite number" \
            in captured.err
        assert "PASS" not in captured.out

    def test_nan_deviation_fails(self):
        run = runconfig.PovmCheckRun(
            probe=ProbeConfig.from_intensities(0.1, 0.1), model=LikelihoodModel.POISSON_FRINGE,
            detectors=(DetectorModel(),), phi_values=(0.5, math.nan), max_n=2)
        lines, worst, passed = bench.run_povm_check(run)
        assert math.isnan(worst) and not passed
        assert lines[-1] == "overall max deviation = nan (FAIL, tolerance 1e-08)"


class TestCommonFlags:
    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["fi-curve", "--config", str(tmp_path / "absent.yaml"),
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text,out", [
        ("fi-curve", IDEAL_FI_CONFIG, "absent/x.csv"),
        ("fi-curve", IDEAL_FI_CONFIG, "."),
        ("povm-check", POVM_CONFIG, "absent/r.txt"),
        ("fi-curve", IDEAL_FI_CONFIG, ""),
        ("simulate", SIMULATE_CONFIG, ""),
        ("saturate", SATURATE_CONFIG, ""),
        ("povm-check", POVM_CONFIG, ""),
    ], ids=["csv-missing-dir", "csv-is-a-directory", "povm-check-missing-dir",
            "fi-curve-empty", "simulate-empty", "saturate-empty", "povm-check-empty"])
    def test_unwritable_out_names_the_output(self, tmp_path, capsys, monkeypatch,
                                             command, text, out):
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, "cfg.yaml", text)
        out = str(tmp_path / out) if out else ""
        assert cli.main([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error writing output: ") and f"'{out}'" in err
        assert "configuration" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.yaml"]  # no file, no directory

    @pytest.mark.parametrize("command,text,out,computes", [
        ("fi-curve", IDEAL_FI_CONFIG, "absent/x.csv", "fi_numeric"),
        ("simulate", SIMULATE_CONFIG, ".", "trial_streams"),
        ("simulate", SIMULATE_CONFIG, "x.csv", "trial_streams"),
        ("povm-check", POVM_CONFIG, "absent/r.txt", "run_povm_check"),
        ("fi-curve", IDEAL_FI_CONFIG, "", "fi_numeric"),
        ("simulate", SIMULATE_CONFIG, "", "fi_numeric"),
        ("saturate", SATURATE_CONFIG, "", "fi_numeric"),
        ("povm-check", POVM_CONFIG, "", "run_povm_check"),
    ], ids=["fi-curve-missing-dir", "simulate-is-a-directory", "simulate-sidecar-is-a-directory",
            "povm-check-missing-dir", "fi-curve-empty", "simulate-empty", "saturate-empty",
            "povm-check-empty"])
    def test_unwritable_out_stops_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                 command, text, out, computes):
        monkeypatch.setattr(bench, computes, lambda *a, **k: pytest.fail("computed"))
        monkeypatch.chdir(tmp_path)
        cfg = _write(tmp_path, "cfg.yaml", text)
        (tmp_path / "x.meta.yaml").mkdir()
        before = sorted(tmp_path.rglob("*"))
        out = str(tmp_path / out) if out else ""
        assert cli.main([command, "--config", cfg, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error writing output: [Errno ")
        assert captured.out == ""  # no report of a run that did not happen
        assert sorted(tmp_path.rglob("*")) == before

    def test_config_must_be_mapping(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.yaml", "- just\n- a list\n")
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text,flags", [
        ("simulate", SIMULATE_CONFIG, ["--threads", "2"]),
        ("fi-curve", IDEAL_FI_CONFIG, ["--seed", "1"]),
        ("povm-check", "signal_intensity: 0.1\n", ["--trials", "2"]),
    ], ids=["simulate-threads", "fi-curve-seed", "povm-check-trials"])
    def test_flag_not_taken_by_command_is_a_usage_error(self, tmp_path, capsys,
                                                        command, text, flags):
        cfg = _write(tmp_path, "cfg.yaml", text)
        out = tmp_path / "x.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out), *flags]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_is_a_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "fi.yaml", IDEAL_FI_CONFIG)
        assert cli.main(["fi-curve", "--config", cfg]) == 1
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert cli.main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("command,text,code", [
        (None, None, 0),
        ("simulate", SIMULATE_CONFIG.replace("eta: 0.602", "eta: .nan"), 1),
        ("simulate", "phi_true: 1.0\npulses: 1000000000\n" + UNRESOLVED_KEYS, 2),
    ], ids=["help", "config-error", "unresolvable"])
    def test_console_entry_exits_with_the_status_of_main(self, tmp_path, capsys, monkeypatch,
                                                         command, text, code):
        # pyproject.toml's [project.scripts] wrapper, run as the installed
        # script runs it: main's status is the process exit status
        pyproject = (CONFIGS.parent / "pyproject.toml").read_text()
        assert '[project.scripts]\nphasecount = "phasecount.cli:entry"\n' in pyproject
        argv = ["--help"] if command is None else [
            command, "--config", _write(tmp_path, "run.yaml", text),
            "--out", str(tmp_path / "run.csv")]
        monkeypatch.setattr(sys, "argv", ["phasecount", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert exited.value.code == code
        assert not (tmp_path / "run.csv").exists()

    def test_help_names_every_command_and_its_flags(self, capsys):
        # containment only: argparse's wording differs between Python versions
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        for command, help_text in (
                ("fi-curve", "Fisher-information curves over a phase grid"),
                ("simulate", "seeded estimator trajectories vs pulse count"),
                ("saturate", "mean 1/(m*Var) vs the Fisher information"),
                ("povm-check", "likelihood vs Fock-space oracle cross-check")):
            assert command in out and help_text in out
        for command, seeded in (("simulate", True), ("saturate", True),
                                ("fi-curve", False), ("povm-check", False)):
            assert cli.main([command, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--config" in out and "--out" in out
            assert ("--seed" in out, "--trials" in out) == (seeded, seeded)

    @pytest.mark.parametrize("command,text,key,where", [
        ("simulate", SIMULATE_CONFIG + "fock_cutoff: 30\n", "fock_cutoff", "simulate config"),
        ("fi-curve", IDEAL_FI_CONFIG + "    fock_cutoff: 30\n", "fock_cutoff",
         "parameter_sets[0]"),
        ("povm-check", "signal_intensity: 0.1\nfock_cutoff: 30\n", "fock_cutoff",
         "povm-check config"),
        ("simulate", SIMULATE_CONFIG + "reference_trial: 0\n", "reference_trial",
         "simulate config"),
    ], ids=["simulate-fock_cutoff", "fi-curve-fock_cutoff", "povm-check-fock_cutoff",
            "simulate-reference_trial"])
    def test_deleted_keys_are_unknown(self, tmp_path, capsys, command, text, key, where):
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert f"unknown key '{key}' in {where}" in capsys.readouterr().err

    def test_trials_override(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                         "--trials", "3"]) == 0
        meta = yaml.safe_load((tmp_path / "sim.meta.yaml").read_text())
        assert meta["config"]["trials"] == 3


class TestYamlBindings:
    """Configs are parsed, and sidecars emitted, by libyaml where PyYAML has it;
    the documents and the bytes are those of the pure-Python classes."""

    def test_libyaml_is_used_where_available(self):
        if yaml.__with_libyaml__:
            assert runconfig.SafeLoader is yaml.CSafeLoader
            assert runconfig.SafeDumper is yaml.CSafeDumper
        else:
            assert runconfig.SafeLoader is yaml.SafeLoader
            assert runconfig.SafeDumper is yaml.SafeDumper

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_load_config_equals_safe_load(self, path):
        assert runconfig.load_config(path) == yaml.safe_load(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("command,stem", [
        ("fi-curve", "fi_curves_ideal"), ("fi-curve", "fi_curves_imperfect_bright"),
        ("simulate", "experiment_simulate"), ("saturate", "experiment_saturate"),
    ])
    def test_sidecar_bytes_equal_pure_python_rendering(self, tmp_path, monkeypatch,
                                                       command, stem):
        text = (CONFIGS / f"{stem}.yaml").read_text()
        cfg = _write(tmp_path, "run.yaml", re.sub(r"trials: \d+", "trials: 3", text))
        fast, pure = tmp_path / "fast.csv", tmp_path / "pure.csv"
        assert cli.main([command, "--config", cfg, "--out", str(fast)]) == 0
        monkeypatch.setattr(bench, "SafeDumper", yaml.SafeDumper)
        assert cli.main([command, "--config", cfg, "--out", str(pure)]) == 0
        sidecar = fast.with_suffix(".meta.yaml").read_bytes()
        assert sidecar.replace(b"fast.csv", b"pure.csv") == \
            pure.with_suffix(".meta.yaml").read_bytes()
        assert fast.read_bytes() == pure.read_bytes()

    @pytest.mark.parametrize("text", [
        "phi_grid: {values: [0.5\n",          # unclosed flow sequence
        "phi_grid:\n  values: [0.5]\n bad: 1\n",  # indentation
        "schemes: [displaced]\n\tphi_grid: 1\n",  # tab
        "a: b: c\n",
    ], ids=["unclosed", "indent", "tab", "nested-colon"])
    def test_malformed_config_exits_1(self, tmp_path, capsys, text):
        cfg = _write(tmp_path, "bad.yaml", text)
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "error reading configuration" in capsys.readouterr().err


class TestPhiGrid:
    """A {start, stop, count} grid holds start + i*step, a point that rounds
    past ``stop`` clamped to ``stop``."""

    def test_grids_ending_at_pi_parse_and_stay_in_range(self):
        clamped = 0
        for start in (0.0, 0.02, 0.1):
            for count in range(2, 2001):
                values, _ = runconfig.parse_phi_grid(
                    {"start": start, "stop": math.pi, "count": count}, "phi_grid")
                raw = start + np.arange(count) * ((math.pi - start) / (count - 1))
                got = np.array(values)
                assert len(values) == count and got.max() <= math.pi
                # bitwise: each point is start + i*step unless that passed stop
                want = np.where(raw > math.pi, math.pi, raw)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                clamped += bool(raw[-1] > math.pi)
        assert clamped > 0  # the sweep holds grids that were rejected before the clamp

    def test_grid_that_rounds_past_pi_runs(self, tmp_path):
        text = (CONFIGS / "fi_curves_ideal.yaml").read_text()
        assert "  count: 158\n" in text
        cfg = _write(tmp_path, "fi.yaml", text.replace("  count: 158\n", "  count: 101\n"))
        out = tmp_path / "fi.csv"
        assert cli.main(["fi-curve", "--config", cfg, "--out", str(out)]) == 0
        _, rows = _rows(out)
        assert len(rows) == 101
        assert rows[-1][0] == repr(math.pi)

    @pytest.mark.parametrize("start,stop", [
        (0.0, math.pi), (0.02, math.pi), (0.1, math.pi), (0.0, 1.0), (0.3, 0.3 + 1e-12),
        (1.0, 1.0), (-0.0, 0.5), (0.1, 3.0), (1e-300, 2.5)])
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 101, 158, 1000, 1001])
    def test_array_grid_equals_the_per_point_formula(self, start, stop, count):
        values, _ = runconfig.parse_phi_grid(
            {"start": start, "stop": stop, "count": count}, "phi_grid")
        if count == 1:
            want = (start,)
        else:
            step = (stop - start) / (count - 1)
            want = tuple(min(start + i * step, stop) for i in range(count))
        assert type(values) is tuple and all(type(v) is float for v in values)
        assert values == want and list(map(float.hex, values)) == list(map(float.hex, want))

    @pytest.mark.parametrize("grid", [
        {"start": 0.0, "stop": 3.2, "count": 5}, {"start": 0.0, "stop": 3.5, "count": 2},
        {"values": [0.1, -0.5, 1.0]}, {"values": [0.1, 4.0, -1.0]}])
    def test_range_is_checked_at_the_first_point_outside(self, grid):
        want = next(v for v in (grid["values"] if "values" in grid else
                                (grid["start"] + i * (grid["stop"] - grid["start"])
                                 / (grid["count"] - 1) for i in range(grid["count"])))
                    if not 0.0 <= v <= math.pi)
        with pytest.raises(runconfig.ConfigError, match=re.escape(f"phase value {want!r} in")):
            runconfig.parse_phi_grid(grid, "phi_grid")

    def test_grid_count_at_its_bound_parses(self):
        values, _ = runconfig.parse_phi_grid(
            {"start": 0.0, "stop": 1.0, "count": runconfig.MAX_GRID_POINTS}, "phi_grid")
        assert len(values) == runconfig.MAX_GRID_POINTS and 1.0 - 1e-15 <= values[-1] <= 1.0

    @pytest.mark.usefixtures("gc_paused")
    @pytest.mark.parametrize("command,stem", [("fi-curve", "fi_curves_ideal"),
                                              ("saturate", "experiment_saturate")])
    def test_grid_count_past_its_bound_fails_fast(self, command, stem, tmp_path, capsys):
        text = (CONFIGS / f"{stem}.yaml").read_text()
        text = re.sub(r"(?m)^phi_grid:(\n  .*)+$", "phi_grid:\n  start: 0.0\n  stop: 1.0\n"
                      "  count: 1000000000", text)
        assert "count: 1000000000" in text
        cfg = _write(tmp_path, "big.yaml", text)
        out = tmp_path / "big.csv"
        start = time.perf_counter()
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"key 'count' in phi_grid must be <= {runconfig.MAX_GRID_POINTS}" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "big.yaml"]


class TestRegeneration:
    """A sidecar's ``config`` block, written back as a config file and run
    with no flags, gives the same CSV bytes."""

    @staticmethod
    def _shipped(stem, **keys):
        text = (CONFIGS / f"{stem}.yaml").read_text()
        for key, value in keys.items():
            text = re.sub(rf"(?m)^{key}: .*$", f"{key}: {value}", text)
        return text

    @pytest.mark.parametrize("command,stem,keys,flags", [
        ("fi-curve", "fi_curves_ideal", {}, []),
        ("fi-curve", "fi_curves_imperfect_weak", {}, []),
        ("fi-curve", "fi_curves_imperfect_bright", {}, []),
        ("saturate", "experiment_saturate", {}, []),
        ("simulate", "experiment_simulate", {}, []),
        ("simulate", "experiment_simulate", {"detector": "pnrd"}, []),
        ("simulate", "experiment_simulate", {}, ["--seed", "7", "--trials", "3"]),
        ("saturate", "experiment_saturate", {}, ["--seed", "7", "--trials", "2"]),
    ], ids=["fi_curves_ideal", "fi_curves_imperfect_weak", "fi_curves_imperfect_bright",
            "experiment_saturate", "experiment_simulate", "simulate-pnrd", "simulate-flags",
            "saturate-flags"])
    def test_sidecar_config_regenerates_the_csv(self, tmp_path, command, stem, keys, flags):
        cfg = _write(tmp_path, "run.yaml", self._shipped(stem, **keys))
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert cli.main([command, "--config", cfg, "--out", str(first), *flags]) == 0
        config = yaml.safe_load(first.with_suffix(".meta.yaml").read_text())["config"]
        if flags:
            assert (config["seed"], config["trials"]) == (int(flags[1]), int(flags[3]))
        again = _write(tmp_path, "again.yaml", yaml.safe_dump(config, sort_keys=False))
        assert cli.main([command, "--config", again, "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    @staticmethod
    def _sidecar(tmp_path, command, text):
        cfg = _write(tmp_path, "grid.yaml", text)
        out = tmp_path / "grid.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        return out.with_suffix(".meta.yaml").read_text()

    @pytest.mark.parametrize("stem", ["fi_curves_ideal", "fi_curves_imperfect_weak",
                                      "fi_curves_imperfect_bright"])
    def test_fi_curve_sidecar_records_the_grid_as_given(self, tmp_path, stem):
        given = runconfig.load_config(CONFIGS / f"{stem}.yaml")["phi_grid"]
        sidecar = self._sidecar(tmp_path, "fi-curve", self._shipped(stem))
        grid = yaml.safe_load(sidecar)["config"]["phi_grid"]
        assert list(grid) == ["start", "stop", "count"]
        assert grid == given
        assert [type(v) for v in grid.values()] == [float, float, int]

    @pytest.mark.parametrize("command,text", [
        ("fi-curve", "phi_grid: {values: [0, 0.5, 3]}\nschemes: [displaced]\n"
                     "parameter_sets:\n  - signal_intensity: 0.1\n"),
        ("saturate", "phi_grid: {values: [1, 0.5, 3]}\npulses: [100]\ntrials: 1\n"
                     "grid_size: 257\nsignal_intensity: 0.1\n"),
    ], ids=["fi-curve", "saturate"])
    def test_values_grid_is_written_as_its_values(self, tmp_path, command, text):
        grid = yaml.safe_load(self._sidecar(tmp_path, command, text))["config"]["phi_grid"]
        values = [float(v) for v in yaml.safe_load(text)["phi_grid"]["values"]]
        assert grid == {"values": values}
        assert {type(v) for v in grid["values"]} == {float}

    def test_integer_start_and_stop_are_written_as_floats(self, tmp_path):
        sidecar = self._sidecar(tmp_path, "fi-curve", textwrap.dedent("""\
            phi_grid: {start: 0, stop: 3, count: 4}
            schemes: [displaced]
            parameter_sets:
              - signal_intensity: 0.1
        """))
        assert "\n  phi_grid:\n    start: 0.0\n    stop: 3.0\n    count: 4\n" in sidecar

    def test_sidecar_size_does_not_grow_with_the_grid(self, tmp_path):
        text = IDEAL_FI_CONFIG.replace("values: [0.0, 0.5, 1.5707963267948966]",
                                       "{start: 0.0, stop: 3.0, count: %d}")
        assert "count: %d" in text
        lines = [len(self._sidecar(tmp_path, "fi-curve", text % count).splitlines())
                 for count in (20, 2000)]
        assert lines[0] == lines[1]

    def test_saturate_range_grid_regenerates_the_csv(self, tmp_path):
        text = textwrap.dedent("""\
            phi_grid: {start: 0.5, stop: 2.5, count: 3}
            pulses: [100, 300]
            trials: 3
            grid_size: 257
            seed: 11
            signal_intensity: 0.1
            eta: 0.602
            detector: onoff
        """)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert cli.main(["saturate", "--config", _write(tmp_path, "sat.yaml", text),
                         "--out", str(first)]) == 0
        config = yaml.safe_load(first.with_suffix(".meta.yaml").read_text())["config"]
        assert config["phi_grid"] == {"start": 0.5, "stop": 2.5, "count": 3}
        again = _write(tmp_path, "again.yaml", yaml.safe_dump(config, sort_keys=False))
        assert cli.main(["saturate", "--config", again, "--out", str(second)]) == 0
        assert len(_rows(first)[1]) == 3 * 2
        assert second.read_bytes() == first.read_bytes()

    PARAMETER_KEYS = ["signal_intensity", "displacement_intensity", "eta", "nu", "xi",
                      "detector", "model"]

    @pytest.mark.parametrize("command,stem,head,tail", [
        ("simulate", "experiment_simulate", ["scheme", "phi_true"],
         ["pulses", "trials", "checkpoints", "grid_size", "seed"]),
        ("saturate", "experiment_saturate", ["phi_grid", "pulses"],
         ["trials", "grid_size", "seed"]),
    ], ids=["simulate", "saturate"])
    def test_seeded_sidecar_key_order(self, tmp_path, command, stem, head, tail):
        # the parameter set's keys sit between the command's own, and its label is left out
        cfg = _write(tmp_path, "run.yaml", self._shipped(stem, trials=1))
        out = tmp_path / "run.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        meta = yaml.safe_load(out.with_suffix(".meta.yaml").read_text())
        assert list(meta["config"]) == [*head, *self.PARAMETER_KEYS, *tail]
        assert "label" not in meta["config"]


class TestCsvCells:
    """``bench.write_csv`` writes each cell with ``str``: a float as its shortest
    round-trip repr, an int in decimal and a label as it is."""

    @staticmethod
    def _reference_cell(value) -> str:
        # the reference: each cell formatted by its type
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(int(value))
        return repr(float(value))

    def test_cells_equal_reference_formatting(self, tmp_path):
        floats = [0.1, 2.0, -0.0, 1e16, 9999999999999998.0, 1e-4, 9.999e-5, 1e-5, 5e-324,
                  1.7976931348623157e308, float("inf"), 1 / 3, 123456789.125, -2.5e-8]
        rows = ((*floats[:5], 0, "bright"), (*floats[5:10], -3, "a b"),
                (*floats[10:], 2**70, 7, "x"))
        result = bench.CommandResult(header=("a", "b", "c", "d", "e", "n", "label"),
                                     rows=rows, metadata={})
        out = tmp_path / "cells.csv"
        bench.write_csv(out, result)
        want = "\n".join([",".join(result.header),
                          *(",".join(map(self._reference_cell, row)) for row in rows)]) + "\n"
        assert out.read_bytes() == want.encode("ascii")

        # repeated cells: equal values of two types or two signs keep their own texts
        nan, other_nan, inf = float("nan"), float("nan"), float("inf")
        rows = ((0.0, 1, 1.0, "bright", nan), (-0.0, 1.0, 1, "bright", other_nan),
                (0.0, 2**53, 2.0**53, inf, -inf), (-0.0, 2.0**53, 2**53, -inf, inf),
                (0, 0.0, -0.0, 1, 1.0), (-0.0, 0, 0.0, 1.0, 1))
        result = bench.CommandResult(header=("a", "b", "c", "d", "e"), rows=rows, metadata={})
        bench.write_csv(out, result)
        want = "\n".join([",".join(result.header),
                          *(",".join(map(self._reference_cell, row)) for row in rows)]) + "\n"
        assert out.read_bytes() == want.encode("ascii")

    def test_signed_zero_phases_keep_their_sign(self, tmp_path):
        cfg = {"phi_grid": {"values": [-0.0, 0.0, 1.0, 0.0, -0.0]},
               "schemes": ["homodyne", "heterodyne"],
               "parameter_sets": [{"label": "ideal", "signal_intensity": 0.1}]}
        result = bench.run_fi_curve(runconfig.parse_fi_curve(cfg))
        out = tmp_path / "zeros.csv"
        bench.write_csv(out, result)
        lines = out.read_text(encoding="ascii").splitlines()
        assert lines[1:] == [",".join(map(str, row)) for row in result.rows]
        assert [line.split(",")[0] for line in lines[1:]] == ["-0.0", "0.0", "1.0", "0.0", "-0.0"]

    @pytest.mark.parametrize("row", [(1.0,), (1.0, 2.0, 3.0)], ids=["short", "long"])
    def test_ragged_row_raises_and_writes_nothing(self, tmp_path, row):
        result = bench.CommandResult(header=("a", "b"), rows=((0.0, 1.0), row), metadata={})
        with pytest.raises(ValueError, match=f"^CSV row 1 has {len(row)} cells, the header 2$"):
            bench.write_csv(tmp_path / "ragged.csv", result)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,stem,overrides", [
        ("fi-curve", "fi_curves_imperfect_bright", {}),
        ("saturate", "experiment_saturate", {"trials": 2}),
        ("simulate", "experiment_simulate", {"trials": 2}),
        ("simulate", "experiment_simulate", {"detector": "pnrd", "trials": 2}),
        ("simulate", "experiment_simulate", {"scheme": "heterodyne", "pulses": 200, "trials": 2}),
    ])
    def test_rows_hold_python_scalars(self, command, stem, overrides):
        # str of a numpy scalar need not be the float's repr, so no row holds one
        cfg = {**runconfig.load_config(CONFIGS / f"{stem}.yaml"), **overrides}
        suffix = command.replace("-", "_")
        result = getattr(bench, "run_" + suffix)(getattr(runconfig, "parse_" + suffix)(cfg))
        assert {type(cell) for row in result.rows for cell in row} <= {float, int, str}


class TestRewrite:
    """Every output is written by ``bench.rewrite``: over the old bytes, then cut
    to length, with the bytes, mode and link handling of ``open(path, "w")``."""

    def test_a_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old,bytes\n" * 100)
        for data in (b"a,b\n1,2\n", b"longer,than,before\n" * 200, b"", b"z\n"):
            bench.rewrite(out, data)
            assert out.read_bytes() == data

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["ENOSPC", "interrupt"])
    def test_a_write_that_fails_partway_leaves_no_old_byte(self, tmp_path, monkeypatch, exc):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old,bytes\n" * 1000)
        data = b"a,b\n1,2\n" * 10
        real_write, calls = os.write, []

        def write(fd, view):
            calls.append(len(view))
            if len(calls) > 1:
                raise exc
            return real_write(fd, view[:50])

        monkeypatch.setattr(os, "write", write)
        with pytest.raises(type(exc)):
            bench.rewrite(out, data)
        monkeypatch.undo()
        assert calls == [len(data), len(data) - 50]
        assert out.read_bytes() == data[:50]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_a_new_file_gets_the_mode_of_open_w(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "by_open.csv", "w"):
                pass
            bench.rewrite(tmp_path / "by_rewrite.csv", b"a\n")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("by_open.csv", "by_rewrite.csv")}
        assert modes == {0o666 & ~umask}

    def test_a_symlinked_out_writes_through_to_its_target(self, tmp_path):
        cfg = _write(tmp_path, "fi.yaml", IDEAL_FI_CONFIG)
        plain, target, link = tmp_path / "plain.csv", tmp_path / "target.csv", tmp_path / "x.csv"
        target.write_bytes(b"#" * 100_000)
        link.symlink_to(target)
        for out in (plain, link):
            assert cli.main(["fi-curve", "--config", cfg, "--out", str(out)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == plain.read_bytes()

    def test_out_dev_null_exits_0(self, capsys):
        cfg = str(CONFIGS / "povm_check.yaml")
        assert cli.main(["povm-check", "--config", cfg, "--out", os.devnull]) == 0
        assert "PASS" in capsys.readouterr().out
        bench.rewrite(os.devnull, b"not cut\n")  # not a regular file: written, never cut

    def test_a_cell_that_is_not_ascii_leaves_the_old_bytes(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"old,bytes\n")
        result = bench.CommandResult(header=("a", "label"), rows=((1.0, "café"),),
                                     metadata={})
        with pytest.raises(UnicodeEncodeError):
            bench.write_csv(out, result)
        assert out.read_bytes() == b"old,bytes\n"

    @pytest.mark.parametrize("command,text", [
        ("fi-curve", IDEAL_FI_CONFIG), ("simulate", SIMULATE_CONFIG),
        ("saturate", SATURATE_CONFIG), ("povm-check", POVM_CONFIG),
    ], ids=["fi-curve", "simulate", "saturate", "povm-check"])
    def test_runs_into_the_same_paths_give_the_same_bytes(self, tmp_path, capsys,
                                                          command, text):
        # "fresh" is written to new paths; "over" to paths holding a longer
        # file, then again over its own first output
        cfg = _write(tmp_path, "cfg.yaml", text)
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        for folder in (fresh, over):
            folder.mkdir()
        for name in ("x.csv", "x.meta.yaml"):
            (over / name).write_bytes(b"#" * 100_000)
        names = ["x.csv"] if command == "povm-check" else ["x.csv", "x.meta.yaml"]

        def run(folder):
            assert cli.main([command, "--config", cfg, "--out", str(folder / "x.csv")]) == 0
            return [(folder / name).read_bytes() for name in names]

        want = run(fresh)
        assert run(over) == want
        assert run(over) == want
        if command == "povm-check":
            assert want[0] in capsys.readouterr().out.encode("ascii")

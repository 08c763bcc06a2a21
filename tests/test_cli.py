"""CLI surface: config validation, CSV/metadata contracts, exit codes."""

import math
import re
import textwrap
import time
import warnings
from pathlib import Path

import pytest
import yaml

from phasecount import bench, cli, runconfig, sampling

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


class TestSimulate:
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
    # a bright number-resolving run builds a ~650-entry count table before it
    # seeds any trial; a seed out of range must stop it before that
    def no_table(*args):
        raise AssertionError("count table built for a config with a bad seed")
    monkeypatch.setattr(sampling, "count_distribution", no_table)
    text = SIMULATE_CONFIG
    for old, new in (("seed: 4242", "seed: -1"), ("detector: onoff", "detector: pnrd"),
                     ("signal_intensity: 0.100", "signal_intensity: 200"),
                     ("displacement_intensity: 0.101", "displacement_intensity: 202")):
        text = text.replace(old, new)
    cfg = _write(tmp_path, "run.yaml", text)
    out = tmp_path / "run.csv"
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
def test_out_of_range_seed_flag_is_a_config_error(seed):
    run = runconfig.parse_saturate(yaml.safe_load(textwrap.dedent("""\
        phi_grid: {values: [1.0]}
        pulses: [100]
        signal_intensity: 0.1
    """)))
    with pytest.raises(runconfig.ConfigError,
                       match=f"seed must be a 64-bit unsigned integer, got {seed}"):
        runconfig.apply_overrides(run, seed=seed)


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


class TestPovmCheck:
    def test_passes_on_ideal_grid(self, tmp_path, capsys):
        cfg = _write(tmp_path, "povm.yaml", "signal_intensity: 0.1\n")
        assert cli.main(["povm-check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "overall max deviation" in out and "PASS" in out

    def test_report_file(self, tmp_path):
        cfg = _write(tmp_path, "povm.yaml", "signal_intensity: 0.1\nmax_n: 5\n")
        report = tmp_path / "report.txt"
        assert cli.main(["povm-check", "--config", cfg, "--out", str(report)]) == 0
        assert "PASS" in report.read_text()

    def test_mismatched_mixture_model_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "povm.yaml", textwrap.dedent("""\
            signal_intensity: 0.100
            displacement_intensity: 0.101
            model: visibility-mixture
        """))
        assert cli.main(["povm-check", "--config", cfg]) == 1
        assert "matched amplitudes" in capsys.readouterr().err

    def test_insufficient_cutoff_reports_numeric_failure(self, tmp_path, capsys):
        cfg = _write(tmp_path, "povm.yaml", textwrap.dedent("""\
            signal_intensity: 10.0
            fock_cutoff: 3
            phi_values: [3.141592653589793]
        """))
        assert cli.main(["povm-check", "--config", cfg]) == 2
        assert "tail mass" in capsys.readouterr().err


class TestCommonFlags:
    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["fi-curve", "--config", str(tmp_path / "absent.yaml"),
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,text,where", [
        ("simulate", SIMULATE_CONFIG + "fock_cutoff: 30\n", "simulate config"),
        ("fi-curve", IDEAL_FI_CONFIG + "    fock_cutoff: 30\n", "parameter_sets[0]"),
    ], ids=["simulate", "fi-curve"])
    def test_fock_cutoff_is_a_povm_check_key_only(self, tmp_path, capsys,
                                                  command, text, where):
        cfg = _write(tmp_path, "cfg.yaml", text)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert f"unknown key 'fock_cutoff' in {where}" in capsys.readouterr().err

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
                  1.7976931348623157e308, float("inf"), 1 / 3, 123456789.125]
        rows = ((*floats[:5], 0, "bright"), (*floats[5:10], -3, "a b"),
                (*floats[10:], 2**70, 7, "x"))
        result = bench.CommandResult(header=("a", "b", "c", "d", "e", "n", "label"),
                                     rows=rows, metadata={})
        out = tmp_path / "cells.csv"
        bench.write_csv(out, result)
        want = "\n".join([",".join(result.header),
                          *(",".join(map(self._reference_cell, row)) for row in rows)]) + "\n"
        assert out.read_bytes() == want.encode("ascii")

    @pytest.mark.parametrize("command,stem,overrides", [
        ("fi-curve", "fi_curves_imperfect_bright", {}),
        ("saturate", "experiment_saturate", {"trials": 2}),
        ("simulate", "experiment_simulate", {"trials": 2}),
        ("simulate", "experiment_simulate", {"detector": "pnrd", "trials": 2}),
        ("simulate", "experiment_simulate", {"scheme": "homodyne", "pulses": 200, "trials": 2}),
        ("simulate", "experiment_simulate", {"scheme": "heterodyne", "pulses": 200, "trials": 2}),
    ])
    def test_rows_hold_python_scalars(self, command, stem, overrides):
        # str of a numpy scalar need not be the float's repr, so no row holds one
        cfg = {**runconfig.load_config(CONFIGS / f"{stem}.yaml"), **overrides}
        suffix = command.replace("-", "_")
        result = getattr(bench, "run_" + suffix)(getattr(runconfig, "parse_" + suffix)(cfg))
        assert {type(cell) for row in result.rows for cell in row} <= {float, int, str}

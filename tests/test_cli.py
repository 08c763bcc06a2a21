"""CLI surface: config validation, CSV/metadata contracts, exit codes."""

import textwrap

import pytest
import yaml

from phasecount import cli

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

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2),
                         "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_threads_still_validated(self, tmp_path, capsys):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                         "--threads", "0"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_trials_override(self, tmp_path):
        cfg = _write(tmp_path, "sim.yaml", SIMULATE_CONFIG)
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                         "--trials", "3"]) == 0
        meta = yaml.safe_load((tmp_path / "sim.meta.yaml").read_text())
        assert meta["config"]["trials"] == 3

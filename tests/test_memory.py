"""Memory budgets of the Monte Carlo commands, as peak traced allocation.

The bounds leave room over today's peaks (about 1.0, 3.1, 0.2 and 0.5 MiB,
in this order in a fresh interpreter, whose first run also pays about
0.8 MiB of one-time set-up) but not for work kept per trial or per
statistic: caching the grid rows of every count across the trials of a
bright simulate reads 7.9 MiB, and a mixture row per count and histogram
4.3 MiB at 20 trials.
"""

import tracemalloc
from pathlib import Path

import yaml

from phasecount import bench, runconfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MIB = 2**20


def _peak_bytes(command, run) -> int:
    tracemalloc.start()
    try:
        command(run)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bright_pnrd_simulate_peak():
    # two trials of the bright number-resolving run: mean count ~474, 1e5 pulses
    cfg = yaml.safe_load((CONFIGS / "experiment_simulate.yaml").read_text())
    cfg.update(detector="pnrd", signal_intensity=200, displacement_intensity=202,
               phi_true=2.88, pulses=100000, trials=2)
    assert _peak_bytes(bench.run_simulate, runconfig.parse_simulate(cfg)) < 4 * MIB


def test_bright_mixture_simulate_peak():
    # 20 trials of a bright visibility-mixture run: its grid rows are kept
    # one per count, whatever the number of histograms that hold the count
    cfg = yaml.safe_load((CONFIGS / "experiment_simulate.yaml").read_text())
    cfg.update(detector="pnrd", model="visibility-mixture", signal_intensity=200,
               displacement_intensity=200, pulses=3000, trials=20)
    assert _peak_bytes(bench.run_simulate, runconfig.parse_simulate(cfg)) < 4 * MIB


def test_full_length_pnrd_simulate_peak():
    # one 9e5-pulse number-resolving trial draws its statistics from their
    # exact law and keeps no per-pulse array: 9e5 float64 uniforms or int64
    # counts would take 6.9 MiB, and 9e5 int16 counts 1.7 MiB
    cfg = yaml.safe_load((CONFIGS / "experiment_simulate.yaml").read_text())
    cfg.update(detector="pnrd", pulses=900000, trials=1)
    assert _peak_bytes(bench.run_simulate, runconfig.parse_simulate(cfg)) < 2 * MIB


def test_shipped_saturate_peak(monkeypatch):
    # in process: forked workers would leave the parent's tracemalloc only
    # its own slice, so the budget bounds what one worker allocates
    monkeypatch.setattr(bench, "_worker_count", lambda statistics, pulses: 1)
    run = runconfig.parse_saturate(runconfig.load_config(CONFIGS / "experiment_saturate.yaml"))
    assert _peak_bytes(bench.run_saturate, run) < 1 * MIB

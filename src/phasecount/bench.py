"""Benchmark command implementations: plot-ready CSV datasets.

Each command returns a header plus rows of plain numbers (and set labels),
written as locale-independent CSV with LF line endings so outputs are
byte-reproducible.  A YAML sidecar records everything needed to regenerate
a file: resolved parameters, seed, and the PRNG identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

import numpy as np
import yaml

from . import __version__
from .bayes import LikelihoodTable
from .fisher import Scheme, fi_analytic, fi_numeric, qfi_coherent
from .photonics import (
    DetectorKind,
    DetectorModel,
    born_probability_oracle,
    pnrd_likelihood,
)
from .runconfig import FiCurveRun, PovmCheckRun, SafeDumper, SaturateRun, SimulateRun
from .sampling import (
    PRNG_IDENTITY,
    SEED_MIXER_IDENTITY,
    ExperimentConfig,
    split_seeds,
    statistic_sampler,
    trial_streams,
)
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .bayes import sequential_estimates
from .sampling import sample

POVM_CHECK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class CommandResult:
    header: tuple
    rows: tuple
    metadata: dict


def write_csv(path, result: CommandResult) -> None:
    """Rows hold Python floats, ints and label strings: ``str`` writes a float
    as its shortest round-trip ``repr``, an int in decimal and a label as it is."""
    lines = [",".join(result.header), *(",".join(map(str, row)) for row in result.rows)]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def metadata_path(csv_path) -> str:
    stem, _ = os.path.splitext(os.fspath(csv_path))
    return stem + ".meta.yaml"


def write_metadata(csv_path, result: CommandResult) -> None:
    meta = {
        "tool": "phasecount",
        "version": __version__,
        **result.metadata,
        "output": {
            "csv": os.path.basename(os.fspath(csv_path)),
            "columns": list(result.header),
            "rows": len(result.rows),
        },
    }
    with open(metadata_path(csv_path), "w", encoding="utf-8", newline="") as fh:
        yaml.dump(meta, fh, Dumper=SafeDumper, sort_keys=False, default_flow_style=False)


# ---------------------------------------------------------------------------
# fi-curve
# ---------------------------------------------------------------------------

def run_fi_curve(run: FiCurveRun) -> CommandResult:
    """Fisher information of each requested scheme over the phase grid.

    Values are emitted raw and normalized by the coherent-state QFI.  The
    ``phi_eval`` column records where displaced counting was actually
    evaluated (it differs from ``phi`` only on the phi = 0 row, where the
    zero surrogate applies).
    """
    names = [f"fi_{scheme.value}" for scheme in run.schemes]
    header = ["phi", "phi_eval", "label", *names, "qfi", *(f"{n}_over_qfi" for n in names)]

    phis = np.array(run.phi_values)
    columns = []  # per set: label, QFI, phi_eval and the FI rows, one fi_numeric call per scheme
    for pset in run.sets:
        results = {scheme: fi_numeric(scheme, phis, pset.probe, pset.det, model=pset.model)
                   for scheme in run.schemes}
        displaced = results.get(Scheme.DISPLACED_COUNTING)
        evaluated = phis if displaced is None else displaced.phi_evaluated
        columns.append((pset.label, qfi_coherent(pset.probe), evaluated.tolist(),
                        list(zip(*(res.value.tolist() for res in results.values())))))
    rows = [(phi, phi_eval[i], label, *values[i], qfi, *(v / qfi for v in values[i]))
            for i, phi in enumerate(run.phi_values) for label, qfi, phi_eval, values in columns]

    meta = {
        "command": "fi-curve",
        "config": {
            "phi_grid": {"values": list(run.phi_values)},
            "schemes": [s.value for s in run.schemes],
            "parameter_sets": [p.describe() for p in run.sets],
        },
    }
    return CommandResult(header=tuple(header), rows=tuple(rows), metadata=meta)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulate(run: SimulateRun) -> CommandResult:
    """Estimator trajectories versus pulse count, with reference bound curves.

    Per checkpoint k: the designated trial's estimate and posterior
    variance, across-trial means of both, and the reference curves
    1/(k*F) for displaced counting at the configured (experimental)
    parameters, ideal displaced counting, ideal homodyne, ideal
    heterodyne, and the quantum bound.  Trials draw sufficient statistics
    (``statistic_sampler``) from streams seeded in array passes, and one
    likelihood table serves the run.
    """
    pset = run.params
    # first, so that a probe the count sums cannot handle (FiConvergenceError)
    # fails before any trial is drawn
    f_exp = fi_numeric(run.scheme, run.phi_true, pset.probe, pset.det,
                       model=pset.model).value
    config = ExperimentConfig(
        scheme=run.scheme, phi_true=run.phi_true, probe=pset.probe,
        det=pset.det, pulses=run.pulses, model=pset.model,
    )
    table = LikelihoodTable(config, run.grid_size)
    draw = statistic_sampler(config, run.checkpoints)
    trials = [table.moments(draw(rng))
              for rng in trial_streams(split_seeds(run.seed, 0, run.trials))]
    phi_hat = np.array([[e[0] for e in trial] for trial in trials])
    variance = np.array([[e[1] for e in trial] for trial in trials])

    f_dis = fi_analytic(Scheme.DISPLACED_COUNTING, run.phi_true, pset.probe)
    f_hom = fi_analytic(Scheme.HOMODYNE, run.phi_true, pset.probe)
    f_het = fi_analytic(Scheme.HETERODYNE, run.phi_true, pset.probe)
    qfi = qfi_coherent(pset.probe)

    header = (
        "k", "phi_hat_trial", "variance_trial", "phi_hat_mean", "variance_mean",
        "crb_displaced_exp", "crb_displaced_ideal", "crb_homodyne_ideal",
        "crb_heterodyne_ideal", "crb_qfi",
    )
    rows = []
    ref = run.reference_trial
    for j, k in enumerate(run.checkpoints):
        rows.append((
            int(k),
            float(phi_hat[ref, j]),
            float(variance[ref, j]),
            float(np.mean(phi_hat[:, j])),
            float(np.mean(variance[:, j])),
            _inverse(k * f_exp),
            _inverse(k * f_dis),
            _inverse(k * f_hom),
            _inverse(k * f_het),
            _inverse(k * qfi),
        ))

    meta = {
        "command": "simulate",
        "prng": PRNG_IDENTITY,
        "seed_mixer": SEED_MIXER_IDENTITY,
        "config": {
            "scheme": run.scheme.value,
            "phi_true": run.phi_true,
            **pset.describe(),
            "pulses": run.pulses,
            "trials": run.trials,
            "checkpoints": [int(k) for k in run.checkpoints],
            "grid_size": run.grid_size,
            "seed": run.seed,
            "reference_trial": run.reference_trial,
        },
    }
    meta["config"].pop("label", None)
    return CommandResult(header=header, rows=tuple(rows), metadata=meta)


def _inverse(x: float) -> float:
    return 1.0 / x if x > 0.0 else float("inf")


# ---------------------------------------------------------------------------
# saturate
# ---------------------------------------------------------------------------

def run_saturate(run: SaturateRun) -> CommandResult:
    """Across-trial mean of 1/(m*Var) per (phi, m), with FI reference columns.

    Each trial draws only its sufficient statistic (click count of the
    drawn clicks; pulses and total count, or count histogram, from their
    exact law, see ``statistic_sampler``); nothing else is done per trial.
    The FI references of every phase come first, the numeric one in one
    array call, so that a phase whose count sum fails (FiConvergenceError)
    stops the run before any trial is drawn.  The trial streams of the
    whole run are seeded in array passes, cell after cell.  One likelihood
    table serves the run; each cell draws its trials and then looks their
    statistics up in one call, which evaluates the posterior once per
    distinct statistic.
    """
    pset = run.params
    header = ("phi", "pulses", "inv_m_var_mean", "variance_mean",
              "fi_displaced_exp", "fi_displaced_ideal", "fi_homodyne_ideal")
    f_exp = fi_numeric(Scheme.DISPLACED_COUNTING, np.array(run.phi_values), pset.probe,
                       pset.det, model=pset.model).value.tolist()
    rows = []
    table = None
    cells = len(run.phi_values) * len(run.pulses_list)
    streams = trial_streams(split_seeds(run.seed, 0, cells * run.trials))
    for phi, fi_exp in zip(run.phi_values, f_exp):
        references = (fi_exp,
                      fi_analytic(Scheme.DISPLACED_COUNTING, phi, pset.probe),
                      fi_analytic(Scheme.HOMODYNE, phi, pset.probe))
        for m in run.pulses_list:
            cell = ExperimentConfig(
                scheme=Scheme.DISPLACED_COUNTING, phi_true=phi, probe=pset.probe,
                det=pset.det, pulses=m, model=pset.model,
            )
            table = table or LikelihoodTable(cell, run.grid_size)
            draw = statistic_sampler(cell, (m,))
            statistics = [statistic for rng in islice(streams, run.trials)
                          for statistic in draw(rng)]
            variances = [variance for _, variance in table.moments(statistics)]
            rows.append((
                phi, int(m),
                float(np.mean([1.0 / (m * var) for var in variances])),
                float(np.mean(variances)),
                *references,
            ))

    meta = {
        "command": "saturate",
        "prng": PRNG_IDENTITY,
        "seed_mixer": SEED_MIXER_IDENTITY,
        "config": {
            "phi_grid": {"values": list(run.phi_values)},
            "pulses": [int(m) for m in run.pulses_list],
            **pset.describe(),
            "trials": run.trials,
            "grid_size": run.grid_size,
            "seed": run.seed,
        },
    }
    meta["config"].pop("label", None)
    return CommandResult(header=header, rows=tuple(rows), metadata=meta)


# ---------------------------------------------------------------------------
# povm-check
# ---------------------------------------------------------------------------

def run_povm_check(run: PovmCheckRun) -> tuple[list, float, bool]:
    """Cross-validate the count likelihood against the Fock-space oracle.

    Returns (report lines, max deviation, passed).  The oracle covers no
    mode mismatch, so the check runs at xi = 1.
    """
    lines = []
    worst = 0.0
    for eta in run.eta_values:
        for nu in run.nu_values:
            det = DetectorModel(eta=eta, nu=nu, xi=1.0, kind=DetectorKind.NUMBER_RESOLVING)
            block = 0.0
            for phi in run.phi_values:
                for n in range(run.max_n + 1):
                    model_p = pnrd_likelihood(n, phi, run.probe, det, run.model)
                    oracle_p = born_probability_oracle(n, phi, run.probe, det, run.fock_cutoff)
                    block = max(block, abs(model_p - oracle_p))
            lines.append(f"eta={eta:g} nu={nu:g}: max |model - oracle| = {block:.3e}")
            worst = max(worst, block)
    passed = worst < POVM_CHECK_TOLERANCE
    lines.append(f"overall max deviation = {worst:.3e} "
                 f"({'PASS' if passed else 'FAIL'}, tolerance {POVM_CHECK_TOLERANCE:g})")
    return lines, worst, passed

"""Benchmark command implementations: plot-ready CSV datasets.

Each command returns a header plus rows of plain numbers (and set labels),
written as locale-independent CSV with LF line endings so outputs are
byte-reproducible.  A YAML sidecar records everything needed to regenerate
a file: resolved parameters, seed, and the PRNG identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .bayes import LikelihoodTable
from .fisher import FiOptions, Scheme, fi_analytic, fi_numeric, qfi_coherent
from .photonics import (
    DetectorKind,
    DetectorModel,
    born_probability_oracle,
    pnrd_likelihood,
)
from .runconfig import FiCurveRun, PovmCheckRun, SaturateRun, SimulateRun
from .sampling import (
    PRNG_IDENTITY,
    SEED_MIXER_IDENTITY,
    ExperimentConfig,
    split_seed,
    statistic_sampler,
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


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, result: CommandResult) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(result.header) + "\n")
        for row in result.rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


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
        yaml.safe_dump(meta, fh, sort_keys=False, default_flow_style=False)


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
    opts = FiOptions()
    header = ["phi", "phi_eval", "label"]
    for scheme in run.schemes:
        header.append(f"fi_{scheme.value}")
    header.append("qfi")
    for scheme in run.schemes:
        header.append(f"fi_{scheme.value}_over_qfi")

    rows = []
    for phi in run.phi_values:
        for pset in run.sets:
            qfi = qfi_coherent(pset.probe)
            phi_eval = phi
            values = []
            for scheme in run.schemes:
                res = fi_numeric(scheme, phi, pset.probe, pset.det,
                                 opts=opts, model=pset.model)
                values.append(res.value)
                if scheme is Scheme.DISPLACED_COUNTING:
                    phi_eval = res.phi_evaluated
            row = [phi, phi_eval, pset.label, *values, qfi]
            row.extend(v / qfi for v in values)
            rows.append(tuple(row))

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
    heterodyne, and the quantum bound.  Trials draw only their sufficient
    statistics, and one likelihood table serves the run.
    """
    pset = run.params
    config = ExperimentConfig(
        scheme=run.scheme, phi_true=run.phi_true, probe=pset.probe,
        det=pset.det, pulses=run.pulses, model=pset.model,
    )
    table = LikelihoodTable(config, run.grid_size)
    draw = statistic_sampler(config, run.checkpoints)
    trials = [table.moments(draw(split_seed(run.seed, t))) for t in range(run.trials)]
    phi_hat = np.array([[e[0] for e in trial] for trial in trials])
    variance = np.array([[e[1] for e in trial] for trial in trials])

    f_exp = fi_numeric(run.scheme, run.phi_true, pset.probe, pset.det,
                       model=pset.model).value
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

    Each trial draws only its sufficient statistic (click count, pulses and
    total count, or count histogram, see ``statistic_sampler``); nothing else
    is done per trial.  One
    likelihood table serves the run and evaluates the posterior once per
    distinct statistic, the outcome law is computed once per cell and the
    FI reference columns once per phase.
    """
    pset = run.params
    header = ("phi", "pulses", "inv_m_var_mean", "variance_mean",
              "fi_displaced_exp", "fi_displaced_ideal", "fi_homodyne_ideal")
    rows = []
    table = None
    for i, phi in enumerate(run.phi_values):
        references = (fi_numeric(Scheme.DISPLACED_COUNTING, phi, pset.probe, pset.det,
                                 model=pset.model).value,
                      fi_analytic(Scheme.DISPLACED_COUNTING, phi, pset.probe),
                      fi_analytic(Scheme.HOMODYNE, phi, pset.probe))
        for j, m in enumerate(run.pulses_list):
            base = (i * len(run.pulses_list) + j) * run.trials
            cell = ExperimentConfig(
                scheme=Scheme.DISPLACED_COUNTING, phi_true=phi, probe=pset.probe,
                det=pset.det, pulses=m, model=pset.model,
            )
            table = table or LikelihoodTable(cell, run.grid_size)
            draw = statistic_sampler(cell, (m,))
            variances = []
            for t in range(run.trials):
                ((_, variance),) = table.moments(draw(split_seed(run.seed, base + t)))
                variances.append(variance)
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
            det = DetectorModel(eta=eta, nu=nu, xi=1.0,
                                kind=DetectorKind.NUMBER_RESOLVING,
                                fock_cutoff=run.fock_cutoff)
            block = 0.0
            for phi in run.phi_values:
                for n in range(run.max_n + 1):
                    model_p = pnrd_likelihood(n, phi, run.probe, det, run.model)
                    oracle_p = born_probability_oracle(n, phi, run.probe, det)
                    block = max(block, abs(model_p - oracle_p))
            lines.append(f"eta={eta:g} nu={nu:g}: max |model - oracle| = {block:.3e}")
            worst = max(worst, block)
    passed = worst < POVM_CHECK_TOLERANCE
    lines.append(f"overall max deviation = {worst:.3e} "
                 f"({'PASS' if passed else 'FAIL'}, tolerance {POVM_CHECK_TOLERANCE:g})")
    return lines, worst, passed

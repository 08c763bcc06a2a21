"""The benchmark workloads: the configs they run, generated from a seed, and
the checks every emitted CSV must pass.

The program only sees configs written here into the run's own directory.
Shipped configs are copied byte for byte; the Monte Carlo ones are the
shipped config plus named overrides and a seed derived from the benchmark
seed.  Why each workload exists, and which per-layer figures should move
which end-to-end metric on it, is set out in README.md next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import yaml

# SHA-256 of the CSV each shipped config produces, recorded at the commit
# that introduced this benchmark: the byte-identity contract of the shipped
# configs.
SHIPPED_CSV_SHA256 = {
    "fi_curves_ideal": "7c108e4133930fec5964bed52e992324e5080beebc6a3025efa7966e7d4ce8c9",
    "fi_curves_imperfect_weak": "15af39bee2c3069b8faa74f080ad6ffbe7d10a37374ec73c0ea7a8a925fe6f01",
    "fi_curves_imperfect_bright": "929f52a7a0ffbeb7bfc3bcbf592f4bf6f790a6678dbaff257b0c06bcae72460c",
    "experiment_saturate": "5684e8c4fb3bc8d36ca917e43d1b60a75dc4e1a9538b28e9d45cad33aa0f119d",
}

FI_CURVE_CONFIGS = ("fi_curves_ideal", "fi_curves_imperfect_weak", "fi_curves_imperfect_bright")

# Overrides on configs/experiment_simulate.yaml and the trial count, which
# sets how long one pass takes (about 1.2 s and 1.8 s on a 2-core Xeon).
# The bright probe's mean count (~474) stays below the exp(-lam) underflow
# near 745, above which count_distribution never returns.
SIMULATE_WORKLOADS = {
    "simulate-full-pnrd": ({"detector": "pnrd", "pulses": 900000}, 40),
    "simulate-bright-pnrd": ({"detector": "pnrd", "pulses": 100000, "signal_intensity": 200,
                              "displacement_intensity": 202, "phi_true": 2.88}, 8),
}

WORKLOADS = ("fi-curves", "saturate-desk", *SIMULATE_WORKLOADS)

# FI values may exceed the QFI by rounding where a scheme attains the bound.
QFI_RTOL = 1e-9


class CheckError(Exception):
    """An emitted file is wrong; the command counts as failed."""


@dataclass(frozen=True)
class Command:
    """One CLI-equivalent command: ``phasecount <kind> --config ... --out ...``."""

    kind: str  # "fi-curve", "simulate" or "saturate"
    config: Path
    out: Path
    sha256: str | None = None  # expected CSV hash, shipped configs only


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: tuple  # run once before timing; carries the shipped-hash checks
    timed: tuple   # one timed pass runs these back to back


def derive_seed(workload: str, seed: int) -> int:
    """The config seed of a workload, a 63-bit function of the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build(name: str, seed: int, root: Path, workdir: Path, tiny: bool = False) -> Workload:
    """Write the workload's configs into ``workdir`` (emptied first)."""
    configs = root / "configs"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def shipped(stem, kind):
        path = workdir / f"{stem}.yaml"
        shutil.copyfile(configs / f"{stem}.yaml", path)
        return Command(kind, path, workdir / f"{stem}.csv", SHIPPED_CSV_SHA256[stem])

    def generated(stem, kind, base, overrides):
        doc = yaml.safe_load((configs / f"{base}.yaml").read_text(encoding="utf-8"))
        doc.update(overrides)
        path = workdir / f"{stem}.yaml"
        path.write_text(f"# configs/{base}.yaml with overrides, benchmark seed {seed}\n"
                        + yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        return Command(kind, path, workdir / f"{stem}.csv")

    if name == "fi-curves":
        commands = tuple(shipped(stem, "fi-curve") for stem in FI_CURVE_CONFIGS)
        return Workload(name, commands, commands[1:2] if tiny else commands)
    if name == "saturate-desk":
        overrides = {"seed": derive_seed(name, seed), **({"trials": 2} if tiny else {})}
        return Workload(name, (shipped("experiment_saturate", "saturate"),),
                        (generated(name, "saturate", "experiment_saturate", overrides),))
    overrides, trials = SIMULATE_WORKLOADS[name]
    command = generated(name, "simulate", "experiment_simulate",
                        {**overrides, "trials": 1 if tiny else trials,
                         "seed": derive_seed(name, seed)})
    return Workload(name, (command,), (command,))


def work_units(kind: str, run) -> int:
    """FI values emitted (fi-curve) or pulses sampled and estimated (Monte Carlo)."""
    if kind == "fi-curve":
        return len(run.phi_values) * len(run.sets) * len(run.schemes)
    if kind == "simulate":
        return run.trials * run.pulses
    return run.trials * len(run.phi_values) * sum(run.pulses_list)


def check_output(command: Command) -> tuple[str, float | None]:
    """Check the command's CSV and sidecar; return the CSV's SHA-256 and, for
    Monte Carlo commands, the CRB efficiency of the estimator.

    Efficiency is variance_mean*k*F_exp at the last checkpoint for simulate,
    and the mean over cells of fi_displaced_exp / inv_m_var_mean for saturate.
    """
    data = command.out.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    name = command.out.name
    if command.sha256 is not None and digest != command.sha256:
        raise CheckError(f"{name}: CSV bytes differ from the recorded shipped-config hash")
    header, *rows = csv.reader(io.StringIO(data.decode("ascii")))
    if not rows:
        raise CheckError(f"{name}: no rows")
    cols = {h: [float(r[i]) for r in rows] for i, h in enumerate(header) if h != "label"}
    meta = yaml.safe_load(command.out.with_suffix(".meta.yaml").read_text(encoding="utf-8"))
    if meta["output"]["rows"] != len(rows):
        raise CheckError(f"{name}: sidecar row count {meta['output']['rows']} != {len(rows)}")

    def require(ok, what):
        if not ok:
            raise CheckError(f"{name}: {what}")

    require(all(math.isfinite(v) for vs in cols.values() for v in vs), "non-finite value")
    for col in ("phi", "phi_eval", "phi_hat_trial", "phi_hat_mean"):
        require(all(0.0 <= v <= math.pi for v in cols.get(col, ())), f"{col} outside [0, pi]")
    if command.kind == "fi-curve":
        qfi = cols["qfi"]
        for col in (c for c in cols if c.startswith("fi_") and not c.endswith("_over_qfi")):
            require(all(0.0 <= f <= q * (1.0 + QFI_RTOL) for f, q in zip(cols[col], qfi)),
                    f"{col} outside [0, QFI]")
        return digest, None
    for col in ("variance_trial", "variance_mean", "inv_m_var_mean"):
        require(all(v > 0.0 for v in cols.get(col, ())), f"{col} not positive")
    if command.kind == "simulate":
        return digest, cols["variance_mean"][-1] / cols["crb_displaced_exp"][-1]
    ratios = [f / s for f, s in zip(cols["fi_displaced_exp"], cols["inv_m_var_mean"])]
    return digest, sum(ratios) / len(ratios)

"""YAML run-configuration schema for the benchmark CLI.

Configs are flat key-value documents with limited nesting (phase grids and
parameter-set lists).  Unknown keys are rejected with the offending key
named, so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import yaml

from .bayes import DEFAULT_GRID_SIZE, MIN_GRID_SIZE
from .fisher import Scheme
from .photonics import (DetectorKind, DetectorModel, LikelihoodModel, ProbeConfig,
                        require_finite_means)
from .sampling import _check_seed

# libyaml's parser and emitter where PyYAML was built with them; same documents
SafeLoader, SafeDumper = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
                          else (yaml.SafeLoader, yaml.SafeDumper))

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

_SCHEMES = {s.value: s for s in Scheme}
_DETECTORS = {k.value: k for k in DetectorKind}
_MODELS = {m.value: m for m in LikelihoodModel}


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending key."""


@dataclass(frozen=True)
class ParameterSet:
    """One probe/detector/model combination, labelled for CSV output."""

    label: str
    probe: ProbeConfig
    det: DetectorModel
    model: LikelihoodModel

    def describe(self) -> dict:
        return {
            "label": self.label,
            "signal_intensity": self.probe.alpha**2,
            "displacement_intensity": self.probe.beta**2,
            "eta": self.det.eta,
            "nu": self.det.nu,
            "xi": self.det.xi,
            "detector": self.det.kind.value,
            "model": self.model.value,
        }


@dataclass(frozen=True)
class FiCurveRun:
    phi_values: tuple
    schemes: tuple
    sets: tuple


@dataclass(frozen=True)
class SimulateRun:
    scheme: Scheme
    phi_true: float
    params: ParameterSet
    pulses: int
    trials: int
    checkpoints: tuple
    grid_size: int
    seed: int
    reference_trial: int


@dataclass(frozen=True)
class SaturateRun:
    phi_values: tuple
    pulses_list: tuple
    params: ParameterSet
    trials: int
    grid_size: int
    seed: int


@dataclass(frozen=True)
class PovmCheckRun:
    probe: ProbeConfig
    model: LikelihoodModel
    eta_values: tuple
    nu_values: tuple
    phi_values: tuple
    max_n: int
    fock_cutoff: int


# ---------------------------------------------------------------------------
# low-level helpers
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.load(fh, Loader=SafeLoader)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
    return doc


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


_REQUIRED = object()


def _get(mapping: dict, key: str, kinds, where: str, default=_REQUIRED):
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = ", ".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ConfigError(f"key '{key}' in {where} must be of type {names}, got {value!r}")
    return value


def _number(mapping, key, where, default=_REQUIRED) -> float:
    value = _get(mapping, key, (int, float), where, default)
    return float(value)


def _positive_int(mapping, key, where, default=_REQUIRED, least: int = 1) -> int:
    value = _get(mapping, key, int, where, default)
    if value < least:
        raise ConfigError(f"key '{key}' in {where} must be >= {least}, got {value!r}")
    return value


def _positive_int_list(mapping, key, where) -> tuple:
    values = _get(mapping, key, list, where)
    if not values:
        raise ConfigError(f"key '{key}' in {where} must be a nonempty list")
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"entry {i} of '{key}' in {where} must be a positive integer, got {v!r}")
    return tuple(values)


def _number_list(mapping, key, where, default=_REQUIRED) -> tuple:
    values = _get(mapping, key, list, where, default)
    if values is default and default is not _REQUIRED:
        return default
    if not values:
        raise ConfigError(f"key '{key}' in {where} must be a nonempty list")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"entry {i} of '{key}' in {where} must be a number, got {v!r}")
        out.append(float(v))
    return tuple(out)


def _choice(mapping, key, table: dict, where, default=_REQUIRED):
    value = _get(mapping, key, str, where, default)
    if isinstance(value, str):
        if value not in table:
            raise ConfigError(
                f"key '{key}' in {where} must be one of {sorted(table)}, got {value!r}"
            )
        return table[value]
    return value  # already-resolved default


def _seed(seed: int) -> int:
    """The seed if it is a 64-bit unsigned integer, as the trial seeding needs."""
    try:
        return _check_seed(seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_phi_grid(entry, where: str, lo: float = 0.0, hi: float = math.pi) -> tuple:
    """A grid is either {values: [...]} or {start:, stop:, count:}."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    if "values" in entry:
        _check_keys(entry, {"values"}, where)
        values = _number_list(entry, "values", where)
    else:
        _check_keys(entry, {"start", "stop", "count"}, where)
        start = _number(entry, "start", where)
        stop = _number(entry, "stop", where)
        count = _positive_int(entry, "count", where)
        if stop < start:
            raise ConfigError(f"'stop' must be >= 'start' in {where}")
        if count == 1:
            values = (start,)
        else:
            step = (stop - start) / (count - 1)
            values = tuple(start + i * step for i in range(count))
    for v in values:
        if not lo <= v <= hi:
            raise ConfigError(f"phase value {v!r} in {where} outside [{lo:g}, {hi:g}]")
    return tuple(values)


_PARAM_KEYS = {
    "label", "signal_intensity", "displacement_intensity",
    "eta", "nu", "xi", "detector", "model",
}


def parse_parameter_set(mapping: dict, where: str, default_label: str = "set") -> ParameterSet:
    _check_keys(mapping, _PARAM_KEYS, where)
    label = _get(mapping, "label", str, where, default_label)
    if not _LABEL_RE.match(label):
        raise ConfigError(f"key 'label' in {where} must match {_LABEL_RE.pattern}")
    signal = _number(mapping, "signal_intensity", where)
    displacement = _number(mapping, "displacement_intensity", where, default=signal)
    try:
        probe = ProbeConfig.from_intensities(signal, displacement)
        det = DetectorModel(
            eta=_number(mapping, "eta", where, default=1.0),
            nu=_number(mapping, "nu", where, default=0.0),
            xi=_number(mapping, "xi", where, default=1.0),
            kind=_choice(mapping, "detector", _DETECTORS, where,
                         default=DetectorKind.NUMBER_RESOLVING),
        )
        require_finite_means(probe, det)
    except ValueError as exc:
        raise ConfigError(f"invalid parameter in {where}: {exc}") from exc
    model = _choice(mapping, "model", _MODELS, where,
                    default=LikelihoodModel.POISSON_FRINGE)
    return ParameterSet(label=label, probe=probe, det=det, model=model)


# ---------------------------------------------------------------------------
# per-command parsers
# ---------------------------------------------------------------------------

def parse_fi_curve(cfg: dict) -> FiCurveRun:
    where = "fi-curve config"
    _check_keys(cfg, {"phi_grid", "schemes", "parameter_sets"}, where)
    phi_values = parse_phi_grid(_get(cfg, "phi_grid", dict, where), "phi_grid")
    scheme_names = _get(cfg, "schemes", list, where,
                        default=[s.value for s in Scheme])
    schemes = []
    for name in scheme_names:
        if name not in _SCHEMES:
            raise ConfigError(f"unknown scheme {name!r} in 'schemes' (choose from {sorted(_SCHEMES)})")
        if _SCHEMES[name] not in schemes:
            schemes.append(_SCHEMES[name])
    raw_sets = _get(cfg, "parameter_sets", list, where)
    if not raw_sets:
        raise ConfigError("'parameter_sets' must contain at least one entry")
    sets = []
    for i, entry in enumerate(raw_sets):
        if not isinstance(entry, dict):
            raise ConfigError(f"entry {i} of 'parameter_sets' must be a mapping")
        sets.append(parse_parameter_set(entry, f"parameter_sets[{i}]", f"set{i}"))
    labels = [s.label for s in sets]
    if len(set(labels)) != len(labels):
        raise ConfigError("parameter-set labels must be unique")
    return FiCurveRun(phi_values=phi_values, schemes=tuple(schemes), sets=tuple(sets))


_SIM_KEYS = {"scheme", "phi_true", "pulses", "trials", "checkpoints",
             "grid_size", "seed", "reference_trial"} | (_PARAM_KEYS - {"label"})


def parse_simulate(cfg: dict) -> SimulateRun:
    where = "simulate config"
    _check_keys(cfg, _SIM_KEYS, where)
    params = parse_parameter_set(
        {k: v for k, v in cfg.items() if k in _PARAM_KEYS}, where, "experiment")
    scheme = _choice(cfg, "scheme", _SCHEMES, where, default=Scheme.DISPLACED_COUNTING)
    phi_true = _number(cfg, "phi_true", where)
    if not 0.0 <= phi_true <= math.pi:
        raise ConfigError(f"key 'phi_true' in {where} must lie in [0, pi], got {phi_true!r}")
    pulses = _positive_int(cfg, "pulses", where)
    trials = _positive_int(cfg, "trials", where, default=100)
    if "checkpoints" not in cfg:
        checkpoints = _default_checkpoints(pulses)
    else:
        checkpoints = _positive_int_list(cfg, "checkpoints", where)
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise ConfigError("'checkpoints' must be strictly increasing")
        if checkpoints[-1] > pulses:
            raise ConfigError("'checkpoints' must lie within [1, pulses]")
    grid_size = _positive_int(cfg, "grid_size", where, DEFAULT_GRID_SIZE, MIN_GRID_SIZE)
    seed = _seed(_get(cfg, "seed", int, where, default=0))
    reference_trial = _get(cfg, "reference_trial", int, where, default=0)
    if not 0 <= reference_trial < trials:
        raise ConfigError("'reference_trial' must lie within [0, trials)")
    return SimulateRun(scheme=scheme, phi_true=phi_true, params=params,
                       pulses=pulses, trials=trials, checkpoints=checkpoints,
                       grid_size=grid_size, seed=seed,
                       reference_trial=reference_trial)


def _default_checkpoints(pulses: int) -> tuple:
    """Roughly logarithmic checkpoints from 10 up to the full record."""
    points = set()
    k = 10
    while k < pulses:
        points.add(k)
        points.add(min(int(round(k * math.sqrt(10))), pulses))
        k *= 10
    points.add(pulses)
    return tuple(sorted(p for p in points if 1 <= p <= pulses))


_SAT_KEYS = {"phi_grid", "pulses", "trials", "grid_size", "seed"} | (_PARAM_KEYS - {"label"})


def parse_saturate(cfg: dict) -> SaturateRun:
    where = "saturate config"
    _check_keys(cfg, _SAT_KEYS, where)
    params = parse_parameter_set(
        {k: v for k, v in cfg.items() if k in _PARAM_KEYS}, where, "experiment")
    eps = 1e-12
    phi_values = parse_phi_grid(_get(cfg, "phi_grid", dict, where), "phi_grid",
                                lo=eps, hi=math.pi - eps)
    pulses_list = _positive_int_list(cfg, "pulses", where)
    trials = _positive_int(cfg, "trials", where, default=100)
    grid_size = _positive_int(cfg, "grid_size", where, DEFAULT_GRID_SIZE, MIN_GRID_SIZE)
    seed = _seed(_get(cfg, "seed", int, where, default=0))
    return SaturateRun(phi_values=phi_values, pulses_list=pulses_list,
                       params=params, trials=trials, grid_size=grid_size, seed=seed)


_POVM_KEYS = {"signal_intensity", "displacement_intensity", "model",
              "eta_values", "nu_values", "phi_values", "max_n", "fock_cutoff"}


def parse_povm_check(cfg: dict) -> PovmCheckRun:
    where = "povm-check config"
    _check_keys(cfg, _POVM_KEYS, where)
    signal = _number(cfg, "signal_intensity", where, default=0.1)
    displacement = _number(cfg, "displacement_intensity", where, default=signal)
    try:
        probe = ProbeConfig.from_intensities(signal, displacement)
    except ValueError as exc:
        raise ConfigError(f"invalid parameter in {where}: {exc}") from exc
    model = _choice(cfg, "model", _MODELS, where, default=LikelihoodModel.POISSON_FRINGE)
    eta_values = _number_list(cfg, "eta_values", where, default=(1.0, 0.602))
    nu_values = _number_list(cfg, "nu_values", where, default=(0.0, 1.13e-4))
    phi_values = _number_list(cfg, "phi_values", where,
                              default=(0.0, 0.5, 1.0, 2.0, math.pi))
    max_n = _positive_int(cfg, "max_n", where, default=10)
    cutoff = _positive_int(cfg, "fock_cutoff", where, default=30)
    return PovmCheckRun(probe=probe, model=model, eta_values=eta_values,
                        nu_values=nu_values, phi_values=phi_values,
                        max_n=max_n, fock_cutoff=cutoff)


def apply_overrides(run, seed: int | None = None, trials: int | None = None):
    """Apply the --seed/--trials flags of the seeded commands (simulate, saturate)."""
    updates = {}
    if seed is not None:
        updates["seed"] = _seed(seed)
    if trials is not None:
        if trials < 1:
            raise ConfigError("--trials must be >= 1")
        updates["trials"] = trials
        if isinstance(run, SimulateRun) and run.reference_trial >= trials:
            updates["reference_trial"] = 0
    return replace(run, **updates)

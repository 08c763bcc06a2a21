"""YAML run-configuration schema for the benchmark CLI.

Configs are flat key-value documents with limited nesting (phase grids and
parameter-set lists).  Unknown keys are rejected with the offending key
named, so typos fail loudly instead of silently running defaults, and so
are NaN and infinite numbers.  The ``parse_*`` functions are the only
checks a setting passes: the CLI writes its ``--seed`` and ``--trials``
flags into the mapping as the ``seed`` and ``trials`` keys before parsing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

from .bayes import DEFAULT_GRID_SIZE, MIN_GRID_SIZE
from .fisher import HOMODYNE_UNIDENTIFIED, Scheme
from .photonics import DetectorKind, DetectorModel, LikelihoodModel, ProbeConfig, count_model
from .sampling import _check_seed

# libyaml's parser and emitter where PyYAML was built with them; same documents
SafeLoader, SafeDumper = ((yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
                          else (yaml.SafeLoader, yaml.SafeDumper))

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Points a {start, stop, count} grid may have: a million-phase fi-curve set takes about a minute.
MAX_GRID_POINTS = 10**6

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
    phi_grid: dict  # the grid as the config gave it, normalised (parse_phi_grid)
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


@dataclass(frozen=True)
class SaturateRun:
    phi_values: tuple
    phi_grid: dict
    pulses_list: tuple
    params: ParameterSet
    trials: int
    grid_size: int
    seed: int


@dataclass(frozen=True)
class PovmCheckRun:
    probe: ProbeConfig
    model: LikelihoodModel
    detectors: tuple  # DetectorModel(eta=eta, nu=nu), eta-major: number-resolving, xi = 1
    phi_values: tuple
    max_n: int


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


def _float(value: int | float) -> float:
    """float(value), with an int beyond the float range as an infinity."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(mapping, key, where, default=_REQUIRED) -> float:
    value = _float(_get(mapping, key, (int, float), where, default))
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' in {where} must be a finite number, got {value!r}")
    return value


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
        number = v if isinstance(v, bool) or not isinstance(v, (int, float)) else _float(v)
        if not isinstance(number, float) or not math.isfinite(number):
            raise ConfigError(
                f"entry {i} of '{key}' in {where} must be a finite number, got {number!r}")
        out.append(number)
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


def _check_streams(streams: int, where: str) -> None:
    """A run seeds its trial streams in one array, which numpy caps at intp's range."""
    if streams > np.iinfo(np.intp).max:
        raise ConfigError(f"key 'trials' in {where} asks for {streams} trial streams, "
                          f"more than the {np.iinfo(np.intp).max} one array can seed")


def _seed(seed: int) -> int:
    """The seed if it is a 64-bit unsigned integer, as the trial seeding needs."""
    try:
        return _check_seed(seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_phi_grid(entry, where: str, lo: float = 0.0, hi: float = math.pi) -> tuple[tuple, dict]:
    """A grid is either {values: [...]} or {start:, stop:, count:}.

    Returns the phases and the grid in its normalised form, which a sidecar
    records: {values: [floats]}, or {start: float, stop: float, count: int}
    in that order.  A point start + i*step that rounds past ``stop`` is
    clamped to ``stop``; every other point keeps those bits.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    if "values" in entry:
        _check_keys(entry, {"values"}, where)
        values = _number_list(entry, "values", where)
        grid = {"values": list(values)}
    else:
        _check_keys(entry, {"start", "stop", "count"}, where)
        start = _number(entry, "start", where)
        stop = _number(entry, "stop", where)
        count = _positive_int(entry, "count", where)
        if stop < start:
            raise ConfigError(f"'stop' must be >= 'start' in {where}")
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"key 'count' in {where} must be <= {MAX_GRID_POINTS}, got {count!r}")
        if count == 1:
            values = (start,)
        else:
            points = start + np.arange(count) * ((stop - start) / (count - 1))
            values = tuple(np.where(points > stop, stop, points).tolist())  # min(point, stop)
        grid = {"start": start, "stop": stop, "count": count}
    points = np.array(values)
    outside = ~((lo <= points) & (points <= hi))
    if outside.any():
        raise ConfigError(
            f"phase value {values[outside.argmax()]!r} in {where} outside [{lo:g}, {hi:g}]")
    return values, grid


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
    model = _choice(mapping, "model", _MODELS, where, default=LikelihoodModel.POISSON_FRINGE)
    eta = _number(mapping, "eta", where, default=1.0)
    nu = _number(mapping, "nu", where, default=0.0)
    xi = _number(mapping, "xi", where, default=1.0)
    kind = _choice(mapping, "detector", _DETECTORS, where, default=DetectorKind.NUMBER_RESOLVING)
    try:
        probe = ProbeConfig.from_intensities(signal, displacement)
        det = DetectorModel(eta=eta, nu=nu, xi=xi, kind=kind)
        count_model(probe, det, model)  # finite means; matched amplitudes for the mixture
    except ValueError as exc:
        raise ConfigError(f"invalid parameter in {where}: {exc}") from exc
    return ParameterSet(label=label, probe=probe, det=det, model=model)


# ---------------------------------------------------------------------------
# per-command parsers
# ---------------------------------------------------------------------------

def parse_fi_curve(cfg: dict) -> FiCurveRun:
    where = "fi-curve config"
    _check_keys(cfg, {"phi_grid", "schemes", "parameter_sets"}, where)
    phi_values, phi_grid = parse_phi_grid(_get(cfg, "phi_grid", dict, where), "phi_grid")
    scheme_names = _get(cfg, "schemes", list, where,
                        default=[s.value for s in Scheme])
    if not scheme_names:
        raise ConfigError(f"key 'schemes' in {where} must be a nonempty list")
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
        if sets[-1].probe.alpha == 0.0:
            raise ConfigError(f"key 'signal_intensity' in parameter_sets[{i}] must be > 0: "
                              "the FI/QFI columns are 0/0 at zero signal")
    labels = [s.label for s in sets]
    if len(set(labels)) != len(labels):
        raise ConfigError("parameter-set labels must be unique")
    return FiCurveRun(phi_values=phi_values, phi_grid=phi_grid, schemes=tuple(schemes),
                      sets=tuple(sets))


def _seeded(cfg: dict, keys: set, where: str) -> dict:
    """The keys every seeded command takes, checked before the command's own
    ``keys``: the parameter set, trials, grid_size and seed, as run fields."""
    _check_keys(cfg, keys | {"trials", "grid_size", "seed"} | (_PARAM_KEYS - {"label"}), where)
    return {
        "params": parse_parameter_set(
            {k: v for k, v in cfg.items() if k in _PARAM_KEYS}, where, "experiment"),
        "trials": _positive_int(cfg, "trials", where, default=100),
        "grid_size": _positive_int(cfg, "grid_size", where, DEFAULT_GRID_SIZE, MIN_GRID_SIZE),
        "seed": _seed(_get(cfg, "seed", int, where, default=0)),
    }


def parse_simulate(cfg: dict) -> SimulateRun:
    where = "simulate config"
    seeded = _seeded(cfg, {"scheme", "phi_true", "pulses", "checkpoints"}, where)
    scheme = _choice(cfg, "scheme", _SCHEMES, where, default=Scheme.DISPLACED_COUNTING)
    if scheme is Scheme.HOMODYNE:
        raise ConfigError(f"key 'scheme' in {where}: {HOMODYNE_UNIDENTIFIED}")
    # not _number: the range check names the range for NaN and inf too
    phi_true = _float(_get(cfg, "phi_true", (int, float), where))
    if not 0.0 <= phi_true <= math.pi:
        raise ConfigError(f"key 'phi_true' in {where} must lie in [0, pi], got {phi_true!r}")
    pulses = _positive_int(cfg, "pulses", where)
    _check_streams(seeded["trials"], where)
    if "checkpoints" not in cfg:
        checkpoints = _default_checkpoints(pulses)
    else:
        checkpoints = _positive_int_list(cfg, "checkpoints", where)
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise ConfigError("'checkpoints' must be strictly increasing")
        if checkpoints[-1] > pulses:
            raise ConfigError("'checkpoints' must lie within [1, pulses]")
    return SimulateRun(scheme=scheme, phi_true=phi_true, pulses=pulses,
                       checkpoints=checkpoints, **seeded)


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


def parse_saturate(cfg: dict) -> SaturateRun:
    where = "saturate config"
    seeded = _seeded(cfg, {"phi_grid", "pulses"}, where)
    eps = 1e-12
    phi_values, phi_grid = parse_phi_grid(_get(cfg, "phi_grid", dict, where), "phi_grid",
                                          lo=eps, hi=math.pi - eps)
    pulses_list = _positive_int_list(cfg, "pulses", where)
    _check_streams(seeded["trials"] * len(phi_values) * len(pulses_list), where)
    return SaturateRun(phi_values=phi_values, phi_grid=phi_grid, pulses_list=pulses_list,
                       **seeded)


_POVM_KEYS = {"signal_intensity", "displacement_intensity", "model",
              "eta_values", "nu_values", "phi_values", "max_n"}


def parse_povm_check(cfg: dict) -> PovmCheckRun:
    where = "povm-check config"
    _check_keys(cfg, _POVM_KEYS, where)
    signal = _number(cfg, "signal_intensity", where, default=0.1)
    displacement = _number(cfg, "displacement_intensity", where, default=signal)
    model = _choice(cfg, "model", _MODELS, where, default=LikelihoodModel.POISSON_FRINGE)
    eta_values = _number_list(cfg, "eta_values", where, default=(1.0, 0.602))
    nu_values = _number_list(cfg, "nu_values", where, default=(0.0, 1.13e-4))
    try:
        probe = ProbeConfig.from_intensities(signal, displacement)
        detectors = tuple(DetectorModel(eta=eta, nu=nu) for eta in eta_values for nu in nu_values)
        for det in detectors:
            count_model(probe, det, model)
    except ValueError as exc:
        raise ConfigError(f"invalid parameter in {where}: {exc}") from exc
    phi_values = _number_list(cfg, "phi_values", where,
                              default=(0.0, 0.5, 1.0, 2.0, math.pi))
    max_n = _positive_int(cfg, "max_n", where, default=10)
    return PovmCheckRun(probe=probe, model=model, detectors=detectors,
                        phi_values=phi_values, max_n=max_n)

"""Shared fixtures: the experimental parameter set used across the suite."""

import gc

import pytest

from phasecount import DetectorKind, DetectorModel, ProbeConfig

# uncertainties aside, the nominal bench parameters of the simulated setup
SIGNAL_INTENSITY = 0.100
DISPLACEMENT_INTENSITY = 0.101
ETA = 0.602
NU = 1.13e-4
XI = 0.993


@pytest.fixture
def experiment_probe() -> ProbeConfig:
    return ProbeConfig.from_intensities(SIGNAL_INTENSITY, DISPLACEMENT_INTENSITY)


@pytest.fixture
def experiment_detector_onoff() -> DetectorModel:
    return DetectorModel(eta=ETA, nu=NU, xi=XI, kind=DetectorKind.ON_OFF)


@pytest.fixture
def experiment_detector_pnrd() -> DetectorModel:
    return DetectorModel(eta=ETA, nu=NU, xi=XI, kind=DetectorKind.NUMBER_RESOLVING)


@pytest.fixture
def ideal_probe() -> ProbeConfig:
    return ProbeConfig.from_intensities(SIGNAL_INTENSITY)


@pytest.fixture
def ideal_detector() -> DetectorModel:
    return DetectorModel()


@pytest.fixture
def gc_paused():
    """Keep the cyclic garbage collector off for the test, so a wall-clock
    bound on a fail-fast path times that path and not a full collection of
    the objects earlier tests left behind (tens of ms on a large heap)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

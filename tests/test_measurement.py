"""The measurement resolver, ``fisher.measurement``, as the one place that
tells the kinds apart, the checkpoint checks of its statistics and statistic
draws, and the homodyne refusal."""

import itertools
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phasecount import (
    DetectorKind,
    DetectorModel,
    ExperimentConfig,
    LikelihoodModel,
    OutcomeRecord,
    ProbeConfig,
    Scheme,
    bayes,
    fi_numeric,
    posterior,
    sample,
    sampling,
    sequential_estimates,
)
from phasecount.bayes import LikelihoodTable
from phasecount.fisher import (
    HOMODYNE_UNIDENTIFIED,
    FringeCounts,
    Heterodyne,
    Homodyne,
    MixtureCounts,
    OnOff,
    measurement,
)

PROBE = ProbeConfig.from_intensities(0.1)
ONOFF = DetectorModel(eta=0.602, nu=1.13e-4, xi=0.993, kind=DetectorKind.ON_OFF)


def _config(scheme=Scheme.DISPLACED_COUNTING, det=DetectorModel(),
            model=LikelihoodModel.POISSON_FRINGE):
    return ExperimentConfig(scheme=scheme, phi_true=1.0, probe=PROBE, det=det,
                            pulses=100, model=model, seed=11)


@pytest.mark.parametrize("scheme,det,model,kind", [
    (Scheme.DISPLACED_COUNTING, ONOFF, LikelihoodModel.POISSON_FRINGE, OnOff),
    (Scheme.DISPLACED_COUNTING, ONOFF, LikelihoodModel.VISIBILITY_MIXTURE, OnOff),
    (Scheme.DISPLACED_COUNTING, DetectorModel(), LikelihoodModel.POISSON_FRINGE, FringeCounts),
    (Scheme.DISPLACED_COUNTING, DetectorModel(), LikelihoodModel.VISIBILITY_MIXTURE,
     MixtureCounts),
    (Scheme.HOMODYNE, DetectorModel(), LikelihoodModel.POISSON_FRINGE, Homodyne),
    (Scheme.HETERODYNE, DetectorModel(), LikelihoodModel.POISSON_FRINGE, Heterodyne),
])
def test_each_scheme_detector_and_model_resolve_to_their_kind(scheme, det, model, kind):
    assert type(measurement(scheme, PROBE, det, model)) is kind


def test_unknown_scheme_raises_the_same_error_everywhere():
    config = _config(scheme="interferometer")
    message = "unknown scheme 'interferometer'"
    with pytest.raises(ValueError) as drawn:
        sample(config)
    with pytest.raises(ValueError) as fisher_information:
        fi_numeric("interferometer", 1.0, PROBE, DetectorModel())
    with pytest.raises(ValueError) as table:
        LikelihoodTable(config.measurement, 65)
    assert str(drawn.value) == str(fisher_information.value) == str(table.value) == message


# a comparison with a Scheme, DetectorKind or LikelihoodModel value, on one line
KIND_TEST = re.compile(
    r"(\bis not|\bis|\bin|==|!=)\s+\(?(Scheme|DetectorKind|LikelihoodModel)\."
    r"|\b(Scheme|DetectorKind|LikelihoodModel)\.[A-Z_]+\s+(is|in|==|!=)")


@pytest.mark.parametrize("line,compares", [
    ("    if det.kind is DetectorKind.ON_OFF:", True),
    ("    if scheme is not Scheme.HOMODYNE:", True),
    ("    if model in (LikelihoodModel.POISSON_FRINGE,):", True),
    ("    if Scheme.HETERODYNE == scheme:", True),
    ("    kind = measurement(Scheme.DISPLACED_COUNTING, probe, det, model)", False),
])
def test_kind_comparison_pattern(line, compares):
    assert bool(KIND_TEST.search(line)) is compares


@pytest.mark.parametrize("module", [sampling, bayes], ids=["sampling", "bayes"])
def test_only_the_resolver_tells_the_kinds_apart(module):
    # sampling and bayes reach every measurement through fisher.measurement,
    # the one place (with fi_analytic) that tells the schemes, detectors and
    # count models apart: neither compares a kind's value
    lines = Path(module.__file__).read_text().splitlines()
    assert [(n, line) for n, line in enumerate(lines, 1) if KIND_TEST.search(line)] == []


def _quadrature_configs(scheme):
    # beta != alpha: a count model of the mixture would raise ModelMismatchError
    default = replace(_config(scheme), probe=ProbeConfig.from_intensities(0.1, 0.3))
    return default, replace(default, det=ONOFF, model=LikelihoodModel.VISIBILITY_MIXTURE)


@pytest.mark.parametrize("scheme", [Scheme.HOMODYNE, Scheme.HETERODYNE])
def test_quadratures_ignore_the_detector_and_the_model(scheme):
    default, other = _quadrature_configs(scheme)
    phis = np.linspace(0.0, np.pi, 9)
    got = fi_numeric(scheme, phis, other.probe, ONOFF, model=LikelihoodModel.VISIBILITY_MIXTURE)
    want = fi_numeric(scheme, phis, default.probe)
    assert got.value.tobytes() == want.value.tobytes()
    assert np.array_equal(got.phi_evaluated, phis) and not got.zero_substituted.any()


def test_heterodyne_records_ignore_the_detector_and_the_model():
    default, other = _quadrature_configs(Scheme.HETERODYNE)
    assert np.array_equal(sample(default).values, sample(other).values)
    grid = np.linspace(0.0, np.pi, 65)
    rows = [c.measurement.loglik(grid)((40, 0.5 + 0.25j, 21.0)) for c in (default, other)]
    assert rows[0].tobytes() == rows[1].tobytes()


@pytest.mark.parametrize("scheme,kind,model", itertools.product(
    Scheme, DetectorKind, LikelihoodModel))
def test_fi_over_no_phases_is_empty(scheme, kind, model):
    result = fi_numeric(scheme, np.array([]), PROBE, DetectorModel(kind=kind), model=model)
    assert result.value.dtype == result.phi_evaluated.dtype == np.float64
    assert result.value.shape == result.phi_evaluated.shape == result.zero_substituted.shape == (0,)


def test_homodyne_estimation_raises_one_message_before_any_draw():
    # sin(phi) = sin(pi - phi): no homodyne record identifies phi on [0, pi]
    config = _config(Scheme.HOMODYNE)
    kind = config.measurement
    record = OutcomeRecord(config, np.zeros(config.pulses))
    calls = [lambda: sample(config), lambda: posterior(record, 65),
             lambda: sequential_estimates(record, 65, (10, 100)),
             lambda: LikelihoodTable(kind, 65),
             lambda: kind.statistics(record.values, (100,)),
             lambda: kind.statistic_draw(config.phi_true, config.pulses, (100,))]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == HOMODYNE_UNIDENTIFIED
    assert "sin(phi) = sin(pi - phi)" in HOMODYNE_UNIDENTIFIED
    assert fi_numeric(Scheme.HOMODYNE, 1.0, PROBE).value > 0.0  # still an FI reference


class TestCheckpoints:
    """Checkpoints past the record's end or out of order raise, once per call,
    where they used to count pulses never drawn as silent (or as no counts)."""

    def test_onoff_checkpoints_past_the_record_raise(self):
        config = _config(det=ONOFF)
        values, kind = sample(config).values, config.measurement
        with pytest.raises(ValueError, match=r"\[0, pulses\] = \[0, 100\], got 50 .. 1000"):
            kind.statistics(values, (50, 100, 1000))
        with pytest.raises(ValueError, match="within"):
            kind.statistic_draw(config.phi_true, config.pulses, (50, 100, 1000))

    def test_onoff_checkpoints_out_of_order_raise(self):
        config = _config(det=ONOFF)
        values, kind = sample(config).values, config.measurement
        with pytest.raises(ValueError, match="strictly increasing"):
            kind.statistics(values, (100, 50))
        with pytest.raises(ValueError, match="strictly increasing"):
            kind.statistic_draw(config.phi_true, config.pulses, (100, 50))

    @pytest.mark.parametrize("model", list(LikelihoodModel))
    def test_exact_law_draw_past_the_record_raises(self, model):
        config = _config(model=model)
        with pytest.raises(ValueError, match=r"\[0, 100\], got 10 .. 1000"):
            config.measurement.statistic_draw(config.phi_true, config.pulses, (10, 100, 1000))
        # checkpoints inside the record still draw
        draw = config.measurement.statistic_draw(config.phi_true, config.pulses, (0, 10, 100))
        assert len(draw(np.random.default_rng(1))) == 3

"""The public surface of the package."""

import warnings

import pytest

import phasecount
from phasecount import DetectorModel, LikelihoodModel, ProbeConfig, Scheme, fi_numeric


def test_every_public_name_resolves():
    assert [name for name in phasecount.__all__ if not hasattr(phasecount, name)] == []


def test_fi_numeric_model_is_keyword_only():
    # a stray fifth positional argument must not bind to the model, where it
    # would silently select the count model
    probe, det = ProbeConfig.from_intensities(0.1), DetectorModel()
    with pytest.raises(TypeError):
        fi_numeric(Scheme.DISPLACED_COUNTING, 1.0, probe, det,
                   LikelihoodModel.VISIBILITY_MIXTURE)
    assert fi_numeric(Scheme.DISPLACED_COUNTING, 1.0, probe, det,
                      model=LikelihoodModel.VISIBILITY_MIXTURE).value > 0.0


@pytest.mark.parametrize("module,raises", [("phasecount.fisher", True), ("numpy", False)])
def test_deprecation_from_the_package_is_an_error(module, raises):
    # the suite turns a deprecation raised from our own modules into an
    # error, before it becomes a removal; one raised elsewhere is only shown
    def warn():
        warnings.warn_explicit("old call", DeprecationWarning, "x.py", 1, module=module)

    if raises:
        with pytest.raises(DeprecationWarning, match="old call"):
            warn()
    else:
        with pytest.warns(DeprecationWarning, match="old call"):
            warn()

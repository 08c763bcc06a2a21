"""Exact values of the numeric on/off, PNRD, homodyne and heterodyne Fisher
information and of the count and click likelihoods, for both count models.

The hex strings were produced by the per-model implementation that
preceded :class:`phasecount.photonics.CountModel`; the comparison is
``==`` on every bit.  phi = 0 exercises the zero-phase surrogate.  The
quadrature pins were produced by the Gauss-Hermite evaluation that built its
128 x 128 score and weight grids afresh on every call.
"""

import pytest

from phasecount import (
    DerivativeRule,
    DetectorKind,
    DetectorModel,
    FiOptions,
    LikelihoodModel,
    ProbeConfig,
    Scheme,
    fi_numeric,
    onoff_likelihood,
    pnrd_likelihood,
)

PARAMETER_SETS = {
    "fringe": (LikelihoodModel.POISSON_FRINGE, ProbeConfig.from_intensities(0.5),
               dict(eta=0.602, nu=1.13e-4, xi=0.9)),
    "fringe-mismatched": (LikelihoodModel.POISSON_FRINGE, ProbeConfig.from_intensities(0.100, 0.101),
                          dict(eta=0.602, nu=1.13e-4, xi=0.993)),
    "mixture": (LikelihoodModel.VISIBILITY_MIXTURE, ProbeConfig.from_intensities(0.5),
                dict(eta=0.602, nu=1.13e-4, xi=0.9)),
}

FI_PINS = {
    ('fringe', 'pnrd', 'analytic', 0.0): '0x1.567d3baf62df5p-38',
    ('fringe', 'pnrd', 'analytic', 0.7): '0x1.4c46b4b654bb0p-1',
    ('fringe', 'pnrd', 'analytic', 2.5): '0x1.9f9e0e084cb24p-4',
    ('fringe', 'pnrd', 'central', 0.0): '0x1.567d5c2c0119cp-38',
    ('fringe', 'pnrd', 'central', 0.7): '0x1.4c46b4b634f22p-1',
    ('fringe', 'pnrd', 'central', 2.5): '0x1.9f9e0e068893cp-4',
    ('fringe', 'onoff', 'analytic', 0.0): '0x1.4c43c57862df0p-38',
    ('fringe', 'onoff', 'analytic', 0.7): '0x1.2e104e5da28cep-1',
    ('fringe', 'onoff', 'analytic', 2.5): '0x1.d9a842e01b471p-5',
    ('fringe', 'onoff', 'central', 0.0): '0x1.4c40a945995b8p-38',
    ('fringe', 'onoff', 'central', 0.7): '0x1.2e104e5dda0fep-1',
    ('fringe', 'onoff', 'central', 2.5): '0x1.d9a842dd6c228p-5',
    ('fringe-mismatched', 'pnrd', 'analytic', 0.0): '0x1.082532b661efap-36',
    ('fringe-mismatched', 'pnrd', 'analytic', 0.7): '0x1.a3fd8babf8da8p-3',
    ('fringe-mismatched', 'pnrd', 'analytic', 2.5): '0x1.85bc722d3ea07p-6',
    ('fringe-mismatched', 'pnrd', 'central', 0.0): '0x1.082534a55927cp-36',
    ('fringe-mismatched', 'pnrd', 'central', 0.7): '0x1.a3fd8bac24154p-3',
    ('fringe-mismatched', 'pnrd', 'central', 2.5): '0x1.85bc722bc31e6p-6',
    ('fringe-mismatched', 'onoff', 'analytic', 0.0): '0x1.0804b1c2d0ab0p-36',
    ('fringe-mismatched', 'onoff', 'analytic', 0.7): '0x1.9de28c6dc1486p-3',
    ('fringe-mismatched', 'onoff', 'analytic', 2.5): '0x1.5ce8fab37ff29p-6',
    ('fringe-mismatched', 'onoff', 'central', 0.0): '0x1.0803e41cee79bp-36',
    ('fringe-mismatched', 'onoff', 'central', 0.7): '0x1.9de28c6ec6a9ep-3',
    ('fringe-mismatched', 'onoff', 'central', 2.5): '0x1.5ce8fab2fe1ecp-6',
    ('mixture', 'pnrd', 'analytic', 0.0): '0x1.b6267ae5cfab7p-38',
    ('mixture', 'pnrd', 'analytic', 0.7): '0x1.2f72af45f1fe2p-1',
    ('mixture', 'pnrd', 'analytic', 2.5): '0x1.5d78e359032f6p-4',
    ('mixture', 'pnrd', 'central', 0.0): '0x1.b625ebe99d9aap-38',
    ('mixture', 'pnrd', 'central', 0.7): '0x1.2f72af4612583p-1',
    ('mixture', 'pnrd', 'central', 2.5): '0x1.5d78e358c5e56p-4',
    ('mixture', 'onoff', 'analytic', 0.0): '0x1.7a401a4e28609p-38',
    ('mixture', 'onoff', 'analytic', 0.7): '0x1.27ea7a6726ec3p-1',
    ('mixture', 'onoff', 'analytic', 2.5): '0x1.50179756fc91ep-5',
    ('mixture', 'onoff', 'central', 0.0): '0x1.7a37ef514b9ffp-38',
    ('mixture', 'onoff', 'central', 0.7): '0x1.27ea7a676f835p-1',
    ('mixture', 'onoff', 'central', 2.5): '0x1.5017975623ec1p-5',
}
# Bright visibility-mixture cases in which the interfering component's
# masses underflow to 0 (after 65, 111 and 62 terms) before the count sum
# reaches its tail mass (after 208, 208 and 78 terms): the finished
# component must keep adding (0, 0) while the background one runs on.
BRIGHT_MIXTURE_DETECTOR = dict(eta=0.602, nu=1.13e-4, xi=0.99)
BRIGHT_MIXTURE_FI_PINS = {
    (200, 'pnrd', 'analytic', 0.001): '0x1.e707b4b591f00p+7',
    (200, 'pnrd', 'central', 0.001): '0x1.e707b4b591cbap+7',
    (200, 'onoff', 'analytic', 0.001): '0x1.6b1c352d799a7p+1',
    (200, 'onoff', 'central', 0.001): '0x1.6b1c352d4f041p+1',
    (200, 'pnrd', 'analytic', 0.02): '0x1.d6e944b0328a9p+8',
    (200, 'pnrd', 'central', 0.02): '0x1.d6e944b0348e4p+8',
    (200, 'onoff', 'analytic', 0.02): '0x1.4837d920481e6p+8',
    (200, 'onoff', 'central', 0.02): '0x1.4837d92050fa8p+8',
    (50, 'pnrd', 'analytic', 0.001): '0x1.8d2dfdcb40230p+4',
    (50, 'pnrd', 'central', 0.001): '0x1.8d2dfdcb400f4p+4',
    (50, 'onoff', 'analytic', 0.001): '0x1.6cc123bfa5eabp-3',
    (50, 'onoff', 'central', 0.001): '0x1.6cc123c1431f7p-3',
}
QUADRATURE_PROBES = {
    "balanced": ProbeConfig.from_intensities(0.5),
    "mismatched": ProbeConfig.from_intensities(0.100, 0.101),
}
QUADRATURE_FI_PINS = {
    ('balanced', 'homodyne', 'analytic', 0.0): '0x1.0000000000002p+1',
    ('balanced', 'homodyne', 'analytic', 0.7): '0x1.2b82f77826ae6p+0',
    ('balanced', 'homodyne', 'analytic', 2.5): '0x1.489e15c1ad2bap+0',
    ('balanced', 'homodyne', 'central', 0.0): '0x1.0000000015f65p+1',
    ('balanced', 'homodyne', 'central', 0.7): '0x1.2b82f7781c250p+0',
    ('balanced', 'homodyne', 'central', 2.5): '0x1.489e15c0e8eddp+0',
    ('balanced', 'heterodyne', 'analytic', 0.0): '0x1.0000000000001p+0',
    ('balanced', 'heterodyne', 'analytic', 0.7): '0x1.0000000000001p+0',
    ('balanced', 'heterodyne', 'analytic', 2.5): '0x1.0000000000001p+0',
    ('balanced', 'heterodyne', 'central', 0.0): '0x1.ffffffffc2188p-1',
    ('balanced', 'heterodyne', 'central', 0.7): '0x1.00000000271d7p+0',
    ('balanced', 'heterodyne', 'central', 2.5): '0x1.fffffffe7bfe4p-1',
    ('mismatched', 'homodyne', 'analytic', 0.0): '0x1.999999999999cp-2',
    ('mismatched', 'homodyne', 'analytic', 0.7): '0x1.df37f259d77d2p-3',
    ('mismatched', 'homodyne', 'analytic', 2.5): '0x1.06e4de348a893p-2',
    ('mismatched', 'homodyne', 'central', 0.0): '0x1.999999995c73bp-2',
    ('mismatched', 'homodyne', 'central', 0.7): '0x1.df37f25974cb5p-3',
    ('mismatched', 'homodyne', 'central', 2.5): '0x1.06e4de33b1c18p-2',
    ('mismatched', 'heterodyne', 'analytic', 0.0): '0x1.999999999999bp-3',
    ('mismatched', 'heterodyne', 'analytic', 0.7): '0x1.999999999999bp-3',
    ('mismatched', 'heterodyne', 'analytic', 2.5): '0x1.999999999999ap-3',
    ('mismatched', 'heterodyne', 'central', 0.0): '0x1.999999999a51ep-3',
    ('mismatched', 'heterodyne', 'central', 0.7): '0x1.9999999973e42p-3',
    ('mismatched', 'heterodyne', 'central', 2.5): '0x1.99999998de212p-3',
}
LIKELIHOOD_PINS = {
    ('fringe', 'pnrd', 0.0): ('0x1.e20854a203afap-1', '0x1.d12a4e6504346p-5', '0x1.c0e360cfb47bfp-10', '0x1.20c981946b5e5p-15'),
    ('fringe', 'onoff', 0.0): ('0x1.e20854a203afap-1', '0x1.df7ab5dfc5060p-5'),
    ('fringe', 'pnrd', 0.7): ('0x1.a85e702c99f57p-1', '0x1.3ea715647ce53p-3', '0x1.de8b2da57ff15p-7', '0x1.df1be6ebaf91fp-11'),
    ('fringe', 'onoff', 0.7): ('0x1.a85e702c99f57p-1', '0x1.5e863f4d982a6p-3'),
    ('fringe', 'pnrd', 2.5): ('0x1.6b53559659021p-2', '0x1.7877cc10cfc5ap-2', '0x1.8615f61a7cb51p-3', '0x1.0d76d1c926377p-4'),
    ('fringe', 'onoff', 2.5): ('0x1.6b53559659021p-2', '0x1.4a565534d37f0p-1'),
    ('fringe-mismatched', 'pnrd', 0.0): ('0x1.ff8208e2525ccp-1', '0x1.f79e765f2674fp-11', '0x1.efda09ade94afp-22', '0x1.45782fe2881e6p-33'),
    ('fringe-mismatched', 'onoff', 0.0): ('0x1.ff8208e2525ccp-1', '0x1.f7dc76b68d125p-11'),
    ('fringe-mismatched', 'pnrd', 0.7): ('0x1.f141ee6f195c9p-1', '0x1.d0e68b0bc09abp-6', '0x1.b2a6298a17337p-12', '0x1.0ee924b388f8bp-18'),
    ('fringe-mismatched', 'onoff', 0.7): ('0x1.f141ee6f195c9p-1', '0x1.d7c2321cd46efp-6'),
    ('fringe-mismatched', 'pnrd', 2.5): ('0x1.9bf833d3053d0p-1', '0x1.6635364652c9bp-3', '0x1.377647c50fa3fp-6', '0x1.6916b29d9f87ap-10'),
    ('fringe-mismatched', 'onoff', 2.5): ('0x1.9bf833d3053d0p-1', '0x1.901f30b3eb0bfp-3'),
    ('mixture', 'pnrd', 0.0): ('0x1.e7bf9cb47d5d0p-1', '0x1.4ca3ecc2867b1p-5', '0x1.8fbcce29778ddp-8', '0x1.40f9e5ceb86fep-11'),
    ('mixture', 'onoff', 0.0): ('0x1.e7bf9cb47d5d0p-1', '0x1.840634b82a300p-5'),
    ('mixture', 'pnrd', 0.7): ('0x1.b0754d3d1a29ap-1', '0x1.2102d6610c81ep-3', '0x1.b1664f29b4157p-7', '0x1.f16f9bafc213bp-11'),
    ('mixture', 'onoff', 0.7): ('0x1.b0754d3d1a29ap-1', '0x1.3e2acb0b97598p-3'),
    ('mixture', 'pnrd', 2.5): ('0x1.a50b101a5c6a5p-2', '0x1.5ca9dc44fe526p-2', '0x1.5998a112a4f8ep-3', '0x1.e6a3f6618e6c1p-5'),
    ('mixture', 'onoff', 2.5): ('0x1.a50b101a5c6a5p-2', '0x1.2d7a77f2d1caep-1'),
}


@pytest.mark.parametrize("key", sorted(FI_PINS))
def test_fi_numeric_counting_is_pinned(key):
    name, kind, rule, phi = key
    model, probe, params = PARAMETER_SETS[name]
    det = DetectorModel(kind=DetectorKind(kind), **params)
    opts = FiOptions(derivative=DerivativeRule(rule))
    value = fi_numeric(Scheme.DISPLACED_COUNTING, phi, probe, det, opts, model).value
    assert value.hex() == FI_PINS[key]


@pytest.mark.parametrize("key", sorted(BRIGHT_MIXTURE_FI_PINS))
def test_fi_numeric_bright_mixture_is_pinned(key):
    intensity, kind, rule, phi = key
    det = DetectorModel(kind=DetectorKind(kind), **BRIGHT_MIXTURE_DETECTOR)
    opts = FiOptions(derivative=DerivativeRule(rule))
    value = fi_numeric(Scheme.DISPLACED_COUNTING, phi, ProbeConfig.from_intensities(intensity),
                       det, opts, LikelihoodModel.VISIBILITY_MIXTURE).value
    assert value.hex() == BRIGHT_MIXTURE_FI_PINS[key]


@pytest.mark.parametrize("key", sorted(QUADRATURE_FI_PINS))
def test_fi_numeric_quadrature_is_pinned(key):
    name, scheme, rule, phi = key
    opts = FiOptions(derivative=DerivativeRule(rule))
    value = fi_numeric(Scheme(scheme), phi, QUADRATURE_PROBES[name], opts=opts).value
    assert value.hex() == QUADRATURE_FI_PINS[key]


@pytest.mark.parametrize("key", sorted(LIKELIHOOD_PINS))
def test_likelihoods_are_pinned(key):
    name, kind, phi = key
    model, probe, params = PARAMETER_SETS[name]
    det = DetectorModel(kind=DetectorKind(kind), **params)
    if kind == "pnrd":
        got = tuple(pnrd_likelihood(n, phi, probe, det, model).hex() for n in range(4))
    else:
        got = tuple(onoff_likelihood(c, phi, probe, det, model).hex() for c in (False, True))
    assert got == LIKELIHOOD_PINS[key]

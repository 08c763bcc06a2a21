"""Seeded, reproducible measurement records for any scheme at a true phase.

The generator identity is frozen as part of the output contract:
outcomes come from numpy's PCG64 stream, counts via inverse-CDF lookup on
the truncated count distribution, quadratures via Gaussian sampling.
Per-trial seeds are derived from one master seed with a splitmix64
avalanche mixer, so each trial's stream is independent of the others.
Trial t of a run draws from ``default_rng(split_seed(seed, t))``'s PCG64
stream, bit for bit, on a Generator of its own; :func:`split_seeds` and
:func:`trial_streams` seed all the trials of a run in array passes.  What
is drawn, and how a record reduces to its sufficient statistics, is the
run's measurement (``ExperimentConfig.measurement``, one of
``fisher.measurement``'s kinds): number-resolving counts draw their
statistics from their exact law, every other record is drawn and reduced.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .fisher import Measurement, Scheme, measurement
from .photonics import DetectorModel, LikelihoodModel, ProbeConfig
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .photonics import fringe_mean, mixture_component_means, onoff_likelihood

PRNG_IDENTITY = "numpy.random.PCG64"
SEED_MIXER_IDENTITY = "splitmix64"

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated acquisition run: scheme, physics, pulse count, and seed."""

    scheme: Scheme
    phi_true: float
    probe: ProbeConfig
    det: DetectorModel
    pulses: int
    model: LikelihoodModel = LikelihoodModel.POISSON_FRINGE
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.phi_true <= math.pi:
            raise ValueError(f"phi_true must lie in [0, pi], got {self.phi_true!r}")
        if self.pulses < 0:
            # pulses == 0 is allowed so that an empty record (posterior ==
            # prior) remains constructible
            raise ValueError(f"pulses must be >= 0, got {self.pulses!r}")
        _check_seed(self.seed)

    @property
    def measurement(self) -> Measurement:
        """The measurement this run makes: its draws, statistics and likelihood."""
        return measurement(self.scheme, self.probe, self.det, self.model)


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """Outcomes of one run; dtype depends on the scheme and detector.

    int64 counts for number-resolving counting, bool click flags for the
    on/off detector, complex128 for heterodyne outcomes.  Homodyne has no
    records: it is a Fisher-information reference only.
    """

    config: ExperimentConfig
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.values) != self.config.pulses:
            raise ValueError(
                f"record length {len(self.values)} != configured pulses {self.config.pulses}"
            )

    def __len__(self) -> int:
        return len(self.values)


def _check_seed(seed: int) -> int:
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def split_seeds(seed, first: int, count: int) -> np.ndarray:
    """``split_seed(seed, t)`` of trials t = first .. first + count - 1, as a
    uint64 array.  ``seed`` is one master seed or a uint64 array of them,
    broadcast against the trials.  The splitmix64 products wrap mod 2^64 on
    arrays, which do not warn on overflow as numpy scalars do."""
    if not (isinstance(seed, np.ndarray) and seed.dtype == np.uint64):
        seed = _check_seed(operator.index(seed))
    if first < 0:
        raise ValueError(f"trial_index must be >= 0, got {first!r}")
    z = np.arange(count, dtype=np.uint64)
    z *= _GOLDEN
    z += (first + 1) * _GOLDEN & _U64
    z = z + seed
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def split_seed(seed: int, trial_index: int) -> int:
    """Derive an independent per-trial seed via splitmix64 avalanche mixing.

    split_seed(0, 0) == 0xE220A8397B1DCDAF.
    """
    return int(split_seeds(seed, trial_index, 1)[0])


# numpy's SeedSequence (O'Neill's seed_seq hashing on a 4-word uint32 pool),
# frozen by numpy's stream-compatibility policy
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The hash constant before and after each of ``calls`` successive hashes,
    as a (2, calls, 1) uint32 array: the constant advances the same way
    whatever is hashed, so the hashes of a pass can share one array op."""
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array([constants[:-1], constants[1:]], dtype=np.uint32)[..., None]


# the 4 pool words, then each source word hashed once for each of the other 3
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, 4 + 4 * 3)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)  # 4 uint64 words as 8 uint32
_OTHER_WORDS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    h, h_next = constants
    words = words ^ h
    words *= h_next
    words ^= words >> 16
    return words


def _seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every seed s, as an
    (n, 4) native-order, C-contiguous uint64 array, in uint32 array ops.  The
    seed's entropy is its two 32-bit words; a seed below 2^32 hashes its high
    word as 0, which is what numpy's one-word entropy leaves in that pool
    word.  Each source word mixes into the other three independently, so
    their three hashes and mixes are one op each."""
    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[0], entropy[1] = seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = _hashmix(entropy, _POOL_HASHES[:, :4])
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[src], _POOL_HASHES[:, 4 + 3 * src:7 + 3 * src])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASHES).T.astype("<u4", order="C")
    return words.view("<u8").astype(np.uint64, copy=False)  # low word first, as numpy reads them


class _SeedState:
    """A row of :func:`_seed_sequence_states` as the ``ISeedSequence`` that a
    PCG64 seeds itself from: PCG64 reads the buffer of its 4 uint64 words."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=None) -> np.ndarray:
        return self.row


# seeds per array pass: a pass takes about 140 B a seed at its peak, so a
# block bounds it whatever the number of trials
_SEED_BLOCK = 1024


def trial_streams(seeds) -> Iterator[np.random.Generator]:
    """Yield, for each seed, a Generator of its own on ``default_rng(seed)``'s
    PCG64 stream, bit for bit: the SeedSequence states are hashed in array
    passes over blocks of seeds, and each PCG64 seeds itself from its state
    row.  The seeds are checked here, before anything is drawn."""
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = np.array([_check_seed(operator.index(s)) for s in seeds], dtype=np.uint64)
    from numpy.random import PCG64, Generator  # here: numpy.random takes ~45 ms to import
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedState)  # PCG64 takes a seed sequence only as one
    blocks = (_seed_sequence_states(seeds[start:start + _SEED_BLOCK])
              for start in range(0, len(seeds), _SEED_BLOCK))
    return (Generator(PCG64(_SeedState(row))) for block in blocks for row in block)


def count_distribution(phi: float, probe: ProbeConfig, det: DetectorModel,
                       model: LikelihoodModel) -> np.ndarray:
    """Count probabilities p(0..N | phi): the masses of ``fisher.count_law``,
    cut where the count FI sum stops, so sampling and analysis see the same
    distribution."""
    return measurement(Scheme.DISPLACED_COUNTING, probe, det, model).table(phi)


def sample(config: ExperimentConfig) -> OutcomeRecord:
    """Draw ``config.pulses`` i.i.d. outcomes at the true phase.

    Identical configs (seed included) produce bit-identical records.
    """
    draw = config.measurement.outcomes(config.phi_true, config.pulses)
    return OutcomeRecord(config, draw(next(trial_streams([config.seed]))))

"""Reproducible random streams.

All randomness in the package flows through Philox4x64-10, a counter-based
generator, keyed by the pair ``(seed, stream)``. Distinct key pairs give
statistically independent streams, identical pairs give identical streams on
every platform, and no global state is involved.

Stream indices are namespaced by purpose so a single user-facing seed never
reuses a stream:

* ``STREAM_SAMPLE`` (0)      -- drawing records from a finite population
* ``STREAM_COMPLETION`` (1)  -- a single imputation completion
* ``STREAM_COMPLETION + k``  -- draw ``k`` (0-based) of a multiple-imputation
  run, so an ``m=1`` run reproduces the single-completion stream exactly

:func:`stream` is the definition of the contract. Philox output depends only
on its key and its counter, so :func:`fill_streams` gives the same numbers
from one reused generator: it rekeys the generator for each stream instead of
building a new one, which is what the pooled multiple-imputation runner does
for its m draws.

Nested experiments derive fresh 64-bit seeds from a master seed and an index
path with :func:`derive_seed` (SplitMix64 mixing), then key their own streams
under the derived seed.
"""

import numpy as np

from .domain import _whole

_MASK64 = (1 << 64) - 1

STREAM_SAMPLE = 0
STREAM_COMPLETION = 1
STREAM_POPULATION = 2


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master, *path):
    """Derive a child seed from ``master`` and an index path.

    Folds each path element into the state with one SplitMix64 round, so
    ``derive_seed(s, i, j)`` and ``derive_seed(s, j, i)`` differ.
    """
    state = _splitmix64(int(master) & _MASK64)
    for part in path:
        state = _splitmix64(state ^ (int(part) & _MASK64))
    return state


def _key(seed, index):
    """The Philox key of ``(seed, index)``, as a uint64 array: numpy would
    turn a list holding a value at or above 2**63 into float64 and drop its
    low bits. Every stream's seed passes here, so this is where a seed that
    is not a whole number (text, a boolean, 1.5) raises :class:`DataError`;
    integers of any size are masked to 64 bits."""
    seed = _whole(seed, "seed", None)
    return np.array([seed & _MASK64, int(index) & _MASK64], dtype=np.uint64)


def stream(seed, index):
    """A fresh Philox generator for ``(seed, index)``."""
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def fill_streams(generator, seed, first, out):
    """Fill row ``j`` of ``out`` with ``stream(seed, first + j).random(n)``,
    bit for bit, where ``out`` is a 2-D float64 array of rows of ``n``
    entries or a sequence of such rows (say ``list(array)``, whose row
    views a caller can make once and slice per call).

    ``generator`` is a Philox generator, such as one from :func:`stream`,
    that is rekeyed for each row: its whole state is set to the one
    ``Philox(key=(seed, first + j))`` starts in, with the counter and the
    output buffer zeroed and the buffer marked spent, so nothing of the
    previous key carries over. Setting the state copies it into the
    generator, so one state dict serves every row and only its key's
    stream word changes between rows. The dict holds plain ints, masked
    to 64 bits as :func:`_key` masks them, which the state setter converts
    faster than numpy scalars."""
    key = [int(seed) & _MASK64, int(first) & _MASK64]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bits, random = generator.bit_generator, generator.random
    for j, row in enumerate(out):
        key[1] = (first + j) & _MASK64
        bits.state = state
        random(out=row)

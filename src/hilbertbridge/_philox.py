"""Philox generators keyed by ``(seed, stream_id)`` with no OS entropy drawn.

``Philox(key=…)`` builds a default ``SeedSequence`` first, which reads 128
bits from the OS, and then throws it away: the key alone fixes the stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
Seeding ``Philox`` with :class:`KeyWords` instead gives the same state and
draws for less than half the cost of opening a stream.  Only
:meth:`hilbertbridge.stats_util.RngStream.generator` imports this module,
so loading the library imports no ``numpy.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence


class KeyWords:
    """Seed sequence whose state is the two 64-bit words of a Philox key.

    ``Philox`` asks for exactly that state, once, while it is built, and then
    keeps its seed sequence for life; the words are handed over on that
    request, so a generator holds only an empty one.  Any other request is
    refused rather than answered with the wrong words.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        words, self.words = self.words, None
        if words is None or n_words != words.size or dtype is not np.uint64:
            raise ValueError("a KeyWords hands its two uint64 Philox words over once")
        return words


# registered rather than subclassed: a subclass's instances would carry a
# __dict__ and weak-reference slot, 80 bytes a generator instead of 40
ISeedSequence.register(KeyWords)


def keyed_generator(seed: int, stream_id: int) -> Generator:
    """``Generator(Philox(key=[seed, stream_id]))``, state and draws alike."""
    return Generator(Philox(KeyWords(np.array([seed, stream_id], dtype=np.uint64))))

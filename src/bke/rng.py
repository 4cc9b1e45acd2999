"""Deterministic seeded randomness.

Every stochastic choice in the package (weight init, shuffling, view
sampling, synthetic data) flows from one 64-bit root seed through named
substreams, so any component can be replayed in isolation with an
identical stream. The generator is SplitMix64: trivially portable,
bit-stable across platforms, and good enough statistically for
desk-scale experiments.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    """SplitMix64 finalizer, of an int or of a uint64 array (which wraps)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class SplitMix64:
    """SplitMix64 stream; floats use the top 53 bits of each output."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform draw in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_floats(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1) at once: the values of n next_float()
        calls, leaving the state where they would."""
        steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        out = (_mix(steps + np.uint64(self._state)) >> np.uint64(11)) * 2.0**-53
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return out

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via top-bits rejection."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        shift = 64 - n.bit_length()
        while True:
            r = self.next_u64() >> shift
            if r < n:
                return r

    def normal(self) -> float:
        """Standard normal via Box-Muller."""
        u1 = max(self.next_float(), 2.0**-53)
        u2 = self.next_float()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def substream(seed: int, *path: object) -> SplitMix64:
    """Derive an independent generator for (seed, *path).

    Path components (substream names, epoch numbers, image indices) are
    folded into the root seed one by one with FNV-1a over their string
    form followed by the SplitMix64 mix, so ("augment", 3, 7) and
    ("augment", 37) land in unrelated streams.
    """
    h = seed & _MASK64
    for part in path:
        h = _mix(h ^ _fnv1a(str(part)))
    return SplitMix64(h)

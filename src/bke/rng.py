"""Deterministic seeded randomness.

Every stochastic choice in the package (weight init, shuffling, view
sampling, synthetic data) flows from one 64-bit root seed through named
substreams, so any component can be replayed in isolation with an
identical stream. The generator is SplitMix64: trivially portable,
bit-stable across platforms, and good enough statistically for
desk-scale experiments.

The state of a SplitMix64 stream is one uint64 that each draw advances by
a fixed step, so draw k of a stream is the mix of ``state + k * step``.
That lets a batch of streams run as lanes of one uint64 array:
:func:`substream_states` derives many substreams at once and
:func:`lane_draws` reads any window of every lane's stream. One stream
reads a block of draws at once the same way: ``next_floats`` and
``shuffle`` use exactly the draws, and leave exactly the state, of one
``next_u64`` or ``randbelow`` call per element.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the same constants as uint64 scalars: numpy would convert a Python int on every operation
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MUL1, _U_MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))
# most raw draws a shuffle fetches at once; the ones it leaves unused go back
_SHUFFLE_BLOCK = 1024


def _mix(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of each entry of a uint64 array (which wraps)."""
    z = (z ^ (z >> _U30)) * _U_MUL1
    z = (z ^ (z >> _U27)) * _U_MUL2
    return z ^ (z >> _U31)


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

    def next_floats(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1), the top 53 bits of each of the next n
        next_u64() values, leaving the state where those calls would."""
        return _unit(self._next_u64s(n))

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next n next_u64() values as a uint64 array, leaving the state
        where those calls would."""
        steps = np.arange(1, n + 1, dtype=np.uint64) * _U_GOLDEN
        out = _mix_array(steps + np.uint64(self._state))
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return out

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via top-bits rejection."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        shift = 64 - n.bit_length()
        while True:
            r = self.next_u64() >> shift
            if r < n:
                return r

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates. The draws come a block at a time and the
        ones left unused are handed back, so the permutation and the end
        state are those of one randbelow(i + 1) per element."""
        draws, used = [], 0
        for i in range(len(seq) - 1, 0, -1):
            shift = 64 - (i + 1).bit_length()
            while True:  # randbelow's top-bits rejection
                if used == len(draws):
                    # the i swaps left take about 1.4 draws each
                    draws, used = self._next_u64s(min(2 * i, _SHUFFLE_BLOCK)).tolist(), 0
                j = draws[used] >> shift
                used += 1
                if j <= i:
                    break
            seq[i], seq[j] = seq[j], seq[i]
        self._state = (self._state - (len(draws) - used) * _GOLDEN) & _MASK64


def substream(seed: int, *path: object) -> SplitMix64:
    """Derive an independent generator for (seed, *path).

    Path components (substream names, epoch numbers, image indices) are
    folded into the root seed one by one with FNV-1a over their string
    form followed by the SplitMix64 mix, so ("augment", 3, 7) and
    ("augment", 37) land in unrelated streams.
    """
    return SplitMix64(_fold(seed, path))


def _fold(seed: int, path) -> int:
    h = seed & _MASK64
    for part in path:
        h = _mix(h ^ _fnv1a(str(part)))
    return h


@functools.lru_cache(maxsize=None)
def _fnv1a_table(size: int) -> np.ndarray:
    """FNV-1a of str(i) for every i < size, as a read-only uint64 array."""
    table = np.array([_fnv1a(str(i)) for i in range(size)], dtype=np.uint64)
    table.setflags(write=False)
    return table


def substream_states(indices, seed: int, *path: object) -> np.ndarray:
    """The states of substream(seed, *path, i) for each non-negative int i
    of indices, as a uint64 array: one lane per index."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.min(initial=0) < 0:
        raise ValueError("substream_states: indices must be >= 0")
    # tables come in powers of two, so a growing dataset builds few of them
    table = _fnv1a_table(1 << int(idx.max(initial=0)).bit_length())
    return _mix_array(np.uint64(_fold(seed, path)) ^ table[idx])


def lane_draws(states, offsets, count: int) -> np.ndarray:
    """(lanes, count) uint64: row i holds draws offsets[i] + 1 to
    offsets[i] + count of the stream in state states[i], the values
    next_u64 would give; offsets is one int or one per lane."""
    steps = (np.asarray(offsets).reshape(-1, 1) + np.arange(1, count + 1)).astype(np.uint64)
    return _mix_array(np.asarray(states).reshape(-1, 1) + steps * _U_GOLDEN)


def lane_floats(states, offsets, count: int) -> np.ndarray:
    """lane_draws as floats uniform in [0, 1), as next_floats makes them."""
    return _unit(lane_draws(states, offsets, count))


def _unit(draws: np.ndarray) -> np.ndarray:
    """The top 53 bits of each raw uint64 draw, as a float in [0, 1)."""
    return (draws >> _U11) * 2.0**-53


def uniform(u, low: float, high: float):
    """Each draw u in [0, 1) mapped onto [low, high)."""
    return low + (high - low) * u


def advance_lanes(states: np.ndarray, counts) -> np.ndarray:
    """The states of the lanes after counts[i] draws of lane i."""
    return states + np.asarray(counts).astype(np.uint64) * _U_GOLDEN

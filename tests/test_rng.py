import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bke.rng import (
    _SHUFFLE_BLOCK,
    SplitMix64,
    lane_draws,
    lane_floats,
    substream,
    substream_states,
    uniform,
)

import scalar_draws
from scalar_draws import next_float


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    xs = [SplitMix64(s).next_u64() for s in range(100)]
    assert len(set(xs)) == 100


def test_substream_paths_are_independent():
    seen = set()
    for path in [("init",), ("shuffle',",), ("init", "encoder"), ("init", "projector"),
                 ("augment", 0, 0), ("augment", 0, 1), ("augment", 1, 0), (0,), (1,)]:
        seen.add(substream(7, *path).next_u64())
    assert len(seen) == 9


def test_substream_differs_from_concatenation():
    assert substream(7, "a", "b").next_u64() != substream(7, "ab").next_u64()


def test_substream_deterministic():
    assert substream(3, "x", 5).next_u64() == substream(3, "x", 5).next_u64()


def test_next_float_in_unit_interval():
    xs = SplitMix64(5).next_floats(10_000)
    assert np.all((0.0 <= xs) & (xs < 1.0))
    assert abs(np.mean(xs) - 0.5) < 0.02


@pytest.mark.parametrize("n", [0, 1, 256, 153_600])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_next_floats_equal_scalar_draws_and_leave_same_state(n, seed):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    want = np.array([next_float(scalar) for _ in range(n)], dtype=np.float64)
    got = block.next_floats(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    np.testing.assert_array_equal(got, want)
    assert block.next_u64() == scalar.next_u64()


@settings(max_examples=30)
@given(st.integers(0, 2**64 - 1), st.floats(-100, 100), st.floats(0.001, 100))
def test_uniform_respects_bounds(seed, lo, width):
    hi = lo + width
    xs = uniform(SplitMix64(seed).next_floats(20), lo, hi)
    assert np.all((lo <= xs) & (xs < hi))


@settings(max_examples=30)
@given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
def test_randbelow_in_range(seed, n):
    rng = SplitMix64(seed)
    for _ in range(20):
        assert 0 <= rng.randbelow(n) < n


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


def test_randbelow_roughly_uniform():
    rng = SplitMix64(17)
    counts = np.bincount([rng.randbelow(8) for _ in range(16_000)], minlength=8)
    # expected 2000 per bucket; loose 4-sigma band (~sqrt(2000*7/8) = 42)
    assert np.all(np.abs(counts - 2000) < 200)


@settings(max_examples=50)
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(), max_size=50))
def test_shuffle_is_a_permutation(seed, items):
    shuffled = list(items)
    SplitMix64(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


@pytest.mark.parametrize("n", [0, 1, 2, 600, 5000,
                               _SHUFFLE_BLOCK - 1, _SHUFFLE_BLOCK, _SHUFFLE_BLOCK + 1])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_shuffle_equals_per_draw_fisher_yates_and_leaves_same_state(n, seed):
    scalar, block = SplitMix64(seed), SplitMix64(seed)
    want, got = list(range(n)), list(range(n))
    scalar_draws.shuffle(scalar, want)
    block.shuffle(got)
    assert got == want
    assert block.next_u64() == scalar.next_u64()


def test_shuffle_actually_moves_things():
    items = list(range(100))
    shuffled = list(items)
    SplitMix64(9).shuffle(shuffled)
    assert shuffled != items


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_substream_states_equal_substream_states(seed):
    # indices cross every digit count and table size, in any order, repeated
    indices = [0, 1, 9, 10, 99, 100, 511, 512, 513, 1023, 1024, 4097, 7, 7, 300]
    states = substream_states(indices, seed, "augment", 3)
    assert states.dtype == np.uint64 and states.shape == (len(indices),)
    assert [int(s) for s in states] == [substream(seed, "augment", 3, i)._state for i in indices]
    assert [int(s) for s in substream_states(np.array(indices), seed)] == [
        substream(seed, i)._state for i in indices]


def test_substream_states_reject_negative_indices():
    with pytest.raises(ValueError, match=">= 0"):
        substream_states([3, -1], 0, "augment")
    assert substream_states([], 0, "augment").shape == (0,)


def test_lane_draws_equal_each_lanes_next_u64():
    states = substream_states(range(6), 9, "lanes")
    offsets = np.array([0, 1, 2, 5, 0, 40])
    block = lane_draws(states, offsets, 7)
    for state, offset, row in zip(states, offsets, block):
        rng = SplitMix64(int(state))
        for _ in range(offset):
            rng.next_u64()
        assert [int(v) for v in row] == [rng.next_u64() for _ in range(7)]
    rng = SplitMix64(int(states[0]))
    np.testing.assert_array_equal(lane_floats(states, 0, 4)[0],
                                  [next_float(rng) for _ in range(4)])

"""Scalar reference draws, one ``SplitMix64.next_u64`` at a time.

The samplers in ``bke`` draw floats a block or a lane at a time; the tests
check them against these one-draw-at-a-time forms, which are written
independently of ``bke.rng``'s float helpers.
"""


def next_float(rng) -> float:
    """Uniform draw in [0, 1): the top 53 bits of the next u64."""
    return (rng.next_u64() >> 11) * 2.0**-53


def uniform(rng, low: float, high: float) -> float:
    """Uniform draw in [low, high)."""
    return low + (high - low) * next_float(rng)

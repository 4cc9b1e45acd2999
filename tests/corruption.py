"""Hypothesis strategy shared by the reader fuzz tests."""

from hypothesis import strategies as st


def corruptions(blob: bytes):
    """A truncation of blob, or blob with one to three bits flipped."""
    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)),
                     min_size=1, max_size=3)

    def flip(bits):
        out = bytearray(blob)
        for i, bit in bits:
            out[i] ^= 1 << bit
        return bytes(out)

    return st.one_of(st.integers(0, len(blob) - 1).map(lambda cut: blob[:cut]), flips.map(flip))

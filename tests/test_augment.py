import bisect
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bke import augment
from bke.augment import (
    BLUR_PROB,
    BLUR_SIGMA_RANGE,
    BRIGHTNESS_RANGE,
    CONTRAST_RANGE,
    CROP_AREA_RANGE,
    CROP_RATIO_RANGE,
    HFLIP_PROB,
    ViewParams,
    _gaussian_kernels,
    apply,
    make_view_pair,
    sample_views,
)
from bke.rng import SplitMix64, lane_floats, substream_states

from scalar_draws import next_float, uniform


@dataclass(frozen=True)
class TransformParams:
    """One view's parameters: crop_box is (x, y, w, h) in source pixels;
    blur_sigma 0 means no blur."""

    crop_box: tuple[int, int, int, int]
    hflip: bool
    brightness_delta: float
    contrast_factor: float
    blur_sigma: float
    target_side: int


def identity_params(side: int) -> TransformParams:
    return TransformParams((0, 0, side, side), False, 0.0, 1.0, 0.0, side)


def stack(params) -> ViewParams:
    """The struct of arrays apply takes, from a list of TransformParams."""
    return ViewParams(np.array([p.crop_box for p in params], dtype=np.int64).reshape(-1, 4),
                      np.array([p.hflip for p in params], dtype=bool),
                      np.array([p.brightness_delta for p in params], dtype=np.float64),
                      np.array([p.contrast_factor for p in params], dtype=np.float64),
                      np.array([p.blur_sigma for p in params], dtype=np.float64),
                      np.array([p.target_side for p in params], dtype=np.int64))


def unstack(params: ViewParams) -> list[TransformParams]:
    return [TransformParams(tuple(int(v) for v in box), bool(flip), float(b), float(c),
                            float(sigma), int(side))
            for box, flip, b, c, sigma, side in zip(
                params.crop_box, params.hflip, params.brightness_delta,
                params.contrast_factor, params.blur_sigma, params.target_side)]


def sample_one(seed: int, side: int) -> TransformParams:
    """One view drawn by the lane sampler from the stream of SplitMix64(seed)."""
    return unstack(sample_views([seed], side))[0]


def unit_image(side=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(1, side, side))


def view(image, p):
    """One (1, H, W) image through the batched path, as a batch of one."""
    return apply(image[None], stack([p]))[0]


# --- the scalar reference sampler: one view at a time from one stream ---


def sample_params(rng: SplitMix64, source_side: int) -> TransformParams:
    """Draw transform parameters for a view of side ``source_side // 2``
    from exactly 8 draws: the crop's (w, h) by inverse CDF over the crop
    table, its x and y, then the flip, brightness, contrast, blur gate and
    blur sigma, which is drawn whether or not the gate opens."""
    sizes, cumulative = augment._crop_table(source_side)
    w, h = (int(v) for v in sizes[bisect.bisect_right(cumulative, next_float(rng))])
    x = int(next_float(rng) * (source_side - w + 1))
    y = int(next_float(rng) * (source_side - h + 1))
    hflip = next_float(rng) < HFLIP_PROB
    brightness = uniform(rng, *BRIGHTNESS_RANGE)
    contrast = uniform(rng, *CONTRAST_RANGE)
    blur = next_float(rng) < BLUR_PROB
    sigma = uniform(rng, *BLUR_SIGMA_RANGE)
    return TransformParams((x, y, w, h), hflip, brightness, contrast, sigma if blur else 0.0,
                           source_side // 2)


def rejection_crop_sizes(states, side: int, tries: int = 32):
    """Each lane's crop (w, h) as the sampler drew it before the crop table:
    tries of 2 draws, area and ln(ratio) uniform, rounded to a box, until
    one meets both bounds. Every lane must fit within ``tries``."""
    u = lane_floats(states, 0, 2 * tries)
    area = (CROP_AREA_RANGE[0] + (CROP_AREA_RANGE[1] - CROP_AREA_RANGE[0]) * u[:, 0::2]) * side**2
    log_lo, log_hi = np.log(CROP_RATIO_RANGE)
    ratio = np.exp(log_lo + (log_hi - log_lo) * u[:, 1::2])
    cw, ch = np.rint(np.sqrt(area * ratio)), np.rint(np.sqrt(area / ratio))
    frac, aspect = cw * ch / side**2, cw / np.maximum(ch, 1.0)
    fits = ((np.minimum(cw, ch) >= 1) & (np.maximum(cw, ch) <= side)
            & (frac >= CROP_AREA_RANGE[0]) & (frac <= CROP_AREA_RANGE[1])
            & (aspect >= CROP_RATIO_RANGE[0]) & (aspect <= CROP_RATIO_RANGE[1]))
    assert fits.any(axis=1).all()
    rows, first = np.arange(len(u)), fits.argmax(axis=1)
    return cw[rows, first].astype(np.int64), ch[rows, first].astype(np.int64)


# --- the per-image reference: crop, resize, flip, jitter, clip, blur, clip ---


def reference_resize(image, out_h, out_w):
    """Half-pixel-center bilinear resize of a (H, W) array."""
    in_h, in_w = image.shape
    if (in_h, in_w) == (out_h, out_w):
        return image.copy()

    def axis_coords(n_in, n_out):
        pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        pos = np.clip(pos, 0.0, n_in - 1.0)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, pos - lo

    ylo, yhi, fy = axis_coords(in_h, out_h)
    xlo, xhi, fx = axis_coords(in_w, out_w)
    fy = fy[:, None]
    fx = fx[None, :]
    top = image[ylo][:, xlo] * (1 - fx) + image[ylo][:, xhi] * fx
    bot = image[yhi][:, xlo] * (1 - fx) + image[yhi][:, xhi] * fx
    return top * (1 - fy) + bot * fy


def reference_kernel(sigma):
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def reference_blur(image, sigma):
    kernel = reference_kernel(sigma)
    radius = len(kernel) // 2
    padded = np.pad(image, ((radius, radius), (0, 0)), mode="reflect")
    rows = sum(kernel[i] * padded[i : i + image.shape[0]] for i in range(len(kernel)))
    padded = np.pad(rows, ((0, 0), (radius, radius)), mode="reflect")
    return sum(kernel[i] * padded[:, i : i + image.shape[1]] for i in range(len(kernel)))


def reference_view(image, p):
    x, y, w, h = p.crop_box
    out = reference_resize(image[0, y : y + h, x : x + w], p.target_side, p.target_side)
    if p.hflip:
        out = out[:, ::-1]
    out = np.clip(p.contrast_factor * (out - 0.5) + 0.5 + p.brightness_delta, 0.0, 1.0)
    if p.blur_sigma > 0.0:
        out = np.clip(reference_blur(out, p.blur_sigma), 0.0, 1.0)
    return out[None]


# crops touching every edge, 1 pixel wide or tall, single pixels and the full image
EDGE_CROPS = [(0, 0, 16, 16), (0, 0, 1, 1), (15, 15, 1, 1), (15, 0, 1, 16), (0, 15, 16, 1),
              (0, 0, 1, 16), (0, 0, 16, 1), (3, 5, 7, 9), (9, 0, 7, 16), (0, 7, 10, 9),
              (8, 8, 8, 8), (2, 11, 13, 5)]
# every flip and blur setting, with jitter that both saturates and stays inside [0, 1]
PIXEL_SETTINGS = [(False, 0.0, 1.0, 0.0), (True, 0.0, 1.0, 0.0), (False, 0.1, 0.8, 0.1),
                  (True, 0.1, 1.3, -0.2), (False, 1.0, 1.4, 0.4), (True, 1.0, 0.6, -0.4)]


@pytest.mark.parametrize("side", [1, 2, 3, 5, 8, 16, 23])
def test_batched_views_match_reference(side):
    # a crop narrower than the side is upscaled and a wider one downscaled, so
    # every side mixes both; at side 16 the full crop is the identity resize
    img = unit_image(16, seed=side)
    params = [TransformParams(box, flip, brightness, contrast, sigma, side)
              for box in EDGE_CROPS for flip, sigma, contrast, brightness in PIXEL_SETTINGS]
    out = apply(np.stack([img] * len(params)), stack(params))
    assert out.shape == (len(params), 1, side, side)
    for got, p in zip(out, params):
        np.testing.assert_allclose(got, reference_view(img, p), rtol=0, atol=1e-12, err_msg=str(p))


def test_sampled_views_match_reference():
    images = np.stack([unit_image(16, seed=i) for i in range(50)])
    states = substream_states(range(len(images)), 11, "augment", 0)
    params = unstack(sample_views(states, 16))
    out = apply(images, stack(params))
    for got, img, p in zip(out, images, params):
        np.testing.assert_allclose(got, reference_view(img, p), rtol=0, atol=1e-12)


def test_saturated_blur_stays_in_range():
    # the taps of a kernel sum to 1 only within rounding, so a blurred
    # all-ones patch can come out 1 + 1 ulp without the clip after the blur
    p = TransformParams((0, 0, 12, 12), False, 0.0, 1.0, 1.0, 12)
    assert view(np.ones((1, 12, 12)), p).max() == 1.0
    for side in (6, 8, 12):
        params = [TransformParams((0, 0, 12, 12), False, 0.0, 1.0, sigma, side)
                  for sigma in np.linspace(0.1, 1.0, 91)]
        assert apply(np.ones((len(params), 1, 12, 12)), stack(params)).max() == 1.0


def test_sample_params_deterministic():
    a = sample_one(7, 16)
    b = sample_one(7, 16)
    assert a == b


@settings(max_examples=200)
@given(st.integers(0, 2**64 - 1), st.integers(8, 64))
def test_crop_box_respects_contracts(seed, side):
    p = sample_one(seed, side)
    x, y, w, h = p.crop_box
    assert 0 <= x and 0 <= y and x + w <= side and y + h <= side
    frac = (w * h) / (side * side)
    assert CROP_AREA_RANGE[0] <= frac <= CROP_AREA_RANGE[1]
    assert CROP_RATIO_RANGE[0] <= w / h <= CROP_RATIO_RANGE[1]
    assert -0.4 <= p.brightness_delta <= 0.4
    assert 0.6 <= p.contrast_factor <= 1.4
    assert 0.0 <= p.blur_sigma <= 1.0
    assert p.target_side == side // 2


def test_hflip_and_blur_frequencies():
    params = unstack(sample_views(substream_states(range(10_000), 123, "views"), 16))
    hflip_rate = sum(p.hflip for p in params) / len(params)
    blur_rate = sum(p.blur_sigma > 0 for p in params) / len(params)
    assert abs(hflip_rate - HFLIP_PROB) < 0.02
    assert abs(blur_rate - BLUR_PROB) < 0.02


def test_identity_params_reproduce_input():
    img = unit_image()
    out = view(img, identity_params(16))
    np.testing.assert_allclose(out, img, atol=1e-12)


def test_double_hflip_is_identity():
    img = unit_image()
    flip = TransformParams((0, 0, 16, 16), True, 0.0, 1.0, 0.0, 16)
    np.testing.assert_allclose(view(view(img, flip), flip), img, atol=1e-12)


def test_blur_preserves_constant_images():
    img = np.full((1, 12, 12), 0.37)
    p = TransformParams((0, 0, 12, 12), False, 0.0, 1.0, 0.8, 12)
    np.testing.assert_allclose(view(img, p), img, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.1, 0.35, 0.7, 1.0])
def test_blur_kernel_sums_to_one(sigma):
    kernel = _gaussian_kernels([sigma])[0]
    assert len(kernel) == 2 * int(np.ceil(3 * sigma)) + 1
    np.testing.assert_allclose(kernel.sum(), 1.0, atol=1e-12)


def test_crop_box_outside_image_rejected():
    img = unit_image()
    with pytest.raises(ValueError, match="crop box"):
        view(img, TransformParams((10, 10, 8, 8), False, 0.0, 1.0, 0.0, 8))
    with pytest.raises(ValueError, match="crop box"):
        view(img, TransformParams((-1, 0, 8, 8), False, 0.0, 1.0, 0.0, 8))


def test_apply_rejects_mismatched_batches():
    img = unit_image()
    p8 = TransformParams((0, 0, 16, 16), False, 0.0, 1.0, 0.0, 8)
    p4 = TransformParams((0, 0, 16, 16), False, 0.0, 1.0, 0.0, 4)
    with pytest.raises(ValueError, match="expected \\(n, 1, H, W\\)"):
        apply(img, stack([p8]))
    with pytest.raises(ValueError, match="one params per image"):
        apply(np.stack([img, img]), stack([p8]))
    with pytest.raises(ValueError, match="target sides 8 and 4"):
        apply(np.stack([img, img]), stack([p8, p4]))


@settings(max_examples=50)
@given(
    arrays(np.float64, (1, 12, 12), elements=st.floats(0, 1)),
    st.integers(0, 2**64 - 1),
)
def test_output_range_and_shape(img, seed):
    p = sample_one(seed, 12)
    out = view(img, p)
    assert out.shape == (1, p.target_side, p.target_side)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_apply_is_pure():
    img = unit_image()
    p = sample_one(99, 16)
    before = img.copy()
    a = view(img, p)
    b = view(img, p)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(img, before)


def test_brightness_contrast_formula():
    img = np.full((1, 8, 8), 0.25)
    p = TransformParams((0, 0, 8, 8), False, 0.1, 1.2, 0.0, 8)
    want = np.clip(1.2 * (0.25 - 0.5) + 0.5 + 0.1, 0, 1)
    np.testing.assert_allclose(view(img, p), want, atol=1e-12)


def test_bilinear_corners_align():
    # half-pixel centers clamp output corners onto the input corners
    img = np.zeros((1, 2, 2))
    img[0] = [[0.0, 0.25], [0.5, 1.0]]
    p = TransformParams((0, 0, 2, 2), False, 0.0, 1.0, 0.0, 4)
    out = view(img, p)[0]
    assert out[0, 0] == 0.0
    assert out[0, 3] == 0.25
    assert out[3, 0] == 0.5
    assert out[3, 3] == 1.0


def test_make_view_pair_contract():
    images = np.stack([unit_image(16, seed=i) for i in range(3)])
    pair = make_view_pair(images, substream_states(range(3), 5, "augment", 0))
    assert pair.v1.shape == (3, 1, 8, 8)
    assert pair.v2.shape == (3, 1, 8, 8)
    assert not np.array_equal(pair.v1, pair.v2)
    again = make_view_pair(images, substream_states(range(3), 5, "augment", 0))
    np.testing.assert_array_equal(pair.v1, again.v1)
    np.testing.assert_array_equal(pair.v2, again.v2)


def test_view_pair_bytes_are_pinned():
    # the reference sampler is compared to 1e-12 only; this pins every bit
    images = (np.arange(6 * 16 * 16) % 251 / 250.0).reshape(6, 1, 16, 16)
    pair = make_view_pair(images, substream_states(range(6), 11, "augment", 0))
    assert hashlib.sha256(pair.v1.tobytes() + pair.v2.tobytes()).hexdigest() == (
        "b2c172ae338067b3c48fbce7af3e72080d3f162e1a0fe9764099b30500550a66")


def test_make_view_pair_rejects_rng_count_mismatch():
    images = np.stack([unit_image(16, seed=i) for i in range(3)])
    with pytest.raises(ValueError, match="one view RNG per image"):
        make_view_pair(images, substream_states([0], 5, "augment", 0))


# what each image's RNG gave for (v1, v2) when views were built one image at a time
PER_IMAGE_DRAWS = [
    (TransformParams((0, 1, 11, 14), True, 0.31740411982083794, 0.8231332976564515, 0.0, 8),
     TransformParams((5, 4, 11, 9), True, 0.28739098250951467, 1.1581750101423751,
                     0.9140008239061853, 8)),
    (TransformParams((2, 2, 13, 13), False, -0.3379366425272739, 1.1944593690960494, 0.0, 8),
     TransformParams((0, 2, 15, 13), False, 0.25376958863207777, 0.9572861011130662, 0.0, 8)),
    (TransformParams((1, 3, 12, 9), False, 0.04289913378918503, 1.0758991516887455, 0.0, 8),
     TransformParams((3, 0, 13, 13), True, 0.07992479188567314, 0.9362805527201085, 0.0, 8)),
]


def test_make_view_pair_keeps_per_image_draw_sequence(monkeypatch):
    calls = []

    def recording(states, side, count=1):
        calls.append(sample_views(states, side, count))
        return calls[-1]

    monkeypatch.setattr(augment, "sample_views", recording)
    images = np.stack([unit_image(16, seed=i) for i in range(3)])
    states = substream_states(range(3), 5, "augment", 0)
    pair = make_view_pair(images, states)
    [params] = calls
    drawn = unstack(params)
    # the second view starts at draw 9 of its lane, so a stream 8 draws on
    # gives it as its first view
    later = [(int(s) + 8 * 0x9E3779B97F4A7C15) % 2**64 for s in states]
    assert unstack(sample_views(later, 16)) == drawn[3:]
    for i in range(3):
        assert [drawn[i], drawn[3 + i]] == list(PER_IMAGE_DRAWS[i])
        p1, p2 = PER_IMAGE_DRAWS[i]
        np.testing.assert_allclose(pair.v1[i], reference_view(images[i], p1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.v2[i], reference_view(images[i], p2), rtol=0, atol=1e-12)


# --- the lane sampler against the scalar reference ---


def reference_lanes(states, side, count):
    """sample_views by the scalar reference: the views in the same order."""
    rngs = [SplitMix64(int(s)) for s in states]
    views = [[sample_params(rng, side) for rng in rngs] for _ in range(count)]
    return [p for per_view in views for p in per_view]


def test_lane_sampler_matches_scalar_reference_bit_for_bit():
    # every batch size 1..64 at each side, 10^5 lanes in all; crops, flips,
    # jitters and sigmas must be equal floats, not close ones
    gen = np.random.default_rng(2024)
    lanes = 0
    for side in (2, 3, 8, 16, 33):
        for n in list(range(1, 65)) * 10:
            states = gen.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
            count = 2 if n % 16 == 0 else 1
            params = sample_views(states, side, count)
            assert unstack(params) == reference_lanes(states, side, count), (side, n)
            lanes += n
    assert lanes >= 100_000


# --- the crop table against the rejection sampler it replaces ---

# side: (degrees of freedom, the 0.999 quantile of chi^2 on them rounded
# down), for the 15, 55 and 111 crop sizes of sides 8, 16 and 23
CHI2_999 = {8: (14, 36.12), 16: (54, 91.87), 23: (110, 161.58)}


def chi2_against_table(w, h, side):
    """Pearson's chi^2 of the drawn crop sizes against the table's law; a
    size the table does not hold raises KeyError."""
    sizes, cumulative = augment._crop_table(side)
    index = {(a, b): i for i, (a, b) in enumerate(sizes.tolist())}
    counts = np.bincount([index[wh] for wh in zip(w.tolist(), h.tolist())],
                         minlength=len(sizes))
    expected = len(w) * np.diff(cumulative, prepend=0.0)
    return float(np.sum((counts - expected) ** 2 / expected))


@pytest.mark.parametrize("side", sorted(CHI2_999))
def test_crop_table_holds_the_rejection_samplers_law(side):
    # the bound was set before the test first ran: the chi^2 of 10^5 crops
    # from each sampler against the table falls below the 0.999 quantile
    df, bound = CHI2_999[side]
    assert len(augment._crop_table(side)[0]) == df + 1
    old = rejection_crop_sizes(substream_states(range(100_000), 21, "rejection", side), side)
    assert chi2_against_table(*old, side) < bound
    new = sample_views(substream_states(range(100_000), 21, "table", side), side).crop_box
    assert chi2_against_table(new[:, 2], new[:, 3], side) < bound


def test_crop_table_bytes_are_pinned():
    # a changed weight, or a sum that rounds differently on another CPU, moves every later view
    digests = {side: hashlib.sha256(b"".join(a.tobytes() for a in augment._crop_table(side)))
               .hexdigest() for side in (2, 16, 33)}
    assert digests == {
        2: "536d7a36d1780559d16808a20c791e337b8c19c16058d28080fdb80a32ddfc36",
        16: "46408f2c925ee2b76021dab1c4bbc5282a457d6eb7f3b0863d550c7e14f365bd",
        33: "5ef5c8907d693a421c28b7f4e13aa8bbb141a8c7e0d5d9930518521fec93d218"}


def test_permuting_a_batch_permutes_its_views():
    images = np.stack([unit_image(16, seed=i) for i in range(9)])
    states = substream_states(range(9), 3, "augment", 1)
    order = np.random.default_rng(0).permutation(9)
    pair = make_view_pair(images, states)
    permuted = make_view_pair(images[order], states[order])
    np.testing.assert_array_equal(permuted.v1, pair.v1[order])
    np.testing.assert_array_equal(permuted.v2, pair.v2[order])
    params = unstack(sample_views(states, 16, 2))
    p_params = unstack(sample_views(states[order], 16, 2))
    assert p_params == [params[k * 9 + i] for k in range(2) for i in order]


def test_view_params_reject_ragged_fields():
    p = stack([identity_params(8)] * 3)
    with pytest.raises(ValueError, match="one entry per view"):
        ViewParams(p.crop_box, p.hflip[:2], p.brightness_delta, p.contrast_factor,
                   p.blur_sigma, p.target_side)
    with pytest.raises(ValueError, match="one entry per view"):
        ViewParams(p.crop_box[:, :3], p.hflip, p.brightness_delta, p.contrast_factor,
                   p.blur_sigma, p.target_side)


def test_sample_views_rejects_tiny_sources():
    with pytest.raises(ValueError, match="bad source side 1"):
        sample_views([3], 1)

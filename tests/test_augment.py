import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bke.augment import (
    BLUR_PROB,
    CROP_AREA_RANGE,
    CROP_RATIO_RANGE,
    HFLIP_PROB,
    TransformParams,
    _gaussian_kernels,
    apply,
    identity_params,
    make_view_pair,
    sample_params,
)
from bke.rng import SplitMix64, substream


def unit_image(side=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(1, side, side))


def view(image, p):
    """One (1, H, W) image through the batched path, as a batch of one."""
    return apply(image[None], [p])[0]


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
    out = apply(np.stack([img] * len(params)), params)
    assert out.shape == (len(params), 1, side, side)
    for got, p in zip(out, params):
        np.testing.assert_allclose(got, reference_view(img, p), rtol=0, atol=1e-12, err_msg=str(p))


def test_sampled_views_match_reference():
    images = np.stack([unit_image(16, seed=i) for i in range(50)])
    rngs = [substream(11, "augment", 0, i) for i in range(len(images))]
    params = [sample_params(rng, 16) for rng in rngs]
    out = apply(images, params)
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
        assert apply(np.ones((len(params), 1, 12, 12)), params).max() == 1.0


def test_sample_params_deterministic():
    a = sample_params(SplitMix64(7), 16)
    b = sample_params(SplitMix64(7), 16)
    assert a == b


@settings(max_examples=200)
@given(st.integers(0, 2**64 - 1), st.integers(8, 64))
def test_crop_box_respects_contracts(seed, side):
    p = sample_params(SplitMix64(seed), side)
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
    rng = SplitMix64(123)
    params = [sample_params(rng, 16) for _ in range(10_000)]
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
        apply(img, [p8])
    with pytest.raises(ValueError, match="one params per image"):
        apply(np.stack([img, img]), [p8])
    with pytest.raises(ValueError, match="target sides 8 and 4"):
        apply(np.stack([img, img]), [p8, p4])


@settings(max_examples=50)
@given(
    arrays(np.float64, (1, 12, 12), elements=st.floats(0, 1)),
    st.integers(0, 2**64 - 1),
)
def test_output_range_and_shape(img, seed):
    p = sample_params(SplitMix64(seed), 12)
    out = view(img, p)
    assert out.shape == (1, p.target_side, p.target_side)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_apply_is_pure():
    img = unit_image()
    p = sample_params(SplitMix64(99), 16)
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
    pair = make_view_pair(images, [substream(5, "augment", 0, i) for i in range(3)])
    assert pair.v1.shape == (3, 1, 8, 8)
    assert pair.v2.shape == (3, 1, 8, 8)
    assert not np.array_equal(pair.v1, pair.v2)
    again = make_view_pair(images, [substream(5, "augment", 0, i) for i in range(3)])
    np.testing.assert_array_equal(pair.v1, again.v1)
    np.testing.assert_array_equal(pair.v2, again.v2)


def test_make_view_pair_rejects_rng_count_mismatch():
    images = np.stack([unit_image(16, seed=i) for i in range(3)])
    with pytest.raises(ValueError, match="one view RNG per image"):
        make_view_pair(images, [substream(5, "augment", 0, 0)])


# what each image's RNG gave for (v1, v2) when views were built one image at a time
PER_IMAGE_DRAWS = [
    (TransformParams((3, 1, 10, 13), False, -0.17686670234354845, 1.2582033958146142,
                     0.39218786615004453, 8),
     TransformParams((0, 0, 16, 16), False, 0.17438619570454905, 1.295081629441929,
                     0.2029569619734947, 8)),
    (TransformParams((0, 0, 13, 13), False, -0.28679280843593946, 1.1202963901653087, 0.0, 8),
     TransformParams((1, 1, 15, 15), True, 0.35923652063423794, 0.7937495297746424,
                     0.6710747382096042, 8)),
    (TransformParams((3, 2, 11, 13), False, 0.2311990908700302, 0.6167019970558586,
                     0.6399153908713823, 8),
     TransformParams((3, 1, 12, 12), True, 0.15846498685082122, 1.2493935105212426, 0.0, 8)),
]
# the next draw of each image's RNG after both views
NEXT_U64 = [16144220957167650377, 9205274119778336137, 13669739562511874198]


def test_make_view_pair_keeps_per_image_draw_sequence(monkeypatch):
    from bke import augment

    calls = []

    def recording(rng, side):
        calls.append((rng, sample_params(rng, side)))
        return calls[-1][1]

    monkeypatch.setattr(augment, "sample_params", recording)
    images = np.stack([unit_image(16, seed=i) for i in range(3)])
    rngs = [substream(5, "augment", 0, i) for i in range(3)]
    pair = make_view_pair(images, rngs)
    for i, rng in enumerate(rngs):
        assert [p for r, p in calls if r is rng] == list(PER_IMAGE_DRAWS[i])
        assert rng.next_u64() == NEXT_U64[i]
        p1, p2 = PER_IMAGE_DRAWS[i]
        np.testing.assert_allclose(pair.v1[i], reference_view(images[i], p1), rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.v2[i], reference_view(images[i], p2), rtol=0, atol=1e-12)

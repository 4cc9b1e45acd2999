"""Stochastic view generation for grayscale images.

A view is produced by: random resized crop -> bilinear resize ->
optional horizontal flip -> brightness/contrast jitter -> clip to [0, 1]
-> optional Gaussian blur -> clip to [0, 1]. "Color jittering"
degenerates to brightness+contrast on one-channel data. The whole
pipeline is a pure function of (image, params); randomness lives only in
:func:`sample_params`.

Crop, resize and flip act on each axis as one linear map, so a view is
``Wy @ image @ Wx.T``, and the reflect-padded blur is ``B @ view @ B.T``.
:func:`apply` builds a whole batch of views with batched matrix products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64

CROP_AREA_RANGE = (0.2, 1.0)
CROP_RATIO_RANGE = (0.75, 4.0 / 3.0)
BRIGHTNESS_RANGE = (-0.4, 0.4)
CONTRAST_RANGE = (0.6, 1.4)
BLUR_SIGMA_RANGE = (0.1, 1.0)
HFLIP_PROB = 0.5
BLUR_PROB = 0.5
_MAX_CROP_TRIES = 100


@dataclass(frozen=True)
class TransformParams:
    """crop_box is (x, y, w, h) in source pixels; blur_sigma 0 means no blur."""

    crop_box: tuple[int, int, int, int]
    hflip: bool
    brightness_delta: float
    contrast_factor: float
    blur_sigma: float
    target_side: int


@dataclass(frozen=True)
class ViewPair:
    v1: np.ndarray
    v2: np.ndarray


def identity_params(side: int) -> TransformParams:
    return TransformParams((0, 0, side, side), False, 0.0, 1.0, 0.0, side)


def sample_params(rng: SplitMix64, source_side: int) -> TransformParams:
    """Draw transform parameters for a view of side ``source_side // 2``;
    the integer crop box is rejection-sampled until it satisfies both the
    area and the aspect-ratio bounds exactly."""
    if source_side < 2:
        raise ValueError(f"bad source side {source_side}")

    src_area = source_side * source_side
    box = (0, 0, source_side, source_side)
    log_lo, log_hi = math.log(CROP_RATIO_RANGE[0]), math.log(CROP_RATIO_RANGE[1])
    for _ in range(_MAX_CROP_TRIES):
        area = rng.uniform(*CROP_AREA_RANGE) * src_area
        ratio = math.exp(rng.uniform(log_lo, log_hi))
        w = int(round(math.sqrt(area * ratio)))
        h = int(round(math.sqrt(area / ratio)))
        if not (1 <= w <= source_side and 1 <= h <= source_side):
            continue
        if not CROP_AREA_RANGE[0] <= (w * h) / src_area <= CROP_AREA_RANGE[1]:
            continue
        if not CROP_RATIO_RANGE[0] <= w / h <= CROP_RATIO_RANGE[1]:
            continue
        x = rng.randbelow(source_side - w + 1)
        y = rng.randbelow(source_side - h + 1)
        box = (x, y, w, h)
        break

    hflip = rng.next_float() < HFLIP_PROB
    brightness = rng.uniform(*BRIGHTNESS_RANGE)
    contrast = rng.uniform(*CONTRAST_RANGE)
    sigma = rng.uniform(*BLUR_SIGMA_RANGE) if rng.next_float() < BLUR_PROB else 0.0
    return TransformParams(box, hflip, brightness, contrast, sigma, source_side // 2)


def _gaussian_kernels(sigmas) -> np.ndarray:
    """(k, 2 R + 1): one normalized Gaussian per sigma, centred, with
    radius ceil(3 sigma) and R the largest; taps beyond its radius are 0."""
    sigmas = np.asarray(sigmas, dtype=np.float64)[:, None]
    radii = np.ceil(3.0 * sigmas)
    offsets = np.arange(-radii.max(), radii.max() + 1)
    kernels = np.where(np.abs(offsets) <= radii, np.exp(-0.5 * (offsets / sigmas) ** 2), 0.0)
    return kernels / kernels.sum(axis=1, keepdims=True)


@functools.lru_cache(maxsize=256)
def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """The (n_out, n_in) half-pixel-center bilinear resize of one axis,
    read-only; n_in == n_out gives the identity."""
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    rows = np.arange(n_out)
    matrix = np.zeros((n_out, n_in))
    matrix[rows, lo] = 1.0 - frac
    matrix[rows, hi] += frac
    matrix.setflags(write=False)
    return matrix


def _axis_maps(starts, lengths, flips, n_in: int, n_out: int) -> np.ndarray:
    """(n, n_out, n_in): view i crops [starts[i], starts[i] + lengths[i])
    of an axis of n_in pixels and resizes it to n_out, reversed if flipped."""
    maps = np.zeros((len(starts), n_out, n_in))
    for m, start, length, flip in zip(maps, starts, lengths, flips):
        resize = _resize_matrix(length, n_out)
        m[:, start : start + length] = resize[::-1] if flip else resize
    return maps


def _blur_matrices(sigmas, side: int) -> np.ndarray:
    """(k, side, side): the reflect-padded Gaussian blur of one axis, one
    matrix per sigma."""
    kernels = _gaussian_kernels(sigmas)
    n_taps = kernels.shape[1]
    # hits[t, i, c] = 1 where tap t of output pixel i reads source pixel c
    source = np.pad(np.arange(side), n_taps // 2, mode="reflect")
    hits = np.eye(side)[source[np.arange(n_taps)[:, None] + np.arange(side)]]
    return (kernels @ hits.reshape(n_taps, -1)).reshape(-1, side, side)


def apply(images: np.ndarray, params) -> np.ndarray:
    """Transform (n, 1, H, W) images in [0,1] into (n, 1, s, s) views in
    [0,1], image i by params[i]; every params shares the target side s."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[1] != 1:
        raise ValueError(f"apply: expected (n, 1, H, W) images, got shape {arr.shape}")
    n, _, height, width = arr.shape
    if n == 0 or len(params) != n:
        raise ValueError(f"apply: need one params per image, got {len(params)} for {n}")
    side = params[0].target_side
    for p in params:
        x, y, w, h = p.crop_box
        if x < 0 or y < 0 or w < 1 or h < 1 or x + w > width or y + h > height:
            raise ValueError(f"crop box {p.crop_box} outside image of shape {arr.shape[1:]}")
        if p.target_side != side:
            raise ValueError(f"apply: target sides {side} and {p.target_side} in one batch")

    wy = _axis_maps([p.crop_box[1] for p in params], [p.crop_box[3] for p in params],
                    [False] * n, height, side)
    wx = _axis_maps([p.crop_box[0] for p in params], [p.crop_box[2] for p in params],
                    [p.hflip for p in params], width, side)
    views = wy @ arr[:, 0] @ wx.transpose(0, 2, 1)
    contrast = np.array([p.contrast_factor for p in params])[:, None, None]
    brightness = np.array([p.brightness_delta for p in params])[:, None, None]
    views = np.clip(contrast * (views - 0.5) + 0.5 + brightness, 0.0, 1.0)
    blurred = [i for i, p in enumerate(params) if p.blur_sigma > 0.0]
    if blurred:
        blur = _blur_matrices([params[i].blur_sigma for i in blurred], side)
        # the taps of a kernel can sum past 1, so a saturated patch needs the second clip
        views[blurred] = np.clip(blur @ views[blurred] @ blur.transpose(0, 2, 1), 0.0, 1.0)
    return views[:, None]


def make_view_pair(images: np.ndarray, rngs) -> ViewPair:
    """Two independent draws from the view distribution on each of the
    (n, 1, H, W) source images; image i draws both from rngs[i]."""
    arr = np.asarray(images, dtype=np.float64)
    if len(rngs) != len(arr):
        raise ValueError("need exactly one view RNG per image")
    side = arr.shape[-1]
    drawn = [(sample_params(rng, side), sample_params(rng, side)) for rng in rngs]
    views = apply(np.concatenate([arr, arr]), [p1 for p1, _ in drawn] + [p2 for _, p2 in drawn])
    return ViewPair(v1=views[: len(arr)], v2=views[len(arr) :])

"""Stochastic view generation for grayscale images.

A view is produced by: random resized crop -> bilinear resize ->
optional horizontal flip -> brightness/contrast jitter -> optional
Gaussian blur. "Color jittering" degenerates to brightness+contrast on
one-channel data. The whole pipeline is a pure function of
(image, params); randomness lives only in :func:`sample_params`.
"""

from __future__ import annotations

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


def _bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of a (H, W) array."""
    in_h, in_w = image.shape
    if (in_h, in_w) == (out_h, out_w):
        return image.copy()

    def axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def _blur(image: np.ndarray, sigma: float) -> np.ndarray:
    kernel = _gaussian_kernel(sigma)
    radius = len(kernel) // 2
    padded = np.pad(image, ((radius, radius), (0, 0)), mode="reflect")
    rows = sum(kernel[i] * padded[i : i + image.shape[0]] for i in range(len(kernel)))
    padded = np.pad(rows, ((0, 0), (radius, radius)), mode="reflect")
    return sum(kernel[i] * padded[:, i : i + image.shape[1]] for i in range(len(kernel)))


def apply(image: np.ndarray, p: TransformParams) -> np.ndarray:
    """Transform a (1, H, W) image in [0,1] into a (1, s, s) view in [0,1]."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 1:
        raise ValueError(f"apply: expected (1, H, W) image, got shape {arr.shape}")
    _, height, width = arr.shape
    x, y, w, h = p.crop_box
    if x < 0 or y < 0 or w < 1 or h < 1 or x + w > width or y + h > height:
        raise ValueError(f"crop box {p.crop_box} outside image of shape {arr.shape}")

    view = arr[0, y : y + h, x : x + w]
    view = _bilinear_resize(view, p.target_side, p.target_side)
    if p.hflip:
        view = view[:, ::-1]
    view = np.clip(p.contrast_factor * (view - 0.5) + 0.5 + p.brightness_delta, 0.0, 1.0)
    if p.blur_sigma > 0.0:
        view = _blur(view, p.blur_sigma)
    return view[None, :, :].copy()


def make_view_pair(image: np.ndarray, rng: SplitMix64) -> ViewPair:
    """Two independent draws from the view distribution on one source image."""
    arr = np.asarray(image, dtype=np.float64)
    side = arr.shape[-1]
    p1 = sample_params(rng, side)
    p2 = sample_params(rng, side)
    return ViewPair(v1=apply(arr, p1), v2=apply(arr, p2))

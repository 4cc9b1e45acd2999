"""Stochastic view generation for grayscale images.

A view is produced by: random resized crop -> bilinear resize ->
optional horizontal flip -> brightness/contrast jitter -> clip to [0, 1]
-> optional Gaussian blur -> clip to [0, 1]. "Color jittering"
degenerates to brightness+contrast on one-channel data. The whole
pipeline is a pure function of (image, params); randomness lives only in
:func:`sample_views`.

Each image draws its views from its own SplitMix64 stream, held as one
uint64 lane state (see :mod:`bke.rng`), and :func:`sample_views` runs the
lanes of a batch together. Every view reads exactly D = 8 draws, so view
k of a lane reads draws 8k + 1 to 8k + 8, in this order: the crop's
(w, h), by inverse CDF over a cached per-side table of the sizes that
meet both crop bounds; the crop's x, then y, as floor(u * (S - w + 1))
on a side-S source; the flip; brightness; contrast; the blur gate; and
the blur sigma, drawn always and used only when the gate opens. The
table weighs each size by its chance under random-resized-crop tries
repeated until one fits, so no try is ever drawn.

Crop, resize and flip act on each axis as one linear map, so a view is
``Wy @ image @ Wx.T``, and the reflect-padded blur is ``B @ view @ B.T``.
:func:`apply` builds a whole batch of views with batched matrix products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .rng import lane_floats, uniform

CROP_AREA_RANGE = (0.2, 1.0)
CROP_RATIO_RANGE = (0.75, 4.0 / 3.0)
BRIGHTNESS_RANGE = (-0.4, 0.4)
CONTRAST_RANGE = (0.6, 1.4)
BLUR_SIGMA_RANGE = (0.1, 1.0)
HFLIP_PROB = 0.5
BLUR_PROB = 0.5
# draws per view: crop size, x, y, flip, brightness, contrast, blur gate, blur sigma
_VIEW_DRAWS = 8
# midpoints per cell of the crop table's area sums: within 1e-6 of the exact law
_TABLE_STEPS = 64


@dataclass(frozen=True)
class ViewParams:
    """The parameters of n views, one array entry per view: crop_box is
    (n, 4) rows of (x, y, w, h) in source pixels; blur_sigma 0 means no blur."""

    crop_box: np.ndarray
    hflip: np.ndarray
    brightness_delta: np.ndarray
    contrast_factor: np.ndarray
    blur_sigma: np.ndarray
    target_side: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.hflip)
        if np.shape(self.crop_box) != (n, 4) or any(
                len(getattr(self, f.name)) != n for f in fields(self)):
            raise ValueError("ViewParams: every field needs one entry per view")

    def __len__(self) -> int:
        return len(self.hflip)


@dataclass(frozen=True)
class ViewPair:
    v1: np.ndarray
    v2: np.ndarray


@functools.lru_cache(maxsize=64)
def _crop_table(side: int) -> tuple[np.ndarray, np.ndarray]:
    """The crop sizes of a side x side source, (k, 2) rows of (w, h) that
    meet both the area and the aspect-ratio bounds, and their cumulative
    probabilities, the last exactly 1; both read-only.

    A random-resized-crop try draws area a and ln(ratio) uniformly and
    rounds (x, y) = (sqrt(a * ratio), sqrt(a / ratio)); before rounding that
    point is uniform on R = {lo S^2 <= x y <= hi S^2, r0 <= x / y <= r1}
    (the two ranges above), so the first try that fits lands on a fitting
    cell (w, h) with probability proportional to the area of R in
    [w - 1/2, w + 1/2) x [h - 1/2, h + 1/2).
    Each area is a midpoint sum over x of the cell's y-extent in +, -, *, /
    and math.fsum only, so the table has the same bits on every IEEE-754
    machine (np.exp and np.log may differ by an ulp between CPUs)."""
    area = side * side
    w, h = np.indices((side, side), dtype=np.int64).reshape(2, -1) + 1
    frac, aspect = w * h / area, w / h
    fits = ((frac >= CROP_AREA_RANGE[0]) & (frac <= CROP_AREA_RANGE[1])
            & (aspect >= CROP_RATIO_RANGE[0]) & (aspect <= CROP_RATIO_RANGE[1]))
    sizes = np.column_stack([w[fits], h[fits]])
    w, h = sizes[:, :1], sizes[:, 1:]
    x = w - 0.5 + (np.arange(_TABLE_STEPS) + 0.5) / _TABLE_STEPS
    top = np.minimum(np.minimum(h + 0.5, x / CROP_RATIO_RANGE[0]), CROP_AREA_RANGE[1] * area / x)
    bottom = np.maximum(np.maximum(h - 0.5, x / CROP_RATIO_RANGE[1]), CROP_AREA_RANGE[0] * area / x)
    extents = np.maximum(top - bottom, 0.0).tolist()
    cumulative = np.cumsum([math.fsum(column) for column in extents])
    cumulative /= cumulative[-1]
    sizes.setflags(write=False)
    cumulative.setflags(write=False)
    return sizes, cumulative


def sample_views(states, source_side: int, count: int = 1) -> ViewParams:
    """Draw ``count`` views of side ``source_side // 2`` from each lane
    state, view k from the lane's draws 8k + 1 to 8k + 8: the ViewParams
    of all lanes' first views, then all lanes' second views, and so on. A
    crop box satisfies both the area and the aspect-ratio bounds exactly."""
    if source_side < 2:
        raise ValueError(f"bad source side {source_side}")
    states = np.asarray(states, dtype=np.uint64).reshape(-1)
    u = lane_floats(states, 0, _VIEW_DRAWS * count)
    u = u.reshape(-1, count, _VIEW_DRAWS).transpose(2, 1, 0).reshape(_VIEW_DRAWS, -1)
    sizes, cumulative = _crop_table(source_side)
    w, h = sizes[np.searchsorted(cumulative, u[0], side="right")].T
    # u < 1, so u * n < n for every n < 2^53 and astype's truncation is the floor
    x = (u[1] * (source_side - w + 1)).astype(np.int64)
    y = (u[2] * (source_side - h + 1)).astype(np.int64)
    return ViewParams(np.column_stack([x, y, w, h]), u[3] < HFLIP_PROB,
                      uniform(u[4], *BRIGHTNESS_RANGE), uniform(u[5], *CONTRAST_RANGE),
                      np.where(u[6] < BLUR_PROB, uniform(u[7], *BLUR_SIGMA_RANGE), 0.0),
                      np.full(len(w), source_side // 2))


def _gaussian_kernels(sigmas) -> np.ndarray:
    """(k, 2 R + 1): one normalized Gaussian per sigma, centred, with
    radius ceil(3 sigma) and R the largest; taps beyond its radius are 0."""
    sigmas = np.asarray(sigmas, dtype=np.float64)[:, None]
    radii = np.ceil(3.0 * sigmas)
    offsets = np.arange(-radii.max(), radii.max() + 1)
    kernels = np.where(np.abs(offsets) <= radii, np.exp(-0.5 * (offsets / sigmas) ** 2), 0.0)
    return kernels / kernels.sum(axis=1, keepdims=True)


def _axis_maps(starts, lengths, flips, n_in: int, n_out: int) -> np.ndarray:
    """(n, n_out, n_in): view i crops [starts[i], starts[i] + lengths[i])
    of an axis of n_in pixels and resizes it to n_out with half-pixel-center
    bilinear weights, rows reversed if flipped."""
    n = len(starts)
    lengths = lengths[:, None]
    out = np.arange(n_out)
    pos = np.clip((out + 0.5) * (lengths / n_out) - 0.5, 0.0, lengths - 1.0)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, lengths - 1)
    frac = pos - lo
    rows = np.where(flips[:, None], n_out - 1 - out, out)
    # flat index of each (view, row)'s crop start in the (n, n_out, n_in) maps
    first = (np.arange(n)[:, None] * n_out + rows) * n_in + starts[:, None]
    maps = np.zeros(n * n_out * n_in)
    maps[first + lo] = 1.0 - frac
    maps[first + hi] += frac
    return maps.reshape(n, n_out, n_in)


@functools.lru_cache(maxsize=64)
def _reflect_hits(n_taps: int, side: int) -> np.ndarray:
    """(n_taps, side * side), read-only: entry [t, i * side + c] is 1 where
    tap t of output pixel i reads source pixel c under reflect padding."""
    source = np.pad(np.arange(side), n_taps // 2, mode="reflect")
    hits = np.eye(side)[source[np.arange(n_taps)[:, None] + np.arange(side)]].reshape(n_taps, -1)
    hits.setflags(write=False)
    return hits


def _blur_matrices(sigmas, side: int) -> np.ndarray:
    """(k, side, side): the reflect-padded Gaussian blur of one axis, one
    matrix per sigma."""
    kernels = _gaussian_kernels(sigmas)
    return (kernels @ _reflect_hits(kernels.shape[1], side)).reshape(-1, side, side)


def apply(images: np.ndarray, params: ViewParams) -> np.ndarray:
    """Transform (n, 1, H, W) images in [0,1] into (n, 1, s, s) views in
    [0,1], image i by view i of params; every view shares the target side s."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[1] != 1:
        raise ValueError(f"apply: expected (n, 1, H, W) images, got shape {arr.shape}")
    n, _, height, width = arr.shape
    if n == 0 or len(params) != n:
        raise ValueError(f"apply: need one params per image, got {len(params)} for {n}")
    x, y, w, h = params.crop_box.T
    outside = (x < 0) | (y < 0) | (w < 1) | (h < 1) | (x + w > width) | (y + h > height)
    if outside.any():
        box = tuple(int(v) for v in params.crop_box[outside.argmax()])
        raise ValueError(f"crop box {box} outside image of shape {arr.shape[1:]}")
    sides = params.target_side
    side = int(sides[0])
    if (sides != side).any():
        raise ValueError(f"apply: target sides {side} and {sides[sides != side][0]} in one batch")

    wy = _axis_maps(y, h, np.zeros(n, dtype=bool), height, side)
    wx = _axis_maps(x, w, params.hflip, width, side)
    views = wy @ arr[:, 0] @ wx.transpose(0, 2, 1)
    contrast = params.contrast_factor[:, None, None]
    brightness = params.brightness_delta[:, None, None]
    views = np.clip(contrast * (views - 0.5) + 0.5 + brightness, 0.0, 1.0)
    blurred = np.flatnonzero(params.blur_sigma > 0.0)
    if blurred.size:
        blur = _blur_matrices(params.blur_sigma[blurred], side)
        # the taps of a kernel can sum past 1, so a saturated patch needs the second clip
        views[blurred] = np.clip(blur @ views[blurred] @ blur.transpose(0, 2, 1), 0.0, 1.0)
    return views[:, None]


def make_view_pair(images: np.ndarray, states) -> ViewPair:
    """Two independent draws from the view distribution on each of the
    (n, 1, H, W) source images; image i draws both, one after the other,
    from the lane state states[i]."""
    arr = np.asarray(images, dtype=np.float64)
    if len(states) != len(arr):
        raise ValueError("need exactly one view RNG per image")
    params = sample_views(states, arr.shape[-1], count=2)
    views = apply(np.concatenate([arr, arr]), params)
    return ViewPair(v1=views[: len(arr)], v2=views[len(arr) :])

"""Stochastic view generation for grayscale images.

A view is produced by: random resized crop -> bilinear resize ->
optional horizontal flip -> brightness/contrast jitter -> clip to [0, 1]
-> optional Gaussian blur -> clip to [0, 1]. "Color jittering"
degenerates to brightness+contrast on one-channel data. The whole
pipeline is a pure function of (image, params); randomness lives only in
:func:`sample_views`.

Each image draws its views from its own SplitMix64 stream, held as one
uint64 lane state (see :mod:`bke.rng`), and :func:`sample_views` runs the
lanes of a batch together. A view's draws come in a fixed order: crop
tries of 2 draws each until one fits (at most ``_MAX_CROP_TRIES``), the
crop's x and y by rejection (none if no try fit and the full image is
kept), then the flip, brightness, contrast and blur gate, and the blur
sigma only when the gate opens. A try's draws sit at a fixed offset in
the stream, so a chunk of tries, or of rejection candidates, is read and
tested for every lane at once.

Crop, resize and flip act on each axis as one linear map, so a view is
``Wy @ image @ Wx.T``, and the reflect-padded blur is ``B @ view @ B.T``.
:func:`apply` builds a whole batch of views with batched matrix products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .rng import advance_lanes, lane_draws, lane_floats, uniform

CROP_AREA_RANGE = (0.2, 1.0)
CROP_RATIO_RANGE = (0.75, 4.0 / 3.0)
BRIGHTNESS_RANGE = (-0.4, 0.4)
CONTRAST_RANGE = (0.6, 1.4)
BLUR_SIGMA_RANGE = (0.1, 1.0)
HFLIP_PROB = 0.5
BLUR_PROB = 0.5
_MAX_CROP_TRIES = 100
# crop tries tested per lane at once, and the draws searched at once for a
# crop's x and y: each settles nearly every lane the first time (9 in 10
# first tries fit at side 16)
_CHUNK = 4
_WINDOW = 16


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


def _crop_sizes(states: np.ndarray, side: int, first: int = 0):
    """Each lane's crop (w, h) from try ``first`` on, the draws its tries
    used, and whether one fit; a lane none of whose tries fit keeps the
    full image."""
    n = len(states)
    if first >= _MAX_CROP_TRIES:
        return (np.full(n, side), np.full(n, side), np.full(n, 2 * _MAX_CROP_TRIES),
                np.zeros(n, dtype=bool))
    src_area = side * side
    log_ratio_range = (math.log(CROP_RATIO_RANGE[0]), math.log(CROP_RATIO_RANGE[1]))
    u = lane_floats(states, 2 * first, 2 * min(_CHUNK, _MAX_CROP_TRIES - first))
    area = uniform(u[:, 0::2], *CROP_AREA_RANGE) * src_area
    log_ratio = uniform(u[:, 1::2], *log_ratio_range)
    # math.exp, not np.exp: they differ by an ulp on some inputs, enough to
    # move a rounded side
    ratio = np.fromiter(map(math.exp, log_ratio.ravel().tolist()), np.float64,
                        log_ratio.size).reshape(log_ratio.shape)
    cw = np.rint(np.sqrt(area * ratio))
    ch = np.rint(np.sqrt(area / ratio))
    frac = cw * ch / src_area
    aspect = cw / np.maximum(ch, 1.0)
    fits = ((np.minimum(cw, ch) >= 1) & (np.maximum(cw, ch) <= side)
            & (frac >= CROP_AREA_RANGE[0]) & (frac <= CROP_AREA_RANGE[1])
            & (aspect >= CROP_RATIO_RANGE[0]) & (aspect <= CROP_RATIO_RANGE[1]))
    rows = np.arange(n)
    tries = fits.argmax(axis=1)
    w, h = cw[rows, tries].astype(np.int64), ch[rows, tries].astype(np.int64)
    used, fit = 2 * (first + tries + 1), fits[rows, tries]
    missed = np.flatnonzero(~fit)
    if missed.size:
        w[missed], h[missed], used[missed], fit[missed] = _crop_sizes(
            states[missed], side, first + _CHUNK)
    return w, h, used, fit


def _randbelow(states: np.ndarray, offsets: np.ndarray, bounds: np.ndarray, window: int):
    """Each lane's SplitMix64.randbelow(bounds[i, j]) for j = 0, 1, ... in
    turn, from the draw after offsets[i]: the (n, k) values and the offset
    of each lane's last draw. All k are looked for in the next ``window``
    draws; a lane that needs more starts again with twice the window."""
    bounds = bounds.astype(np.uint64)
    shifts = (64 - np.frexp(bounds)[1]).astype(np.uint64)  # 64 - bit_length
    draws = lane_draws(states, offsets, window)
    rows, cols = np.arange(len(states)), np.arange(window)
    values = np.empty(bounds.shape, dtype=np.int64)
    taken = np.full(len(states), -1)
    found = np.ones(len(states), dtype=bool)
    for j in range(bounds.shape[1]):
        r = draws >> shifts[:, j, None]
        ok = (r < bounds[:, j, None]) & (cols > taken[:, None])
        taken = ok.argmax(axis=1)
        found &= ok[rows, taken]
        values[:, j] = r[rows, taken]
    ends = offsets + taken + 1
    missed = np.flatnonzero(~found)
    if missed.size:
        values[missed], ends[missed] = _randbelow(
            states[missed], offsets[missed], bounds[missed], 2 * window)
    return values, ends


def _sample_view(states: np.ndarray, side: int):
    """One view's params per lane (as arrays) and the lane states after it."""
    w, h, used, fit = _crop_sizes(states, side)
    origin, ends = _randbelow(states, used, np.stack([side - w + 1, side - h + 1], axis=1), _WINDOW)
    # a lane none of whose tries fit keeps the full image, so its x and y are
    # randbelow(1) = 0, but it draws none
    used = np.where(fit, ends, used)
    u = lane_floats(states, used, 5)
    blur = u[:, 3] < BLUR_PROB
    params = (np.column_stack([origin, w, h]), u[:, 0] < HFLIP_PROB,
              uniform(u[:, 1], *BRIGHTNESS_RANGE), uniform(u[:, 2], *CONTRAST_RANGE),
              np.where(blur, uniform(u[:, 4], *BLUR_SIGMA_RANGE), 0.0))
    return params, advance_lanes(states, used + 4 + blur)


def sample_views(states, source_side: int, count: int = 1):
    """Draw ``count`` views of side ``source_side // 2`` from each lane
    state, one after another in the lane's stream: the ViewParams of all
    lanes' first views, then all lanes' second views, and so on; and the
    lane states after the last. A crop box satisfies both the area and
    the aspect-ratio bounds exactly, or is the full image."""
    if source_side < 2:
        raise ValueError(f"bad source side {source_side}")
    states = np.asarray(states, dtype=np.uint64).reshape(-1)
    drawn = []
    for _ in range(count):
        view, states = _sample_view(states, source_side)
        drawn.append(view)
    columns = [np.concatenate(column) for column in zip(*drawn)]
    side = np.full(len(columns[0]), source_side // 2)
    return ViewParams(*columns, side), states


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
    params, _ = sample_views(states, arr.shape[-1], count=2)
    views = apply(np.concatenate([arr, arr]), params)
    return ViewPair(v1=views[: len(arr)], v2=views[len(arr) :])

"""Dataset container IO, stratified splits, batching, synthetic blobs.

On-disk layout (little-endian throughout):

* images  ``<prefix>.bkei`` — magic ``BKEI``, u32 version=1, u32 count,
  u32 height, u32 width, then count*H*W u8 pixels row-major; pixel ``p``
  maps to the float ``p/255``.
* labels  ``<prefix>.bkel`` — magic ``BKEL``, u32 version=1, u32 count,
  count u8 labels.
* split manifest ``<prefix>.split.json`` — ``{train, test}``.

In memory a container holds the u8 pixels as the file does, one byte per
pixel. ``images_at`` gives the float64 images of the indices it is asked
for, so a command converts the batches it uses, never the whole set.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import substream, uniform
from .textio import read_exact, write_artifact

IMAGES_MAGIC = b"BKEI"
LABELS_MAGIC = b"BKEL"
CONTAINER_VERSION = 1
IMAGES_SUFFIX = ".bkei"
LABELS_SUFFIX = ".bkel"
SPLIT_SUFFIX = ".split.json"


class ContainerError(ValueError):
    pass


@dataclass
class DatasetContainer:
    """pixels: (N, 1, H, W) uint8, what the image file holds; pixel ``p``
    is the float ``p/255``. labels: (N,) ints in [0, 256), what the u8
    label file holds."""

    pixels: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        # a float array here would be divided by 255 a second time
        if self.pixels.dtype != np.uint8:
            raise ContainerError(f"pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.ndim != 4 or self.pixels.shape[1] != 1:
            raise ContainerError(f"images must be (N, 1, H, W), got {self.pixels.shape}")
        if self.pixels.shape[2] != self.pixels.shape[3]:
            raise ContainerError(f"images must be square, got H x W = {self.pixels.shape[2:]}")
        if len(self.pixels) != len(self.labels):
            raise ContainerError(
                f"count mismatch: {len(self.pixels)} images vs {len(self.labels)} labels"
            )
        if not (0 <= self.labels.min(initial=0) and self.labels.max(initial=0) < 256):
            raise ContainerError("labels out of range [0, 256)")

    def __len__(self) -> int:
        return len(self.labels)

    def images_at(self, indices) -> np.ndarray:
        """The float64 images at a list or array of indices, in [0, 1]."""
        return self.pixels[indices] / 255.0

    @property
    def images(self) -> np.ndarray:
        """Every image as float64: eight bytes a pixel, so no command reads it."""
        return self.pixels / 255.0

    @property
    def n_classes(self) -> int:
        """One past the largest label (1 for an empty container)."""
        return int(self.labels.max(initial=0)) + 1


def _quantize(images: np.ndarray) -> np.ndarray:
    # written as `not (min >= 0 and max <= 1)` so that a NaN pixel fails it too
    if not (images.min() >= 0.0 and images.max() <= 1.0):
        raise ContainerError("pixel values must lie in [0, 1]")
    return np.rint(images * 255.0).astype(np.uint8)


def images_path(prefix) -> Path:
    return Path(str(prefix) + IMAGES_SUFFIX)


def labels_path(prefix) -> Path:
    return Path(str(prefix) + LABELS_SUFFIX)


def split_path(prefix) -> Path:
    return Path(str(prefix) + SPLIT_SUFFIX)


def write_container(container: DatasetContainer, prefix) -> None:
    n, _, h, w = container.pixels.shape
    header = IMAGES_MAGIC + struct.pack("<IIII", CONTAINER_VERSION, n, h, w)
    write_artifact(images_path(prefix), header + container.pixels.tobytes())
    header = LABELS_MAGIC + struct.pack("<II", CONTAINER_VERSION, n)
    write_artifact(labels_path(prefix), header + container.labels.astype(np.uint8).tobytes())


def read_container(prefix) -> DatasetContainer:
    ipath = images_path(prefix)
    lpath = labels_path(prefix)
    with open(ipath, "rb") as fh:
        if read_exact(fh, 4, ContainerError, "images header") != IMAGES_MAGIC:
            raise ContainerError(f"{ipath}: bad magic")
        version, count, h, w = struct.unpack(
            "<IIII", read_exact(fh, 16, ContainerError, "images header"))
        if version != CONTAINER_VERSION:
            raise ContainerError(f"{ipath}: unsupported version {version}")
        raw = read_exact(fh, count * h * w, ContainerError, "images payload")
        if fh.read(1):
            raise ContainerError(f"{ipath}: trailing bytes")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, h, w)

    with open(lpath, "rb") as fh:
        if read_exact(fh, 4, ContainerError, "labels header") != LABELS_MAGIC:
            raise ContainerError(f"{lpath}: bad magic")
        version, label_count = struct.unpack("<II", read_exact(fh, 8, ContainerError, "labels header"))
        if version != CONTAINER_VERSION:
            raise ContainerError(f"{lpath}: unsupported version {version}")
        if label_count != count:
            raise ContainerError(
                f"count mismatch: {count} images but {label_count} labels"
            )
        labels = np.frombuffer(read_exact(fh, count, ContainerError, "labels payload"), dtype=np.uint8)
        if fh.read(1):
            raise ContainerError(f"{lpath}: trailing bytes")

    return DatasetContainer(pixels=pixels, labels=labels.astype(np.int64))


# --- splits and batching ----------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train and test indices. ``fraction`` and ``seed`` may say how
    a caller drew them; nothing reads them, and the manifest does not hold them."""

    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]
    fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        overlap = set(self.train_indices) & set(self.test_indices)
        if overlap:
            raise ContainerError(f"train/test overlap: {sorted(overlap)[:5]}...")
        for side, indices in (("train", self.train_indices), ("test", self.test_indices)):
            if len(set(indices)) != len(indices):
                raise ContainerError(f"{side} indices repeat an index")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _indices_by_class(labels: np.ndarray, seed: int, stream: str):
    """Per class in ascending order: cls and its indices, shuffled by substream(seed, stream, cls)."""
    groups: dict[int, list[int]] = {}
    for idx, lbl in enumerate(labels):
        groups.setdefault(int(lbl), []).append(idx)
    for cls, members in sorted(groups.items()):
        substream(seed, stream, cls).shuffle(members)
        yield cls, members


def stratified_subsample(labels: np.ndarray, fraction: float, seed: int) -> list[int]:
    """Per class, a seeded uniform subset of round(fraction * n_c), min 1."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return list(range(len(labels)))
    return sorted(i for _, pool in _indices_by_class(labels, seed, "subsample")
                  for i in pool[: max(1, _round_half_up(fraction * len(pool)))])


def stratified_split(labels: np.ndarray, test_per_class: int, seed: int) -> SplitSpec:
    """Deterministic per-class split holding out test_per_class samples."""
    if test_per_class < 1:
        raise ValueError("test_per_class must be >= 1")
    train: list[int] = []
    test: list[int] = []
    for cls, pool in _indices_by_class(labels, seed, "split"):
        if len(pool) <= test_per_class:
            raise ValueError(
                f"class {cls} has {len(pool)} samples, cannot hold out {test_per_class}"
            )
        test.extend(pool[:test_per_class])
        train.extend(pool[test_per_class:])
    return SplitSpec(train_indices=tuple(sorted(train)), test_indices=tuple(sorted(test)))


def write_split(split: SplitSpec, path) -> None:
    doc = {"train": list(split.train_indices), "test": list(split.test_indices)}
    write_artifact(path, json.dumps(doc) + "\n")


def _indices(doc: dict, key: str) -> tuple[int, ...]:
    values = doc[key]
    # bool is an int subclass, and a float or a negative index would still
    # pick an image
    if not isinstance(values, list) or not all(type(i) is int and i >= 0 for i in values):
        raise ValueError(f"{key} must be a list of non-negative integers")
    return tuple(values)


def read_split(path) -> SplitSpec:
    """The train and test indices; other keys, such as an old manifest's seed, are ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return SplitSpec(
            train_indices=_indices(doc, "train"),
            test_indices=_indices(doc, "test"),
        )
    except KeyError as exc:
        raise ContainerError(f"split manifest {path} missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContainerError(f"split manifest {path} is malformed: {exc}") from None


def batches(indices, batch_size: int, seed: int, epoch: int) -> list[list[int]]:
    """Shuffle once per (seed, epoch), then chunk; the short tail is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = [int(i) for i in indices]
    substream(seed, "shuffle", epoch).shuffle(order)
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


# --- synthetic desk-scale dataset -------------------------------------------

_BLOB_CENTERS = (0.3, 0.7)  # fractional (row, col) center per class
_BLOB_AMPLITUDE = 0.75
_NOISE_MAX = 0.15
# images drawn and built at once. Keep blocks small: the whole 600-image set
# in one block is no faster, but its arrays pass ~1 MiB, and once glibc frees
# an mmapped array that large it raises its mmap threshold, so conv2d's later
# chunks come from the heap and stay resident (peak RSS rose 5%).
_SYNTH_BLOCK = 64


def synth_blobs(n_per_class: int, side: int, seed: int) -> DatasetContainer:
    """Two linearly separable classes: a bright Gaussian blob in the
    upper-left (class 0) or lower-right (class 1) corner plus uniform
    noise, jittered a little so views of the same class still differ.

    Each block of images is drawn with one next_floats call; the draws
    and the pixels are those of one image at a time."""
    if side < 8:
        raise ValueError(f"side must be >= 8, got {side}")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = substream(seed, "synth")
    sigma = side / 6.0
    jitter = side / 16.0
    rows = np.arange(side)[:, None]
    cols = np.arange(side)[None, :]

    labels = np.repeat(np.arange(2, dtype=np.int64), n_per_class)
    centers = (np.array(_BLOB_CENTERS) * side)[labels, None, None]
    pixels = np.empty((len(labels), 1, side, side), dtype=np.uint8)
    for start in range(0, len(labels), _SYNTH_BLOCK):
        stop = min(start + _SYNTH_BLOCK, len(labels))
        # per image, in stream order: the row and column jitter, then the noise row-major
        u = rng.next_floats((stop - start) * (2 + side * side)).reshape(stop - start, -1)
        cy = centers[start:stop] + uniform(u[:, 0, None, None], -jitter, jitter)
        cx = centers[start:stop] + uniform(u[:, 1, None, None], -jitter, jitter)
        blob = _BLOB_AMPLITUDE * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2.0 * sigma**2))
        noise = _NOISE_MAX * u[:, 2:].reshape(-1, side, side)
        pixels[start:stop, 0] = _quantize(np.clip(blob + noise, 0.0, 1.0))
    return DatasetContainer(pixels=pixels, labels=labels)

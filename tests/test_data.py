import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bke.data import (
    _SYNTH_BLOCK,
    ContainerError,
    DatasetContainer,
    SplitSpec,
    batches,
    images_path,
    labels_path,
    read_container,
    read_split,
    split_path,
    stratified_split,
    stratified_subsample,
    synth_blobs,
    write_container,
    write_split,
)

from bke.rng import substream

from corruption import corruptions
from scalar_draws import uniform


def small_container(n=6, side=8, seed=0):
    rng = np.random.default_rng(seed)
    images = np.rint(rng.uniform(size=(n, 1, side, side)) * 255) / 255.0
    labels = np.arange(n, dtype=np.int64) % 2
    return DatasetContainer(images=images, labels=labels)


# --- container IO -----------------------------------------------------------


def test_round_trip_preserves_pixels_and_labels(tmp_path):
    container = small_container()
    prefix = tmp_path / "set"
    write_container(container, prefix)
    back = read_container(prefix)
    np.testing.assert_array_equal(back.images, container.images)
    np.testing.assert_array_equal(back.labels, container.labels)
    assert back.n_classes == container.n_classes == 2


def test_file_sizes_match_layout(tmp_path):
    container = small_container(n=5, side=16)
    prefix = tmp_path / "set"
    write_container(container, prefix)
    assert images_path(prefix).stat().st_size == 4 + 16 + 5 * 16 * 16
    assert labels_path(prefix).stat().st_size == 4 + 8 + 5


def test_paths_keep_dotted_prefixes(tmp_path):
    prefix = tmp_path / "run.v1.2"
    assert images_path(prefix).name == "run.v1.2.bkei"
    assert labels_path(prefix).name == "run.v1.2.bkel"
    assert split_path(prefix).name == "run.v1.2.split.json"


def test_write_is_byte_stable(tmp_path):
    container = small_container()
    write_container(container, tmp_path / "a")
    write_container(container, tmp_path / "b")
    assert images_path(tmp_path / "a").read_bytes() == images_path(tmp_path / "b").read_bytes()
    assert labels_path(tmp_path / "a").read_bytes() == labels_path(tmp_path / "b").read_bytes()


def test_read_rejects_bad_magic(tmp_path):
    prefix = tmp_path / "set"
    write_container(small_container(), prefix)
    data = images_path(prefix).read_bytes()
    images_path(prefix).write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ContainerError, match="magic"):
        read_container(prefix)


def test_read_rejects_truncation_and_trailing(tmp_path):
    prefix = tmp_path / "set"
    write_container(small_container(), prefix)
    data = images_path(prefix).read_bytes()
    images_path(prefix).write_bytes(data[:-3])
    with pytest.raises(ContainerError, match="truncated"):
        read_container(prefix)
    images_path(prefix).write_bytes(data + b"\x00")
    with pytest.raises(ContainerError, match="trailing"):
        read_container(prefix)


def test_read_rejects_label_count_mismatch(tmp_path):
    prefix = tmp_path / "set"
    write_container(small_container(n=6), prefix)
    other = tmp_path / "other"
    write_container(small_container(n=4), other)
    labels_path(prefix).write_bytes(labels_path(other).read_bytes())
    with pytest.raises(ContainerError, match="count mismatch"):
        read_container(prefix)


def test_read_rejects_oversized_header_before_reading(tmp_path):
    prefix = tmp_path / "set"
    write_container(small_container(), prefix)
    data = images_path(prefix).read_bytes()
    for count, h, w in ((0xFFFFFFFF,) * 3, (7, 8, 8)):
        images_path(prefix).write_bytes(data[:4] + struct.pack("<IIII", 1, count, h, w) + data[20:])
        with pytest.raises(ContainerError, match="truncated images payload"):
            read_container(prefix)


def _valid_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "set"
        write_container(small_container(n=4, side=3), prefix)
        write_split(SplitSpec((0, 2), (1, 3), 0.5, 11), split_path(prefix))
        return {p.suffix: p.read_bytes()
                for p in (images_path(prefix), labels_path(prefix), split_path(prefix))}


VALID = _valid_files()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([".bkei", ".bkel"]).flatmap(
    lambda suffix: st.tuples(st.just(suffix), corruptions(VALID[suffix]))))
def test_corrupt_container_raises_only_container_error(case):
    suffix, blob = case
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "set"
        for name, valid in VALID.items():
            Path(str(prefix) + name).write_bytes(blob if name == suffix else valid)
        try:
            read_container(prefix)
        except ContainerError:
            pass


@settings(max_examples=150, deadline=None)
@given(corruptions(VALID[".json"]))
def test_corrupt_split_raises_only_container_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.split.json"
        path.write_bytes(blob)
        try:
            read_split(path)
        except ContainerError:
            pass


def test_container_validation():
    with pytest.raises(ContainerError, match=r"\(N, 1, H, W\)"):
        DatasetContainer(np.zeros((2, 3, 4, 4)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ContainerError, match="count mismatch"):
        DatasetContainer(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=np.int64))
    # the u8 label file holds [0, 256); a label past it would wrap on write
    for bad in (256, -1):
        with pytest.raises(ContainerError, match=r"out of range \[0, 256\)"):
            DatasetContainer(np.zeros((2, 1, 4, 4)), np.array([0, bad]))
    with pytest.raises(ContainerError, match=r"\[0, 1\]"):
        write_container(
            DatasetContainer(np.full((1, 1, 4, 4), 1.5), np.zeros(1, dtype=np.int64)),
            "/tmp/never-written",
        )


def test_non_square_container_neither_written_nor_read(tmp_path):
    # the encoder and the view sampler take one side; a 16x12 image would be
    # cropped to its top 12x12 square without a word
    with pytest.raises(ContainerError, match="square"):
        DatasetContainer(np.zeros((2, 1, 16, 12)), np.zeros(2, dtype=np.int64))
    prefix = tmp_path / "wide"
    write_container(DatasetContainer(np.zeros((2, 1, 16, 16)), np.array([0, 1])), prefix)
    header = b"BKEI" + struct.pack("<IIII", 1, 2, 16, 12)
    images_path(prefix).write_bytes(header + bytes(2 * 16 * 12))
    with pytest.raises(ContainerError, match="square"):
        read_container(prefix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_nonfinite_pixel(tmp_path, bad):
    container = small_container()
    container.images[-1, 0, -1, -1] = bad
    prefix = tmp_path / "set"
    with pytest.raises(ContainerError, match=r"\[0, 1\]"):
        write_container(container, prefix)
    assert not images_path(prefix).exists() and not labels_path(prefix).exists()


# --- splits -------------------------------------------------------------------


def test_stratified_split_counts_and_disjointness():
    labels = np.array([0] * 30 + [1] * 20)
    split = stratified_split(labels, test_per_class=5, seed=9)
    assert len(split.test_indices) == 10
    assert len(split.train_indices) == 40
    assert not set(split.train_indices) & set(split.test_indices)
    test_labels = labels[list(split.test_indices)]
    assert (test_labels == 0).sum() == 5 and (test_labels == 1).sum() == 5


def test_stratified_split_deterministic_and_seed_sensitive():
    labels = np.array([0] * 10 + [1] * 10)
    a = stratified_split(labels, 3, seed=1)
    b = stratified_split(labels, 3, seed=1)
    c = stratified_split(labels, 3, seed=2)
    assert a == b
    assert a.test_indices != c.test_indices


def test_stratified_split_rejects_small_class():
    with pytest.raises(ValueError, match="cannot hold out"):
        stratified_split(np.array([0, 0, 1, 1]), test_per_class=2, seed=0)


def test_subsample_sizes_round_half_up():
    labels = np.array([0] * 100 + [1] * 50)
    chosen = stratified_subsample(labels, 0.1, seed=4)
    picked = labels[chosen]
    assert (picked == 0).sum() == 10 and (picked == 1).sum() == 5
    # 0.25 of 50 -> 12.5 rounds up to 13
    chosen = stratified_subsample(labels, 0.25, seed=4)
    assert (labels[chosen] == 1).sum() == 13


def test_subsample_full_fraction_is_identity():
    labels = np.array([0, 1, 0, 1, 1])
    assert stratified_subsample(labels, 1.0, seed=0) == [0, 1, 2, 3, 4]


def test_subsample_minimum_one_per_class():
    labels = np.array([0] * 40 + [1] * 2)
    chosen = stratified_subsample(labels, 0.01, seed=0)
    assert (labels[chosen] == 0).sum() == 1 and (labels[chosen] == 1).sum() == 1


def test_subsample_rejects_bad_fraction():
    labels = np.array([0, 1])
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            stratified_subsample(labels, fraction, seed=0)


@settings(max_examples=50)
@given(st.integers(0, 2**31), st.floats(0.01, 1.0))
def test_subsample_sorted_unique_and_stratified(seed, fraction):
    labels = np.array([0] * 17 + [1] * 9 + [2] * 4)
    chosen = stratified_subsample(labels, fraction, seed)
    assert chosen == sorted(set(chosen))
    for cls, total in ((0, 17), (1, 9), (2, 4)):
        want = max(1, int(np.floor(fraction * total + 0.5)))
        assert (labels[chosen] == cls).sum() == want


def test_split_manifest_round_trip(tmp_path):
    split = SplitSpec(train_indices=(0, 2, 5), test_indices=(1, 3), fraction=0.5, seed=11)
    path = tmp_path / "m.split.json"
    write_split(split, path)
    assert read_split(path) == split


def test_split_manifest_missing_key(tmp_path):
    path = tmp_path / "bad.split.json"
    path.write_text('{"seed": 1, "train": [0]}')
    with pytest.raises(ContainerError, match="missing key"):
        read_split(path)


@pytest.mark.parametrize("text", [
    b'{"seed": 1, "fraction": 1.0, "train": 5, "test": []}',
    b'[{"seed": 1, "fraction": 1.0, "train": [0], "test": []}]',
    b'{"seed": 1, "fraction": null, "train": [0], "test": []}',
    b'{"seed": 1, "fraction": 1.0, "train": ["x"], "test": []}',
    b'{"seed": 1, "fraction": 1.0, "train": [1e400], "test": []}',
    b'{"seed": 1, "fraction": 1.0, "train": [0], "test": [',
    b'{"seed": 1, "fraction": 1.0, "train": [0], "test": [\xff]}',
], ids=["train-int", "top-level-list", "fraction-null", "train-str", "train-overflow",
        "cut-json", "not-utf8"])
def test_split_manifest_malformed(tmp_path, text):
    path = tmp_path / "bad.split.json"
    path.write_bytes(text)
    with pytest.raises(ContainerError, match="malformed"):
        read_split(path)


@pytest.mark.parametrize("index", ["-1", "2.7", "true"], ids=["negative", "float", "bool"])
def test_split_manifest_rejects_non_index_values(tmp_path, index):
    path = tmp_path / "bad.split.json"
    path.write_text('{"seed": 1, "fraction": 1.0, "train": [0, %s], "test": [3]}' % index)
    with pytest.raises(ContainerError, match="non-negative integers"):
        read_split(path)


def test_split_overlap_rejected():
    with pytest.raises(ContainerError, match="overlap"):
        SplitSpec(train_indices=(0, 1), test_indices=(1, 2), fraction=1.0, seed=0)


def test_split_repeated_index_rejected(tmp_path):
    # a repeated train index trains an image twice per epoch; a repeated test
    # index counts it twice in every metric
    for train, test, side in (((1, 1, 2), (3,), "train"), ((1, 2), (3, 3), "test")):
        with pytest.raises(ContainerError, match=f"{side} indices repeat an index"):
            SplitSpec(train_indices=train, test_indices=test, fraction=1.0, seed=0)
    path = tmp_path / "rep.split.json"
    path.write_text('{"seed": 1, "fraction": 1.0, "train": [1, 1, 2], "test": [3, 3]}')
    with pytest.raises(ContainerError, match="repeat an index"):
        read_split(path)


# --- batching -------------------------------------------------------------------


def test_batches_partition_with_tail():
    got = batches(range(10), batch_size=4, seed=0, epoch=0)
    assert [len(b) for b in got] == [4, 4, 2]
    assert sorted(i for b in got for i in b) == list(range(10))


def test_batches_reshuffle_across_epochs_deterministically():
    a0 = batches(range(12), 4, seed=7, epoch=0)
    a0_again = batches(range(12), 4, seed=7, epoch=0)
    a1 = batches(range(12), 4, seed=7, epoch=1)
    assert a0 == a0_again
    assert a0 != a1


def test_batches_and_split_are_pinned():
    # the orders a per-draw Fisher-Yates gave before shuffles read blocks of draws
    got = json.dumps(batches(range(600), 32, 4, 3))
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "f7e37cf4378e1810ffe19250a87c8e16d3c7a51c89545657ca774f5c57744726")
    split = stratified_split(synth_blobs(300, 16, 4).labels, 100, 4)
    got = json.dumps([split.train_indices, split.test_indices])
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "acdac9aac6c53f0266cf8b28f8acb7e4ad1895059da33642a9682ec6fc06a55f")


def test_batches_batch_size_one():
    got = batches([3, 1, 2], 1, seed=0, epoch=0)
    assert [len(b) for b in got] == [1, 1, 1]


# --- synthetic data ---------------------------------------------------------------


def test_synth_blobs_shapes_and_quantization():
    container = synth_blobs(n_per_class=4, side=16, seed=5)
    assert container.images.shape == (8, 1, 16, 16)
    assert container.labels.tolist() == [0] * 4 + [1] * 4
    assert container.n_classes == 2
    steps = container.images * 255.0
    np.testing.assert_allclose(steps, np.rint(steps), atol=1e-9)
    assert 0.0 <= container.images.min() and container.images.max() <= 1.0


def test_synth_blobs_deterministic_and_seed_sensitive():
    a = synth_blobs(3, 8, seed=1)
    b = synth_blobs(3, 8, seed=1)
    c = synth_blobs(3, 8, seed=2)
    np.testing.assert_array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_synth_blobs_classes_live_in_opposite_corners():
    container = synth_blobs(n_per_class=10, side=16, seed=3)
    half = 8
    for img, label in zip(container.images[:, 0], container.labels):
        ul = img[:half, :half].mean()
        lr = img[half:, half:].mean()
        assert (ul > lr) == (label == 0)


def test_synth_blobs_match_per_pixel_draws():
    # the blob set drawn one uniform call at a time: row jitter, column
    # jitter, then the noise row-major, per image; the 2 * n_per_class
    # images span three blocks, the last one partial
    n_per_class, side, seed = _SYNTH_BLOCK + 5, 13, 9
    rng = substream(seed, "synth")
    rows, cols = np.arange(side)[:, None], np.arange(side)[None, :]
    want = np.empty((2 * n_per_class, 1, side, side))
    for i in range(2 * n_per_class):
        center = (0.3, 0.7)[i // n_per_class] * side
        cy = center + uniform(rng, -side / 16.0, side / 16.0)
        cx = center + uniform(rng, -side / 16.0, side / 16.0)
        blob = 0.75 * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2.0 * (side / 6.0) ** 2))
        noise = np.empty((side, side))
        for r in range(side):
            for c in range(side):
                noise[r, c] = uniform(rng, 0.0, 0.15)
        want[i, 0] = np.clip(blob + noise, 0.0, 1.0)
    got = synth_blobs(n_per_class, side, seed)
    np.testing.assert_array_equal(got.images, np.rint(want * 255.0).astype(np.uint8) / 255.0)


def test_synth_blobs_bytes_are_pinned():
    images = synth_blobs(4, 16, 5).images
    assert hashlib.sha256(images.tobytes()).hexdigest() == (
        "4a8d7a30dab5419b128ba3b29599eb4c5048be5056db921aacc57f8dd24afa5b")


def test_synth_blobs_argument_errors():
    with pytest.raises(ValueError, match="side"):
        synth_blobs(2, 4, seed=0)
    with pytest.raises(ValueError, match="n_per_class"):
        synth_blobs(0, 8, seed=0)

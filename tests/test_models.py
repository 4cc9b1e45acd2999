import hashlib
import math
import struct
import tempfile
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from bke import tensor as T
from bke.rng import substream

from scalar_draws import uniform
from bke.models import (
    CHECKPOINT_MAGIC,
    CLASSIFIER_HIDDEN_DIM,
    BundleSpecs,
    CheckpointError,
    EncoderSpec,
    MlpSpec,
    ModelBundle,
    attach_classifier,
    encode,
    init_bundle,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
)

from corruption import corruptions

TINY = BundleSpecs(
    encoder=EncoderSpec(input_side=8, conv_stages=((2, 2), (3, 2))),
    projector=MlpSpec(3, 4, 3),
    predictor=MlpSpec(3, 3, 3),
)


def bundles_equal(a: ModelBundle, b: ModelBundle) -> bool:
    for group in ("online_encoder", "online_projector", "predictor",
                  "target_encoder", "target_projector"):
        pa, pb = getattr(a, group), getattr(b, group)
        if pa.keys() != pb.keys():
            return False
        if any(not np.array_equal(pa[k], pb[k]) for k in pa):
            return False
    return True


def test_init_is_deterministic():
    assert bundles_equal(init_bundle(TINY, 42), init_bundle(TINY, 42))
    assert not bundles_equal(init_bundle(TINY, 42), init_bundle(TINY, 43))


def test_target_starts_as_independent_copy():
    bundle = init_bundle(TINY, 1)
    for name in bundle.online_encoder:
        np.testing.assert_array_equal(bundle.online_encoder[name], bundle.target_encoder[name])
    bundle.online_encoder["stage0.w"] = bundle.online_encoder["stage0.w"] + 1.0
    assert not np.array_equal(bundle.online_encoder["stage0.w"], bundle.target_encoder["stage0.w"])


def test_init_respects_fan_in_bounds():
    bundle = init_bundle(BundleSpecs.default(16), 0)
    w0 = bundle.online_encoder["stage0.w"]  # fan_in = 1 * 3 * 3
    assert np.all(np.abs(w0) <= math.sqrt(1.0 / 9.0))
    w1 = bundle.online_encoder["stage1.w"]  # fan_in = 16 * 9
    assert np.all(np.abs(w1) <= math.sqrt(1.0 / 144.0))
    fc1 = bundle.online_projector["fc1.w"]  # fan_in = 64
    assert np.all(np.abs(fc1) <= math.sqrt(1.0 / 64.0))
    # bounds are actually explored, not collapsed toward zero
    assert np.abs(w0).max() > 0.5 * math.sqrt(1.0 / 9.0)


def test_init_matches_per_parameter_draws():
    # one uniform(-bound, bound) draw per entry, row-major, in init order
    bundle = init_bundle(TINY, 6)
    layouts = (
        ("online_encoder", "encoder",
         [("stage0.w", 1 * 9), ("stage0.b", 1 * 9), ("stage1.w", 2 * 9), ("stage1.b", 2 * 9)]),
        ("online_projector", "projector", [("fc1.w", 3), ("fc1.b", 3), ("fc2.w", 4), ("fc2.b", 4)]),
    )
    for group, stream, layout in layouts:
        rng = substream(6, "init", stream)
        for name, fan_in in layout:
            arr = getattr(bundle, group)[name]
            bound = math.sqrt(1.0 / fan_in)
            want = [uniform(rng, -bound, bound) for _ in range(arr.size)]
            np.testing.assert_array_equal(arr.ravel(), want)


def test_encode_shapes():
    bundle = init_bundle(TINY, 3)
    for side in (8, 16):
        out = encode(bundle.online_encoder, TINY.encoder, np.zeros((5, 1, side, side)))
        assert out.shape == (5, 3)


def test_encode_rejects_bad_shapes():
    bundle = init_bundle(TINY, 3)
    with pytest.raises(ValueError, match="expected"):
        encode(bundle.online_encoder, TINY.encoder, np.zeros((5, 2, 8, 8)))
    with pytest.raises(ValueError, match="square"):
        encode(bundle.online_encoder, TINY.encoder, np.zeros((5, 1, 8, 10)))


def test_mlp_forward_matches_manual():
    bundle = init_bundle(TINY, 9)
    p = bundle.online_projector
    x = np.random.default_rng(0).normal(size=(4, 3))
    got = mlp_forward(p, x).data
    want = np.maximum(x @ p["fc1.w"] + p["fc1.b"], 0.0) @ p["fc2.w"] + p["fc2.b"]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_attach_classifier_and_classify():
    bundle = init_bundle(TINY, 5)
    attach_classifier(bundle, n_classes=4, seed=77)
    logits = mlp_forward(bundle.classifier, np.zeros((2, 3)))
    assert logits.shape == (2, 4)
    again = init_bundle(TINY, 5)
    attach_classifier(again, n_classes=4, seed=77)
    for k in bundle.classifier:
        np.testing.assert_array_equal(bundle.classifier[k], again.classifier[k])
    with pytest.raises(ValueError, match="2 classes"):
        attach_classifier(bundle, n_classes=1, seed=77)


def test_spec_validation():
    with pytest.raises(ValueError, match="stride"):
        EncoderSpec(conv_stages=((4, 3),))
    with pytest.raises(ValueError, match="input_side"):
        EncoderSpec(input_side=4)
    with pytest.raises(ValueError, match="feature_dim"):
        BundleSpecs(
            encoder=EncoderSpec(),
            projector=MlpSpec(10, 4, 3),
            predictor=MlpSpec(3, 3, 3),
        )
    with pytest.raises(ValueError, match="projector out_dim"):
        BundleSpecs(
            encoder=EncoderSpec(),
            projector=MlpSpec(64, 4, 3),
            predictor=MlpSpec(5, 3, 3),
        )


def test_specs_are_frozen_and_checked_on_replace():
    with pytest.raises(FrozenInstanceError):
        TINY.encoder.input_side = 4
    with pytest.raises(FrozenInstanceError):
        TINY.classifier = MlpSpec(3, 4, 2)
    with pytest.raises(ValueError, match="dims must be >= 1"):
        replace(TINY.projector, hidden_dim=0)
    with pytest.raises(ValueError, match="classifier in_dim"):
        replace(TINY, classifier=MlpSpec(5, 4, 2))


# --- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    bundle = init_bundle(TINY, 123)
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    assert bundles_equal(bundle, loaded)
    assert loaded.init_seed == 123
    assert loaded.specs.encoder == TINY.encoder
    assert loaded.specs.projector == TINY.projector
    assert loaded.specs.predictor == TINY.predictor
    assert loaded.classifier is None


def test_checkpoint_round_trip_with_classifier(tmp_path):
    bundle = init_bundle(TINY, 5)
    attach_classifier(bundle, n_classes=3, seed=6)
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    assert loaded.specs.classifier == bundle.specs.classifier
    for k in bundle.classifier:
        np.testing.assert_array_equal(bundle.classifier[k], loaded.classifier[k])


def test_checkpoint_save_is_byte_stable(tmp_path):
    bundle = init_bundle(TINY, 8)
    p1, p2 = tmp_path / "a.bkec", tmp_path / "b.bkec"
    save_checkpoint(bundle, p1)
    save_checkpoint(bundle, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == CHECKPOINT_MAGIC


def test_checkpoint_truncation_detected(tmp_path):
    bundle = init_bundle(TINY, 8)
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    blob = path.read_bytes()
    for cut in (len(blob) - 3, len(blob) // 2, 10):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated checkpoint"):
            load_checkpoint(path)


def test_checkpoint_trailing_garbage_detected(tmp_path):
    bundle = init_bundle(TINY, 8)
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="payload length mismatch"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.bkec"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_oversized_dims_rejected_before_reading(tmp_path):
    # 2^31 * 2^31 * 4 elements wrap to 0 in 64-bit arithmetic; 2^32-1 squared
    # wraps to a negative count
    head = CHECKPOINT_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"w"
    path = tmp_path / "model.bkec"
    for dims in ((0x80000000, 0x80000000, 4), (0xFFFFFFFF, 0xFFFFFFFF)):
        path.write_bytes(head + struct.pack(f"<B{len(dims)}I", len(dims), *dims) + bytes(16))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def test_checkpoint_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "model.bkec"
    head = CHECKPOINT_MAGIC + struct.pack("<II", 1, 1)
    path.write_bytes(head + struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<B", 0) + bytes(16))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("input_side", [math.nan, math.inf, 4.0])
def test_checkpoint_bad_metadata_rejected(tmp_path, input_side):
    # an invalid EncoderSpec cannot be built, so forge the saved value:
    # the record's name is followed by its rank (u8) and its one dim (u32)
    path = tmp_path / "model.bkec"
    save_checkpoint(init_bundle(TINY, 8), path)
    blob = bytearray(path.read_bytes())
    at = blob.index(b"meta/input_side") + len("meta/input_side") + 1 + 4
    blob[at : at + 8] = struct.pack("<d", input_side)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        load_checkpoint(path)


def _forged_meta(tmp_path, name: str, offset: int, forge) -> Path:
    """A checkpoint whose record ``name`` has the 8 bytes at value ``offset``
    replaced by forge(those bytes)."""
    path = tmp_path / "model.bkec"
    save_checkpoint(init_bundle(TINY, 8), path)
    blob = bytearray(path.read_bytes())
    at = blob.index(name.encode()) + len(name) + 1 + 4 + 8 * offset
    blob[at : at + 8] = forge(bytes(blob[at : at + 8]))
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("name", ["meta/conv_channels", "meta/input_side", "meta/projector_dims"])
def test_checkpoint_meta_that_is_not_a_whole_number_rejected(tmp_path, name):
    # the lowest mantissa bit turns 2.0 into 2.0000000000000004, which int() would truncate
    path = _forged_meta(tmp_path, name, 0, lambda b: bytes([b[0] ^ 1]) + b[1:])
    with pytest.raises(CheckpointError, match=f"{name} holds .*, not a whole number"):
        load_checkpoint(path)


@pytest.mark.parametrize("half", [0, 1])
@pytest.mark.parametrize("value", [2.0**32, -1.0, 0.5])
def test_checkpoint_seed_half_outside_32_bits_rejected(tmp_path, half, value):
    path = _forged_meta(tmp_path, "meta/init_seed", half, lambda b: struct.pack("<d", value))
    with pytest.raises(CheckpointError, match=f"meta/init_seed holds {value!r}, not a whole number"):
        load_checkpoint(path)


def test_checkpoint_param_names_checked_against_specs(tmp_path):
    bundle = init_bundle(TINY, 8)
    bundle.online_encoder["stage0.v"] = bundle.online_encoder.pop("stage0.w")
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    with pytest.raises(CheckpointError, match="missing online_encoder/stage0.w"):
        load_checkpoint(path)


def test_checkpoint_param_shapes_checked_against_specs(tmp_path):
    bundle = init_bundle(TINY, 8)
    bundle.online_encoder["stage1.b"] = bundle.online_encoder["stage1.b"][:-1]
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    with pytest.raises(CheckpointError, match=r"online_encoder/stage1.b has shape \(2,\)"):
        load_checkpoint(path)


def test_checkpoint_extra_param_rejected(tmp_path):
    bundle = init_bundle(TINY, 8)
    bundle.predictor["fc3.w"] = np.zeros((3, 3))
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    with pytest.raises(CheckpointError, match="unexpected tensor 'predictor/fc3.w'"):
        load_checkpoint(path)


def _with_record(blob: bytes, name: str, arr: np.ndarray) -> bytes:
    """blob with one more tensor record before its trailer, count and trailer fixed."""
    (count,) = struct.unpack_from("<I", blob, 8)
    name_bytes = name.encode("utf-8")
    record = (struct.pack("<H", len(name_bytes)) + name_bytes
              + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.astype("<f8").tobytes())
    body = blob[:8] + struct.pack("<I", count + 1) + blob[12:-8] + record
    return body + struct.pack("<Q", len(body))


@pytest.mark.parametrize("name", ["foo/x", "x"])
def test_checkpoint_record_outside_the_layout_rejected(tmp_path, name):
    path = tmp_path / "model.bkec"
    save_checkpoint(init_bundle(TINY, 8), path)
    path.write_bytes(_with_record(path.read_bytes(), name, np.zeros(2)))
    with pytest.raises(CheckpointError, match=f"unexpected tensor '{name}' in checkpoint"):
        load_checkpoint(path)


def test_checkpoint_duplicate_record_rejected(tmp_path):
    # a second copy of a layout tensor would silently replace the first
    path = tmp_path / "model.bkec"
    save_checkpoint(init_bundle(TINY, 8), path)
    forged = _with_record(path.read_bytes(), "online_encoder/stage0.b", np.array([123.0, 456.0]))
    path.write_bytes(forged)
    with pytest.raises(CheckpointError,
                       match="duplicate tensor 'online_encoder/stage0.b' in checkpoint"):
        load_checkpoint(path)


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "model.bkec"
    bundle = init_bundle(TINY, 8)
    save_checkpoint(bundle, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e0eb64743938b4f2a4b12cd662277ad01cda70c70eaa5785815cf0976ac3778a")
    attach_classifier(bundle, 2, 8)
    save_checkpoint(bundle, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6f6a14b9975525c2ebdac97647cd16e9164c9338235523b7de1cfddf2a34d388")


def test_init_with_classifier_spec_matches_attached_head():
    built = init_bundle(replace(TINY, classifier=MlpSpec(3, CLASSIFIER_HIDDEN_DIM, 2)), 5)
    attached = init_bundle(TINY, 5)
    attach_classifier(attached, 2, 5)
    assert built.specs == attached.specs
    assert built.classifier.keys() == attached.classifier.keys()
    for k in built.classifier:
        np.testing.assert_array_equal(built.classifier[k], attached.classifier[k])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checkpoint_non_finite_param_rejected(tmp_path, bad):
    bundle = init_bundle(TINY, 8)
    bundle.online_encoder["stage0.w"][1, 0, 2, 1] = bad
    path = tmp_path / "model.bkec"
    save_checkpoint(bundle, path)
    with pytest.raises(CheckpointError, match="online_encoder/stage0.w holds non-finite"):
        load_checkpoint(path)


def _valid_checkpoint() -> bytes:
    bundle = init_bundle(TINY, 4)
    attach_classifier(bundle, n_classes=2, seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(bundle, Path(tmp) / "model.bkec")
        return (Path(tmp) / "model.bkec").read_bytes()


VALID_CHECKPOINT = _valid_checkpoint()


@settings(max_examples=300, deadline=None)
@given(corruptions(VALID_CHECKPOINT))
def test_corrupt_checkpoint_raises_only_checkpoint_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bkec"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def test_save_load_save_identical_bytes(tmp_path):
    bundle = init_bundle(TINY, 21)
    attach_classifier(bundle, n_classes=2, seed=21)
    p1, p2 = tmp_path / "a.bkec", tmp_path / "b.bkec"
    save_checkpoint(bundle, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_taped_forward_uses_leaf_values():
    bundle = init_bundle(TINY, 2)
    x = np.random.default_rng(1).normal(size=(2, 1, 8, 8))
    plain = encode(bundle.online_encoder, TINY.encoder, x).data
    with T.Tape() as tape:
        leaves = {k: tape.leaf(v) for k, v in bundle.online_encoder.items()}
        taped = encode(leaves, TINY.encoder, x)
        grads = tape.backward(T.mean_all(taped))
    np.testing.assert_array_equal(plain, taped.data)
    assert any(np.any(grads[leaf.node_id].data != 0.0) for leaf in leaves.values())

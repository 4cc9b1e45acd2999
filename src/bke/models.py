"""Network definitions, deterministic initialization, and checkpoints.

Five parameter groups: online encoder / projector / predictor, target
encoder / projector (shape-identical twins of the online pair), plus an
optional classifier head attached for fine-tuning. The encoder is a
small conv stack (3x3 kernels, bias, relu, stride per stage) ending in
global average pooling; a deeper stack can be swapped in through
:class:`EncoderSpec`. All MLPs are linear -> relu -> linear.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import astuple, dataclass, replace
from typing import Mapping

import numpy as np

from .rng import SplitMix64, substream, uniform
from . import tensor as T
from .textio import read_exact, write_artifact

KERNEL_SIZE = 3
CONV_PAD = 1
CLASSIFIER_HIDDEN_DIM = 64

CHECKPOINT_MAGIC = b"BKEC"
CHECKPOINT_VERSION = 1

Params = dict[str, np.ndarray]


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class EncoderSpec:
    """Conv stack: (out_channels, stride) per stage, then global avg pool."""

    input_side: int = 16
    conv_stages: tuple[tuple[int, int], ...] = ((16, 2), (32, 2), (64, 2))

    @property
    def feature_dim(self) -> int:
        return self.conv_stages[-1][0]

    def __post_init__(self) -> None:
        if self.input_side < 8:
            raise ValueError(f"input_side must be >= 8, got {self.input_side}")
        if not self.conv_stages:
            raise ValueError("conv_stages must be nonempty")
        for ch, stride in self.conv_stages:
            if ch < 1:
                raise ValueError(f"invalid channel count {ch}")
            if stride not in (1, 2):
                raise ValueError(f"stride must be 1 or 2, got {stride}")


@dataclass(frozen=True)
class MlpSpec:
    in_dim: int
    hidden_dim: int
    out_dim: int

    def __post_init__(self) -> None:
        if min(self.in_dim, self.hidden_dim, self.out_dim) < 1:
            raise ValueError(f"all MLP dims must be >= 1, got {self}")


@dataclass(frozen=True)
class BundleSpecs:
    """The four specs must fit together; each spec checks itself."""

    encoder: EncoderSpec
    projector: MlpSpec
    predictor: MlpSpec
    classifier: MlpSpec | None = None

    @staticmethod
    def default(input_side: int = 16) -> "BundleSpecs":
        enc = EncoderSpec(input_side=input_side)
        d = enc.feature_dim
        return BundleSpecs(
            encoder=enc,
            projector=MlpSpec(d, 128, 32),
            predictor=MlpSpec(32, 32, 32),
        )

    def __post_init__(self) -> None:
        if self.projector.in_dim != self.encoder.feature_dim:
            raise ValueError("projector in_dim must equal encoder feature_dim")
        if self.predictor.in_dim != self.projector.out_dim:
            raise ValueError("predictor in_dim must equal projector out_dim")
        if self.classifier is not None and self.classifier.in_dim != self.encoder.feature_dim:
            raise ValueError("classifier in_dim must equal encoder feature_dim")


@dataclass
class ModelBundle:
    """All parameter groups plus the specs and seed that produced them."""

    specs: BundleSpecs
    init_seed: int
    online_encoder: Params
    online_projector: Params
    predictor: Params
    target_encoder: Params
    target_projector: Params
    classifier: Params | None = None


def _encoder_shapes(spec: EncoderSpec) -> dict[str, tuple[int, ...]]:
    """Each conv stage's weight (out, in, k, k), then its bias."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = 1
    for i, (out_ch, _stride) in enumerate(spec.conv_stages):
        shapes[f"stage{i}.w"] = (out_ch, in_ch, KERNEL_SIZE, KERNEL_SIZE)
        shapes[f"stage{i}.b"] = (out_ch,)
        in_ch = out_ch
    return shapes


def _mlp_shapes(spec: MlpSpec) -> dict[str, tuple[int, ...]]:
    """Each linear layer's weight (in, out), then its bias."""
    return {"fc1.w": (spec.in_dim, spec.hidden_dim), "fc1.b": (spec.hidden_dim,),
            "fc2.w": (spec.hidden_dim, spec.out_dim), "fc2.b": (spec.out_dim,)}


def _init_params(shapes: dict[str, tuple[int, ...]], rng: SplitMix64) -> Params:
    # fan-in uniform bound sqrt(1/fan_in), applied to each weight and the bias
    # after it; a conv weight's fan-in is in * k * k, a linear weight's is in
    params: Params = {}
    for name, shape in shapes.items():
        if name.endswith(".w"):
            bound = math.sqrt(1.0 / math.prod(shape[1:] if len(shape) == 4 else shape[:1]))
        params[name] = uniform(rng.next_floats(math.prod(shape)), -bound, bound).reshape(shape)
    return params


def _copy_params(params: Params) -> Params:
    return {k: v.copy() for k, v in params.items()}


def init_bundle(specs: BundleSpecs, seed: int) -> ModelBundle:
    """Deterministic init: each online group draws from the substream named
    after it without "online_"; each target group is an exact copy of its
    online twin."""
    groups: dict[str, Params] = {}
    for group, shapes in _param_shapes(specs).items():
        if group.startswith("target_"):
            groups[group] = _copy_params(groups[group.replace("target_", "online_")])
        else:
            stream = substream(seed, "init", group.removeprefix("online_"))
            groups[group] = _init_params(shapes, stream)
    return ModelBundle(specs=specs, init_seed=seed, **groups)


def attach_classifier(bundle: ModelBundle, n_classes: int, seed: int) -> None:
    """Attach a freshly initialized classifier head (in place).

    The head is seeded independently of the rest of the bundle so a
    fine-tuning run can vary it without touching the pretrained weights.
    """
    if n_classes < 2:
        raise ValueError("classifier needs at least 2 classes")
    spec = MlpSpec(bundle.specs.encoder.feature_dim, CLASSIFIER_HIDDEN_DIM, n_classes)
    bundle.specs = replace(bundle.specs, classifier=spec)
    bundle.classifier = _init_params(_mlp_shapes(spec), substream(seed, "init", "classifier"))


def encode(params: Mapping, spec: EncoderSpec, images) -> T.Tensor:
    """Conv stack + global average pool -> (N, feature_dim) features."""
    x = images if isinstance(images, T.Tensor) else T.Tensor(images)
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ValueError(f"encode: expected (N, 1, H, W) images, got shape {x.shape}")
    if x.data.shape[2] != x.data.shape[3]:
        raise ValueError(f"encode: images must be square, got shape {x.shape}")
    for i, (_out_ch, stride) in enumerate(spec.conv_stages):
        x = T.conv2d(x, params[f"stage{i}.w"], params[f"stage{i}.b"], stride=stride, pad=CONV_PAD,
                     relu=True)
    return T.global_avg_pool(x)


def mlp_forward(params: Mapping, x) -> T.Tensor:
    """linear -> relu -> linear."""
    h = T.matmul(x, params["fc1.w"], params["fc1.b"], relu=True)
    return T.matmul(h, params["fc2.w"], params["fc2.b"])


def project(params: Mapping, features) -> T.Tensor:
    return mlp_forward(params, features)


def predict(params: Mapping, projections) -> T.Tensor:
    return mlp_forward(params, projections)


# --- checkpoint IO ----------------------------------------------------------
#
# Layout: magic "BKEC", u32 version, u32 tensor count, then per tensor
# { u16 name length, name bytes (UTF-8), u8 rank, u32 dims..., payload of
# little-endian f64 }, then a trailing u64 holding the byte count of
# everything before it. Specs and seed travel as "meta/*" tensors so one
# file round-trips the whole bundle bit-exactly.

def _meta_records(bundle: ModelBundle) -> list[tuple[str, np.ndarray]]:
    specs = bundle.specs
    seed = bundle.init_seed & (1 << 64) - 1
    records = [
        ("meta/init_seed", np.array([seed & 0xFFFFFFFF, seed >> 32], dtype=np.float64)),
        ("meta/input_side", np.array([specs.encoder.input_side], dtype=np.float64)),
        ("meta/conv_channels", np.array([c for c, _ in specs.encoder.conv_stages], dtype=np.float64)),
        ("meta/conv_strides", np.array([s for _, s in specs.encoder.conv_stages], dtype=np.float64)),
    ]
    for name in ("projector", "predictor", "classifier"):
        spec = getattr(specs, name)
        if spec is not None:
            records.append((f"meta/{name}_dims", np.array(astuple(spec), dtype=np.float64)))
    return records


def save_checkpoint(bundle: ModelBundle, path) -> None:
    records = _meta_records(bundle)
    for group in _param_shapes(bundle.specs):
        params = getattr(bundle, group)
        records.extend((f"{group}/{name}", params[name]) for name in sorted(params))

    payload = bytearray()
    payload += CHECKPOINT_MAGIC
    payload += struct.pack("<I", CHECKPOINT_VERSION)
    payload += struct.pack("<I", len(records))
    for name, arr in records:
        name_bytes = name.encode("utf-8")
        payload += struct.pack("<H", len(name_bytes))
        payload += name_bytes
        payload += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            payload += struct.pack("<I", dim)
        payload += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    payload += struct.pack("<Q", len(payload))
    write_artifact(path, payload)


def _param_shapes(specs: BundleSpecs) -> dict[str, dict[str, tuple[int, ...]]]:
    """The parameter names and shapes of each group that specs define: the
    one table that init_bundle and the checkpoint reader follow."""
    encoder, projector = _encoder_shapes(specs.encoder), _mlp_shapes(specs.projector)
    shapes = {"online_encoder": encoder, "online_projector": projector,
              "predictor": _mlp_shapes(specs.predictor), "target_encoder": encoder,
              "target_projector": projector}
    if specs.classifier is not None:
        shapes["classifier"] = _mlp_shapes(specs.classifier)
    return shapes


def load_checkpoint(path) -> ModelBundle:
    """Read a bundle back; corrupt content raises :class:`CheckpointError`."""
    with open(path, "rb") as fh:
        try:
            return _read_bundle(fh)
        except CheckpointError:
            raise
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None


def _read_bundle(fh) -> ModelBundle:
    read = functools.partial(read_exact, fh, error=CheckpointError, what="checkpoint")
    magic = read(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    (version,) = struct.unpack("<I", read(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack("<I", read(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", read(2))
        name = read(name_len).decode("utf-8")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor {name!r} in checkpoint")
        (rank,) = struct.unpack("<B", read(1))
        dims = struct.unpack(f"<{rank}I", read(4 * rank))
        n_bytes = 8 * math.prod(dims)
        data = np.frombuffer(read(n_bytes), dtype="<f8").reshape(dims)
        tensors[name] = data.astype(np.float64)
    consumed = fh.tell()
    (declared,) = struct.unpack("<Q", read(8))
    if declared != consumed:
        raise CheckpointError(
            f"payload length mismatch: trailer says {declared}, read {consumed}"
        )
    if fh.read(1):
        raise CheckpointError("payload length mismatch: trailing bytes after checksum")

    def meta(name: str, limit: float = math.inf) -> list[int]:
        """The record's values, each a whole number in [0, limit)."""
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing {name}")
        values = tensors.pop(name)
        whole = (values >= 0) & (values < limit) & (values == np.floor(values))
        if not whole.all():
            # load_checkpoint reports this ValueError as a corrupt checkpoint
            raise ValueError(f"{name} holds {float(values[~whole].flat[0])!r}, "
                             f"not a whole number in [0, {limit:.0f})")
        return [int(v) for v in values]

    seed_lo, seed_hi = meta("meta/init_seed", 2**32)
    (input_side,) = meta("meta/input_side")
    stages = tuple(zip(meta("meta/conv_channels"), meta("meta/conv_strides")))
    specs = BundleSpecs(
        encoder=EncoderSpec(input_side=input_side, conv_stages=stages),
        projector=MlpSpec(*meta("meta/projector_dims")),
        predictor=MlpSpec(*meta("meta/predictor_dims")),
        classifier=(MlpSpec(*meta("meta/classifier_dims"))
                    if "meta/classifier_dims" in tensors else None),
    )

    expected = {f"{group}/{name}": shape
                for group, shapes in _param_shapes(specs).items() for name, shape in shapes.items()}
    for full_name, shape in expected.items():
        if full_name not in tensors:
            raise CheckpointError(f"checkpoint missing {full_name}")
        if tensors[full_name].shape != shape:
            raise CheckpointError(
                f"{full_name} has shape {tensors[full_name].shape}, the specs give {shape}"
            )
    groups: dict[str, Params] = {}
    for full_name, arr in tensors.items():
        if full_name not in expected:
            raise CheckpointError(f"unexpected tensor {full_name!r} in checkpoint")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"checkpoint tensor {full_name} holds non-finite values")
        group, _, pname = full_name.partition("/")
        groups.setdefault(group, {})[pname] = arr
    return ModelBundle(specs=specs, init_seed=seed_lo | seed_hi << 32, **groups)

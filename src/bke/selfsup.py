"""Phase I: self-supervised pretraining of the dual networks.

Each step draws two views per image. The online network (encoder ->
projector -> predictor) sees both views; the target network (encoder ->
projector, EMA weights) sees only the second. The loss couples them::

    L_cv = mean_i ||q̂1 - q̂1'||²  = 2 - 2 cos(q1, q1')   (both online)
    L_cm = mean_i 2 - 2 cos(q1', z2)                      (z2 detached)

Gradients update only the online parameters (SGD with momentum); the
target follows by exponential moving average, psi <- zeta psi + (1-zeta) theta.
Nothing on the online side is stop-gradiented; the only detached
quantity is the target projection z2.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import tensor as T
from .augment import make_view_pair
from .data import batches
from .models import (
    BundleSpecs,
    ModelBundle,
    encode,
    init_bundle,
    predict,
    project,
    save_checkpoint,
)
from .optim import SgdMomentum, ema_update
from .rng import substream_states
from .textio import write_csv

COLLAPSE_STD_THRESHOLD = 1e-6
COLLAPSE_PATIENCE = 3


class CollapseError(RuntimeError):
    """Training degenerated: non-finite loss or constant features."""


@dataclass(frozen=True)
class SslConfig:
    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 0.05
    momentum: float = 0.9
    zeta: float = 0.996
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:  # NaN and inf fail it too
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must be in [0, 1], got {self.zeta}")


@dataclass
class SslBatchOutputs:
    loss_cv: float
    loss_cm: float
    loss_total: float
    feature_std: float  # mean over dims of the per-dim std across the batch


@dataclass(frozen=True)
class SslEpochLog:
    epoch: int
    loss_cv: float
    loss_cm: float
    loss_total: float


def _cosine_loss(a, b, name: str) -> T.Tensor:
    """mean over rows of 2 - 2 cos(a_i, b_i), as a taped scalar; a and b
    are tensors or arrays of one shape."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"{name}: shapes {np.shape(a)} and {np.shape(b)} differ")
    na = T.l2_normalize_rows(a)
    nb = T.l2_normalize_rows(b)
    m = na.shape[1]
    # mean_all averages over N*m entries; rescale to a per-row dot product
    dot_mean = T.mean_all(T.mul(na, nb))
    return T.add(T.scale(dot_mean, -2.0 * m), T.Tensor([2.0]))


def cross_view_loss(q1, q1_prime) -> T.Tensor:
    """Gradients flow through both arguments."""
    return _cosine_loss(q1, q1_prime, "cross_view_loss")


def cross_model_loss(q1_prime, z2) -> T.Tensor:
    """z2 must be detached; the target network receives no gradient."""
    if isinstance(z2, T.Tensor) and z2.tape is not None:
        raise ValueError("cross_model_loss: z2 must be detached")
    return _cosine_loss(q1_prime, z2, "cross_model_loss")


def ssl_step(
    bundle: ModelBundle,
    images: np.ndarray,
    config: SslConfig,
    optimizer: SgdMomentum,
    view_states: np.ndarray,
) -> SslBatchOutputs:
    """One optimization step on a batch of source images (in place);
    image i draws its views from the lane state view_states[i]."""
    pair = make_view_pair(images, view_states)
    v1, v2 = pair.v1, pair.v2

    spec = bundle.specs.encoder
    # target forward runs outside the tape: plain values, nothing recorded
    z2_val = project(bundle.target_projector, encode(bundle.target_encoder, spec, v2)).data

    with T.Tape() as tape:
        trained = {group: tape.leaves(getattr(bundle, group))
                   for group in ("online_encoder", "online_projector", "predictor")}
        enc, proj, pred = trained.values()
        feats1 = encode(enc, spec, v1)
        q1 = predict(pred, project(proj, feats1))
        q1p = predict(pred, project(proj, encode(enc, spec, v2)))
        loss_cv = cross_view_loss(q1, q1p)
        loss_cm = cross_model_loss(q1p, z2_val)
        loss_total = T.add(loss_cv, loss_cm)
        grads = tape.backward(loss_total)

    optimizer.step(bundle, trained, grads)
    bundle.target_encoder = ema_update(bundle.target_encoder, bundle.online_encoder, config.zeta)
    bundle.target_projector = ema_update(bundle.target_projector, bundle.online_projector, config.zeta)

    return SslBatchOutputs(
        loss_cv=loss_cv.item(),
        loss_cm=loss_cm.item(),
        loss_total=loss_total.item(),
        feature_std=float(feats1.data.std(axis=0).mean()),
    )


def pretrain(
    images: np.ndarray,
    config: SslConfig,
    specs: BundleSpecs | None = None,
    checkpoint_path=None,
) -> tuple[ModelBundle, list[SslEpochLog]]:
    """Full Phase I loop with deterministic shuffling and view sampling.

    ``images`` are floats in [0, 1], or a container's u8 pixels, which are
    converted a batch at a time as ``p / 255.0``, the values
    ``DatasetContainer.images_at`` gives."""
    images = np.asarray(images)
    scale = 255.0 if images.dtype == np.uint8 else 1.0
    if images.ndim != 4 or len(images) == 0:
        raise ValueError(f"pretrain: expected nonempty (M, 1, H, W) images, got {images.shape}")
    if specs is None:
        specs = BundleSpecs.default(input_side=images.shape[2])
    bundle = init_bundle(specs, config.seed)
    optimizer = SgdMomentum(config.learning_rate, config.momentum)

    history: list[SslEpochLog] = []
    flat_epochs = 0
    for epoch in range(config.epochs):
        sums = np.zeros(3)
        count = 0
        std_sum = 0.0  # over batches of >= 2 images: one image has zero std by definition
        std_count = 0
        for batch in batches(range(len(images)), config.batch_size, config.seed, epoch):
            states = substream_states(batch, config.seed, "augment", epoch)
            try:
                out = ssl_step(bundle, np.divide(images[batch], scale, dtype=np.float64),
                               config, optimizer, states)
            except (FloatingPointError, ValueError) as exc:
                raise CollapseError(
                    f"pretrain failed at epoch {epoch}, batch starting {batch[0]}: {exc}"
                ) from exc
            n = len(batch)
            sums += n * np.array([out.loss_cv, out.loss_cm, out.loss_total])
            count += n
            if n >= 2:
                std_sum += n * out.feature_std
                std_count += n
        history.append(SslEpochLog(epoch, *(sums / count)))
        flat = std_count > 0 and std_sum / std_count < COLLAPSE_STD_THRESHOLD
        flat_epochs = flat_epochs + 1 if flat else 0
        if flat_epochs >= COLLAPSE_PATIENCE:
            raise CollapseError(
                f"features collapsed: mean std < {COLLAPSE_STD_THRESHOLD:g} "
                f"for {COLLAPSE_PATIENCE} consecutive epochs (through epoch {epoch})"
            )

    if checkpoint_path is not None:
        save_checkpoint(bundle, checkpoint_path)
    return bundle, history


def write_loss_csv(history: list[SslEpochLog], path) -> None:
    write_csv(path, ("epoch", "loss_cv", "loss_cm", "loss_total"), map(astuple, history))

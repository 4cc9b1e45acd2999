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

A step is three pieces: the views and the target network's z2, the
online network's step, and the EMA. ``ssl_step`` runs them in that order
in one process. When a fork pays by the rule in ``procs``, ``pretrain``
runs the first and the last in a forked worker instead, beside the online
step of the parent: the worker draws step t's views while the parent
trains on step t - 1's, then waits for the weights the parent publishes,
applies the EMA and computes z2. The arrays pass through shared memory
and each hand-over is one pipe event. No arithmetic is reordered, so the
bytes of every artifact are those of the one-process run.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import astuple, dataclass
from typing import Callable, Iterator

import numpy as np

from . import procs
from . import tensor as T
from .augment import make_view_pair, view_side
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


def _target_projection(bundle: ModelBundle, v2: np.ndarray) -> np.ndarray:
    """z2, the target network's projection of the second views. It runs
    outside the tape: plain values, nothing recorded."""
    return project(bundle.target_projector,
                   encode(bundle.target_encoder, bundle.specs.encoder, v2)).data


def _online_step(bundle: ModelBundle, optimizer: SgdMomentum, v1: np.ndarray, v2: np.ndarray,
                 target: Callable[[], np.ndarray]) -> SslBatchOutputs:
    """One SGD step of the online network on a view pair (in place);
    target() gives z2 once both views are on the tape."""
    spec = bundle.specs.encoder
    with T.Tape() as tape:
        trained = {group: tape.leaves(getattr(bundle, group))
                   for group in ("online_encoder", "online_projector", "predictor")}
        enc, proj, pred = trained.values()
        feats1 = encode(enc, spec, v1)
        q1 = predict(pred, project(proj, feats1))
        q1p = predict(pred, project(proj, encode(enc, spec, v2)))
        loss_cv = cross_view_loss(q1, q1p)
        loss_cm = cross_model_loss(q1p, target())
        loss_total = T.add(loss_cv, loss_cm)
        grads = tape.backward(loss_total)

    optimizer.step(bundle, trained, grads)
    return SslBatchOutputs(
        loss_cv=loss_cv.item(),
        loss_cm=loss_cm.item(),
        loss_total=loss_total.item(),
        feature_std=float(feats1.data.std(axis=0).mean()),
    )


def _follow(bundle: ModelBundle, zeta: float) -> None:
    """The EMA step of the target network toward the online one (in place)."""
    bundle.target_encoder = ema_update(bundle.target_encoder, bundle.online_encoder, zeta)
    bundle.target_projector = ema_update(bundle.target_projector, bundle.online_projector, zeta)


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
    z2 = _target_projection(bundle, pair.v2)
    out = _online_step(bundle, optimizer, pair.v1, pair.v2, lambda: z2)
    _follow(bundle, config.zeta)
    return out


_EMA_GROUPS = ("encoder", "projector")  # the groups with an online and a target twin


class _SharedArrays:
    """The arrays the two processes of a split Phase I share: for each step
    parity a slot (v1, v2, z2) with room for the largest batch, and theta,
    the online encoder and projector the parent publishes after each step,
    which the worker overwrites with the target network after the last one."""

    def __init__(self, bundle: ModelBundle, n_max: int, source_side: int) -> None:
        side = view_side(source_side)
        online = {group: getattr(bundle, "online_" + group) for group in _EMA_GROUPS}
        slot = [(n_max, 1, side, side)] * 2 + [(n_max, bundle.specs.projector.out_dim)]
        shapes = slot * 2 + [a.shape for params in online.values() for a in params.values()]
        arrays = iter(procs.shared_arrays(shapes))
        self.slots = [[next(arrays) for _ in slot] for _ in range(2)]
        self.theta = {group: {name: next(arrays) for name in params}
                      for group, params in online.items()}

    def slot(self, t: int, n: int) -> list[np.ndarray]:
        """Step t's v1, v2 and z2 for a batch of n images."""
        return [a[:n] for a in self.slots[t % 2]]

    def put_theta(self, bundle: ModelBundle, twin: str) -> None:
        """Copy the bundle's online or target (twin) encoder and projector into theta."""
        for group, params in self.theta.items():
            for name, value in getattr(bundle, f"{twin}_{group}").items():
                params[name][...] = value


def _worker_steps(images: np.ndarray, scale: float, bundle: ModelBundle, config: SslConfig,
                  shared: _SharedArrays, parent: procs.Peer) -> None:
    """The worker's side of a split Phase I, on the bundle as it was before
    the first step. For step t it draws the views into slot t, applies the
    EMA with the theta the parent published after step t - 1 and writes z2
    there; each of the two is one event. After the last step it applies
    the last EMA and writes the target network over theta, one more event.
    A failure reaches the parent, with its exception, in place of its event."""
    for group in _EMA_GROUPS:
        setattr(bundle, "online_" + group, shared.theta[group])
    t = 0
    for epoch in range(config.epochs):
        for batch in batches(range(len(images)), config.batch_size, config.seed, epoch):
            v1, v2, z2 = shared.slot(t, len(batch))
            states = substream_states(batch, config.seed, "augment", epoch)
            pair = make_view_pair(np.divide(images[batch], scale, dtype=np.float64), states)
            v1[...], v2[...] = pair.v1, pair.v2
            parent.signal()
            parent.wait(t, f"before step {t}")
            if t:
                _follow(bundle, config.zeta)
            z2[...] = _target_projection(bundle, v2)
            parent.signal()
            t += 1
    parent.wait(t, "before the last EMA")
    _follow(bundle, config.zeta)
    shared.put_theta(bundle, "target")
    parent.signal()


@contextlib.contextmanager
def _steps(images: np.ndarray, scale: float, bundle: ModelBundle, config: SslConfig,
           optimizer: SgdMomentum) -> Iterator[Callable[[int, list[int]], SslBatchOutputs]]:
    """Phase I's step(epoch, batch): ``ssl_step`` in this process, or, when
    ``procs.forked`` makes a pinned worker for the steps, the online
    network's step on the views and z2 of that worker (``_worker_steps``),
    which then gets theta and, after the last step, gives back the target
    network its last EMA left."""

    def serial_step(epoch: int, batch: list[int]) -> SslBatchOutputs:
        states = substream_states(batch, config.seed, "augment", epoch)
        return ssl_step(bundle, np.divide(images[batch], scale, dtype=np.float64),
                        config, optimizer, states)

    n_steps = config.epochs * math.ceil(len(images) / config.batch_size)
    shared = _SharedArrays(bundle, min(config.batch_size, len(images)), images.shape[-1])
    t = 0

    def split_step(epoch: int, batch: list[int]) -> SslBatchOutputs:
        nonlocal t
        where = f"at epoch {epoch}, batch starting {batch[0]}"
        v1, v2, z2 = shared.slot(t, len(batch))
        worker.wait(2 * t + 1, where)

        def target() -> np.ndarray:
            worker.wait(2 * t + 2, where)
            return z2

        try:
            out = _online_step(bundle, optimizer, v1, v2, target)
        except Exception:
            target()  # a failure of the worker's in this step comes first in serial order
            raise
        shared.put_theta(bundle, "online")
        worker.signal()
        t += 1
        return out

    def work(parent: procs.Peer) -> None:
        _worker_steps(images, scale, bundle, config, shared, parent)

    with procs.forked(work, "pretrain's worker process", n_steps, pin=True) as worker:
        yield serial_step if worker is None else split_step
        if worker is not None:
            worker.wait(2 * t + 1, "at the end of the last epoch")
            for group, params in shared.theta.items():
                setattr(bundle, "target_" + group,
                        {name: value.copy() for name, value in params.items()})


def pretrain(
    images: np.ndarray,
    config: SslConfig,
    specs: BundleSpecs | None = None,
    checkpoint_path=None,
) -> tuple[ModelBundle, list[SslEpochLog]]:
    """Full Phase I loop with deterministic shuffling and view sampling.

    ``images`` are floats in [0, 1], or a container's u8 pixels, which are
    converted a batch at a time as ``p / 255.0``, the values
    ``DatasetContainer.images_at`` gives.

    The steps run in one process or, when a fork pays by the rule in
    ``procs``, in two (see the module docstring), with the same results
    either way. A failure reads as in one process: within a step the first
    in serial order wins, views, then target, then online network."""
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
    with _steps(images, scale, bundle, config, optimizer) as step:
        for epoch in range(config.epochs):
            sums = np.zeros(3)
            count = 0
            std_sum = 0.0  # over batches of >= 2 images: one image has zero std by definition
            std_count = 0
            for batch in batches(range(len(images)), config.batch_size, config.seed, epoch):
                try:
                    out = step(epoch, batch)
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

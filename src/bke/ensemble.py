"""Phase II: fine-tuning with batch knowledge ensembling.

Within each batch, encoder features induce a cosine similarity graph
(diagonal removed, rows renormalized through exp). Class probabilities
propagate over that graph::

    Q_t = omega * Yhat @ Q_{t-1} + (1 - omega) * P,   Q_0 = P

whose t -> infinity limit has the closed form
``Q = (1 - omega) (I - omega Yhat)^{-1} P`` — the production path, with
the iterative form kept as an independent oracle and CLI option. The
soft targets Q are always detached; the loss is

    CE(softmax(logits), labels) + lam * tau^2 * mean_i KL(Q_i || P_i)

with P = softmax(logits / tau), mean-reduced so ``lam`` does not depend
on batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import DatasetContainer, SplitSpec, batches
from .metrics import EpochMetrics, MetricError, MetricsReport, auc, confusion, sen_spe_hm_acc
from .models import (
    ModelBundle,
    attach_classifier,
    encode,
    load_checkpoint,
    mlp_forward,
)
from .optim import SgdMomentum
from .selfsup import CollapseError


@dataclass(frozen=True)
class BkeConfig:
    omega: float = 0.5
    batch_size: int = 128
    lam: float = 8.0
    tau: float = 1.0
    epochs: int = 30
    learning_rate: float = 0.1
    momentum: float = 0.5
    seed: int = 0
    positive_class: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega < 1.0:
            raise ValueError(f"omega must be in [0, 1), got {self.omega}")
        # written as `not lo < x < inf` so that NaN and inf fail them too
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be >= 0 and finite, got {self.lam}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.positive_class < 0:
            raise ValueError(f"positive_class must be >= 0, got {self.positive_class}")


@dataclass(frozen=True)
class ProbMatrix:
    values: np.ndarray


@dataclass(frozen=True)
class SoftTargets:
    values: np.ndarray
    method: str


def similarity_matrix(features) -> np.ndarray:
    """Pairwise cosine similarities with an exactly-zero diagonal.

    The unit rows come from ``tensor.l2_normalize_rows``, at any scale.
    They are computed on plain values: the graph feeds only the detached
    targets, so it must never carry gradients.
    """
    feats = features.data if isinstance(features, T.Tensor) else np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"similarity_matrix: expected (N, d) features, got {feats.shape}")
    if len(feats) < 2:
        raise ValueError("similarity_matrix: need at least 2 rows (no peer knowledge)")
    try:
        unit = T.l2_normalize_rows(feats).data
    except ValueError as err:  # on 2-D input, raised only for a zero row
        raise ValueError("similarity_matrix: zero feature row") from err
    raw = unit @ unit.T
    np.fill_diagonal(raw, 0.0)
    return raw


def normalize_similarity(raw: np.ndarray) -> np.ndarray:
    """Row-stochastic exp-normalization over off-diagonal entries."""
    raw = np.asarray(raw, dtype=np.float64)
    n = raw.shape[0]
    if raw.ndim != 2 or raw.shape[1] != n:
        raise ValueError(f"normalize_similarity: expected square matrix, got {raw.shape}")
    weights = np.exp(raw)
    np.fill_diagonal(weights, 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def probabilities(logits, tau: float) -> ProbMatrix:
    """Row softmax of logits/tau as plain values, which no tape records."""
    values = logits.data if isinstance(logits, T.Tensor) else logits
    return ProbMatrix(values=T.softmax_rows(values, tau).data)


def _check_propagation_args(y_hat: np.ndarray, p: np.ndarray, omega: float) -> None:
    if y_hat.ndim != 2 or y_hat.shape[0] != y_hat.shape[1]:
        raise ValueError(f"expected square graph matrix, got {y_hat.shape}")
    if p.ndim != 2 or p.shape[0] != y_hat.shape[0]:
        raise ValueError(f"graph is {y_hat.shape} but probabilities are {p.shape}")
    if not 0.0 <= omega < 1.0:
        raise ValueError(f"omega must be in [0, 1), got {omega}")


def propagate_iterative(y_hat: np.ndarray, p: np.ndarray, omega: float, t: int) -> SoftTargets:
    """t applications of Q <- omega Yhat Q + (1-omega) P, from Q = P."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    _check_propagation_args(y_hat, p, omega)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    q = p.copy()
    for _ in range(t):
        q = omega * (y_hat @ q) + (1.0 - omega) * p
    return SoftTargets(values=q, method=f"iterative({t})")


def soft_targets_closed_form(y_hat: np.ndarray, p: np.ndarray, omega: float) -> SoftTargets:
    """Q = (1-omega) (I - omega Yhat)^{-1} P via a linear solve.

    Yhat is row-stochastic, so the spectral radius of omega*Yhat is at
    most omega < 1 and the system is always solvable.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    _check_propagation_args(y_hat, p, omega)
    a = y_hat * -omega  # I - omega*Yhat, built in one N x N buffer
    # when the caller passed the graph as a temporary, it goes here, before
    # solve copies a: two N x N arrays at the peak, not three
    del y_hat
    a.flat[:: len(a) + 1] += 1.0
    q = (1.0 - omega) * np.linalg.solve(a, p)
    return SoftTargets(values=q, method="closed_form")


def soft_targets(features, logits, omega: float, tau: float, iters: int | None = None) -> SoftTargets:
    """Q for one batch: the similarity graph over features, P = softmax of
    logits/tau, then the closed form, or ``iters`` steps of the iteration.
    The graph is passed on as a call temporary, never held here, so the
    closed form can free it before its solve."""
    if iters is None:
        return soft_targets_closed_form(normalize_similarity(similarity_matrix(features)),
                                        probabilities(logits, tau).values, omega)
    return propagate_iterative(normalize_similarity(similarity_matrix(features)),
                               probabilities(logits, tau).values, omega, iters)


def bke_loss(logits: T.Tensor, hard_labels, q: np.ndarray | None, tau: float, lam: float) -> T.Tensor:
    """CE against hard labels plus lam * tau^2 * mean KL(Q || P).

    Gradients flow only through the logits; Q is a fixed array. Passing
    ``q=None`` (or lam == 0) skips the KL term entirely, which keeps the
    plain-CE path bit-identical to a no-ensembling run.
    """
    labels = np.asarray(hard_labels, dtype=np.int64)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels out of range [0, {k})")

    def xent(targets: np.ndarray, t: float) -> T.Tensor:
        # mean over rows of -sum_j targets_ij log softmax(logits/t)_ij: mean_all
        # spreads the row sums over N*K entries, so scale by -K
        return T.scale(T.mean_all(T.mul(T.Tensor(targets), T.log(T.softmax_rows(logits, t)))), -float(k))

    ce = xent(np.eye(k)[labels], 1.0)
    if lam == 0.0 or q is None:
        return ce

    if isinstance(q, T.Tensor):
        if q.tape is not None:
            raise ValueError("bke_loss: q must be detached")
        q = q.data
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (n, k):
        raise ValueError(f"soft targets shape {q.shape} != logits shape {(n, k)}")
    # constant side of the KL, with the 0 ln 0 = 0 convention
    positive = q > 0.0
    q_log_q = float(np.sum(q[positive] * np.log(q[positive])))
    kl = T.add(xent(q, tau), T.Tensor([q_log_q / n]))
    return T.add(ce, T.scale(kl, lam * tau * tau))


def evaluate_classifier(
    bundle: ModelBundle,
    container: DatasetContainer,
    indices,
    positive_class: int,
    batch_size: int = 64,
) -> dict[str, float]:
    """Sen/Spe/HM/AUC (one-vs-rest) and multi-class Acc on the images of
    ``container`` at ``indices``, scored batch_size at a time; only the
    chunk being scored is converted to floats."""
    if bundle.classifier is None:
        raise ValueError("bundle has no classifier head")
    indices = list(indices)
    labels = container.labels[indices]
    spec = bundle.specs.encoder
    chunks = []
    for start in range(0, len(indices), batch_size):
        images = container.images_at(indices[start : start + batch_size])
        feats = encode(bundle.online_encoder, spec, images)
        chunks.append(mlp_forward(bundle.classifier, feats).data)
    logits = np.concatenate(chunks)
    cm = confusion(logits.argmax(axis=1), labels, bundle.specs.classifier.out_dim)
    # sen_spe_hm_acc range-checks positive_class, so it runs before the column index below
    sen, spe, hm, acc = sen_spe_hm_acc(cm, positive_class)
    scores = T.softmax_rows(logits, 1.0).data[:, positive_class]
    binary = (labels == positive_class).astype(np.int64)
    return {"sen": sen, "spe": spe, "hm": hm, "auc": auc(scores, binary), "acc": acc}


def finetune(
    container: DatasetContainer,
    split: SplitSpec,
    checkpoint,
    config: BkeConfig,
) -> tuple[ModelBundle, list[EpochMetrics], MetricsReport]:
    """Fine-tune the pretrained online encoder with a fresh classifier.

    ``checkpoint`` is a path to a Phase-I checkpoint or a ModelBundle.
    Only the online encoder weights carry over; the head is initialized
    from config.seed. Batches with a single sample fall back to plain CE
    (a one-sample graph has no peers). A batch whose loss or gradients
    cannot be computed raises :class:`CollapseError` naming the epoch and
    the batch's first index.
    """
    if config.positive_class >= container.n_classes:
        raise MetricError(f"positive_class {config.positive_class} out of range "
                          f"[0, {container.n_classes})")
    test_labels = container.labels[list(split.test_indices)]
    n_pos = int((test_labels == config.positive_class).sum())
    if n_pos in (0, len(test_labels)):
        raise MetricError(f"test split holds {n_pos} samples of positive_class "
                          f"{config.positive_class} and {len(test_labels) - n_pos} of other "
                          "classes; sensitivity and specificity need both")
    bundle = checkpoint if isinstance(checkpoint, ModelBundle) else load_checkpoint(Path(checkpoint))
    attach_classifier(bundle, container.n_classes, config.seed)
    optimizer = SgdMomentum(config.learning_rate, config.momentum)
    spec = bundle.specs.encoder
    train_idx = list(split.train_indices)

    history: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        for batch in batches(train_idx, config.batch_size, config.seed, epoch):
            images = container.images_at(batch)
            labels = container.labels[batch]
            try:
                with T.Tape() as tape:
                    trained = {group: tape.leaves(getattr(bundle, group))
                               for group in ("online_encoder", "classifier")}
                    feats = encode(trained["online_encoder"], spec, images)
                    logits = mlp_forward(trained["classifier"], feats)
                    if config.lam > 0.0 and len(batch) >= 2:
                        q = soft_targets(feats.data, logits.data, config.omega, config.tau).values
                    else:
                        q = None
                    loss = bke_loss(logits, labels, q, config.tau, config.lam)
                    grads = tape.backward(loss)
            # labels are checked on load, so a ValueError here is almost always
            # log() meeting a softmax that underflowed to 0
            except (FloatingPointError, ValueError) as exc:
                raise CollapseError(
                    f"finetune failed at epoch {epoch}, batch starting {batch[0]}: {exc}"
                ) from exc
            optimizer.step(bundle, trained, grads)
        try:
            scores = evaluate_classifier(bundle, container, split.test_indices,
                                         config.positive_class)
        except FloatingPointError as exc:
            raise CollapseError(
                f"finetune failed at epoch {epoch}, evaluating the test split: {exc}") from exc
        history.append(EpochMetrics(epoch=epoch, **scores))

    report = MetricsReport.from_history(history)
    return bundle, history, report

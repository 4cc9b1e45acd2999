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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import DatasetContainer, SplitSpec, batches
from .metrics import EpochMetrics, MetricError, MetricsReport, auc, confusion, sen_spe_hm_acc
from .models import (
    ModelBundle,
    attach_classifier,
    classify,
    encode,
    load_checkpoint,
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
        # written as `not x >= 0.0` so that NaN fails them too
        if not self.lam >= 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
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

    Computed on plain values: the graph feeds only the detached targets,
    so it must never carry gradients.
    """
    feats = features.data if isinstance(features, T.Tensor) else np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"similarity_matrix: expected (N, d) features, got {feats.shape}")
    n = len(feats)
    if n < 2:
        raise ValueError("similarity_matrix: need at least 2 rows (no peer knowledge)")
    with np.errstate(over="ignore"):
        norms = np.sqrt((feats * feats).sum(axis=1))
    # squares overflow above ~1e154 and vanish below ~1e-162; the cosine is
    # scale-free, so such rows are divided by their largest |entry| first
    rescale = ~np.isfinite(norms) | (norms == 0.0)
    if np.any(rescale):
        if not feats[rescale].any(axis=1).all():
            raise ValueError("similarity_matrix: zero feature row")
        feats = feats.copy()
        feats[rescale] /= np.abs(feats[rescale]).max(axis=1, keepdims=True)
        norms[rescale] = np.sqrt((feats[rescale] * feats[rescale]).sum(axis=1))
    unit = feats / norms[:, None]
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
    """Row softmax of logits/tau, numerically identical to the taped op."""
    values = logits.data if isinstance(logits, T.Tensor) else np.asarray(logits, dtype=np.float64)
    return ProbMatrix(values=T.softmax_rows(T.Tensor(values), tau).data)


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
    a.flat[:: len(a) + 1] += 1.0
    q = (1.0 - omega) * np.linalg.solve(a, p)
    return SoftTargets(values=q, method="closed_form")


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

    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    # mean_all spreads the row sums over N*K entries; scale by -K to get
    # the mean negative log-likelihood
    ce = T.scale(T.mean_all(T.mul(T.Tensor(onehot), T.log(T.softmax_rows(logits, 1.0)))), -float(k))
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
    p_tau = T.softmax_rows(logits, tau)
    cross = T.scale(T.mean_all(T.mul(T.Tensor(q), T.log(p_tau))), -float(k))
    kl = T.add(cross, T.Tensor([q_log_q / n]))
    return T.add(ce, T.scale(kl, lam * tau * tau))


def _soft_targets_for_batch(features: np.ndarray, logits: np.ndarray, config: BkeConfig) -> np.ndarray:
    y_hat = normalize_similarity(similarity_matrix(features))
    p = probabilities(logits, config.tau).values
    return soft_targets_closed_form(y_hat, p, config.omega).values


def evaluate_classifier(
    bundle: ModelBundle,
    images: np.ndarray,
    labels: np.ndarray,
    positive_class: int,
    batch_size: int = 64,
) -> dict[str, float]:
    """Sen/Spe/HM/AUC (one-vs-rest) and multi-class Acc on a labeled set."""
    if bundle.classifier is None:
        raise ValueError("bundle has no classifier head")
    spec = bundle.specs.encoder
    chunks = []
    for start in range(0, len(images), batch_size):
        feats = encode(bundle.online_encoder, spec, images[start : start + batch_size])
        chunks.append(classify(bundle.classifier, feats).data)
    logits = np.concatenate(chunks)
    cm = confusion(logits.argmax(axis=1), labels, bundle.specs.classifier.out_dim)
    # sen_spe_hm_acc range-checks positive_class, so it runs before the column index below
    sen, spe, hm, acc = sen_spe_hm_acc(cm, positive_class)
    scores = T.softmax_rows(T.Tensor(logits), 1.0).data[:, positive_class]
    binary = (np.asarray(labels) == positive_class).astype(np.int64)
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
    test_images = container.images[list(split.test_indices)]
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
            images = container.images[batch]
            labels = container.labels[batch]
            try:
                with T.Tape() as tape:
                    enc = {name: tape.leaf(bundle.online_encoder[name])
                           for name in sorted(bundle.online_encoder)}
                    head = {name: tape.leaf(bundle.classifier[name])
                            for name in sorted(bundle.classifier)}
                    feats = encode(enc, spec, images)
                    logits = classify(head, feats)
                    if config.lam > 0.0 and len(batch) >= 2:
                        q = _soft_targets_for_batch(feats.data, logits.data, config)
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
            enc_grads = {name: grads[leaf.node_id].data for name, leaf in enc.items()}
            head_grads = {name: grads[leaf.node_id].data for name, leaf in head.items()}
            bundle.online_encoder = optimizer.step(bundle.online_encoder, enc_grads, prefix="enc/")
            bundle.classifier = optimizer.step(bundle.classifier, head_grads, prefix="head/")
        scores = evaluate_classifier(bundle, test_images, test_labels, config.positive_class)
        history.append(EpochMetrics(epoch=epoch, **scores))

    report = MetricsReport.from_history(history, config.positive_class)
    return bundle, history, report

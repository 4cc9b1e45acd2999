"""Output checks for the bke benchmark, computed apart from the package.

Everything here is plain numpy written for the benchmark: the confusion
matrix and its rates, a rank-based AUC, the batch similarity graph, the
temperature softmax, both routes of soft-target propagation, and a
nearest-centroid probe. The benchmark compares the program's artifacts
against these, so a fault shared by the program and its own tests still
shows.
"""

from __future__ import annotations

import math

import numpy as np

SIMPLEX_TOL = 1e-9
PROPAGATION_TOL = 1e-9


def confusion(predicted, true_labels, n_classes: int) -> np.ndarray:
    """counts[t, p]: samples of true class t predicted as p."""
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(np.asarray(true_labels).tolist(), np.asarray(predicted).tolist()):
        counts[t, p] += 1
    return counts


def rates(cm: np.ndarray, positive: int) -> dict[str, float]:
    """One-vs-rest sensitivity, specificity and their harmonic mean, plus
    multi-class accuracy."""
    tp = int(cm[positive, positive])
    fn = int(cm[positive].sum()) - tp
    fp = int(cm[:, positive].sum()) - tp
    tn = int(cm.sum()) - tp - fn - fp
    sen = tp / (tp + fn)
    spe = tn / (tn + fp)
    hm = 0.0 if sen + spe == 0.0 else 2.0 * sen * spe / (sen + spe)
    return {"sen": sen, "spe": spe, "hm": hm, "acc": float(np.trace(cm)) / int(cm.sum())}


def auc(scores, positives) -> float:
    """Mann-Whitney U from average ranks: P(pos > neg) + P(tie) / 2."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positives, dtype=bool)
    values, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = upper - (counts - 1) / 2.0  # 1-based mean rank of each tie group
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    u = avg_rank[inverse][pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def softmax(logits, tau: float) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def graph(features) -> np.ndarray:
    """Row-stochastic batch graph: cosine similarity, exp-normalized over
    each row's off-diagonal entries."""
    f = np.asarray(features, dtype=np.float64)
    unit = f / np.linalg.norm(f, axis=1, keepdims=True)
    w = np.exp(unit @ unit.T)
    np.fill_diagonal(w, 0.0)
    return w / w.sum(axis=1, keepdims=True)


def propagate_closed(y_hat: np.ndarray, p: np.ndarray, omega: float) -> np.ndarray:
    """Q = (1 - omega) (I - omega Yhat)^-1 P."""
    return (1.0 - omega) * np.linalg.solve(np.eye(len(y_hat)) - omega * y_hat, p)


def propagate_fixed_point(y_hat: np.ndarray, p: np.ndarray, omega: float,
                          tol: float = 1e-14) -> np.ndarray:
    """Q <- omega Yhat Q + (1 - omega) P from Q = P, run until the error
    bound omega^t falls below tol (Yhat is row-stochastic)."""
    steps = 1 if omega == 0.0 else math.ceil(math.log(tol) / math.log(omega))
    q = p.copy()
    for _ in range(steps):
        q = omega * (y_hat @ q) + (1.0 - omega) * p
    return q


def simplex_errors(q: np.ndarray) -> list[str]:
    errors = []
    if q.min() < -SIMPLEX_TOL:
        errors.append(f"soft targets have a negative entry {q.min():.3e}")
    drift = np.abs(q.sum(axis=1) - 1.0).max()
    if drift > SIMPLEX_TOL:
        errors.append(f"soft-target rows sum to 1 only within {drift:.3e}")
    return errors


def soft_target_errors(features, logits, tau: float, omega: float, q) -> list[str]:
    """Compare the program's soft targets for one batch with both routes
    computed here from the same features and logits."""
    q = np.asarray(q, dtype=np.float64)
    y_hat = graph(features)
    p = softmax(logits, tau)
    errors = simplex_errors(q)
    for route, ref in (("closed form", propagate_closed(y_hat, p, omega)),
                       ("fixed point", propagate_fixed_point(y_hat, p, omega))):
        gap = np.abs(ref - q).max()
        if gap > PROPAGATION_TOL:
            errors.append(f"N={len(q)}: soft targets differ from the {route} by {gap:.3e}")
    return errors


def nearest_centroid_accuracy(train_feats, train_labels, test_feats, test_labels) -> float:
    train_labels = np.asarray(train_labels)
    classes = np.unique(train_labels)
    centroids = np.stack([train_feats[train_labels == c].mean(axis=0) for c in classes])
    dist = ((test_feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((classes[dist.argmin(axis=1)] == np.asarray(test_labels)).mean())


def collapse_ratio(projections) -> float:
    """Mean per-dimension std of l2-normalized projections, times sqrt(d).

    Unit vectors spread evenly over d dimensions have a per-dimension std
    of 1/sqrt(d), so 1 means no collapse and 0 means one point.
    """
    z = np.asarray(projections, dtype=np.float64)
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    return float(z.std(axis=0).mean() * math.sqrt(z.shape[1]))

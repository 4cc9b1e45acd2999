import json
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bke import ensemble
from bke import tensor as T
from bke.data import SplitSpec, synth_blobs
from bke.ensemble import (
    BkeConfig,
    bke_loss,
    evaluate_classifier,
    finetune,
    normalize_similarity,
    probabilities,
    propagate_iterative,
    similarity_matrix,
    soft_targets,
    soft_targets_closed_form,
)
from bke.metrics import MetricError
from bke.models import BundleSpecs, EncoderSpec, MlpSpec, init_bundle

TINY = BundleSpecs(
    encoder=EncoderSpec(input_side=8, conv_stages=((2, 2), (3, 2))),
    projector=MlpSpec(3, 4, 3),
    predictor=MlpSpec(3, 3, 3),
)


def random_graph(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1, 1, size=(n, n))
    raw = (raw + raw.T) / 2
    np.fill_diagonal(raw, 0.0)
    return normalize_similarity(raw)


def random_probs(n, k, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(n, k))
    return p / p.sum(axis=1, keepdims=True)


# --- similarity graph -----------------------------------------------------------


def test_similarity_matrix_hand_case():
    feats = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
    got = similarity_matrix(feats)
    expected = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    np.testing.assert_allclose(got, expected, atol=1e-15)


def test_similarity_matrix_symmetric_zero_diag():
    feats = np.random.default_rng(0).normal(size=(7, 5))
    got = similarity_matrix(feats)
    np.testing.assert_allclose(got, got.T, atol=1e-15)
    assert np.all(np.diag(got) == 0.0)
    assert np.all(np.abs(got) <= 1.0 + 1e-12)


def test_similarity_matrix_accepts_tensor_and_matches_array():
    feats = np.random.default_rng(1).normal(size=(4, 3))
    with T.Tape() as tape:
        taped = tape.leaf(feats)
        got = similarity_matrix(taped)
    np.testing.assert_array_equal(got, similarity_matrix(feats))


def test_similarity_matrix_rejects_degenerate_input():
    with pytest.raises(ValueError, match="peer"):
        similarity_matrix(np.ones((1, 4)))
    with pytest.raises(ValueError, match="zero feature row"):
        similarity_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_soft_targets_scale_free_at_extreme_magnitudes(scale):
    # squared entries overflow (1e200) or underflow to 0 (1e-170); the
    # cosine graph, and so the soft targets, must not notice
    rng = np.random.default_rng(11)
    feats, logits = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))

    def targets(x):
        y_hat = normalize_similarity(similarity_matrix(x))
        return soft_targets_closed_form(y_hat, probabilities(logits, 1.0).values, 0.5).values

    want = targets(feats)
    one_row = feats.copy()
    one_row[0] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (scale * feats, one_row):
            np.testing.assert_allclose(targets(x), want, rtol=0, atol=1e-12)


def test_normalize_similarity_row_stochastic():
    y = random_graph(6, 2)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diag(y) == 0.0)
    assert np.all(y >= 0.0)


def test_normalize_similarity_equal_offdiagonal_weights():
    # all zero similarities -> uniform weight over the n-1 peers
    y = normalize_similarity(np.zeros((4, 4)))
    expected = (np.ones((4, 4)) - np.eye(4)) / 3.0
    np.testing.assert_allclose(y, expected, atol=1e-15)


# --- propagation ----------------------------------------------------------------


def test_two_point_propagation_hand_case():
    # symmetric 2-point graph pulls both rows to the (2/3, 1/3) blend
    y_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    exact = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
    closed = soft_targets_closed_form(y_hat, p, 0.5)
    np.testing.assert_allclose(closed.values, exact, atol=1e-12)
    iterated = propagate_iterative(y_hat, p, 0.5, 200)
    np.testing.assert_allclose(iterated.values, exact, atol=1e-12)


def test_two_point_propagation_exact_rationals():
    # same fixed point, derived from the geometric series in Fractions
    om = Fraction(1, 2)
    q00 = (1 - om) / (1 - om * om)  # sum over even path lengths
    q01 = om * q00
    assert q00 == Fraction(2, 3) and q01 == Fraction(1, 3)


def test_single_step_matches_update_rule():
    y_hat = random_graph(5, 4)
    p = random_probs(5, 3, 5)
    got = propagate_iterative(y_hat, p, 0.3, 1)
    np.testing.assert_array_equal(got.values, 0.3 * (y_hat @ p) + 0.7 * p)
    assert got.method == "iterative(1)"


def test_omega_zero_returns_p_exactly():
    y_hat = random_graph(4, 6)
    p = random_probs(4, 2, 7)
    np.testing.assert_array_equal(soft_targets_closed_form(y_hat, p, 0.0).values, p)
    np.testing.assert_array_equal(propagate_iterative(y_hat, p, 0.0, 5).values, p)


def test_closed_form_matches_long_iteration():
    for seed in range(5):
        y_hat = random_graph(8, 10 + seed)
        p = random_probs(8, 3, 20 + seed)
        omega = 0.1 + 0.2 * seed
        closed = soft_targets_closed_form(y_hat, p, omega).values
        iterated = propagate_iterative(y_hat, p, omega, 200).values
        assert np.abs(closed - iterated).max() < 1e-9


@pytest.mark.parametrize("n", [2, 16, 512])
def test_in_place_soft_targets_match_out_of_place_expressions(n):
    # the graph and the system matrix are built in place; on training-path
    # graphs the bits must equal the plain expressions kept here
    rng = np.random.default_rng(n)
    raw = similarity_matrix(rng.normal(size=(n, 8)))
    weights = np.exp(raw)
    np.fill_diagonal(weights, 0.0)
    want_y_hat = weights / weights.sum(axis=1, keepdims=True)
    y_hat = normalize_similarity(raw)
    np.testing.assert_array_equal(y_hat, want_y_hat)
    p = random_probs(n, 2, n + 1)
    for omega in (0.0, 0.5, 0.9):
        want = (1.0 - omega) * np.linalg.solve(np.eye(n) - omega * want_y_hat, p)
        closed = soft_targets_closed_form(y_hat, p, omega).values
        np.testing.assert_array_equal(closed, want)
        iterated = propagate_iterative(y_hat, p, omega, 400).values
        assert np.abs(closed - iterated).max() <= 1e-9


def test_propagation_permutation_equivariant():
    rng = np.random.default_rng(8)
    y_hat = random_graph(6, 9)
    p = random_probs(6, 3, 11)
    perm = rng.permutation(6)
    base = soft_targets_closed_form(y_hat, p, 0.6).values
    permuted = soft_targets_closed_form(y_hat[np.ix_(perm, perm)], p[perm], 0.6).values
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


@settings(max_examples=60)
@given(st.integers(0, 2**31), st.floats(0.0, 0.99), st.integers(2, 9))
def test_soft_targets_stay_on_simplex(seed, omega, n):
    y_hat = random_graph(n, seed)
    p = random_probs(n, 3, seed + 1)
    for q in (soft_targets_closed_form(y_hat, p, omega).values,
              propagate_iterative(y_hat, p, omega, 50).values):
        assert np.all(q >= -1e-12)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)


def test_propagation_argument_errors():
    y_hat = random_graph(3, 0)
    p = random_probs(3, 2, 1)
    with pytest.raises(ValueError, match="omega"):
        soft_targets_closed_form(y_hat, p, 1.0)
    with pytest.raises(ValueError, match="square"):
        soft_targets_closed_form(np.ones((2, 3)), p, 0.5)
    with pytest.raises(ValueError, match="probabilities"):
        soft_targets_closed_form(y_hat, random_probs(4, 2, 2), 0.5)
    with pytest.raises(ValueError, match="t must be"):
        propagate_iterative(y_hat, p, 0.5, 0)


def test_probabilities_match_taped_softmax_bitwise():
    logits = np.random.default_rng(12).normal(size=(4, 3)) * 10
    for tau in (0.5, 1.0, 3.0):
        plain = probabilities(logits, tau)
        np.testing.assert_array_equal(
            plain.values, T.softmax_rows(T.Tensor(logits), tau).data
        )


def test_probabilities_record_no_tape_node():
    logits = np.random.default_rng(13).normal(size=(4, 3))
    with T.Tape() as tape:
        taped = tape.leaf(logits)
        before = len(tape)
        probabilities(taped, 2.0)
        probabilities(logits, 2.0)
        assert len(tape) == before


def test_soft_targets_is_the_graph_then_either_route():
    rng = np.random.default_rng(31)
    features, logits = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    y_hat = normalize_similarity(similarity_matrix(features))
    p = probabilities(logits, 1.5).values
    closed = soft_targets(features, logits, 0.6, 1.5)
    assert closed.method == "closed_form"
    np.testing.assert_array_equal(closed.values, soft_targets_closed_form(y_hat, p, 0.6).values)
    for t in (1, 7):
        iterated = soft_targets(features, logits, 0.6, 1.5, iters=t)
        assert iterated.method == f"iterative({t})"
        np.testing.assert_array_equal(iterated.values, propagate_iterative(y_hat, p, 0.6, t).values)


def test_soft_targets_frees_the_graph_before_the_solve(monkeypatch):
    # the normalized graph goes to the closed form as a call temporary, and
    # the closed form drops it once I - omega*Yhat is built: at solve's own
    # copy, two N x N arrays are alive, not three
    rng = np.random.default_rng(37)
    features, logits = rng.normal(size=(64, 4)), rng.normal(size=(64, 3))
    want = soft_targets(features, logits, 0.5, 1.0).values
    normalize, solve = ensemble.normalize_similarity, np.linalg.solve
    graphs, alive_at_solve = [], []

    def normalize_hook(raw):
        y_hat = normalize(raw)
        graphs.append(weakref.ref(y_hat))
        return y_hat

    def solve_hook(a, b):
        alive_at_solve.append(graphs[-1]() is not None)
        return solve(a, b)

    monkeypatch.setattr(ensemble, "normalize_similarity", normalize_hook)
    monkeypatch.setattr(np.linalg, "solve", solve_hook)
    got = soft_targets(features, logits, 0.5, 1.0).values
    assert alive_at_solve == [False]
    np.testing.assert_array_equal(got, want)


def test_traced_benchmark_checks_the_largest_soft_target_batch():
    # bkebench's tracer rebuilds Q from the arrays it captures through
    # similarity_matrix, probabilities and soft_targets_closed_form, so
    # soft_targets has to keep reaching Q through those public functions
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "bkebench/run.py", "--workload", "sweep_batch", "--seed", "4",
         "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout
    assert result["metrics"]["ensemble.soft_targets_max_n"]["value"] == 512


# --- loss -----------------------------------------------------------------------


def ce_oracle(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    return float(-np.log(p[np.arange(len(labels)), labels]).mean())


def kl_oracle(q, logits, tau):
    z = logits / tau
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    terms = np.where(q > 0, q * (np.log(np.where(q > 0, q, 1.0)) - np.log(p)), 0.0)
    return float(terms.sum(axis=1).mean())


def test_lambda_zero_equals_plain_ce():
    logits = np.random.default_rng(13).normal(size=(6, 4))
    labels = np.array([0, 1, 2, 3, 1, 0])
    q = random_probs(6, 4, 14)
    value = bke_loss(T.Tensor(logits), labels, q, tau=1.0, lam=0.0).item()
    assert value == pytest.approx(ce_oracle(logits, labels), abs=1e-12)
    assert value == bke_loss(T.Tensor(logits), labels, None, tau=1.0, lam=3.0).item()


def test_full_loss_matches_numpy_oracle():
    logits = np.random.default_rng(15).normal(size=(5, 3)) * 2
    labels = np.array([2, 0, 1, 1, 0])
    q = random_probs(5, 3, 16)
    for tau, lam in ((1.0, 8.0), (3.0, 1.0), (0.5, 2.5)):
        got = bke_loss(T.Tensor(logits), labels, q, tau=tau, lam=lam).item()
        want = ce_oracle(logits, labels) + lam * tau * tau * kl_oracle(q, logits, tau)
        assert got == pytest.approx(want, rel=1e-12)


def test_kl_term_nonnegative_and_zero_at_match():
    logits = np.random.default_rng(17).normal(size=(4, 3))
    labels = np.zeros(4, dtype=np.int64)
    ce = bke_loss(T.Tensor(logits), labels, None, tau=1.0, lam=0.0).item()
    q_match = probabilities(logits, 2.0).values
    at_match = bke_loss(T.Tensor(logits), labels, q_match, tau=2.0, lam=5.0).item()
    assert at_match == pytest.approx(ce, abs=1e-12)
    q_other = random_probs(4, 3, 18)
    assert bke_loss(T.Tensor(logits), labels, q_other, tau=2.0, lam=5.0).item() > ce


def test_one_hot_soft_targets_use_zero_ln_zero():
    logits = np.random.default_rng(19).normal(size=(3, 3))
    labels = np.array([0, 1, 2])
    q = np.eye(3)
    got = bke_loss(T.Tensor(logits), labels, q, tau=1.0, lam=1.0).item()
    assert np.isfinite(got)
    # with one-hot q the KL reduces to CE against those labels
    assert got == pytest.approx(2.0 * ce_oracle(logits, labels), rel=1e-12)


def test_taped_soft_targets_rejected():
    logits = np.random.default_rng(20).normal(size=(3, 2))
    with T.Tape() as tape:
        q = tape.leaf(random_probs(3, 2, 21))
        with pytest.raises(ValueError, match="detached"):
            bke_loss(tape.leaf(logits), np.array([0, 1, 0]), q, tau=1.0, lam=1.0)


def test_detached_tensor_soft_targets_accepted():
    logits = np.random.default_rng(22).normal(size=(3, 2))
    q = random_probs(3, 2, 23)
    via_tensor = bke_loss(T.Tensor(logits), np.array([0, 1, 0]), T.Tensor(q), tau=1.0, lam=2.0)
    via_array = bke_loss(T.Tensor(logits), np.array([0, 1, 0]), q, tau=1.0, lam=2.0)
    assert via_tensor.item() == via_array.item()


def test_label_validation():
    logits = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="labels"):
        bke_loss(logits, np.array([0]), None, tau=1.0, lam=0.0)
    with pytest.raises(ValueError, match="range"):
        bke_loss(logits, np.array([0, 3]), None, tau=1.0, lam=0.0)


def test_loss_gradient_matches_finite_differences():
    labels = np.array([1, 0, 2, 1])
    q = random_probs(4, 3, 24)
    params = {"logits": np.random.default_rng(25).normal(size=(4, 3))}
    report = T.finite_difference_check(
        lambda p: bke_loss(p["logits"], labels, q, tau=1.7, lam=2.0), params
    )
    assert report.passed, f"max rel err {report.max_rel_err}"


@settings(max_examples=40)
@given(arrays(np.float64, (3, 4), elements=st.floats(-30, 30)))
def test_loss_finite_for_any_logits(logits):
    labels = np.array([0, 1, 3])
    q = random_probs(3, 4, 26)
    assert np.isfinite(bke_loss(T.Tensor(logits), labels, q, tau=1.0, lam=8.0).item())


# --- finetune + evaluate ---------------------------------------------------------


def tiny_setup():
    container = synth_blobs(n_per_class=12, side=8, seed=3)
    labels = container.labels
    train = tuple(int(i) for i in np.concatenate([np.where(labels == c)[0][:8] for c in (0, 1)]))
    test = tuple(int(i) for i in range(len(labels)) if i not in set(train))
    split = SplitSpec(train_indices=train, test_indices=test, fraction=1.0, seed=3)
    return container, split


def tiny_config(**kwargs):
    base = dict(omega=0.5, batch_size=8, lam=1.0, tau=1.0, epochs=2,
                learning_rate=0.2, momentum=0.5, seed=4)
    base.update(kwargs)
    return BkeConfig(**base)


def test_finetune_step_records_no_node_without_edges(monkeypatch):
    # counted through Tape._record, as the benchmark's tracer counts nodes
    nodes = []
    record = T.Tape._record

    def counting_record(tape, kind, edges, shape):
        nodes.append((kind, len(edges)))
        return record(tape, kind, edges, shape)

    monkeypatch.setattr(T.Tape, "_record", counting_record)
    container, split = tiny_setup()
    finetune(container, split, init_bundle(TINY, 5), tiny_config(epochs=1))
    assert nodes and all(kind == "leaf" or n_edges for kind, n_edges in nodes)
    # 16 train images in two batches of 8: a CE and a KL softmax on the tape
    # per batch, while the soft targets' softmax stays off it
    assert sum(kind == "softmax_rows" for kind, _ in nodes) == 4


def test_finetune_deterministic():
    container, split = tiny_setup()
    runs = []
    for _ in range(2):
        bundle, history, report = finetune(container, split, init_bundle(TINY, 5), tiny_config())
        runs.append((bundle, history, report))
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
    for k in runs[0][0].online_encoder:
        np.testing.assert_array_equal(runs[0][0].online_encoder[k], runs[1][0].online_encoder[k])
    for k in runs[0][0].classifier:
        np.testing.assert_array_equal(runs[0][0].classifier[k], runs[1][0].classifier[k])


def test_finetune_history_and_report_shape():
    container, split = tiny_setup()
    config = tiny_config(epochs=3)
    _, history, report = finetune(container, split, init_bundle(TINY, 5), config)
    assert [h.epoch for h in history] == [0, 1, 2]
    assert report.window == 3
    assert set(report.means) == {"sen", "spe", "hm", "auc", "acc"}
    for value in report.means.values():
        assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("positive_class,n_pos,n_neg", [(0, 0, 4), (1, 4, 0)])
def test_finetune_test_split_without_both_sides_fails_before_training(
        monkeypatch, positive_class, n_pos, n_neg):
    container, split = tiny_setup()
    only_ones = tuple(int(i) for i in split.test_indices if container.labels[i] == 1)
    split = replace(split, test_indices=only_ones)
    calls = []
    monkeypatch.setattr("bke.ensemble.bke_loss", lambda *a: calls.append(1))
    with pytest.raises(MetricError, match=rf"holds {n_pos} samples of positive_class "
                                          rf"{positive_class} and {n_neg} of other classes"):
        finetune(container, split, init_bundle(TINY, 5), tiny_config(positive_class=positive_class))
    assert calls == []


def test_finetune_lambda_zero_ignores_omega():
    container, split = tiny_setup()
    histories = []
    for omega in (0.1, 0.9):
        _, history, _ = finetune(container, split, init_bundle(TINY, 5),
                                 tiny_config(lam=0.0, omega=omega))
        histories.append(history)
    assert histories[0] == histories[1]


def test_finetune_single_sample_batches_fall_back_to_ce():
    # batch_size 1 means every graph is a singleton: must not raise
    container, split = tiny_setup()
    _, history, _ = finetune(container, split, init_bundle(TINY, 5),
                             tiny_config(batch_size=1, epochs=1))
    assert len(history) == 1


def test_finetune_updates_encoder_and_head():
    container, split = tiny_setup()
    start = init_bundle(TINY, 5)
    before = {k: v.copy() for k, v in start.online_encoder.items()}
    bundle, _, _ = finetune(container, split, start, tiny_config(epochs=1))
    assert any(not np.array_equal(bundle.online_encoder[k], before[k]) for k in before)
    assert bundle.classifier is not None


def test_evaluate_classifier_requires_head():
    container, split = tiny_setup()
    with pytest.raises(ValueError, match="classifier"):
        evaluate_classifier(init_bundle(TINY, 5), container, range(len(container)), 0)


def test_evaluate_classifier_batch_size_invariant():
    container, split = tiny_setup()
    bundle, _, _ = finetune(container, split, init_bundle(TINY, 5), tiny_config(epochs=1))
    full = evaluate_classifier(bundle, container, range(len(container)), 0, batch_size=64)
    chunked = evaluate_classifier(bundle, container, range(len(container)), 0, batch_size=5)
    assert full == chunked


def test_config_validation_errors():
    with pytest.raises(ValueError, match="omega"):
        BkeConfig(omega=1.0)
    with pytest.raises(ValueError, match="tau"):
        BkeConfig(tau=0.0)
    with pytest.raises(ValueError, match="lam"):
        BkeConfig(lam=-0.5)
    with pytest.raises(ValueError, match="positive_class"):
        BkeConfig(positive_class=-1)


@pytest.mark.parametrize("name", ["omega", "lam", "tau", "learning_rate", "momentum"])
def test_config_rejects_nan(name):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda" if name == "lam" else name):
            BkeConfig(**{name: bad})


@pytest.mark.parametrize("momentum", [1.5, -0.1, 1.0, float("nan")])
def test_config_rejects_momentum_outside_unit_interval(momentum):
    with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\)"):
        BkeConfig(momentum=momentum)


def test_configs_are_frozen_and_checked_on_replace():
    config = BkeConfig()
    with pytest.raises(FrozenInstanceError):
        config.omega = 1.0
    with pytest.raises(ValueError, match="omega must be in"):
        replace(config, omega=1.0)

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bke.metrics import (
    EpochMetrics,
    MetricError,
    MetricsReport,
    auc,
    confusion,
    read_epoch_csv,
    sen_spe_hm_acc,
    write_epoch_csv,
    write_report_json,
)


def history_fixture(n):
    rng = np.random.default_rng(0)
    return [
        EpochMetrics(epoch=i, sen=rng.uniform(), spe=rng.uniform(),
                     hm=rng.uniform(), auc=rng.uniform(), acc=rng.uniform())
        for i in range(n)
    ]


# --- confusion -----------------------------------------------------------------


def test_confusion_hand_case():
    pred = np.array([0, 1, 1, 2, 0])
    true = np.array([0, 1, 2, 2, 1])
    got = confusion(pred, true, 3)
    want = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    np.testing.assert_array_equal(got, want)
    assert got.sum() == 5


def test_confusion_errors():
    with pytest.raises(MetricError, match="shape"):
        confusion([0, 1], [0], 2)
    with pytest.raises(MetricError, match="no samples"):
        confusion([], [], 2)
    with pytest.raises(MetricError, match="out of range"):
        confusion([0, 2], [0, 1], 2)


# --- sen / spe / hm / acc --------------------------------------------------------


def test_binary_rates_hand_case():
    # positives: 990 hit, 10 missed; negatives: 971 hit, 29 missed
    cm = np.array([[990, 10], [29, 971]])
    sen, spe, hm, acc = sen_spe_hm_acc(cm, positive_class=0)
    assert sen == pytest.approx(0.990)
    assert spe == pytest.approx(0.971)
    assert round(hm, 3) == 0.980
    assert acc == pytest.approx((990 + 971) / 2000)


def test_swapping_positive_class_swaps_sen_spe():
    cm = np.array([[8, 2], [3, 7]])
    sen0, spe0, _, acc0 = sen_spe_hm_acc(cm, 0)
    sen1, spe1, _, acc1 = sen_spe_hm_acc(cm, 1)
    assert (sen0, spe0) == (spe1, sen1)
    assert acc0 == acc1


def test_multiclass_accuracy_is_not_binarized():
    cm = np.array([[5, 0, 0], [0, 0, 5], [0, 0, 5]])
    sen, spe, hm, acc = sen_spe_hm_acc(cm, positive_class=0)
    assert sen == 1.0 and spe == 1.0 and hm == 1.0
    assert acc == pytest.approx(10 / 15)


def test_degenerate_supports_raise():
    with pytest.raises(MetricError, match="sensitivity"):
        sen_spe_hm_acc(np.array([[0, 0], [1, 9]]), 0)
    with pytest.raises(MetricError, match="specificity"):
        sen_spe_hm_acc(np.array([[9, 1], [0, 0]]), 0)


def test_hm_zero_when_both_rates_zero():
    cm = np.array([[0, 5], [5, 0]])
    sen, spe, hm, _ = sen_spe_hm_acc(cm, 0)
    assert sen == 0.0 and spe == 0.0 and hm == 0.0


@settings(max_examples=60)
@given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 40), st.integers(1, 40))
def test_hm_between_min_and_max(tp, fn, fp, tn):
    cm = np.array([[tp, fn], [fp, tn]])
    sen, spe, hm, _ = sen_spe_hm_acc(cm, 0)
    assert min(sen, spe) - 1e-12 <= hm <= max(sen, spe) + 1e-12


def test_validation_errors():
    with pytest.raises(MetricError, match="square"):
        sen_spe_hm_acc(np.zeros((2, 3)), 0)
    with pytest.raises(MetricError, match="positive_class"):
        sen_spe_hm_acc(np.eye(2), 2)


# --- auc ------------------------------------------------------------------------


def test_auc_hand_case():
    scores = np.array([0.9, 0.4, 0.7, 0.2])
    labels = np.array([1, 1, 0, 0])
    # pairs: (.9,.7) win, (.9,.2) win, (.4,.7) loss, (.4,.2) win
    assert auc(scores, labels) == pytest.approx(0.75)


def test_auc_ties_count_half():
    assert auc(np.array([0.5, 0.5]), np.array([1, 0])) == pytest.approx(0.5)


def test_auc_perfect_and_inverted():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert auc(scores, labels) == 1.0
    assert auc(-scores, labels) == 0.0


def test_auc_invariant_to_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.uniform(size=30)
    labels = (rng.uniform(size=30) > 0.5).astype(np.int64)
    labels[:2] = [0, 1]  # both classes present
    base = auc(scores, labels)
    assert auc(np.exp(5 * scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(np.log(scores + 1e-9), labels) == pytest.approx(base, abs=1e-12)


def test_auc_single_class_rejected():
    with pytest.raises(MetricError, match="both classes"):
        auc(np.array([0.1, 0.9]), np.array([1, 1]))


def test_auc_complement_property():
    rng = np.random.default_rng(2)
    scores = rng.uniform(size=20)
    labels = np.array([0, 1] * 10)
    assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


# --- report + files ----------------------------------------------------------------


def test_report_uses_last_window_epochs():
    history = history_fixture(25)
    report = MetricsReport.from_history(history)
    assert report.window == 10
    tail = history[-10:]
    for name in ("sen", "spe", "hm", "auc", "acc"):
        values = np.array([getattr(em, name) for em in tail])
        assert report.means[name] == pytest.approx(values.mean(), abs=1e-15)
        assert report.variances[name] == pytest.approx(values.var(), abs=1e-15)


def test_report_short_history_uses_all():
    history = history_fixture(4)
    report = MetricsReport.from_history(history)
    assert report.window == 4


def test_report_variance_is_population_variance():
    history = [
        EpochMetrics(epoch=i, sen=v, spe=v, hm=v, auc=v, acc=v)
        for i, v in enumerate((0.0, 1.0))
    ]
    report = MetricsReport.from_history(history)
    assert report.variances["acc"] == pytest.approx(0.25)  # not 0.5 (sample var)


def test_report_empty_history_rejected():
    with pytest.raises(MetricError, match="empty"):
        MetricsReport.from_history([])


def test_epoch_csv_round_trip(tmp_path):
    history = history_fixture(7)
    path = tmp_path / "metrics.csv"
    write_epoch_csv(history, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,sen,spe,hm,auc,acc"
    assert len(lines) == 8
    assert read_epoch_csv(path) == history  # %.17g round-trips float64 exactly


def test_epoch_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epoch,sen\n0,1.0\n")
    with pytest.raises(MetricError, match="header"):
        read_epoch_csv(path)


def test_report_json_layout(tmp_path):
    report = MetricsReport.from_history(history_fixture(12))
    path = tmp_path / "report.json"
    write_report_json(report, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"sen", "spe", "hm", "auc", "acc"}
    for name, entry in doc.items():
        assert set(entry) == {"mean", "variance"}
        assert entry["mean"] == report.means[name]
        assert entry["variance"] == report.variances[name]


def test_report_json_byte_stable(tmp_path):
    report = MetricsReport.from_history(history_fixture(12))
    write_report_json(report, tmp_path / "a.json")
    write_report_json(report, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

"""Hand-checkable cases for the benchmark's own checkers.

Run from the repository root with ``python3 -m pytest bkebench``.
"""

import math

import numpy as np
import pytest

import checks

TWO_POINT_Q = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0


def test_two_point_graph_links_each_point_to_the_other():
    y_hat = checks.graph(np.array([[1.0, 0.0], [0.3, 0.7]]))
    assert np.array_equal(y_hat, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("route", [checks.propagate_closed, checks.propagate_fixed_point])
def test_two_point_propagation(route):
    # N=2, omega=0.5, P=I: Q = 0.5 (I - 0.5 Yhat)^-1 = [[2/3, 1/3], [1/3, 2/3]]
    q = route(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2), 0.5)
    assert np.abs(q - TWO_POINT_Q).max() <= 1e-12


def test_soft_target_check_accepts_the_exact_answer_and_rejects_a_perturbed_one():
    features = np.array([[1.0, 0.0], [0.0, 1.0]])
    logits = np.log(np.array([[1.0, 1e-300], [1e-300, 1.0]]))  # P = I to double precision
    assert checks.soft_target_errors(features, logits, 1.0, 0.5, TWO_POINT_Q) == []
    off = TWO_POINT_Q + np.array([[1e-6, -1e-6], [0.0, 0.0]])
    errors = checks.soft_target_errors(features, logits, 1.0, 0.5, off)
    assert len(errors) == 2 and all("differ" in e for e in errors)


def test_simplex_errors():
    assert checks.simplex_errors(TWO_POINT_Q) == []
    assert len(checks.simplex_errors(np.array([[1.1, -0.1], [0.5, 0.6]]))) == 2


def test_confusion_rates_with_known_sen_spe_hm():
    # 1000 positives (class 0) with 10 missed, 1000 negatives with 29 false alarms
    true = np.array([0] * 1000 + [1] * 1000)
    pred = np.array([0] * 990 + [1] * 10 + [0] * 29 + [1] * 971)
    cm = checks.confusion(pred, true, 2)
    assert cm.tolist() == [[990, 10], [29, 971]]
    r = checks.rates(cm, 0)
    assert (r["sen"], r["spe"]) == (0.99, 0.971)
    assert math.isclose(r["hm"], 2 * 0.99 * 0.971 / (0.99 + 0.971), rel_tol=1e-15)
    assert round(r["hm"], 3) == 0.980
    assert r["acc"] == 1961 / 2000


def test_auc_by_hand():
    # positives 0.9, 0.4; negatives 0.7, 0.2: 3 of 4 pairs ordered
    assert checks.auc([0.9, 0.4, 0.7, 0.2], [True, True, False, False]) == 0.75
    # a tie between a positive and a negative counts one half
    assert checks.auc([0.5, 0.5], [True, False]) == 0.5


def test_nearest_centroid_and_collapse_ratio():
    train = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    acc = checks.nearest_centroid_accuracy(train, [0, 0, 1, 1], np.array([[1.0, 0.5], [9.0, 0.5]]), [0, 1])
    assert acc == 1.0
    assert checks.collapse_ratio(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])) == pytest.approx(1.0)
    assert checks.collapse_ratio(np.array([[2.0, 1.0], [2.0, 1.0]])) == 0.0

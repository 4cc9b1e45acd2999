import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bke import tensor as T


def finite_arrays(shape, lo=-10.0, hi=10.0):
    return arrays(
        np.float64, shape,
        elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )


# --- tape mechanics ----------------------------------------------------------


def test_nodes_recorded_in_execution_order():
    with T.Tape() as tape:
        a = tape.leaf([1.0, 2.0])
        b = T.scale(a, 2.0)
        c = T.add(a, b)
        assert (a.node_id, b.node_id, c.node_id) == (0, 1, 2)
        assert len(tape) == 3


def test_diamond_graph_accumulates_both_paths():
    # y = x*x: the same node feeds both mul slots, so both edges must fire
    with T.Tape() as tape:
        x = tape.leaf([3.0, -2.0])
        y = T.mean_all(T.mul(x, x))
        grads = tape.backward(y)
    np.testing.assert_allclose(grads[x.node_id].data, np.array([3.0, -2.0]))


def test_add_same_leaf_twice_doubles_gradient():
    with T.Tape() as tape:
        x = tape.leaf([1.0, 1.0])
        loss = T.mean_all(T.add(x, x))
        grads = tape.backward(loss)
    np.testing.assert_allclose(grads[x.node_id].data, np.full(2, 1.0))


def test_unreachable_leaf_gets_exact_zeros():
    with T.Tape() as tape:
        used = tape.leaf([1.0, 2.0])
        unused = tape.leaf(np.ones((2, 3)))
        grads = tape.backward(T.mean_all(used))
    g = grads[unused.node_id].data
    assert g.shape == (2, 3)
    assert np.all(g == 0.0)


def test_detach_stops_gradient_exactly():
    with T.Tape() as tape:
        x = tape.leaf([2.0, 5.0])
        frozen = T.detach(T.scale(x, 3.0))
        loss = T.mean_all(T.mul(frozen, x))
        grads = tape.backward(loss)
    # only the undetached factor contributes: d/dx mean(c * x) = c / n
    np.testing.assert_allclose(grads[x.node_id].data, np.array([3.0, 7.5]))


def test_backward_rejects_nonscalar_loss():
    with T.Tape() as tape:
        x = tape.leaf([1.0, 2.0])
        y = T.scale(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


def test_backward_rejects_foreign_tensor():
    with T.Tape() as tape:
        tape.leaf([1.0])
        with pytest.raises(ValueError, match="not attached"):
            tape.backward(T.Tensor([1.0]))


def test_no_tape_means_plain_values():
    out = T.add(T.Tensor([1.0]), T.Tensor([2.0]))
    assert out.tape is None
    assert out.item() == 3.0
    assert not T.tape_active()
    with T.Tape():
        assert T.tape_active()


def test_constants_inside_tape_carry_no_edges():
    with T.Tape() as tape:
        x = tape.leaf([1.0, 2.0])
        c = T.Tensor([5.0, 5.0])
        loss = T.mean_all(T.mul(x, c))
        grads = tape.backward(loss)
    np.testing.assert_allclose(grads[x.node_id].data, np.array([2.5, 2.5]))


# --- forward values ----------------------------------------------------------


def test_primitive_forward_values():
    np.testing.assert_allclose(T.sub([3.0, 1.0], [1.0, 4.0]).data, [2.0, -3.0])
    np.testing.assert_allclose(T.relu([-1.0, 0.0, 2.0]).data, [0.0, 0.0, 2.0])
    np.testing.assert_allclose(T.mean_all([[1.0, 2.0], [3.0, 4.0]]).data, [2.5])
    np.testing.assert_allclose(T.sum_rows([[1.0, 2.0], [3.0, 4.0]]).data, [3.0, 7.0])
    np.testing.assert_allclose(
        T.matmul([[1.0, 2.0]], [[3.0], [4.0]]).data, [[11.0]]
    )
    np.testing.assert_allclose(T.log([1.0, np.e]).data, [0.0, 1.0])
    np.testing.assert_allclose(
        T.reshape([[1.0, 2.0], [3.0, 4.0]], (4,)).data, [1.0, 2.0, 3.0, 4.0]
    )


def test_add_broadcasts_bias_across_rows():
    out = T.add([[1.0, 2.0], [3.0, 4.0]], [10.0, 20.0])
    np.testing.assert_allclose(out.data, [[11.0, 22.0], [13.0, 24.0]])
    with T.Tape() as tape:
        b = tape.leaf([10.0, 20.0])
        loss = T.mean_all(T.add(np.ones((3, 2)), b))
        grads = tape.backward(loss)
    # bias gradient sums over the broadcast rows
    np.testing.assert_allclose(grads[b.node_id].data, [0.5, 0.5])


def test_add_rejects_incompatible_shapes():
    with pytest.raises(ValueError, match="incompatible"):
        T.add(np.ones((2, 3)), np.ones((3, 2)))


def test_softmax_handles_huge_logits():
    out = T.softmax_rows([[1000.0, 1000.0 + np.log(2.0)]], 1.0)
    np.testing.assert_allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)


def test_softmax_temperature_flattens():
    sharp = T.softmax_rows([[3.0, 0.0]], 1.0).data
    flat = T.softmax_rows([[3.0, 0.0]], 1e6).data
    assert sharp[0, 0] > 0.95
    np.testing.assert_allclose(flat, 0.5, atol=1e-6)


def test_softmax_requires_positive_tau():
    with pytest.raises(ValueError, match="tau"):
        T.softmax_rows([[1.0, 2.0]], 0.0)


def test_l2_normalize_rejects_zero_row():
    with pytest.raises(ValueError, match="zero-norm"):
        T.l2_normalize_rows([[0.0, 0.0], [1.0, 0.0]])


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        T.log([0.0, 1.0])


def test_nonfinite_result_raises():
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        T.mul(np.full((2,), 1e300), np.full((2,), 1e300))
    with pytest.raises(FloatingPointError):
        T.Tensor([np.nan])


def test_global_avg_pool_value():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    np.testing.assert_allclose(T.global_avg_pool(x).data, [[7.5]])


def test_primitive_dispatcher():
    out = T.primitive("elementwise_mul", ([1.0, 2.0], [3.0, 4.0]))
    np.testing.assert_allclose(out.data, [3.0, 8.0])
    with pytest.raises(ValueError, match="unknown primitive"):
        T.primitive("fft", ([1.0],))
    assert len(T.PRIMITIVE_KINDS) == 14


# --- conv2d against a naive direct implementation ----------------------------


def naive_conv2d(x, w, b, stride, pad):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for oi in range(cout):
            for yi in range(ho):
                for xi in range(wo):
                    patch = xp[ni, :, yi * stride : yi * stride + kh, xi * stride : xi * stride + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum() + b[oi]
    return out


def naive_conv2d_grads(x, w, g, stride, pad):
    """Scatter each output gradient back over its receptive field."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ni in range(n):
        for oi in range(cout):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    rows = slice(yi * stride, yi * stride + kh)
                    cols = slice(xi * stride, xi * stride + kw)
                    dxp[ni, :, rows, cols] += g[ni, oi, yi, xi] * w[oi]
                    dw[oi] += g[ni, oi, yi, xi] * xp[ni, :, rows, cols]
    return dxp[:, :, pad : pad + h, pad : pad + wd], dw, g.sum(axis=(0, 2, 3))


CONV_CASES = [(1, 0), (1, 1), (2, 1), (2, 0)]


@pytest.mark.parametrize("stride,pad", CONV_CASES)
def test_conv2d_matches_naive(stride, pad):
    rng = np.random.default_rng(7 + stride + 10 * pad)
    x = rng.normal(size=(2, 3, 6, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = T.conv2d(x, w, b, stride=stride, pad=pad).data
    np.testing.assert_allclose(got, naive_conv2d(x, w, b, stride, pad), atol=1e-12)


@pytest.mark.parametrize("stride,pad", CONV_CASES)
def test_conv2d_gradients_match_naive(stride, pad):
    rng = np.random.default_rng(17 + stride + 10 * pad)
    x = rng.normal(size=(2, 3, 6, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    with T.Tape() as tape:
        leaves = [tape.leaf(v) for v in (x, w, b)]
        y = T.conv2d(*leaves, stride=stride, pad=pad)
        g = rng.normal(size=y.shape)
        # d(sum(y * g))/dy = g, so backward hands each vjp exactly g
        loss = T.scale(T.mean_all(T.mul(y, T.Tensor(g))), float(g.size))
        grads = tape.backward(loss)
    want = naive_conv2d_grads(x, w, g, stride, pad)
    for leaf, expected in zip(leaves, want):
        np.testing.assert_allclose(grads[leaf.node_id].data, expected, rtol=0, atol=1e-12)
    if (stride, pad) == (2, 0):
        # the last input row lies in no window
        assert not np.any(grads[leaves[0].node_id].data[:, :, -1, :])


@pytest.mark.parametrize("stride,pad", CONV_CASES)
def test_gradcheck_conv2d_all_inputs(stride, pad):
    rng = np.random.default_rng(23 + stride + 10 * pad)
    params = {
        "x": rng.normal(size=(2, 3, 6, 5)),
        "w": rng.normal(size=(2, 3, 3, 3)) * 0.5,
        "b": rng.normal(size=2),
    }

    def f(p):
        y = T.conv2d(p["x"], p["w"], p["b"], stride=stride, pad=pad)
        return T.mean_all(T.mul(y, y))

    report = T.finite_difference_check(f, params)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"
    assert report.n_components == 2 * 3 * 6 * 5 + 2 * 3 * 3 * 3 + 2


def test_conv2d_shape_errors():
    with pytest.raises(ValueError, match="channels"):
        T.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ValueError, match="bias"):
        T.conv2d(np.ones((1, 3, 4, 4)), np.ones((1, 3, 3, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="too small"):
        T.conv2d(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)), np.zeros(1))


# --- gradients vs finite differences -----------------------------------------


def test_gradcheck_composite_mlp_loss():
    rng = np.random.default_rng(3)
    params = {
        "w1": rng.normal(size=(4, 5)),
        "b1": rng.normal(size=5),
        "w2": rng.normal(size=(5, 3)),
        "b2": rng.normal(size=3),
    }
    x = rng.normal(size=(6, 4))

    def f(p):
        h = T.relu(T.add(T.matmul(T.Tensor(x), p["w1"]), p["b1"]))
        out = T.add(T.matmul(h, p["w2"]), p["b2"])
        probs = T.softmax_rows(out, 1.7)
        return T.scale(T.mean_all(T.mul(probs, T.log(probs))), -1.0)

    report = T.finite_difference_check(f, params)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"
    assert report.n_components == 4 * 5 + 5 + 5 * 3 + 3


def test_gradcheck_conv_pipeline():
    rng = np.random.default_rng(5)
    params = {
        "w": rng.normal(size=(2, 1, 3, 3)) * 0.5,
        "b": rng.normal(size=2),
    }
    x = rng.normal(size=(2, 1, 5, 5))

    def f(p):
        y = T.relu(T.conv2d(T.Tensor(x), p["w"], p["b"], stride=2, pad=1))
        return T.mean_all(T.mul(T.global_avg_pool(y), T.global_avg_pool(y)))

    report = T.finite_difference_check(f, params)
    assert report.passed, f"max rel err {report.max_rel_err}"


def test_gradcheck_normalize_and_sub():
    rng = np.random.default_rng(11)
    params = {"a": rng.normal(size=(3, 4)), "v": rng.normal(size=(3, 4))}

    def f(p):
        d = T.sub(T.l2_normalize_rows(p["a"]), T.l2_normalize_rows(p["v"]))
        return T.mean_all(T.mul(d, d))

    report = T.finite_difference_check(f, params)
    assert report.passed, f"max rel err {report.max_rel_err}"


def test_gradcheck_sum_rows_reshape():
    rng = np.random.default_rng(13)
    params = {"m": rng.normal(size=(2, 6))}

    def f(p):
        r = T.reshape(p["m"], (3, 4))
        return T.mean_all(T.mul(T.sum_rows(r), T.sum_rows(r)))

    report = T.finite_difference_check(f, params)
    assert report.passed, f"max rel err {report.max_rel_err}"


def test_gradcheck_catches_wrong_gradient():
    # negative control: a term that only exists while the tape records
    params = {"w": np.array([1.0, 2.0, 3.0])}

    def lying(p):
        loss = T.mean_all(T.mul(p["w"], p["w"]))
        if T.tape_active():
            loss = T.add(loss, T.scale(T.mean_all(p["w"]), 0.5))
        return loss

    report = T.finite_difference_check(lying, params)
    assert not report.passed
    assert report.worst_param == "w"


# --- property tests -----------------------------------------------------------


@settings(max_examples=50)
@given(finite_arrays((3, 5)))
def test_softmax_rows_are_distributions(x):
    p = T.softmax_rows(x, 2.0).data
    assert np.all(p > 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=50)
@given(finite_arrays((4, 3), lo=-5.0, hi=5.0))
def test_l2_normalized_rows_are_unit(x):
    x = x + np.where(x.sum(axis=1, keepdims=True) >= 0, 1e-3, -1e-3)  # avoid zero rows
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms < 1e-6):
        return
    out = T.l2_normalize_rows(x).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


@settings(max_examples=50)
@given(finite_arrays((2, 3)))
def test_relu_idempotent_and_nonnegative(x):
    once = T.relu(x).data
    assert np.all(once >= 0.0)
    np.testing.assert_array_equal(T.relu(once).data, once)


@settings(max_examples=50)
@given(finite_arrays((2, 3)), finite_arrays((2, 3)))
def test_mean_all_is_linear(a, b):
    lhs = T.mean_all(a + b).item()
    rhs = T.mean_all(a).item() + T.mean_all(b).item()
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_matmul_gradcheck_random(seed):
    rng = np.random.default_rng(seed)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(3, 2))}

    def f(p):
        return T.mean_all(T.matmul(p["a"], p["b"]))

    assert T.finite_difference_check(f, params).passed

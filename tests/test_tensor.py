import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import as_strided

from bke import tensor as T
from bke.models import BundleSpecs, encode, init_bundle, mlp_forward


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


def test_second_backward_on_a_tape_raises():
    # a replayed tape has dropped its edges, so a silent second pass would
    # return all-zero gradients
    with T.Tape() as tape:
        x = tape.leaf([1.0, 2.0])
        loss = T.mean_all(T.scale(x, 3.0))
        grads = tape.backward(loss)
        with pytest.raises(RuntimeError, match="already replayed"):
            tape.backward(loss)
    np.testing.assert_allclose(grads[x.node_id].data, [1.5, 1.5])


def test_rejected_loss_leaves_the_tape_usable():
    with T.Tape() as tape:
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(T.scale(x, 2.0))
        grads = tape.backward(T.mean_all(x))
    np.testing.assert_allclose(grads[x.node_id].data, [0.5, 0.5])


def test_backward_frees_each_gradient_once_used():
    # a 20-node chain over a 100k-element leaf: holding every node's
    # gradient until the end would take 20 arrays
    n, depth, factor = 100_000, 20, 1.01
    array_bytes = 8 * n
    with T.Tape() as tape:
        x = tape.leaf(np.ones(n))
        t = x
        for _ in range(depth):
            t = T.scale(t, factor)
        loss = T.mean_all(t)
        del t
        tracemalloc.start()
        try:
            grads = tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * array_bytes, f"backward peaked at {peak / array_bytes:.1f} arrays"
    expected = np.full(n, 1.0 / n)
    for _ in range(depth):
        expected = expected * factor
    np.testing.assert_array_equal(grads[x.node_id].data, expected)


def test_conv2d_keeps_at_most_one_chunk_of_columns(monkeypatch):
    # the node keeps the input's NHWC view and the last chunk's columns;
    # the weight vjp unfolds the other chunks again, and the input vjp
    # builds one chunk's column gradient at a time
    rng = np.random.default_rng(3)
    x, w, b = rng.normal(size=(64, 8, 8, 8)), rng.normal(size=(4, 8, 3, 3)), rng.normal(size=4)
    row = 8 * 8 * 3 * 3 * 8  # column entries per image: 8x8 outputs, 3x3x8 taps
    monkeypatch.setattr(T, "_CONV_CHUNK_ELEMENTS", 7 * row)  # 9 chunks of 7 images, then 1
    chunk_bytes, cols_bytes = 8 * 7 * row, 8 * 64 * row
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            leaves = [tape.leaf(v) for v in (x, w, b)]
            start = tracemalloc.get_traced_memory()[0]
            y = T.conv2d(*leaves, stride=1, pad=1)
            loss = T.mean_all(y)
            del y
            held = tracemalloc.get_traced_memory()[0] - start
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # slack for the reshaped weight, the closures and the chunk bounds
    assert held < chunk_bytes + 16384, f"node held {held / chunk_bytes:.2f} chunks of columns"
    assert peak < cols_bytes, f"forward + backward peaked at {peak / cols_bytes:.2f} column matrices"


def test_conv2d_peaks_at_its_output_and_one_chunk_of_columns(monkeypatch):
    # forward: the output, one chunk's columns (each loop drops a chunk's
    # columns before it builds the next), the reshaped weight and the
    # output's finiteness mask; no padded copy of the input.
    # backward: the output gradient, the input gradient, one chunk's column
    # gradient (or re-unfolded columns) and the chunk's output gradient in
    # channels-last order.
    rng = np.random.default_rng(37)
    x = np.ascontiguousarray(rng.normal(size=(64, 8, 8, 16))).transpose(0, 3, 1, 2)
    w, b = rng.normal(size=(32, 16, 3, 3)), rng.normal(size=32)
    images_per_chunk(monkeypatch, x.shape, w.shape, 1, 1, 8)
    T.conv2d(x[:1], w, b, stride=1, pad=1)  # the geometry's plan is cached from here on
    out_bytes, chunk_bytes = 8 * 64 * 32 * 8 * 8, 8 * 8 * 8 * 8 * 3 * 3 * 16
    w2_bytes, mask_bytes, dx_bytes = 8 * w.size, out_bytes // 8, 8 * x.size
    g_chunk_bytes = out_bytes * 8 // 64  # 8 of the 64 images
    slack = 128 * 1024  # numpy's ufunc buffers, the closures and the chunk bounds
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            leaves = [tape.leaf(v) for v in (x, w, b)]
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y = T.conv2d(*leaves, stride=1, pad=1)
            forward = tracemalloc.get_traced_memory()[1] - start
            loss = T.mean_all(y)
            del y
            tracemalloc.reset_peak()
            tape.backward(loss)
            backward = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    forward_bound = out_bytes + chunk_bytes + w2_bytes + mask_bytes + slack
    backward_bound = out_bytes + dx_bytes + chunk_bytes + g_chunk_bytes + w2_bytes + slack
    assert forward < forward_bound, f"forward peaked at {forward / chunk_bytes:.2f} chunks"
    assert backward < backward_bound, f"backward peaked at {backward / chunk_bytes:.2f} chunks"


def test_conv_plan_is_read_only_and_one_per_geometry():
    rng = np.random.default_rng(43)
    w, b = rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2)
    T.conv2d(rng.normal(size=(1, 3, 11, 9)), w, b, stride=2, pad=2)
    planned = T._conv_plan.cache_info().misses
    for n in (2, 7, 64):
        T.conv2d(rng.normal(size=(n, 3, 11, 9)), w, b, stride=2, pad=2)
    assert T._conv_plan.cache_info().misses == planned
    taps = T._conv_plan(11, 9, 3, 3, 2, 2)[0]
    with pytest.raises(ValueError, match="read-only"):
        taps[0] = 1


def test_no_tape_means_plain_values():
    out = T.add(T.Tensor([1.0]), T.Tensor([2.0]))
    assert out.tape is None
    assert out.item() == 3.0


def test_constants_inside_tape_carry_no_edges():
    with T.Tape() as tape:
        x = tape.leaf([1.0, 2.0])
        c = T.Tensor([5.0, 5.0])
        loss = T.mean_all(T.mul(x, c))
        grads = tape.backward(loss)
    np.testing.assert_allclose(grads[x.node_id].data, np.array([2.5, 2.5]))


def test_plain_math_under_a_tape_records_no_node():
    plain = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    with T.Tape() as tape:
        x = tape.leaf(plain)
        before = len(tape)
        p = T.softmax_rows(plain, 2.0)
        loss = T.mean_all(T.mul(p, T.l2_normalize_rows(T.Tensor(plain))))
        assert len(tape) == before
        assert p.tape is None and loss.tape is None
        with pytest.raises(ValueError, match="loss is not attached"):
            tape.backward(loss)
        # one taped input is enough: the node gets that input as its one edge
        taped = T.mul(x, p)
        assert len(tape) == before + 1 and taped.tape is tape
        assert [pid for pid, _ in tape._nodes[taped.node_id].edges] == [x.node_id]


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
    # at tau = inf every row would come out uniform, whatever its values
    for bad in (0.0, math.inf):
        with pytest.raises(ValueError, match="tau"):
            T.softmax_rows([[1.0, 2.0]], bad)


def test_l2_normalize_rejects_zero_row():
    with pytest.raises(ValueError, match="zero-norm"):
        T.l2_normalize_rows([[0.0, 0.0], [1.0, 0.0]])


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        T.log([0.0, 1.0])


def test_nonfinite_result_raises():
    with np.errstate(over="ignore"), pytest.raises(
        FloatingPointError, match="elementwise_mul produced non-finite"
    ):
        T.mul(np.full((2,), 1e300), np.full((2,), 1e300))
    with pytest.raises(FloatingPointError):
        T.Tensor([np.nan])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_last_entry_of_strided_view_raises(bad):
    # the check reads every entry of a non-contiguous (channels-last) view
    data = np.zeros((2, 5, 4, 3)).transpose(0, 3, 1, 2)
    data[-1, -1, -1, -1] = bad
    assert not data.flags.c_contiguous
    with pytest.raises(FloatingPointError, match="tensor construction produced non-finite"):
        T.Tensor(data)
    with pytest.raises(FloatingPointError, match="scale produced non-finite"):
        T.scale(data, 0.5)


def test_relu_bits_match_masked_select():
    # -0.0 and the smallest subnormals around zero come out as np.where gives them
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([-0.0, 0.0, -tiny, tiny, -1.5, 2.5, -1e300, 1e300] * 5)
    want = np.where(x > 0.0, x, 0.0)
    got = T.relu(x).data
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not np.signbit(got).any()


def test_relu_keeps_channels_last_strides():
    rng = np.random.default_rng(3)
    y = T.conv2d(rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3)),
                 rng.normal(size=4), stride=1, pad=1)
    assert y.data.transpose(0, 2, 3, 1).flags.c_contiguous
    out = T.relu(y)
    assert out.data.strides == y.data.strides
    np.testing.assert_array_equal(out.data, np.where(y.data > 0.0, y.data, 0.0))


def test_global_avg_pool_value():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    np.testing.assert_allclose(T.global_avg_pool(x).data, [[7.5]])


def test_primitive_kinds_match_benchmark_rows():
    # the benchmark reports tensor.<kind>.fwd_s and .bwd_s for each kind, so
    # adding or dropping a kind has to change BENCHMARK.json with it
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    rows = [m["name"] for m in bench["per_layer"]]
    for suffix in ("fwd_s", "bwd_s"):
        kinds = {r[len("tensor."):-len("." + suffix)] for r in rows
                 if r.startswith("tensor.") and r.endswith("." + suffix)}
        assert kinds == set(T.PRIMITIVE_KINDS)


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


def conv2d_and_grads(x, w, b, g, stride, pad):
    """Forward value and x/w/b gradients of sum(conv2d(x, w, b) * g)."""
    with T.Tape() as tape:
        leaves = [tape.leaf(v) for v in (x, w, b)]
        y = T.conv2d(*leaves, stride=stride, pad=pad)
        loss = T.scale(T.mean_all(T.mul(y, T.Tensor(g))), float(g.size))
        grads = tape.backward(loss)
    return y.data, [grads[leaf.node_id].data for leaf in leaves]


@pytest.mark.parametrize("x_shape,stride,pad", [
    ((2, 3, 1, 4), 2, 1),  # the first and last kernel rows read only padding
    ((2, 3, 3, 2), 2, 2),
    ((2, 3, 4, 4), 3, 2),
])
def test_conv2d_gradients_match_naive_where_windows_reach_into_padding(x_shape, stride, pad):
    rng = np.random.default_rng(29 + stride + 10 * pad)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    g = rng.normal(size=T.conv2d(x, w, b, stride=stride, pad=pad).shape)
    y, grads = conv2d_and_grads(x, w, b, g, stride, pad)
    np.testing.assert_allclose(y, naive_conv2d(x, w, b, stride, pad), rtol=0, atol=1e-12)
    for got, want in zip(grads, naive_conv2d_grads(x, w, g, stride, pad)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_chained_conv2d_reads_channels_last_output():
    # the encoder's layout path: the second conv reads the first one's
    # output, an NCHW-shaped view of channels-last memory
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, 3, 7, 6))
    w1, b1 = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    w2, b2 = rng.normal(size=(5, 4, 3, 3)), rng.normal(size=5)
    with T.Tape() as tape:
        leaves = [tape.leaf(v) for v in (x, w1, b1, w2, b2)]
        y1 = T.conv2d(*leaves[:3], stride=2, pad=1)
        assert y1.data.transpose(0, 2, 3, 1).flags.c_contiguous
        y2 = T.conv2d(y1, *leaves[3:], stride=1, pad=1)
        g = rng.normal(size=y2.shape)
        loss = T.scale(T.mean_all(T.mul(y2, T.Tensor(g))), float(g.size))
        grads = tape.backward(loss)
    want_y1 = naive_conv2d(x, w1, b1, 2, 1)
    np.testing.assert_allclose(y1.data, want_y1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y2.data, naive_conv2d(want_y1, w2, b2, 1, 1), rtol=0, atol=1e-12)
    dy1, dw2, db2 = naive_conv2d_grads(want_y1, w2, g, 1, 1)
    dx, dw1, db1 = naive_conv2d_grads(x, w1, dy1, 2, 1)
    for leaf, expected in zip(leaves, (dx, dw1, db1, dw2, db2)):
        np.testing.assert_allclose(grads[leaf.node_id].data, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stride,pad", CONV_CASES)
def test_conv2d_is_layout_independent(stride, pad):
    rng = np.random.default_rng(41 + stride + 10 * pad)
    x = rng.normal(size=(2, 3, 6, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    x_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert np.array_equal(x_last, x) and not x_last.flags.c_contiguous
    g = rng.normal(size=T.conv2d(x, w, b, stride=stride, pad=pad).shape)
    y, grads = conv2d_and_grads(x, w, b, g, stride, pad)
    y_last, grads_last = conv2d_and_grads(x_last, w, b, g, stride, pad)
    assert np.array_equal(y, y_last)
    for got, want in zip(grads_last, grads):
        assert np.array_equal(got, want)


def images_per_chunk(monkeypatch, x_shape, w_shape, stride, pad, images):
    """Set conv2d's chunk size so that a chunk holds `images` images."""
    _, cin, h, wd = x_shape
    _, _, kh, kw = w_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    monkeypatch.setattr(T, "_CONV_CHUNK_ELEMENTS", images * ho * wo * kh * kw * cin)


@pytest.mark.parametrize("stride,pad", CONV_CASES)
def test_chunked_conv2d_matches_one_chunk(stride, pad, monkeypatch):
    rng = np.random.default_rng(47 + stride + 10 * pad)
    x = rng.normal(size=(11, 3, 6, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    g = rng.normal(size=T.conv2d(x, w, b, stride=stride, pad=pad).shape)
    y_one, (dx_one, _, _) = conv2d_and_grads(x, w, b, g, stride, pad)
    images_per_chunk(monkeypatch, x.shape, w.shape, stride, pad, 3)  # chunks of 3, 3, 3, 2
    y, (dx, dw, db) = conv2d_and_grads(x, w, b, g, stride, pad)
    # each output row and each image's input gradient comes from one chunk
    assert np.array_equal(y, y_one)
    assert np.array_equal(dx, dx_one)
    # the weight gradient sums the chunks' products
    _, want_dw, want_db = naive_conv2d_grads(x, w, g, stride, pad)
    np.testing.assert_allclose(dw, want_dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(db, want_db, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stride,pad", CONV_CASES)
def test_gradcheck_chunked_conv2d_chain(stride, pad, monkeypatch):
    rng = np.random.default_rng(53 + stride + 10 * pad)
    params = {
        "x": rng.normal(size=(5, 3, 6, 5)),
        "w1": rng.normal(size=(3, 3, 3, 3)) * 0.5,
        "b1": rng.normal(size=3),
        "w2": rng.normal(size=(2, 3, 3, 3)) * 0.5,
        "b2": rng.normal(size=2),
    }
    # the second conv keeps the first one's spatial size and channel count,
    # so both layers run in chunks of 2, 2 and 1 images
    images_per_chunk(monkeypatch, params["x"].shape, params["w1"].shape, stride, pad, 2)

    def f(p):
        y = T.conv2d(p["x"], p["w1"], p["b1"], stride=stride, pad=pad)
        y = T.conv2d(y, p["w2"], p["b2"], stride=1, pad=1)
        return T.mean_all(T.mul(y, y))

    report = T.finite_difference_check(f, params)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"


def padded_conv2d(x, w, b, g, stride, pad, chunk_elements):
    """Output and x, w, b gradients (for output gradient g) of the conv2d
    that unfolded each chunk from a zero-padded copy of its images through
    an ``as_strided`` window view, with the same chunks, GEMM calls and
    operand layouts as ``T.conv2d``; the input gradient is scattered into
    a padded buffer in the same tap order and then cropped.

    In a few degenerate geometries (a kernel as wide as the padded input,
    or a one-column kernel on one channel) the window reshape is a view,
    not a copy, so this reference's GEMM reads a strided operand and may
    round differently; the cases below avoid them."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    hw, k = ho * wo, kh * kw * cin
    x_last = x.transpose(0, 2, 3, 1)
    step = max(1, chunk_elements // (hw * k))
    chunks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def unfold(lo, hi):
        xp = np.zeros((hi - lo, hp, wp, cin))
        xp[:, pad : pad + h, pad : pad + wd] = x_last[lo:hi]
        s0, s1, s2, s3 = xp.strides
        windows = as_strided(xp, (hi - lo, ho, wo, kh, kw, cin),
                             (s0, s1 * stride, s2 * stride, s1, s2, s3), writeable=False)
        return windows.reshape((hi - lo) * hw, k)

    def channels_last(a, lo, hi):
        return a[lo:hi].transpose(0, 2, 3, 1).reshape((hi - lo) * hw, cout)

    w2 = w.transpose(0, 2, 3, 1).reshape(cout, k)
    out = np.empty((n * hw, cout))
    for lo, hi in chunks:
        cols = unfold(lo, hi)
        np.matmul(cols, w2.T, out=out[lo * hw : hi * hw])
    out += b
    out = out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)

    dx = np.zeros((n, h, wd, cin))
    for lo, hi in chunks:
        dcols = (channels_last(g, lo, hi) @ w2).reshape(hi - lo, ho, wo, kh, kw, cin)
        dxp = np.zeros((hi - lo, hp, wp, cin))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, :, i, j]
        dx[lo:hi] = dxp[:, pad : pad + h, pad : pad + wd]

    *head, last = chunks
    dw = channels_last(g, *last).T @ cols
    for lo, hi in head:
        dw += channels_last(g, lo, hi).T @ unfold(lo, hi)
    return (out, dx.transpose(0, 3, 1, 2), dw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2),
            g.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("cin", [1, 3, 16])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_the_padded_buffer_reference_bit_for_bit(stride, pad, cin, monkeypatch):
    rng = np.random.default_rng(59 + 7 * stride + 3 * pad + cin)
    for x_shape, kernel in [((5, cin, 7, 6), (3, 3)), ((4, cin, 9, 5), (2, 3))]:
        x = rng.normal(size=x_shape)
        w = rng.normal(size=(4, cin, *kernel))
        b = rng.normal(size=4)
        g = rng.normal(size=T.conv2d(x, w, b, stride=stride, pad=pad).shape)
        for layout in ("NCHW", "NHWC"):
            if layout == "NHWC":
                x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            for images in (x.shape[0], 2):  # one chunk; chunks of 2 images and a last one
                images_per_chunk(monkeypatch, x.shape, w.shape, stride, pad, images)
                y, grads = conv2d_and_grads(x, w, b, g, stride, pad)
                want = padded_conv2d(x, w, b, g, stride, pad, T._CONV_CHUNK_ELEMENTS)
                for got, expected in zip((y, *grads), want):
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes(), (x_shape, layout, images)


# --- fused bias and ReLU: one node, the same bits as the separate nodes -------


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def output_and_grads(values, forward, consumer):
    """The output of forward(*leaves) and every leaf's gradient of
    consumer(output), on one fresh tape."""
    with T.Tape() as tape:
        leaves = [tape.leaf(v) for v in values]
        y = forward(*leaves)
        grads = tape.backward(consumer(y))
    return y.data, [grads[leaf.node_id].data for leaf in leaves]


def fused_consumers(rng, shape):
    """Losses that reach the output through add (which hands it its own
    gradient), through two consumers, and through global average pooling,
    as the encoder's last stage is."""
    c, g = rng.normal(size=shape), rng.normal(size=shape)
    cases = {
        "add": lambda y: T.mean_all(T.mul(T.add(y, T.Tensor(c)), T.Tensor(g))),
        "two": lambda y: T.add(T.mean_all(T.mul(y, T.Tensor(g))), T.mean_all(T.mul(y, y))),
    }
    if len(shape) == 4:
        gp = rng.normal(size=shape[:2])
        cases["pool"] = lambda y: T.mean_all(T.mul(T.global_avg_pool(y), T.Tensor(gp)))
    return cases


@pytest.mark.parametrize("stride,pad", CONV_CASES)
@pytest.mark.parametrize("images", [None, 2])
@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_conv2d_relu_matches_separate_relu_bit_for_bit(stride, pad, images, layout, monkeypatch):
    rng = np.random.default_rng(53 + stride + 10 * pad)
    x = rng.normal(size=(5, 3, 6, 5))
    if layout == "nhwc":
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    w, b = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    b[0] = -1e3  # a dead channel: its bias gradient is a sum of signed zeros
    if images is not None:
        images_per_chunk(monkeypatch, x.shape, w.shape, stride, pad, images)  # chunks of 2, 2, 1
    shape = T.conv2d(x, w, b, stride=stride, pad=pad).shape
    for name, consumer in fused_consumers(rng, shape).items():
        fused = output_and_grads(
            (x, w, b), lambda *p: T.conv2d(*p, stride=stride, pad=pad, relu=True), consumer)
        separate = output_and_grads(
            (x, w, b), lambda *p: T.relu(T.conv2d(*p, stride=stride, pad=pad)), consumer)
        assert fused[0].strides == separate[0].strides, name
        for got, want in zip([fused[0], *fused[1]], [separate[0], *separate[1]]):
            assert_same_bits(got, want)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("with_bias", [False, True])
def test_matmul_bias_relu_matches_separate_nodes_bit_for_bit(relu, with_bias):
    rng = np.random.default_rng(59)
    a, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    b[0] = -1e3

    def separate(a, w, b):
        y = T.matmul(a, w)
        y = T.add(y, b) if with_bias else y
        return T.relu(y) if relu else y

    def fused(a, w, b):
        return T.matmul(a, w, b if with_bias else None, relu=relu)

    for name, consumer in fused_consumers(rng, (6, 5)).items():
        got = output_and_grads((a, w, b), fused, consumer)
        want = output_and_grads((a, w, b), separate, consumer)
        for g, v in zip([got[0], *got[1]], [want[0], *want[1]]):
            assert_same_bits(g, v)


def test_fused_relu_records_one_node():
    rng = np.random.default_rng(61)
    with T.Tape() as tape:
        x, w, b = (tape.leaf(v) for v in (rng.normal(size=(2, 1, 4, 4)), rng.normal(size=(3, 1, 3, 3)),
                                          rng.normal(size=3)))
        before = len(tape)
        y = T.conv2d(x, w, b, pad=1, relu=True)
        T.matmul(T.global_avg_pool(y), rng.normal(size=(3, 2)), np.zeros(2), relu=True)
        assert len(tape) == before + 3
        assert [node.kind for node in tape._nodes[before:]] == ["conv2d", "global_avg_pool", "matmul"]


@pytest.mark.parametrize("bad", [-np.inf, np.nan])
def test_fused_relu_checks_its_input(bad):
    # the ReLU would turn -inf into 0.0, so the check reads the values before it
    rng = np.random.default_rng(67)
    x, w = rng.normal(size=(2, 1, 4, 4)), rng.normal(size=(3, 1, 3, 3))
    b = np.array([0.0, bad, 0.0])
    with T.Tape() as tape:
        xl, wl = tape.leaf(x), tape.leaf(w)
        with pytest.raises(FloatingPointError, match="conv2d produced non-finite"):
            T.conv2d(xl, wl, b, pad=1, relu=True)
        with pytest.raises(FloatingPointError, match="matmul produced non-finite"):
            T.matmul(xl.data.reshape(2, 16), rng.normal(size=(16, 3)), b, relu=True)
    with pytest.raises(FloatingPointError, match="matmul produced non-finite"):
        T.matmul(np.ones((1, 1)), np.ones((1, 3)), b, relu=True)


def test_matmul_rejects_a_bias_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"matmul: bias shape \(3,\) != \(2,\)"):
        T.matmul(np.ones((2, 4)), np.ones((4, 2)), np.ones(3))


def test_gradcheck_fused_conv_and_mlp():
    rng = np.random.default_rng(71)
    params = {"w": rng.normal(size=(3, 2, 3, 3)) * 0.5, "b": rng.normal(size=3),
              "w1": rng.normal(size=(3, 4)), "b1": rng.normal(size=4)}
    x = rng.normal(size=(2, 2, 5, 5))

    def f(p):
        y = T.conv2d(T.Tensor(x), p["w"], p["b"], stride=2, pad=1, relu=True)
        h = T.matmul(T.global_avg_pool(y), p["w1"], p["b1"], relu=True)
        return T.mean_all(T.mul(h, h))

    report = T.finite_difference_check(f, params)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"


def test_conv2d_relu_masks_the_gradient_in_place():
    # batch 128 at stride 1: the output is 16x the input, so a second
    # gradient array would lift backward's peak above the separate relu's
    rng = np.random.default_rng(73)
    x, w, b = rng.normal(size=(128, 1, 16, 16)), rng.normal(size=(16, 1, 3, 3)), rng.normal(size=16)
    T.conv2d(x[:1], w, b, pad=1)  # the geometry's plan is cached from here on

    def backward_peak(forward):
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                loss = T.mean_all(forward(*(tape.leaf(v) for v in (x, w, b))))
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                tape.backward(loss)
                return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    fused = backward_peak(lambda *p: T.conv2d(*p, pad=1, relu=True))
    separate = backward_peak(lambda *p: T.relu(T.conv2d(*p, pad=1)))
    assert fused < separate, f"fused backward peaked at {fused / separate:.3f}x the separate relu's"


def test_backward_frees_every_fused_mask_and_wraps_no_vjp():
    bundle = init_bundle(BundleSpecs.default(8), 5)
    images = np.random.default_rng(79).uniform(size=(4, 1, 8, 8))
    with T.Tape() as tape:
        enc, proj = tape.leaves(bundle.online_encoder), tape.leaves(bundle.online_projector)
        loss = T.mean_all(mlp_forward(proj, encode(enc, bundle.specs.encoder, images)))
    fused = [node for node in tape._nodes if node.mask is not None]
    stages = len(bundle.specs.encoder.conv_stages)
    assert [node.kind for node in fused] == ["conv2d"] * stages + ["matmul"]
    for node in fused:
        assert node.mask.dtype == bool
        for _, vjp in node.edges:
            assert vjp.__qualname__.startswith(f"{node.kind}.<locals>.")
            assert not hasattr(vjp, "__wrapped__")
    mask = weakref.ref(fused[0].mask)
    tape.backward(loss)
    assert all(node.mask is None for node in tape._nodes)
    assert mask() is None


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
        if p["w"].tape is not None:
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

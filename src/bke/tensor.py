"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every primitive executed while it is active (a
``with Tape() as tape:`` block). ``Tape.leaves`` registers a parameter
group, one leaf per name in sorted order. ``Tape.backward`` replays the
records in reverse creation order exactly once, accumulating
vector-Jacobian products into the leaves, and returns each leaf's
gradient under its node id. A tape is single-use: as backward passes a
node it frees the node's gradient, mask and vjps, and with them the
arrays they saved: a ReLU's mask, one byte an entry; matmul's two
operands; conv2d's input view and at most one chunk, about 1 MiB, of its
column matrix. A primitive records a node only when some input is a
tensor on the active tape, so plain math run under a tape stays off it.
Tensors without a tape handle are plain immutable values; :func:`detach`
drops the handle, so anything computed from a detached tensor
contributes exactly zero gradient upstream.

``conv2d`` and ``matmul`` take their bias and an optional ReLU into the
same node: both are applied in place on the GEMM's output, and the node
keeps the ReLU's mask for backward (see :class:`Tape`).

All arithmetic is 64-bit. Any primitive that produces a NaN or Inf raises
:class:`FloatingPointError` immediately instead of letting the poison
propagate; a fused ReLU is checked on its input, so a -inf
pre-activation raises too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np


def _check_finite(arr: np.ndarray, context: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{context} produced non-finite values")


class Tensor:
    """Immutable float64 array, optionally bound to a tape node."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.tape = tape
        self.node_id = node_id

    @classmethod
    def _checked(cls, arr: np.ndarray, tape: "Tape | None", node_id: int | None) -> "Tensor":
        """Wrap a float64 array whose values were already checked finite."""
        t = cls.__new__(cls)
        t.data, t.tape, t.node_id = arr, tape, node_id
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        taped = "" if self.tape is None else f", node={self.node_id}"
        return f"Tensor(shape={self.shape}{taped})"


def detach(t: Tensor) -> Tensor:
    """Value-identical tensor with no tape handle (stop-gradient)."""
    return Tensor(t.data)


class _Node:
    __slots__ = ("kind", "edges", "shape", "mask")

    def __init__(self, kind: str, edges, shape):
        self.kind = kind
        # edges: list of (parent node id, vjp taking the output gradient)
        self.edges = edges
        self.shape = shape
        self.mask = None  # a fused ReLU's, applied by Tape.backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Records primitives in creation order; a DAG by construction. Single-use:
    ``backward`` frees each node's saved arrays and gradient as it passes.

    A node owns the gradient that backward hands it. Every vjp returns a
    fresh array, except that ``add``'s and ``sub``'s first input and
    ``reshape`` get the node's own gradient (or a view of it), which that
    node never reads again; and a parent reached by two edges gets the
    fresh sum of its contributions. The one in-place write to a gradient
    is backward's: a node that fuses a ReLU holds its mask, and backward
    multiplies the node's gradient by it once, before the first vjp runs
    (``g * mask`` gives the same bits, -0.0 included), then frees it.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaf_ids: list[int] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, kind: str, edges, shape) -> int:
        self._nodes.append(_Node(kind, edges, shape))
        return len(self._nodes) - 1

    def leaf(self, value) -> Tensor:
        """Register a parameter; its gradient is reported by backward()."""
        arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
        nid = self._record("leaf", [], arr.shape)
        self._leaf_ids.append(nid)
        return Tensor(arr, self, nid)

    def leaves(self, params: Mapping) -> dict[str, Tensor]:
        """Register a parameter group, one leaf per name in sorted order."""
        return {name: self.leaf(params[name]) for name in sorted(params)}

    def backward(self, loss: Tensor) -> dict[int, Tensor]:
        """Gradients of a scalar loss for every leaf on this tape.

        Leaves that are unreachable from the loss (or reachable only
        through a detach) get exact zeros.
        """
        if loss.tape is not self or loss.node_id is None:
            raise ValueError("backward: loss is not attached to this tape")
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
        if self._spent:
            raise RuntimeError("backward: this tape was already replayed and freed; record a new Tape")
        self._spent = True
        grads: list[np.ndarray | None] = [None] * len(self._nodes)
        grads[loss.node_id] = np.ones_like(loss.data)
        for nid in range(loss.node_id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self._nodes[nid]
            edges, node.edges = node.edges, ()
            if node.mask is not None:
                g *= node.mask
                node.mask = None
            grads[nid] = g if node.kind == "leaf" else None
            # last edge first: conv2d's weight vjp frees its chunk of columns before the input vjp
            while edges:
                pid, vjp = edges.pop()
                contrib = vjp(g)
                del vjp
                if grads[pid] is None:
                    grads[pid] = contrib
                else:
                    grads[pid] = grads[pid] + contrib
        out: dict[int, Tensor] = {}
        for nid in self._leaf_ids:
            g = grads[nid]
            out[nid] = Tensor(g if g is not None else np.zeros(self._nodes[nid].shape))
        return out


def _as_value(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _result(kind: str, out: np.ndarray, inputs: Sequence, vjps: Sequence[Callable],
            relu: bool = False) -> Tensor:
    """Wrap a primitive's output after one finiteness check. A node is
    recorded only when some input is a tensor on the active tape; those
    inputs become its edges, and ``vjps[i]`` maps the output gradient to
    input i's gradient.

    With ``relu``, the check reads the values before the ReLU, which is
    then applied to ``out`` in place, and the node keeps the mask (see
    :class:`Tape`)."""
    _check_finite(out, kind)
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    edges = [] if tape is None else [(inp.node_id, vjp) for inp, vjp in zip(inputs, vjps)
                                     if isinstance(inp, Tensor) and inp.tape is tape]
    mask = out > 0.0 if relu and edges else None
    if relu:
        # np.maximum keeps out's memory layout and turns -0.0 into +0.0
        np.maximum(out, 0.0, out=out)
    if not edges:
        return Tensor._checked(out, None, None)
    nid = tape._record(kind, edges, out.shape)
    tape._nodes[nid].mask = mask
    return Tensor._checked(out, tape, nid)


def _addsub_vjps(a: np.ndarray, b: np.ndarray, kind: str):
    """Shape handling for add/sub: equal shapes, or a 1-D bias b broadcast
    across the rows of a 2-D a."""
    if a.shape == b.shape:
        reduce_b = False
    elif a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        reduce_b = True
    else:
        raise ValueError(f"{kind}: incompatible shapes {a.shape} and {b.shape}")
    sign = -1.0 if kind == "sub" else 1.0

    def vjp_a(g):
        return g

    def vjp_b(g):
        return sign * (g.sum(axis=0) if reduce_b else g)

    return vjp_a, vjp_b


def add(a, b) -> Tensor:
    av, bv = _as_value(a), _as_value(b)
    vjp_a, vjp_b = _addsub_vjps(av, bv, "add")
    return _result("add", av + bv, (a, b), (vjp_a, vjp_b))


def sub(a, b) -> Tensor:
    av, bv = _as_value(a), _as_value(b)
    vjp_a, vjp_b = _addsub_vjps(av, bv, "sub")
    return _result("sub", av - bv, (a, b), (vjp_a, vjp_b))


def scale(t, factor: float) -> Tensor:
    tv = _as_value(t)
    c = float(factor)
    return _result("scale", tv * c, (t,), (lambda g: g * c,))


def mul(a, b) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    av, bv = _as_value(a), _as_value(b)
    if av.shape != bv.shape:
        raise ValueError(f"elementwise_mul: shapes {av.shape} and {bv.shape} differ")
    return _result("elementwise_mul", av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def matmul(a, b, bias=None, relu: bool = False) -> Tensor:
    """``a @ b`` for 2-D a and b, one node whatever the options: a 1-D
    ``bias`` is added to every row, and then, with ``relu``, the ReLU is
    applied, each in place on the GEMM's output (the mask: see
    :class:`Tape`). The values and gradients are those of
    ``relu(add(matmul(a, b), bias))``, bit for bit."""
    av, bv = _as_value(a), _as_value(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    out = av @ bv
    inputs, vjps = [a, b], [lambda g: g @ bv.T, lambda g: av.T @ g]
    if bias is not None:
        biasv = _as_value(bias)
        if biasv.shape != (bv.shape[1],):
            raise ValueError(f"matmul: bias shape {biasv.shape} != ({bv.shape[1]},)")
        out += biasv
        inputs.append(bias)
        vjps.append(lambda g: g.sum(axis=0))
    return _result("matmul", out, inputs, vjps, relu)


def relu(t) -> Tensor:
    tv = _as_value(t)
    mask = tv > 0.0
    # np.maximum keeps tv's memory layout and turns -0.0 into +0.0
    return _result("relu", np.maximum(tv, 0.0), (t,), (lambda g: g * mask,))


def mean_all(t) -> Tensor:
    tv = _as_value(t)
    if tv.size == 0:
        raise ValueError("mean_all: empty tensor")
    size = tv.size
    shape = tv.shape
    out = np.array([tv.mean()])
    return _result(
        "mean_all", out, (t,), (lambda g: np.full(shape, g.reshape(-1)[0] / size),)
    )


def sum_rows(t) -> Tensor:
    tv = _as_value(t)
    if tv.ndim != 2:
        raise ValueError(f"sum_rows: expected 2-D input, got shape {tv.shape}")
    cols = tv.shape[1]
    return _result(
        "sum_rows", tv.sum(axis=1), (t,), (lambda g: np.repeat(g[:, None], cols, axis=1),)
    )


def l2_normalize_rows(t) -> Tensor:
    """Divide each row by its Euclidean norm, at any scale.

    Squares overflow above about 1e154 and vanish below about 1e-162. A
    row whose plain norm is inf, or 0 while an entry is not, is divided
    by its largest |entry| first; its unit row is that scaled row over
    its norm, and its true norm, which the gradient divides by, is the
    largest |entry| times that norm. A zero row is rejected loudly: a
    zero embedding means a dead network, and an epsilon fudge would
    mask the collapse.
    """
    tv = _as_value(t)
    if tv.ndim != 2:
        raise ValueError(f"l2_normalize_rows: expected 2-D input, got shape {tv.shape}")
    with np.errstate(over="ignore"):
        norms = np.sqrt((tv * tv).sum(axis=1))
    extreme = ~np.isfinite(norms) | (norms == 0.0)
    if not extreme.any():
        out = tv / norms[:, None]
    else:
        if not tv[extreme].any(axis=1).all():
            raise ValueError("l2_normalize_rows: zero-norm row")
        scaled = tv.copy()
        peak = np.abs(scaled[extreme]).max(axis=1)
        scaled[extreme] /= peak[:, None]
        norms[extreme] = np.sqrt((scaled[extreme] * scaled[extreme]).sum(axis=1))
        out = scaled / norms[:, None]
        norms[extreme] *= peak

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (g - out * dot) / norms[:, None]

    return _result("l2_normalize_rows", out, (t,), (vjp,))


def softmax_rows(t, tau: float = 1.0) -> Tensor:
    """Row-wise softmax of t / tau, computed with max subtraction."""
    tv = _as_value(t)
    if tv.ndim != 2:
        raise ValueError(f"softmax_rows: expected 2-D input, got shape {tv.shape}")
    if not 0.0 < tau < np.inf:
        raise ValueError("softmax_rows: tau must be positive and finite")
    scaled = tv / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return p * (g - dot) / tau

    return _result("softmax_rows", p, (t,), (vjp,))


def log(t) -> Tensor:
    tv = _as_value(t)
    if np.any(tv <= 0.0):
        raise ValueError("log: input must be strictly positive")
    return _result("log", np.log(tv), (t,), (lambda g: g / tv,))


def global_avg_pool(t) -> Tensor:
    tv = _as_value(t)
    if tv.ndim != 4:
        raise ValueError(f"global_avg_pool: expected NCHW input, got shape {tv.shape}")
    n, c, h, w = tv.shape
    out = tv.mean(axis=(2, 3))
    return _result(
        "global_avg_pool",
        out,
        (t,),
        (lambda g: np.broadcast_to(g[:, :, None, None], (n, c, h, w)) / (h * w),),
    )


def reshape(t, shape) -> Tensor:
    tv = _as_value(t)
    new_shape = tuple(int(s) for s in shape)
    old_shape = tv.shape
    if int(np.prod(new_shape)) != tv.size:
        raise ValueError(f"reshape: cannot reshape {old_shape} to {new_shape}")
    return _result(
        "reshape", tv.reshape(new_shape), (t,), (lambda g: g.reshape(old_shape),)
    )


# Column entries conv2d unfolds at a time: 1 MiB of float64. The batch is
# handled in chunks of this size, so a chunk's columns stay in cache for its
# GEMM and a node keeps one chunk alive between the passes, not the whole
# batch's column matrix (about kh*kw/stride^2 times the input, and growing
# with the batch that BKE's graph spans).
_CONV_CHUNK_ELEMENTS = 1 << 17


def _valid_taps(ksize: int, size: int, size_out: int, stride: int, pad: int) -> list[tuple[slice, slice]]:
    """Per kernel offset along one axis, the (output, input) slices of the
    windows whose input index ``o*stride + offset - pad`` lies inside the
    unpadded input."""
    taps = []
    for off in range(ksize):
        first = max(0, -((off - pad) // stride))
        count = max(0, min(size_out, (size - 1 + pad - off) // stride + 1) - first)
        start = first * stride + off - pad
        taps.append((slice(first, first + count), slice(start, start + count * stride, stride)))
    return taps


@lru_cache(maxsize=64)  # a model uses a few geometries; the bound keeps a long process small
def _conv_plan(h: int, wdt: int, kh: int, kw: int, stride: int, pad: int) -> tuple:
    """conv2d's gather plan for one geometry, whatever the batch size: the
    pixel index into the unpadded h*w grid of every (ho, wo, kh, kw) window
    tap, read-only; the index tuples of the (m, ho, wo, kh, kw, cin)
    column entries that fall in the padding; and the per-axis
    ``_valid_taps`` that the input-gradient scatter reads."""
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    row_taps = tuple(_valid_taps(kh, h, ho, stride, pad))
    col_taps = tuple(_valid_taps(kw, wdt, wo, stride, pad))
    # a tap in the padding reads the nearest pixel; the unfold then sets it to 0.0
    iy = np.clip((np.arange(ho) * stride)[:, None, None, None] + np.arange(kh)[:, None] - pad, 0, h - 1)
    ix = np.clip((np.arange(wo) * stride)[:, None, None] + np.arange(kw) - pad, 0, wdt - 1)
    taps = (iy * wdt + ix).reshape(-1)
    taps.flags.writeable = False
    # per kernel row (column), the windows before and after its valid slice
    pad_regions = []
    for axis, axis_taps, size_out in ((1, row_taps, ho), (2, col_taps, wo)):
        for off, (valid, _) in enumerate(axis_taps):
            for outside in (slice(0, valid.start), slice(valid.stop, size_out)):
                if outside.start < outside.stop:
                    region = [slice(None)] * 5
                    region[axis], region[axis + 2] = outside, off
                    pad_regions.append(tuple(region))
    return taps, tuple(pad_regions), row_taps, col_taps


def conv2d(x, w, b, stride: int = 1, pad: int = 0, relu: bool = False) -> Tensor:
    """2-D convolution, NCHW input, OIHW weight, per-channel bias, and with
    ``relu`` a ReLU: one node, whose values and gradients are those of
    ``relu(conv2d(x, w, b))``, bit for bit. The bias and the ReLU are
    applied in place on the GEMM's output (the mask: see :class:`Tape`).

    The work is done channels-last, on chunks of the batch holding about
    ``_CONV_CHUNK_ELEMENTS`` column entries each. A chunk is unfolded
    into a column matrix of shape ``(m*ho*wo, kh*kw*cin)`` by one
    ``np.take`` of the taps of every window, each a pixel index into the
    input's ``(m, h*w, cin)`` view, so each tap copies a run of ``cin``
    channels; the taps that fall in the padding are then set to 0.0. The
    tap indices are planned once per geometry (``_conv_plan``), for any
    batch size. The forward pass and both gradients are one 2-D
    matmul per chunk; a batch that fits in one chunk is one matmul per
    pass.

    The node keeps the input's NHWC view and the last chunk's columns,
    never the whole batch's column matrix: the weight gradient uses that
    chunk, drops it and unfolds the other chunks again. The input
    gradient scatters each chunk's column gradient straight into one
    unpadded array, skipping the window entries that fall in the
    padding. Each loop drops a chunk's columns or column gradient before
    it builds the next.

    Any input layout is accepted, but the output is an NCHW-shaped view
    of channels-last memory, the GEMM's natural result. So when one
    conv2d reads another's output, its NHWC view is free and no layout
    copy is made.
    """
    xv, wv, bv = _as_value(x), _as_value(w), _as_value(b)
    if xv.ndim != 4 or wv.ndim != 4:
        raise ValueError(f"conv2d: expected NCHW input and OIHW weight, got {xv.shape}, {wv.shape}")
    n, cin, h, wdt = xv.shape
    cout, cin_w, kh, kw = wv.shape
    if cin != cin_w:
        raise ValueError(f"conv2d: input has {cin} channels, weight expects {cin_w}")
    if bv.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {bv.shape} != ({cout},)")
    if stride < 1 or pad < 0:
        raise ValueError("conv2d: stride must be >= 1 and pad >= 0")
    if h + 2 * pad < kh or wdt + 2 * pad < kw:
        raise ValueError(f"conv2d: spatial size {h}x{wdt} too small for kernel {kh}x{kw}")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    hw, k = ho * wo, kh * kw * cin
    taps, pad_regions, row_taps, col_taps = _conv_plan(h, wdt, kh, kw, stride, pad)

    # a view for NCHW and NHWC memory alike: h and w stay adjacent in both
    x_pixels = xv.transpose(0, 2, 3, 1).reshape(n, h * wdt, cin)
    step = max(1, _CONV_CHUNK_ELEMENTS // (hw * k))
    chunks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]

    def unfold(lo, hi):
        cols = np.take(x_pixels[lo:hi], taps, axis=1).reshape(hi - lo, ho, wo, kh, kw, cin)
        for region in pad_regions:
            cols[region] = 0.0
        return cols.reshape((hi - lo) * hw, k)

    def channels_last(g, lo, hi):
        return g[lo:hi].transpose(0, 2, 3, 1).reshape((hi - lo) * hw, cout)

    w2 = wv.transpose(0, 2, 3, 1).reshape(cout, k)
    out = np.empty((n * hw, cout))
    for lo, hi in chunks:
        cols = None  # the previous chunk's columns go before the next are built
        cols = unfold(lo, hi)
        np.matmul(cols, w2.T, out=out[lo * hw : hi * hw])
    out += bv
    out = out.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)

    def vjp_x(g):
        dx = np.zeros((n, h, wdt, cin))
        for lo, hi in chunks:
            dcols = (channels_last(g, lo, hi) @ w2).reshape(hi - lo, ho, wo, kh, kw, cin)
            for i, (oy, iy) in enumerate(row_taps):
                for j, (ox, ix) in enumerate(col_taps):
                    dx[lo:hi, iy, ix] += dcols[:, oy, ox, i, j]
            del dcols
        return dx.transpose(0, 3, 1, 2)

    def vjp_w(g):
        nonlocal cols
        *head, last = chunks
        dw = channels_last(g, *last).T @ cols  # the forward's last chunk
        cols = None  # dropped before the other chunks are unfolded again
        for lo, hi in head:
            dw += channels_last(g, lo, hi).T @ unfold(lo, hi)
        return dw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)

    def vjp_b(g):
        return g.sum(axis=(0, 2, 3))

    return _result("conv2d", out, (x, w, b), (vjp_x, vjp_w, vjp_b), relu)


PRIMITIVE_KINDS: Mapping[str, Callable] = {
    "matmul": matmul,
    "conv2d": conv2d,
    "add": add,
    "sub": sub,
    "scale": scale,
    "relu": relu,
    "mean_all": mean_all,
    "sum_rows": sum_rows,
    "l2_normalize_rows": l2_normalize_rows,
    "softmax_rows": softmax_rows,
    "log": log,
    "elementwise_mul": mul,
    "global_avg_pool": global_avg_pool,
    "reshape": reshape,
}


_FD_STEP, _FD_TOL = 1e-5, 1e-4  # finite_difference_check's step and its bound on the error


@dataclass
class GradCheckReport:
    """Outcome of comparing autodiff gradients against central differences."""

    max_rel_err: float
    worst_param: str
    n_components: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= _FD_TOL


def finite_difference_check(f: Callable[[dict[str, Tensor]], Tensor],
                            params: dict[str, np.ndarray]) -> GradCheckReport:
    """Compare autodiff gradients of ``f`` against central differences.

    ``f`` must be deterministic, take a mapping name -> Tensor, and
    return a scalar tensor. Every component of every parameter is
    perturbed by ``+-_FD_STEP``. The relative error divides by
    ``max(|autodiff|, |fd|, 1e-3)``, so near-zero components are
    effectively compared absolutely at the 1e-3 scale.
    """
    arrays = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}

    with Tape() as tape:
        leaves = tape.leaves(arrays)
        loss = f(leaves)
        grad_map = tape.backward(loss)
    auto = {name: grad_map[leaves[name].node_id].data for name in arrays}

    def eval_at(values: dict[str, np.ndarray]) -> float:
        out = f({name: Tensor(v) for name, v in values.items()})
        return out.item()

    max_rel = 0.0
    worst_param = ""
    n_components = 0
    for name, arr in arrays.items():
        for idx in np.ndindex(arr.shape):
            n_components += 1
            bumped = dict(arrays)
            plus = arr.copy()
            plus[idx] += _FD_STEP
            bumped[name] = plus
            f_plus = eval_at(bumped)
            minus = arr.copy()
            minus[idx] -= _FD_STEP
            bumped[name] = minus
            f_minus = eval_at(bumped)
            fd = (f_plus - f_minus) / (2.0 * _FD_STEP)
            ad = float(auto[name][idx])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-3)
            if rel > max_rel:
                max_rel = rel
                worst_param = name
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst_param, n_components=n_components)

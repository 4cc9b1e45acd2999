"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every primitive executed while it is active (a
``with Tape() as tape:`` block). ``Tape.backward`` replays the records in
reverse creation order exactly once, accumulating vector-Jacobian products
into the registered leaf parameters. Tensors without a tape handle are
plain immutable values; :func:`detach` drops the handle, so anything
computed from a detached tensor contributes exactly zero gradient
upstream.

All arithmetic is 64-bit. Any primitive that produces a NaN or Inf raises
:class:`FloatingPointError` immediately instead of letting the poison
propagate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor",
    "Tape",
    "tape_active",
    "detach",
    "primitive",
    "PRIMITIVE_KINDS",
    "matmul",
    "conv2d",
    "add",
    "sub",
    "scale",
    "relu",
    "mean_all",
    "sum_rows",
    "l2_normalize_rows",
    "softmax_rows",
    "log",
    "mul",
    "global_avg_pool",
    "reshape",
    "finite_difference_check",
    "GradCheckReport",
]


def _check_finite(arr: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(arr)):
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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        taped = "" if self.tape is None else f", node={self.node_id}"
        return f"Tensor(shape={self.shape}{taped})"


def detach(t: Tensor) -> Tensor:
    """Value-identical tensor with no tape handle (stop-gradient)."""
    return t.detach()


class _Node:
    __slots__ = ("kind", "edges", "shape")

    def __init__(self, kind: str, edges, shape):
        self.kind = kind
        # edges: list of (parent node id, vjp taking the output gradient)
        self.edges = edges
        self.shape = shape


_TAPE_STACK: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def tape_active() -> bool:
    """True while some Tape context is recording."""
    return bool(_TAPE_STACK)


class Tape:
    """Records primitives in creation order; a DAG by construction."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaf_ids: list[int] = []

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

    def backward(self, loss: Tensor) -> dict[int, Tensor]:
        """Gradients of a scalar loss for every leaf on this tape.

        Leaves that are unreachable from the loss (or reachable only
        through a detach) get exact zeros.
        """
        if loss.tape is not self or loss.node_id is None:
            raise ValueError("backward: loss is not attached to this tape")
        if loss.data.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
        grads: list[np.ndarray | None] = [None] * len(self._nodes)
        grads[loss.node_id] = np.ones_like(loss.data)
        for nid in range(loss.node_id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            for pid, vjp in self._nodes[nid].edges:
                contrib = vjp(g)
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


def _result(kind: str, out: np.ndarray, inputs: Sequence, vjps: Sequence[Callable | None]) -> Tensor:
    """Wrap a primitive's output, recording a node if a tape is active.

    ``vjps[i]`` maps the output gradient to input i's gradient; only
    inputs that are tensors bound to the active tape become edges.
    """
    _check_finite(out, kind)
    tape = _active_tape()
    if tape is None:
        return Tensor(out)
    edges = []
    for inp, vjp in zip(inputs, vjps):
        if (
            vjp is not None
            and isinstance(inp, Tensor)
            and inp.tape is tape
            and inp.node_id is not None
        ):
            edges.append((inp.node_id, vjp))
    nid = tape._record(kind, edges, out.shape)
    return Tensor(out, tape, nid)


def _addsub_vjps(a: np.ndarray, b: np.ndarray, kind: str):
    """Shape handling for add/sub: equal shapes, or one 1-D bias operand
    broadcast across the rows of a 2-D operand."""
    if a.shape == b.shape:
        reduce_a = reduce_b = False
    elif a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        reduce_a, reduce_b = False, True
    elif a.ndim == 1 and b.ndim == 2 and b.shape[1] == a.shape[0]:
        reduce_a, reduce_b = True, False
    else:
        raise ValueError(f"{kind}: incompatible shapes {a.shape} and {b.shape}")
    sign = -1.0 if kind == "sub" else 1.0

    def vjp_a(g):
        return g.sum(axis=0) if reduce_a else g

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


def matmul(a, b) -> Tensor:
    av, bv = _as_value(a), _as_value(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    return _result(
        "matmul",
        av @ bv,
        (a, b),
        (lambda g: g @ bv.T, lambda g: av.T @ g),
    )


def relu(t) -> Tensor:
    tv = _as_value(t)
    mask = tv > 0.0
    return _result("relu", np.where(mask, tv, 0.0), (t,), (lambda g: g * mask,))


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
    """Divide each row by its Euclidean norm.

    A zero-norm row is rejected loudly: a zero embedding means a dead
    network, and an epsilon fudge would mask the collapse.
    """
    tv = _as_value(t)
    if tv.ndim != 2:
        raise ValueError(f"l2_normalize_rows: expected 2-D input, got shape {tv.shape}")
    norms = np.sqrt((tv * tv).sum(axis=1))
    if np.any(norms == 0.0):
        raise ValueError("l2_normalize_rows: zero-norm row")
    out = tv / norms[:, None]

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (g - out * dot) / norms[:, None]

    return _result("l2_normalize_rows", out, (t,), (vjp,))


def softmax_rows(t, tau: float = 1.0) -> Tensor:
    """Row-wise softmax of t / tau, computed with max subtraction."""
    tv = _as_value(t)
    if tv.ndim != 2:
        raise ValueError(f"softmax_rows: expected 2-D input, got shape {tv.shape}")
    if not tau > 0.0:
        raise ValueError("softmax_rows: tau must be positive")
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


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution, NCHW input, OIHW weight, per-channel bias.

    The padded input is unfolded once into a channels-last column matrix
    of shape ``(n*ho*wo, cin*kh*kw)``; the forward pass and both
    gradients are then one 2-D matmul each.
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
    hp, wp = h + 2 * pad, wdt + 2 * pad
    if hp < kh or wp < kw:
        raise ValueError(f"conv2d: spatial size {h}x{wdt} too small for kernel {kh}x{kw}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    xp = np.pad(xv, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, cin * kh * kw)
    w2 = wv.reshape(cout, cin * kh * kw)
    out = (cols @ w2.T + bv).reshape(n, ho, wo, cout).transpose(0, 3, 1, 2)

    def channels_last(g):
        return g.transpose(0, 2, 3, 1).reshape(n * ho * wo, cout)

    def vjp_x(g):
        dcols = (channels_last(g) @ w2).reshape(n, ho, wo, cin, kh, kw)
        dxp = np.zeros((n, hp, wp, cin))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + ho * stride : stride, j : j + wo * stride : stride] += dcols[..., i, j]
        return dxp[:, pad : pad + h, pad : pad + wdt].transpose(0, 3, 1, 2)

    def vjp_w(g):
        return (channels_last(g).T @ cols).reshape(wv.shape)

    def vjp_b(g):
        return g.sum(axis=(0, 2, 3))

    return _result("conv2d", out, (x, w, b), (vjp_x, vjp_w, vjp_b))


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


def primitive(kind: str, inputs: Sequence, **attrs) -> Tensor:
    """Dispatch a primitive by kind name."""
    try:
        fn = PRIMITIVE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown primitive kind {kind!r}") from None
    return fn(*inputs, **attrs)


@dataclass
class GradCheckReport:
    """Outcome of comparing autodiff gradients against central differences."""

    max_rel_err: float
    worst_param: str
    worst_component: tuple[int, ...]
    n_components: int
    tol: float
    per_param: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def finite_difference_check(
    f: Callable[[dict[str, Tensor]], Tensor],
    params: dict[str, np.ndarray],
    step: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare autodiff gradients of ``f`` against central differences.

    ``f`` must be deterministic, take a mapping name -> Tensor, and
    return a scalar tensor. Every component of every parameter is
    perturbed by ``+-step``. The relative error divides by
    ``max(|autodiff|, |fd|, 1e-3)``, so near-zero components are
    effectively compared absolutely at the 1e-3 scale.
    """
    if step <= 0.0:
        raise ValueError("finite_difference_check: step must be positive")
    arrays = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}

    with Tape() as tape:
        leaves = {name: tape.leaf(arr) for name, arr in arrays.items()}
        loss = f(leaves)
        grad_map = tape.backward(loss)
    auto = {name: grad_map[leaves[name].node_id].data for name in arrays}

    def eval_at(values: dict[str, np.ndarray]) -> float:
        out = f({name: Tensor(v) for name, v in values.items()})
        return out.item()

    max_rel = 0.0
    worst_param = ""
    worst_component: tuple[int, ...] = ()
    n_components = 0
    per_param: dict[str, float] = {}
    for name, arr in arrays.items():
        param_worst = 0.0
        for idx in np.ndindex(arr.shape):
            n_components += 1
            bumped = dict(arrays)
            plus = arr.copy()
            plus[idx] += step
            bumped[name] = plus
            f_plus = eval_at(bumped)
            minus = arr.copy()
            minus[idx] -= step
            bumped[name] = minus
            f_minus = eval_at(bumped)
            fd = (f_plus - f_minus) / (2.0 * step)
            ad = float(auto[name][idx])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-3)
            if rel > param_worst:
                param_worst = rel
            if rel > max_rel:
                max_rel = rel
                worst_param = name
                worst_component = idx
        per_param[name] = param_worst
    return GradCheckReport(
        max_rel_err=max_rel,
        worst_param=worst_param,
        worst_component=worst_component,
        n_components=n_components,
        tol=tol,
        per_param=per_param,
    )

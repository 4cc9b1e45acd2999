"""Layer-by-layer tracing of bke, installed from outside the package.

:meth:`Tracer.install` wraps every public function of each ``bke`` module,
plus ``Tape.backward`` and ``SgdMomentum.step``, in a span. Each module
imports names directly from the others (``selfsup`` calls the ``encode``
it imported from ``models``), so a wrapper replaces the original in every
``bke`` module that holds it, not only in the module that defines it.
``Tape._record`` is wrapped to count nodes and to time each vjp callable
recorded on a node, which gives backward time per primitive kind (the
span ``tensor.<kind>.bwd.<vjp name>`` also tells, for example, conv2d's
input gradient ``vjp_x`` from its weight gradient ``vjp_w``).

A traced run sets up once and then runs rounds. Each metric is the mean
round, except those in ``WITH_SETUP``, which add the set-up's value: on
``finetune`` and ``sweep_batch`` the set-up holds a Phase-I run, whose
cost moves ``setup_s`` and is measured by the ``pretrain`` workload.

A span has a name, a start, an end and a parent, kept in memory and
written out by :meth:`Tracer.write`. Everything runs on one thread, so
child spans never overlap, and a span's self time is its duration minus
the durations of its children. Per-draw RNG methods are not wrapped:
one span per pixel would swamp what it measures, so their cost shows as
the self time of the caller (``data`` for ``synth_blobs``, ``augment``
for view sampling).
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("tensor", "augment", "rng", "models", "optim", "selfsup", "ensemble",
          "data", "metrics", "textio", "cli")

# the built-in batch_size grid of ``bke sweep``; one metric per grid point
SWEEP_GRID = (32, 64, 128, 256, 512)

# the four steps that build one batch's soft targets
SOFT_TARGET_SPANS = ("ensemble.similarity_matrix", "ensemble.normalize_similarity",
                     "ensemble.probabilities", "ensemble.soft_targets_closed_form")

# the units of the metrics that are not in seconds
UNITS = {"tensor.nodes": "count", "augment.views": "count", "selfsup.steps": "count",
         "ensemble.steps": "count", "ensemble.soft_targets_max_n": "rows"}

# metrics that also move ``setup_s``: one set-up plus one mean round; every
# other metric is the mean round
WITH_SETUP = ("models.save_checkpoint_s", "models.load_checkpoint_s", "models.init_bundle_s",
              "data.synth_blobs_s", "data.read_container_s", "data.batches_s")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._open = [-1]
        self.nodes = 0
        self.max_batch = 0
        self.kinds: dict[str, str] = {}  # tape kind -> primitive function name, set by install
        # soft-target cases seen in fine-tuning: the first and the largest
        self.captured: dict[str, dict] = {}
        self._batch: dict = {}
        self._patched: list[tuple[object, str, object]] = []  # (owner, name, original)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, name: str, fn, suffix=None):
        """fn wrapped in a span; suffix(args, kwargs) extends the name per call."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        spans_name, spans_parent, spans_start, spans_end = (
            self._name, self._parent, self._start, self._end)
        open_spans = self._open

        def wrapper(*args, **kwargs):
            idx = len(spans_start)
            spans_name.append(nid if suffix is None else self._id(name + suffix(args, kwargs)))
            spans_parent.append(open_spans[-1])
            spans_end.append(0)
            open_spans.append(idx)
            spans_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans_end[idx] = clock()
                open_spans.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"bke.{layer}") for layer in LAYERS}
        tensor, optim, ensemble = modules["tensor"], modules["optim"], modules["ensemble"]
        self.kinds = {kind: fn.__name__ for kind, fn in tensor.PRIMITIVE_KINDS.items()}

        hooks = self._capture_hooks(ensemble)
        replacement = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    inner = hooks.get(name, obj) if mod is ensemble else obj
                    suffix = _batch_size_suffix if obj is ensemble.finetune else None
                    replacement[obj] = self.traced(f"{layer}.{name}", inner, suffix)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._patch(mod, name, replacement[obj])

        self._patch(tensor.Tape, "backward",
                    self.traced("tensor.Tape.backward", tensor.Tape.backward))
        self._patch(optim.SgdMomentum, "step",
                    self.traced("optim.SgdMomentum.step", optim.SgdMomentum.step))
        record = tensor.Tape._record

        def counting_record(tape, kind, edges, shape):
            self.nodes += 1
            if edges:
                edges = [(pid, self.traced(f"tensor.{kind}.bwd.{getattr(vjp, '__name__', 'vjp')}", vjp))
                         for pid, vjp in edges]
            return record(tape, kind, edges, shape)

        self._patch(tensor.Tape, "_record", counting_record)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put back every original that install() replaced."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _capture_hooks(self, ensemble) -> dict:
        """Keep the features and logits behind each batch's soft targets, so
        the benchmark can rebuild Q on its own."""
        similarity, probabilities, closed_form = (
            ensemble.similarity_matrix, ensemble.probabilities, ensemble.soft_targets_closed_form)
        batch = self._batch

        def similarity_matrix(features, *args, **kwargs):
            batch["features"] = getattr(features, "data", features)
            return similarity(features, *args, **kwargs)

        def probabilities_hook(logits, tau, *args, **kwargs):
            batch["logits"], batch["tau"] = getattr(logits, "data", logits), tau
            return probabilities(logits, tau, *args, **kwargs)

        def soft_targets_closed_form(y_hat, p, omega, *args, **kwargs):
            result = closed_form(y_hat, p, omega, *args, **kwargs)
            q = np.asarray(getattr(result, "values", result))
            n = len(q)
            if len(batch.get("features", ())) == n and np.shape(batch.get("logits")) == q.shape:
                case = {**batch, "omega": omega, "q": q}
                self.captured.setdefault("first", case)
                if n >= self.max_batch:
                    self.captured["largest"] = case
            self.max_batch = max(self.max_batch, n)
            return result

        return {"similarity_matrix": similarity_matrix, "probabilities": probabilities_hook,
                "soft_targets_closed_form": soft_targets_closed_form}

    def mark(self) -> tuple[int, int]:
        """A point in the trace (span count, node count) to split stats at."""
        return len(self._start), self.nodes

    def stats(self, lo: tuple[int, int], hi: tuple[int, int]) -> dict:
        """name -> (count, inclusive s, self s) for the spans opened between
        two marks, plus the tape nodes recorded between them."""
        start = np.array(self._start, dtype=np.int64)
        end = np.array(self._end, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int32)
        name = np.array(self._name, dtype=np.int32)
        dur = (end - start).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        sl = slice(lo[0], hi[0])
        k = len(self.names)
        count = np.bincount(name[sl], minlength=k)
        incl = np.bincount(name[sl], weights=dur[sl], minlength=k)
        own = np.bincount(name[sl], weights=(dur - child)[sl], minlength=k)
        out = {n: (int(count[i]), float(incl[i]), float(own[i]))
               for i, n in enumerate(self.names) if count[i]}
        out["#nodes"] = hi[1] - lo[1]
        return out

    def layer_metrics(self, setup: dict, rounds: dict, n_rounds: int) -> dict[str, float]:
        """Per-layer metrics from the stats of the set-up and of all rounds."""
        per_setup = layer_values(setup, self.kinds)
        values = {m: v / n_rounds + (per_setup[m] if m in WITH_SETUP else 0.0)
                  for m, v in layer_values(rounds, self.kinds).items()}
        values["ensemble.soft_targets_max_n"] = self.max_batch
        return values

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (nid, s, e, p) in enumerate(zip(self._name, self._start, self._end, self._parent)):
                fh.write(f"{i}\t{self.names[nid]}\t{s}\t{e}\t{p}\n")


def _batch_size_suffix(args, kwargs) -> str:
    config = kwargs["config"] if "config" in kwargs else args[3]
    return f".n{config.batch_size}"


def layer_values(stats: dict, kinds: dict[str, str]) -> dict[str, float]:
    """The additive per-layer metrics from one stats() result."""

    def incl(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def count(n):
        return stats[n][0] if n in stats else 0

    def by_prefix(prefix, field):
        return sum(v[field] for n, v in stats.items() if n.startswith(prefix))

    values = {}
    for kind, function in kinds.items():
        values[f"tensor.{kind}.fwd_s"] = incl(f"tensor.{function}")
        values[f"tensor.{kind}.bwd_s"] = by_prefix(f"tensor.{kind}.bwd.", 1)
    values.update({
        "tensor.backward_s": incl("tensor.Tape.backward"),
        "tensor.nodes": stats["#nodes"],
        "augment.make_view_pair_s": incl("augment.make_view_pair"),
        "augment.views": count("augment.apply"),
        "optim.sgd_step_s": incl("optim.SgdMomentum.step"),
        "optim.ema_update_s": incl("optim.ema_update"),
        "selfsup.ssl_step_s": incl("selfsup.ssl_step"),
        "selfsup.steps": count("selfsup.ssl_step"),
        "models.encode_s": incl("models.encode"),
        "models.save_checkpoint_s": incl("models.save_checkpoint"),
        "models.load_checkpoint_s": incl("models.load_checkpoint"),
        "models.init_bundle_s": incl("models.init_bundle"),
        "ensemble.soft_targets_s": incl(*SOFT_TARGET_SPANS),
        "ensemble.bke_loss_s": incl("ensemble.bke_loss"),
        "ensemble.evaluate_classifier_s": incl("ensemble.evaluate_classifier"),
        "ensemble.steps": count("ensemble.bke_loss"),
        "ensemble.finetune_s": by_prefix("ensemble.finetune.n", 1),
        **{f"ensemble.finetune_s.n{n}": incl(f"ensemble.finetune.n{n}") for n in SWEEP_GRID},
        "data.synth_blobs_s": incl("data.synth_blobs"),
        "data.read_container_s": incl("data.read_container"),
        "data.batches_s": incl("data.batches"),
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = by_prefix(f"{layer}.", 2)
    return values

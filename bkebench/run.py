#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bke pipeline.

Run from the repository root::

    python3 bkebench/run.py --workload {pretrain,finetune,sweep_batch} \\
        --seed N --seconds S --trace {0,1}

Each workload drives ``bke.cli.main`` the way a user runs ``bke``. The
set-up synthesizes a blob dataset from ``--seed`` and, where the workload
needs one, pretrains a Phase-I checkpoint. Whole rounds of the workload's
commands then run until the next round would end after ``--seconds``, and
every round's artifacts must be byte-identical. The set-up is repeated
before the rounds and again after them; its median is ``setup_s``. The outputs are checked against computations in
``checks.py``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1``, the per-layer metrics of
a traced run (mostly the mean round, see ``tracing.py``).

Artifacts, the summary of the run and the spans of a traced run go to
``bkebench/out/<workload>/``. One process does all the work; it starts
no threads or processes of its own, and it limits BLAS to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: the matrices here are small, and on 2 shared cores the
# default pool of one thread per core made Phase-I rounds ~15% slower and
# far less steady. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SIDE = 16
# the A8 recipes: Phase I for 5 epochs at batch 32; Phase II with
# omega 0.5, lambda 1, tau 1, lr 0.5, momentum 0.5
PRETRAIN_EPOCHS = 5
PRETRAIN_ARGS = ("--epochs", str(PRETRAIN_EPOCHS), "--batch-size", "32")
FINETUNE_ARGS = ("--omega", "0.5", "--lambda", "1.0", "--tau", "1.0",
                 "--learning-rate", "0.5", "--momentum", "0.5")
FINETUNE_EPOCHS = 10
FINETUNE_BATCH = 16
SWEEP_EPOCHS = 2
POSITIVE_CLASS = 0

# The set-up is timed at the start of a run and again after its last round,
# each time at least this often and this long. Within a run the set-up
# times agree to a few percent, but the shared machine's speed differs by up
# to 40% between runs, so two samples half a minute apart steady the median.
SETUP_MIN_REPEATS = 2
SETUP_MIN_SECONDS = 1.0
ACC_BAR = 0.95  # A8's bar for separable blobs, for the fine-tuned model and the probe
LOSS_TERM_MAX = 4.0  # each cosine term is a mean of 2 - 2 cos, so it lies in [0, 4]
REPORT_TOL = 1e-12

END_TO_END = {"setup_s": "s", "wall_s": "s", "train_img_per_s": "img/s", "peak_rss_mib": "MiB"}


@dataclass(frozen=True)
class Workload:
    n_per_class: int
    test_per_class: int
    needs_checkpoint: bool
    epochs_per_round: int  # passes over the training split by the round's training command
    artifacts: tuple[str, ...]  # compared byte for byte between rounds

    @property
    def n_train(self) -> int:
        return 2 * (self.n_per_class - self.test_per_class)

    @property
    def output_dirs(self) -> tuple[str, ...]:
        """The directories a round writes, cleared before each round."""
        return tuple(sorted({Path(rel).parts[0] for rel in self.artifacts}))


WORKLOADS = {
    # the A8 desk set: 400 train / 200 test images
    "pretrain": Workload(300, 100, False, PRETRAIN_EPOCHS,
                         ("pre/checkpoint.bkec", "pre/pretrain_loss.csv")),
    "finetune": Workload(300, 100, True, FINETUNE_EPOCHS,
                         ("ft/model.bkec", "ft/metrics.csv", "ft/report.json", "ev/eval.json")),
    # 512 train images, so the N=512 grid point trains on one full batch
    "sweep_batch": Workload(306, 50, True, SWEEP_EPOCHS * len(tracing.SWEEP_GRID),
                            ("sw/sweep.csv",)),
}


class Bench:
    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = str(seed)
        self.work = work
        self.data = work / "blobs"
        self.phase1 = work / "phase1"

    def setup_commands(self) -> list[list[str]]:
        spec = self.spec
        commands = [["synth", "--out", str(self.data), "--n-per-class", str(spec.n_per_class),
                     "--side", str(SIDE), "--test-per-class", str(spec.test_per_class),
                     "--seed", self.seed]]
        if spec.needs_checkpoint:
            commands.append(["pretrain", "--data", str(self.data), "--out", str(self.phase1),
                             *PRETRAIN_ARGS, "--seed", self.seed])
        return commands

    def round_commands(self) -> list[list[str]]:
        """The workload's commands; the first one is the training command."""
        data, w, ckpt = str(self.data), self.work, str(self.phase1 / "checkpoint.bkec")
        if self.name == "pretrain":
            return [["pretrain", "--data", data, "--out", str(w / "pre"), *PRETRAIN_ARGS,
                     "--seed", self.seed]]
        if self.name == "finetune":
            return [["finetune", "--data", data, "--checkpoint", ckpt, "--out", str(w / "ft"),
                     *FINETUNE_ARGS, "--batch-size", str(FINETUNE_BATCH),
                     "--epochs", str(FINETUNE_EPOCHS), "--seed", self.seed],
                    ["eval", "--data", data, "--checkpoint", str(w / "ft" / "model.bkec"),
                     "--out", str(w / "ev"), "--subset", "test",
                     "--positive-class", str(POSITIVE_CLASS)]]
        return [["sweep", "--data", data, "--checkpoint", ckpt, "--out", str(w / "sw"),
                 "--param", "batch_size", *FINETUNE_ARGS, "--epochs", str(SWEEP_EPOCHS),
                 "--seed", self.seed]]

    def clear_outputs(self) -> None:
        for rel in self.spec.output_dirs:
            shutil.rmtree(self.work / rel, ignore_errors=True)

    def digest(self) -> list[str | None]:
        out = []
        for rel in self.spec.artifacts:
            path = self.work / rel
            out.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None)
        return out

    def dataset(self):
        from bke.data import read_container, read_split, split_path

        container = read_container(self.data)
        split = read_split(split_path(self.data))
        return container, list(split.train_indices), list(split.test_indices)

    def check(self, captured: dict | None) -> list[str]:
        errors = {"pretrain": self._check_pretrain, "finetune": self._check_finetune,
                  "sweep_batch": self._check_sweep}[self.name]()
        if captured is not None and self.name != "pretrain":
            errors += self._check_soft_targets(captured)
        return errors

    def _check_pretrain(self) -> list[str]:
        from bke.models import encode, load_checkpoint, mlp_forward, save_checkpoint

        errors = []
        ckpt = self.work / "pre" / "checkpoint.bkec"
        bundle = load_checkpoint(ckpt)
        copy = self.work / "roundtrip.bkec"
        save_checkpoint(bundle, copy)
        if copy.read_bytes() != ckpt.read_bytes():
            errors.append("pretrain: checkpoint does not round-trip bit for bit")

        lines = (self.work / "pre" / "pretrain_loss.csv").read_text().splitlines()
        if lines[0] != "epoch,loss_cv,loss_cm,loss_total" or len(lines) != PRETRAIN_EPOCHS + 1:
            errors.append(f"pretrain: loss log has {len(lines)} lines, header {lines[0]!r}")
        for line in lines[1:]:
            _, cv, cm, total = (float(c) for c in line.split(","))
            if not (0.0 <= cv <= LOSS_TERM_MAX and 0.0 <= cm <= LOSS_TERM_MAX):
                errors.append(f"pretrain: loss terms outside [0, {LOSS_TERM_MAX}]: {line}")
            if abs(total - (cv + cm)) > 1e-9:
                errors.append(f"pretrain: total loss is not cross-view + cross-model: {line}")

        container, train, test = self.dataset()
        spec = bundle.specs.encoder
        train_feats = encode(bundle.online_encoder, spec, container.images[train]).data
        test_feats = encode(bundle.online_encoder, spec, container.images[test]).data
        acc = checks.nearest_centroid_accuracy(train_feats, container.labels[train],
                                               test_feats, container.labels[test])
        if acc < ACC_BAR:
            errors.append(f"pretrain: nearest-centroid probe accuracy {acc:.4f} < {ACC_BAR}")
        ratio = checks.collapse_ratio(mlp_forward(bundle.online_projector, test_feats).data)
        log(f"pretrain: probe accuracy {acc:.4f}; l2-normalized projection std x sqrt(d) "
            f"= {ratio:.3e} (1 = spread, 0 = collapsed); encoder feature std "
            f"{test_feats.std(axis=0).mean():.3e}")
        return errors

    def _check_finetune(self) -> list[str]:
        from bke.models import encode, load_checkpoint, mlp_forward

        errors = []
        bundle = load_checkpoint(self.work / "ft" / "model.bkec")
        container, _, test = self.dataset()
        feats = encode(bundle.online_encoder, bundle.specs.encoder, container.images[test])
        logits = mlp_forward(bundle.classifier, feats).data
        labels = container.labels[test]
        cm = checks.confusion(logits.argmax(axis=1), labels, logits.shape[1])
        ours = checks.rates(cm, POSITIVE_CLASS)
        ours["auc"] = checks.auc(checks.softmax(logits, 1.0)[:, POSITIVE_CLASS],
                                 labels == POSITIVE_CLASS)
        reported = json.loads((self.work / "ev" / "eval.json").read_text())
        for key, value in ours.items():
            if abs(reported.get(key, math.nan) - value) > REPORT_TOL:
                errors.append(f"finetune: eval.json {key}={reported.get(key)} but "
                              f"the test predictions give {value}")
        if ours["acc"] < ACC_BAR:
            errors.append(f"finetune: final test accuracy {ours['acc']:.4f} < {ACC_BAR}")
        return errors

    def _check_sweep(self) -> list[str]:
        lines = (self.work / "sw" / "sweep.csv").read_text().splitlines()
        if lines[0] != "param,value,hm,acc":
            return [f"sweep: unexpected header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        grid = [(r[0], int(r[1])) for r in rows]
        errors = []
        if grid != [("batch_size", n) for n in tracing.SWEEP_GRID]:
            errors.append(f"sweep: rows {grid} are not the grid {tracing.SWEEP_GRID} in order")
        for r in rows:
            if not all(0.0 <= float(v) <= 1.0 for v in r[2:]):
                errors.append(f"sweep: value outside [0, 1] in row {','.join(r)}")
        return errors

    def _check_soft_targets(self, captured: dict) -> list[str]:
        if "first" not in captured:
            return [f"{self.name}: no soft-target batch was captured"]
        errors = []
        cases = [captured["first"]]
        if captured["largest"] is not captured["first"]:
            cases.append(captured["largest"])
        if self.name == "sweep_batch" and len(cases[-1]["q"]) != max(tracing.SWEEP_GRID):
            errors.append(f"sweep: largest soft-target batch has {len(cases[-1]['q'])} rows")
        for case in cases:
            errors += checks.soft_target_errors(case["features"], case["logits"], case["tau"],
                                                case["omega"], case["q"])
        log(f"{self.name}: soft targets of batches of {[len(c['q']) for c in cases]} rows "
            "checked against both routes")
        return errors


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def run_commands(commands: list[list[str]]) -> tuple[list[float], int]:
    """Run bke commands in order; their times and how many failed."""
    from bke import cli

    times, failed = [], 0
    for argv in commands:
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        times.append(time.perf_counter() - start)
        if code != 0:
            failed += 1
            log(f"bke {' '.join(argv)} exited {code}: {captured.getvalue()}")
    return times, failed


def set_up(bench: Bench, once: bool) -> list[float] | None:
    """The times of the repeated set-up (one, if once), or None if it failed."""
    setup_s = []
    while True:
        times, failed = run_commands(bench.setup_commands())
        if failed:
            log("error: set-up failed")
            return None
        setup_s.append(sum(times))
        if once or (len(setup_s) >= SETUP_MIN_REPEATS and sum(setup_s) >= SETUP_MIN_SECONDS):
            return setup_s


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bke" / "cli.py").is_file():
        log(f"error: no bke sources at {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)

    marks = [tracer.mark()] if tracer else []
    setup_s = set_up(bench, once=tracer is not None)
    if setup_s is None:
        return 1
    if tracer:
        marks.append(tracer.mark())

    commands = bench.round_commands()
    wall_s, train_s, digests = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # so a round that writes nothing leaves no earlier round's files to check
        bench.clear_outputs()
        times, round_failed = run_commands(commands)
        attempted += len(commands)
        failed += round_failed
        wall_s.append(sum(times))
        train_s.append(times[0])
        digests.append(bench.digest())
        if time.perf_counter() - start + wall_s[-1] > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        marks.append(tracer.mark())
    else:
        # the same inputs again, so the checks below still see this seed's outputs
        more = set_up(bench, once=False)
        if more is None:
            return 1
        setup_s += more

    try:
        errors = bench.check(tracer.captured if tracer else None)
    except (OSError, ValueError, IndexError, KeyError) as exc:  # missing or malformed outputs
        errors = [f"{args.workload}: outputs could not be read: {exc!r}"]
    errors += [f"round {i + 1} artifacts differ from round 1"
               for i, d in enumerate(digests) if d != digests[0]]
    for error in errors:
        log(f"CHECK FAILED {error}")

    images = bench.spec.n_train * bench.spec.epochs_per_round
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "setup_s": setup_s, "wall_s": wall_s, "train_s": train_s,
               "train_images_per_round": images, "environment": environment()}
    if tracer:
        setup, rounds = tracer.stats(marks[0], marks[1]), tracer.stats(marks[1], marks[2])
        values = tracer.layer_metrics(setup, rounds, len(wall_s))
        units = {name: tracing.UNITS.get(name, "s") for name in values}
        summary["spans"] = {"setup": setup, "rounds": rounds}
        tracer.write(work / "spans.tsv")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(wall_s),
            "train_img_per_s": statistics.median(images / t for t in train_s),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    summary["metrics"] = metrics
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    for name, m in metrics.items():
        log(f"{args.workload:12s} {name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not errors and not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: synth, pretrain, finetune, eval, propagate, sweep,
gradcheck.

A command is one entry of ``COMMANDS``: its handler and its options. An
option with no default is required; an empty value counts as missing.
Configuration precedence is CLI flag > JSON config file (``--config``) >
built-in default. Unknown config keys are rejected. Every command that
produces artifacts echoes its effective configuration as JSON next to
them, and every command is deterministic given (config, seed): rerunning
at the same BLAS thread count (``OPENBLAS_NUM_THREADS``) writes
byte-identical files. At another thread count a checkpoint can differ in
its last bits, since BLAS may then sum in another order.

The pretrain, finetune and sweep options are the fields of ``SslConfig``
and ``BkeConfig`` (``--lambda`` sets ``BkeConfig.lam``). Configs and
model specs check themselves when they are built, so a bad value fails
before any training starts or any file is written.

Datasets are referenced by prefix: ``<prefix>.bkei`` (images),
``<prefix>.bkel`` (labels), ``<prefix>.split.json`` (train/test split).
Every dataset command reads all three; a missing split manifest is an
error.

When a fork pays by the rule in ``procs``, ``sweep`` trains the first
half of its grid in a forked child and ``pretrain`` runs part of each
Phase-I step in a forked worker (see ``selfsup``), and the files, stdout
and ``error:`` line are the bytes of the one-process run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import procs
from . import tensor as T
from .data import (
    ContainerError,
    read_container,
    read_split,
    split_path,
    stratified_split,
    stratified_subsample,
    synth_blobs,
    write_container,
    write_split,
)
from .ensemble import (
    BkeConfig,
    bke_loss,
    evaluate_classifier,
    finetune,
    probabilities,
    soft_targets,
)
from .metrics import write_epoch_csv, write_report_json
from .models import load_checkpoint, save_checkpoint
from .rng import substream
from .selfsup import (CollapseError, SslConfig, cross_model_loss, cross_view_loss, pretrain,
                      write_loss_csv)
from .textio import read_float_matrix, write_csv, write_float_matrix, write_json

DEFAULT_GRIDS: dict[str, list] = {
    "omega": [0.1, 0.3, 0.5, 0.7, 0.9],
    "batch_size": [32, 64, 128, 256, 512],
    "tau": [2.0, 4.0, 8.0, 16.0],
    "lambda": [0.5, 1.0, 2.0, 4.0],
}


@dataclass(frozen=True)
class Field:
    name: str
    kind: type
    default: object
    help: str
    choices: tuple | None = None


# help for the fields of SslConfig and BkeConfig
_HELP = {
    "epochs": "training epochs",
    "batch_size": "training batch size (the graph size N when fine-tuning)",
    "learning_rate": "SGD learning rate",
    "momentum": "SGD momentum",
    "zeta": "EMA decay for the target network",
    "seed": "RNG seed",
    "omega": "ensembling weight in [0,1)",
    "lam": "weight of the KL term",
    "tau": "softmax temperature for soft targets",
    "positive_class": "class treated as positive",
}
# config field -> option, where the field name is a Python keyword
_OPTION = {"lam": "lambda"}


def _config_fields(cls) -> list[Field]:
    """One option per field of a config dataclass, of its default's type."""
    return [Field(_OPTION.get(f.name, f.name), type(f.default), f.default, _HELP[f.name])
            for f in fields(cls)]


def _config(cls, cfg: dict):
    """The config dataclass the options describe; building it checks it."""
    return cls(**{f.name: cfg[_OPTION.get(f.name, f.name)] for f in fields(cls)})


_FRACTION = Field("fraction", float, 1.0, "per-class fraction of labeled training data")


class ConfigError(ValueError):
    pass


_KIND_WORDS = {bool: "a boolean", int: "an integer", float: "float", str: "str"}


def _coerce(field: Field, value, source: str):
    """A config-file value of exactly the option's type, after an int is
    widened for a float option; so neither true nor 1.0 passes as an int."""
    if field.kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{source}: {field.name} must be float, got an integer too large for one"
            ) from None
    if type(value) is not field.kind:
        raise ConfigError(
            f"{source}: {field.name} must be {_KIND_WORDS[field.kind]}, got {value!r}"
        )
    return value


def build_config(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, with unknown keys rejected."""
    fields = {f.name: f for f in COMMANDS[command][1]}
    effective = {name: f.default for name, f in fields.items()}

    config_path = args.config
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{config_path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: top level must be an object")
        unknown = sorted(set(doc) - set(fields))
        if unknown:
            raise ConfigError(f"{config_path}: unknown config keys: {', '.join(unknown)}")
        for key, value in doc.items():
            effective[key] = _coerce(fields[key], value, config_path)
    # the parser sets only the flags given, already typed
    effective.update((k, v) for k, v in vars(args).items() if k in fields)

    missing = [n for n, f in fields.items() if f.default is None and effective[n] in (None, "")]
    if missing:
        raise ConfigError(f"missing required options: {', '.join('--' + m for m in missing)}")
    for name, field in fields.items():
        if field.choices and effective[name] not in field.choices:
            raise ConfigError(
                f"{name} must be one of {', '.join(map(str, field.choices))}, "
                f"got {effective[name]!r}"
            )
    return effective


def _echo_config(command: str, cfg: dict, path: Path) -> None:
    write_json(path, {"command": command, **cfg})


def _load_dataset(prefix: str):
    """The container and its split manifest, which must exist."""
    container = read_container(prefix)
    manifest = split_path(prefix)
    split = read_split(manifest)
    top = max(split.train_indices + split.test_indices, default=-1)
    if top >= len(container):
        raise ContainerError(f"split manifest {manifest}: index {top} is past the end "
                             f"of {len(container)} images")
    return container, split


def _finetune_data(cfg: dict):
    """The dataset and its split, with the train side cut to a per-class fraction."""
    container, split = _load_dataset(cfg["data"])
    for side, indices in (("train", split.train_indices), ("test", split.test_indices)):
        if not indices:
            raise ConfigError(f"{split_path(cfg['data'])}: split has no {side} indices")
    train = list(split.train_indices)
    keep = stratified_subsample(container.labels[train], cfg["fraction"], cfg["seed"])
    return container, replace(split, train_indices=tuple(train[i] for i in keep))


# --- commands ----------------------------------------------------------------


def _cmd_synth(cfg: dict) -> int:
    if cfg["test_per_class"] >= cfg["n_per_class"]:
        raise ConfigError("test_per_class must be smaller than n_per_class")
    container = synth_blobs(cfg["n_per_class"], cfg["side"], cfg["seed"])
    # the split is built before any file is written, so a bad split leaves none
    split = stratified_split(container.labels, cfg["test_per_class"], cfg["seed"])
    prefix = cfg["out"]
    write_container(container, prefix)
    write_split(split, split_path(prefix))
    _echo_config("synth", cfg, Path(str(prefix) + ".synth.config.json"))
    print(
        f"wrote {len(container)} images ({cfg['side']}x{cfg['side']}) to {prefix}: "
        f"{len(split.train_indices)} train / {len(split.test_indices)} test"
    )
    return 0


def _cmd_pretrain(cfg: dict) -> int:
    ssl_cfg = _config(SslConfig, cfg)
    container, split = _load_dataset(cfg["data"])
    images = container.pixels[list(split.train_indices)]
    out_dir = Path(cfg["out"])
    _, history = pretrain(images, ssl_cfg, checkpoint_path=out_dir / "checkpoint.bkec")
    write_loss_csv(history, out_dir / "pretrain_loss.csv")
    _echo_config("pretrain", cfg, out_dir / "config.json")
    final = history[-1]
    print(
        f"pretrained {ssl_cfg.epochs} epochs on {len(images)} images; "
        f"final loss {final.loss_total:.6f} (cv {final.loss_cv:.6f}, cm {final.loss_cm:.6f})"
    )
    return 0


def _cmd_finetune(cfg: dict) -> int:
    config = _config(BkeConfig, cfg)
    container, split = _finetune_data(cfg)
    bundle, history, report = finetune(container, split, cfg["checkpoint"], config)
    out_dir = Path(cfg["out"])
    save_checkpoint(bundle, out_dir / "model.bkec")
    write_epoch_csv(history, out_dir / "metrics.csv")
    write_report_json(report, out_dir / "report.json")
    _echo_config("finetune", cfg, out_dir / "config.json")
    print(
        f"fine-tuned {config.epochs} epochs on {len(split.train_indices)} images; "
        f"last-{report.window}-epoch mean acc {report.means['acc']:.4f}, "
        f"hm {report.means['hm']:.4f}"
    )
    return 0


def _cmd_eval(cfg: dict) -> int:
    container, split = _load_dataset(cfg["data"])
    bundle = load_checkpoint(cfg["checkpoint"])
    if cfg["subset"] == "train":
        indices = list(split.train_indices)
    elif cfg["subset"] == "test":
        indices = list(split.test_indices)
    else:
        indices = list(range(len(container)))
    if not indices:
        raise ConfigError(f"subset {cfg['subset']!r} of {cfg['data']} is empty")
    scores = evaluate_classifier(bundle, container, indices, cfg["positive_class"])
    out_dir = Path(cfg["out"])
    write_json(out_dir / "eval.json", scores)
    _echo_config("eval", cfg, out_dir / "config.json")
    print(
        f"evaluated {len(indices)} {cfg['subset']} images: "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(scores.items()))
    )
    return 0


def _cmd_propagate(cfg: dict) -> int:
    features = read_float_matrix(cfg["features"])
    logits = read_float_matrix(cfg["logits"])
    if len(features) != len(logits):
        raise ConfigError(
            f"row count mismatch: {len(features)} feature rows vs {len(logits)} logit rows"
        )
    iters = None if cfg["method"] == "closed" else cfg["iters"]
    q = soft_targets(features, logits, cfg["omega"], cfg["tau"], iters)
    out = Path(cfg["out"])
    write_float_matrix(q.values, out)
    _echo_config("propagate", cfg, Path(str(out) + ".config.json"))
    print(f"wrote {q.values.shape[0]}x{q.values.shape[1]} soft targets ({q.method}) to {out}")
    return 0


def _parse_grid(param: str, raw: str) -> list:
    if not raw:
        return list(DEFAULT_GRIDS[param])
    values = []
    for cell in raw.split(","):
        cell = cell.strip()
        try:
            values.append(int(cell) if param == "batch_size" else float(cell))
        except ValueError:
            raise ConfigError(f"bad grid value {cell!r} for {param}") from None
    if not values:
        raise ConfigError("empty grid")
    return values


def _outcomes(train: Callable[[int], tuple], indices) -> Iterator:
    """train(i) for each index, until one raises: its exception is the last outcome."""
    for i in indices:
        try:
            outcome = train(i)
        except Exception as exc:
            outcome = exc
        yield outcome
        if isinstance(outcome, Exception):
            return


def _forked_outcomes(train: Callable[[int], tuple], labels: list[str]) -> Iterable:
    """The outcomes of every grid point: a forked child trains the first half
    and writes each (hm, acc) to shared memory while this process trains
    the rest. The first point the child left without a result gets the
    child's exception, or an error naming the child's points and its exit
    status. When the child cannot be made, this process trains every
    point itself."""
    half = len(labels) // 2
    [results] = procs.shared_arrays([(half, 2)])

    def child(parent: procs.Peer) -> None:
        for i in range(half):
            results[i] = train(i)
            parent.signal()

    name = f"the sweep's child process for {', '.join(labels[:half])}"
    with procs.forked(child, name) as worker:
        if worker is None:
            return _outcomes(train, range(len(labels)))
        ours = list(_outcomes(train, range(half, len(labels))))
        theirs = []
        for i in range(half):
            try:
                worker.wait(i + 1, f"without a result for {labels[i]}")
            except Exception as exc:
                theirs.append(exc)
                break
            hm, acc = results[i]
            theirs.append((float(hm), float(acc)))
    return theirs + ours


def _cmd_sweep(cfg: dict) -> int:
    grid = _parse_grid(cfg["param"], cfg["values"])
    # every grid point's config is built (and so checked) before any training
    configs = [_config(BkeConfig, {**cfg, cfg["param"]: value}) for value in grid]
    container, split = _finetune_data(cfg)
    labels = [f"{cfg['param']}={value}" for value in grid]

    def train(i: int) -> tuple[float, float]:
        try:
            _, _, report = finetune(container, split, cfg["checkpoint"], configs[i])
        except CollapseError as exc:
            raise CollapseError(f"{labels[i]}: {exc}") from exc
        return report.means["hm"], report.means["acc"]

    if procs.fork_pays(len(grid)):
        outcomes = _forked_outcomes(train, labels)
    else:
        outcomes = _outcomes(train, range(len(grid)))
    rows = []
    for value, label, outcome in zip(grid, labels, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        hm, acc = outcome
        rows.append((cfg["param"], value, hm, acc))
        print(f"{label}: hm {hm:.4f}, acc {acc:.4f}")
    out_dir = Path(cfg["out"])
    write_csv(out_dir / "sweep.csv", ("param", "value", "hm", "acc"), rows)
    _echo_config("sweep", cfg, out_dir / "config.json")
    print(f"swept {len(rows)} values of {cfg['param']} -> {out_dir / 'sweep.csv'}")
    return 0


def _gradcheck_instances(seed: int, perturb: bool):
    """Three small loss instances; perturb injects a tape-only term into
    the first so autodiff and finite differences disagree."""
    rng = substream(seed, "gradcheck")

    def randn(*shape):
        # Box-Muller: sqrt(-2 ln u1) cos(2 pi u2) is standard normal for uniform
        # u1, u2; u1 is floored at 2^-53 so the log stays finite
        u = rng.next_floats(2 * int(np.prod(shape)))
        u1 = np.maximum(u[0::2], 2.0**-53)
        return (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u[1::2])).reshape(shape)

    def wrong(loss, leaf):
        if perturb and leaf.tape is not None:
            return T.add(loss, T.scale(T.mean_all(leaf), 0.01))
        return loss

    q1, q1p = randn(3, 5), randn(3, 5)
    z2 = randn(3, 5)
    logits = randn(4, 3)
    labels = np.array([0, 2, 1, 2])
    q = probabilities(randn(4, 3), 1.0).values

    yield "cross_view", {"q1": q1, "q1p": q1p}, (
        lambda p: wrong(cross_view_loss(p["q1"], p["q1p"]), p["q1"])
    )
    yield "cross_model", {"q1p": q1p}, (lambda p: cross_model_loss(p["q1p"], z2))
    yield "bke", {"logits": logits}, (
        lambda p: bke_loss(p["logits"], labels, q, tau=1.7, lam=2.0)
    )


def _cmd_gradcheck(cfg: dict) -> int:
    failed = False
    for name, params, fn in _gradcheck_instances(cfg["seed"], cfg["perturb"]):
        report = T.finite_difference_check(fn, params)
        status = "ok" if report.passed else "FAIL"
        print(
            f"{name}: max rel err {report.max_rel_err:.3e} over "
            f"{report.n_components} components [{status}]"
        )
        failed = failed or not report.passed
    return 1 if failed else 0


COMMANDS: dict[str, tuple[Callable[[dict], int], list[Field]]] = {
    "synth": (_cmd_synth, [
        Field("out", str, None, "output dataset prefix"),
        Field("n_per_class", int, 300, "images per class"),
        Field("side", int, 16, "image side in pixels"),
        Field("test_per_class", int, 100, "held-out test images per class"),
        Field("seed", int, 0, "RNG seed"),
    ]),
    "pretrain": (_cmd_pretrain, [
        Field("data", str, None, "dataset prefix"),
        Field("out", str, None, "output directory"),
        *_config_fields(SslConfig),
    ]),
    "finetune": (_cmd_finetune, [
        Field("data", str, None, "dataset prefix"),
        Field("checkpoint", str, None, "Phase-I checkpoint path"),
        Field("out", str, None, "output directory"),
        *_config_fields(BkeConfig),
        _FRACTION,
    ]),
    "eval": (_cmd_eval, [
        Field("data", str, None, "dataset prefix"),
        Field("checkpoint", str, None, "fine-tuned model checkpoint"),
        Field("out", str, None, "output directory"),
        Field("subset", str, "test", "which split to score", choices=("train", "test", "all")),
        Field("positive_class", int, 0, "class treated as positive"),
    ]),
    "propagate": (_cmd_propagate, [
        Field("features", str, None, "CSV of features, one row per sample"),
        Field("logits", str, None, "CSV of logits, one row per sample"),
        Field("out", str, None, "output CSV for the soft targets"),
        Field("omega", float, 0.5, "ensembling weight in [0,1)"),
        Field("tau", float, 1.0, "softmax temperature"),
        Field("method", str, "closed", "propagation method", choices=("closed", "iter")),
        Field("iters", int, 200, "iterations for --method iter"),
    ]),
    "sweep": (_cmd_sweep, [
        Field("data", str, None, "dataset prefix"),
        Field("checkpoint", str, None, "Phase-I checkpoint path"),
        Field("out", str, None, "output directory"),
        Field("param", str, None, "hyperparameter to sweep", choices=tuple(DEFAULT_GRIDS)),
        Field("values", str, "", "comma-separated grid (default: built-in grid)"),
        *_config_fields(BkeConfig),
        _FRACTION,
    ]),
    "gradcheck": (_cmd_gradcheck, [
        Field("seed", int, 0, "RNG seed for the random instances"),
        Field("perturb", bool, False, "inject a wrong gradient (negative control)"),
    ]),
}


@functools.lru_cache(maxsize=None)  # built once per process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bke", description="two-phase self-supervised training pipeline"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, fields) in COMMANDS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", help="JSON config file")
        for field in fields:
            typed = ({"action": "store_true"} if field.kind is bool
                     else {"type": field.kind, "choices": field.choices})
            sub.add_argument("--" + field.name.replace("_", "-"), default=argparse.SUPPRESS,
                             help=field.help, **typed)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args.command, args)
        # a blow-up is reported once, by the finite check that raises, not by numpy warnings too
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return COMMANDS[args.command][0](cfg)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

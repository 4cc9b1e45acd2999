import errno
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bke import cli, procs
from bke.cli import COMMANDS, DEFAULT_GRIDS, main
from bke.data import read_container, read_split
from bke.metrics import read_epoch_csv
from bke.textio import read_float_matrix

from test_procs import process_state

DATA_DIR = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    return main([str(a) for a in argv])


def make_dataset(tmp_path, seed=3):
    prefix = tmp_path / "ds"
    assert run("synth", "--out", prefix, "--n-per-class", 6, "--side", 16,
               "--test-per-class", 2, "--seed", seed) == 0
    return prefix


def make_checkpoint(tmp_path, prefix):
    out = tmp_path / "pre"
    assert run("pretrain", "--data", prefix, "--out", out,
               "--epochs", 1, "--batch-size", 8, "--seed", 1) == 0
    return out / "checkpoint.bkec"


# --- synth ------------------------------------------------------------------


def test_synth_writes_dataset_and_split(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    container = read_container(prefix)
    assert container.images.shape == (12, 1, 16, 16)
    split = read_split(Path(str(prefix) + ".split.json"))
    assert len(split.train_indices) == 8 and len(split.test_indices) == 4
    echoed = json.loads(Path(str(prefix) + ".synth.config.json").read_text())
    assert echoed["command"] == "synth" and echoed["seed"] == 3
    assert "8 train / 4 test" in capsys.readouterr().out


def test_synth_rerun_is_byte_identical(tmp_path):
    prefix = make_dataset(tmp_path)
    artifacts = [Path(str(prefix) + suffix)
                 for suffix in (".bkei", ".bkel", ".split.json", ".synth.config.json")]
    before = [p.read_bytes() for p in artifacts]
    make_dataset(tmp_path)
    assert [p.read_bytes() for p in artifacts] == before


def test_synth_rejects_oversized_holdout(tmp_path, capsys):
    assert run("synth", "--out", tmp_path / "x", "--n-per-class", 3,
               "--test-per-class", 3) == 1
    assert "test_per_class" in capsys.readouterr().err


def test_failed_synth_writes_nothing(tmp_path, capsys):
    # without its split manifest, a later pretrain would train on every image
    assert run("synth", "--out", tmp_path / "x", "--n-per-class", 3,
               "--test-per-class", 0) == 1
    assert "test_per_class must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- config handling -----------------------------------------------------------


def test_flag_beats_config_file_beats_default(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": 5, "n_per_class": 4}))
    prefix = tmp_path / "ds"
    assert run("synth", "--config", config, "--out", prefix, "--seed", 7,
               "--test-per-class", 1) == 0
    echoed = json.loads(Path(str(prefix) + ".synth.config.json").read_text())
    assert echoed["seed"] == 7          # flag wins
    assert echoed["n_per_class"] == 4   # file beats default
    assert echoed["side"] == 16         # default


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"bogus": 1, "zeal": 2}))
    assert run("synth", "--config", config, "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert "unknown config keys: bogus, zeal" in err


def test_invalid_json_config_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("{nope")
    assert run("synth", "--config", config, "--out", tmp_path / "x") == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_wrong_config_value_type_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"seed": "seven"}))
    assert run("synth", "--config", config, "--out", tmp_path / "x") == 1
    assert "seed must be an integer" in capsys.readouterr().err


def test_missing_required_flag_reported(capsys):
    assert run("synth") == 1
    assert "missing required options: --out" in capsys.readouterr().err


def test_choices_checked_for_config_values(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"subset": "validation"}))
    assert run("eval", "--config", config, "--data", "x", "--checkpoint", "y",
               "--out", tmp_path / "o") == 1
    assert "subset must be one of train, test, all" in capsys.readouterr().err


PROPAGATE = ("propagate", "--features", DATA_DIR / "features.csv",
             "--logits", DATA_DIR / "logits.csv", "--out", "q.csv")


@pytest.mark.parametrize("doc, argv, code, wanted", [
    # a flag given at its built-in default still beats the file
    ({"seed": 3}, ("synth", "--out", "ds", "--seed", 0, "--n-per-class", 4,
                   "--test-per-class", 1), 0, ("ds.synth.config.json", "seed", 0)),
    # an int from the file is widened for a float option
    ({"tau": 2}, PROPAGATE, 0, ("q.csv.config.json", "tau", 2.0)),
    # a true from the file holds when the store_true flag is absent
    ({"perturb": True}, ("gradcheck", "--seed", 4), 1, "[FAIL]"),
    ({"seed": True}, ("synth", "--out", "ds"), 1, "c.json: seed must be an integer, got True"),
    ({"seed": 1.0}, ("synth", "--out", "ds"), 1, "c.json: seed must be an integer, got 1.0"),
    ({"tau": False}, PROPAGATE, 1, "c.json: tau must be float, got False"),
])
def test_config_file_values_are_typed_and_flags_given_beat_them(tmp_path, capsys, monkeypatch,
                                                                 doc, argv, code, wanted):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(json.dumps(doc))
    assert run(*argv, "--config", "c.json") == code
    if isinstance(wanted, str):
        captured = capsys.readouterr()
        assert wanted in captured.out + captured.err
    else:
        echo, key, value = wanted
        echoed = json.loads(Path(echo).read_text())[key]
        assert echoed == value and type(echoed) is type(value)


def test_config_integer_too_large_for_a_float_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text('{"tau": 1' + "0" * 400 + "}")
    assert run(*PROPAGATE, "--config", "c.json") == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: c.json: tau must be float, got an integer too large for one"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("argv, message", [
    (("synth", "--config", "", "--out", "ds"), "No such file or directory: ''"),
    # an unset shell variable (--out "$OUT") must not write hidden files into the cwd
    (("synth", "--out", ""), "missing required options: --out"),
    (("pretrain", "--data", "", "--out", "o"), "missing required options: --data"),
])
def test_empty_path_is_an_error_and_writes_nothing(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_is_built_from_the_command_table(command, capsys):
    options = COMMANDS[command][1]
    with pytest.raises(SystemExit) as exc:
        run(command, "--help")
    assert exc.value.code == 0
    flags = {"--" + f.name.replace("_", "-") for f in options}
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == {
        "--help", "--config", *flags}
    required = ["--" + f.name for f in options if f.default is None]
    if required:  # reported all at once, in table order
        assert run(command) == 1
        assert capsys.readouterr().err == f"error: missing required options: {', '.join(required)}\n"


# --- pretrain / finetune / eval flow ----------------------------------------------


def test_full_pipeline(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    assert checkpoint.exists()
    pre_dir = checkpoint.parent
    loss_rows = (pre_dir / "pretrain_loss.csv").read_text().strip().split("\n")
    assert loss_rows[0] == "epoch,loss_cv,loss_cm,loss_total"
    assert len(loss_rows) == 2  # 1 epoch
    assert json.loads((pre_dir / "config.json").read_text())["command"] == "pretrain"

    ft_dir = tmp_path / "ft"
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint,
               "--out", ft_dir, "--epochs", 2, "--batch-size", 4,
               "--learning-rate", 0.2, "--seed", 2) == 0
    history = read_epoch_csv(ft_dir / "metrics.csv")
    assert [h.epoch for h in history] == [0, 1]
    report = json.loads((ft_dir / "report.json").read_text())
    assert set(report) == {"sen", "spe", "hm", "auc", "acc"}
    out = capsys.readouterr().out
    assert "fine-tuned 2 epochs on 8 images" in out

    ev_dir = tmp_path / "ev"
    assert run("eval", "--data", prefix, "--checkpoint", ft_dir / "model.bkec",
               "--out", ev_dir, "--subset", "test") == 0
    scores = json.loads((ev_dir / "eval.json").read_text())
    assert set(scores) == {"sen", "spe", "hm", "auc", "acc"}
    assert "evaluated 4 test images" in capsys.readouterr().out


def test_echoed_config_keys(tmp_path):
    """The training options are the config fields; pin the keys they echo."""
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    train = ("--data", prefix, "--checkpoint", checkpoint, "--epochs", 1, "--batch-size", 4)
    assert run("finetune", *train, "--out", tmp_path / "ft") == 0
    assert run("sweep", *train, "--out", tmp_path / "sw", "--param", "tau", "--values", "2") == 0
    shared = {"command", "data", "out", "seed", "epochs", "batch_size", "learning_rate",
              "momentum"}
    finetune = shared | {"checkpoint", "omega", "lambda", "tau", "positive_class", "fraction"}
    for out_dir, keys in (("pre", shared | {"zeta"}), ("ft", finetune),
                          ("sw", finetune | {"param", "values"})):
        assert set(json.loads((tmp_path / out_dir / "config.json").read_text())) == keys


def test_finetune_rerun_is_byte_identical(tmp_path):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    ft_dir = tmp_path / "ft"
    argv = ("finetune", "--data", prefix, "--checkpoint", checkpoint, "--out", ft_dir,
            "--epochs", 1, "--batch-size", 4, "--seed", 2)
    assert run(*argv) == 0
    names = ("model.bkec", "metrics.csv", "report.json", "config.json")
    before = [(ft_dir / n).read_bytes() for n in names]
    assert run(*argv) == 0
    assert [(ft_dir / n).read_bytes() for n in names] == before


def test_finetune_fraction_subsamples_train_side(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint,
               "--out", tmp_path / "ft", "--epochs", 1, "--batch-size", 4,
               "--fraction", 0.5, "--seed", 2) == 0
    assert "on 4 images" in capsys.readouterr().out


def test_finetune_rejects_bad_fraction(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint,
               "--out", tmp_path / "ft", "--fraction", 1.5) == 1
    assert "fraction" in capsys.readouterr().err


@pytest.mark.parametrize("flag,name", [("--lambda", "lambda"), ("--tau", "tau"),
                                       ("--learning-rate", "learning_rate")])
def test_finetune_rejects_nan_option_before_writing(tmp_path, capsys, flag, name):
    # argparse's float accepts "nan" and "inf"; the config check must name the
    # option rather than let the run go on as plain CE or fail inside training
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    out = tmp_path / "ft"
    for bad in ("nan", "inf"):
        assert run("finetune", "--data", prefix, "--checkpoint", checkpoint, "--out", out,
                   flag, bad) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be") and bad in err
        assert not out.exists()


def test_finetune_divergence_names_phase_epoch_batch(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    out = tmp_path / "ft"
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint, "--out", out,
               "--epochs", 1, "--batch-size", 4, "--learning-rate", 1e8, "--seed", 2) == 1
    err = capsys.readouterr().err
    assert "finetune failed at epoch 0, batch starting" in err
    assert not out.exists()


def test_finetune_rejects_checkpoint_with_renamed_param(tmp_path, capsys):
    from bke.models import load_checkpoint, save_checkpoint

    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    bundle = load_checkpoint(checkpoint)
    bundle.online_encoder["stage0.v"] = bundle.online_encoder.pop("stage0.w")
    save_checkpoint(bundle, checkpoint)
    out = tmp_path / "ft"
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint, "--out", out,
               "--epochs", 1, "--batch-size", 4, "--seed", 2) == 1
    err = capsys.readouterr().err
    assert "checkpoint missing online_encoder/stage0.w" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_finetune_and_sweep_reject_empty_train_split(tmp_path, capsys):
    # before, both trained on nothing and wrote the untrained head's metrics
    prefix = make_dataset(tmp_path)
    manifest = tmp_path / "ds.split.json"
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, "train": []}))
    # the checkpoint does not exist: the split is refused before it is read
    common = ("--data", prefix, "--checkpoint", tmp_path / "missing.bkec", "--epochs", 1)
    for argv in (("finetune", *common), ("sweep", *common, "--param", "tau", "--values", "2")):
        out = tmp_path / argv[0]
        assert run(*argv, "--out", out) == 1
        assert "split has no train indices" in capsys.readouterr().err
        assert not out.exists()


def make_finetuned(tmp_path, prefix, checkpoint):
    ft_dir = tmp_path / "ft"
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint,
               "--out", ft_dir, "--epochs", 1, "--batch-size", 4) == 0
    return ft_dir / "model.bkec"


def corrupt_param(checkpoint, value, where=(0, 0, 1, 1)):
    from bke.models import load_checkpoint, save_checkpoint

    bundle = load_checkpoint(checkpoint)
    bundle.online_encoder["stage0.w"][where] = value
    save_checkpoint(bundle, checkpoint)


@pytest.mark.parametrize("command,bad", [("eval", np.nan), ("finetune", np.inf)])
def test_checkpoint_with_non_finite_param_rejected(tmp_path, capsys, command, bad):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    if command == "eval":
        checkpoint = make_finetuned(tmp_path, prefix, checkpoint)
    corrupt_param(checkpoint, bad)
    out = tmp_path / "out"
    assert run(command, "--data", prefix, "--checkpoint", checkpoint, "--out", out) == 1
    err = capsys.readouterr().err
    assert "checkpoint tensor online_encoder/stage0.w holds non-finite values" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_floating_point_error_reported_without_traceback(tmp_path, capsys):
    # a huge but finite weight loads, then overflows in the encoder
    prefix = make_dataset(tmp_path)
    model = make_finetuned(tmp_path, prefix, make_checkpoint(tmp_path, prefix))
    corrupt_param(model, 1e308, where=...)
    out = tmp_path / "ev"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("eval", "--data", prefix, "--checkpoint", model, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "produced non-finite values" in err
    assert not out.exists()


def test_pretrain_failure_names_phase_epoch_batch(tmp_path, capsys, monkeypatch):
    prefix = make_dataset(tmp_path)

    def fail(*args, **kwargs):
        raise ValueError("l2_normalize_rows: zero-norm row")

    monkeypatch.setattr("bke.selfsup.ssl_step", fail)
    out = tmp_path / "pre"
    assert run("pretrain", "--data", prefix, "--out", out, "--epochs", 1, "--seed", 1) == 1
    err = capsys.readouterr().err
    assert "pretrain failed at epoch 0, batch starting" in err
    assert "zero-norm row" in err
    assert not out.exists()


def test_eval_all_subset_and_missing_data(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    ft_dir = tmp_path / "ft"
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint,
               "--out", ft_dir, "--epochs", 1, "--batch-size", 4) == 0
    assert run("eval", "--data", prefix, "--checkpoint", ft_dir / "model.bkec",
               "--out", tmp_path / "ev", "--subset", "all") == 0
    assert "evaluated 12 all images" in capsys.readouterr().out
    assert run("eval", "--data", tmp_path / "missing", "--checkpoint",
               ft_dir / "model.bkec", "--out", tmp_path / "ev2") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,positive", [("finetune", 5), ("sweep", 7), ("eval", 2)])
def test_out_of_range_positive_class_fails_before_training(tmp_path, capsys, monkeypatch,
                                                          command, positive):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    if command == "eval":
        checkpoint = make_finetuned(tmp_path, prefix, checkpoint)
    extra = ("--param", "omega", "--values", "0.5") if command == "sweep" else ()
    drawn = []
    monkeypatch.setattr("bke.ensemble.batches", lambda *a: drawn.append(a) or [])
    out = tmp_path / "out"
    assert run(command, "--data", prefix, "--checkpoint", checkpoint, "--out", out,
               "--positive-class", positive, *extra) == 1
    err = capsys.readouterr().err
    assert err == f"error: positive_class {positive} out of range [0, 2)\n"
    assert drawn == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_test_split_without_positive_class_fails_before_training(tmp_path, capsys, command):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    labels = read_container(prefix).labels
    manifest = Path(str(prefix) + ".split.json")
    doc = json.loads(manifest.read_text())
    doc["test"] = [i for i in doc["test"] if labels[i] == 1]
    manifest.write_text(json.dumps(doc))
    extra = ("--param", "omega", "--values", "0.5") if command == "sweep" else ()
    out = tmp_path / "out"
    assert run(command, "--data", prefix, "--checkpoint", checkpoint, "--out", out, *extra) == 1
    assert capsys.readouterr().err == (
        "error: test split holds 0 samples of positive_class 0 and 2 of other classes; "
        "sensitivity and specificity need both\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval"])
def test_split_index_past_the_end_is_reported(tmp_path, capsys, command):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    if command == "eval":
        checkpoint = make_finetuned(tmp_path, prefix, checkpoint)
    manifest = Path(str(prefix) + ".split.json")
    doc = json.loads(manifest.read_text())
    doc["train"].append(999)
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = {"pretrain": (), "finetune": ("--checkpoint", checkpoint),
            "eval": ("--checkpoint", checkpoint, "--subset", "train")}[command]
    assert run(command, "--data", prefix, "--out", out, *args) == 1
    err = capsys.readouterr().err
    assert err == f"error: split manifest {manifest}: index 999 is past the end of 12 images\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "eval"])
def test_dataset_without_split_manifest_is_an_error(tmp_path, capsys, command):
    # with no manifest there is no split to honour; no command falls back to
    # training or scoring every image as if it were train
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    if command == "eval":
        checkpoint = make_finetuned(tmp_path, prefix, checkpoint)
    manifest = Path(str(prefix) + ".split.json")
    manifest.unlink()
    out = tmp_path / "out"
    args = {"pretrain": (), "eval": ("--checkpoint", checkpoint, "--subset", "train")}[command]
    assert run(command, "--data", prefix, "--out", out, *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(manifest) in err
    assert not out.exists()


def test_output_directories_hold_exactly_their_artifacts(tmp_path):
    prefix = make_dataset(tmp_path / "data")
    checkpoint = make_checkpoint(tmp_path, prefix)
    model = make_finetuned(tmp_path, prefix, checkpoint)
    assert run("eval", "--data", prefix, "--checkpoint", model, "--out", tmp_path / "ev") == 0
    for method in ("closed", "iter"):
        assert run("propagate", "--features", DATA_DIR / "features.csv",
                   "--logits", DATA_DIR / "logits.csv", "--method", method,
                   "--out", tmp_path / "q" / f"{method}.csv") == 0
    assert run("sweep", "--data", prefix, "--checkpoint", checkpoint, "--out", tmp_path / "sw",
               "--param", "omega", "--values", "0.2,0.8", "--epochs", 1, "--batch-size", 4) == 0
    listing = {d.name: sorted(p.name for p in d.iterdir()) for d in tmp_path.iterdir()}
    assert listing == {
        "data": ["ds.bkei", "ds.bkel", "ds.split.json", "ds.synth.config.json"],
        "pre": ["checkpoint.bkec", "config.json", "pretrain_loss.csv"],
        "ft": ["config.json", "metrics.csv", "model.bkec", "report.json"],
        "ev": ["config.json", "eval.json"],
        "q": ["closed.csv", "closed.csv.config.json", "iter.csv", "iter.csv.config.json"],
        "sw": ["config.json", "sweep.csv"],
    }


def test_failed_rename_mid_run_keeps_every_earlier_artifact_whole(tmp_path, capsys, monkeypatch):
    import os

    from bke.models import load_checkpoint

    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    ft_dir = make_finetuned(tmp_path, prefix, checkpoint).parent
    before = {p.name: p.read_bytes() for p in ft_dir.iterdir()}
    replace, renamed = os.replace, []

    def fail_second(src, dst):  # model.bkec is replaced, metrics.csv is not
        if renamed:
            raise OSError("no space left on device")
        renamed.append(dst)
        replace(src, dst)

    monkeypatch.setattr("bke.textio.os.replace", fail_second)
    assert run("finetune", "--data", prefix, "--checkpoint", checkpoint, "--out", ft_dir,
               "--epochs", 2, "--batch-size", 4) == 1
    assert capsys.readouterr().err == "error: no space left on device\n"
    after = {p.name: p.read_bytes() for p in ft_dir.iterdir()}
    assert sorted(after) == sorted(before)  # no .partial left behind
    assert after["model.bkec"] != before["model.bkec"]  # the 2-epoch model, whole
    load_checkpoint(ft_dir / "model.bkec")
    for name in before.keys() - {"model.bkec"}:
        assert after[name] == before[name], name


# --- propagate ---------------------------------------------------------------------


def test_propagate_closed_and_iterative_agree(tmp_path, capsys):
    outs = []
    for method in ("closed", "iter"):
        out = tmp_path / f"q_{method}.csv"
        assert run("propagate", "--features", DATA_DIR / "features.csv",
                   "--logits", DATA_DIR / "logits.csv", "--out", out,
                   "--omega", 0.7, "--method", method, "--iters", 400) == 0
        outs.append(read_float_matrix(out))
    assert np.abs(outs[0] - outs[1]).max() < 1e-9
    assert not np.array_equal(outs[0], outs[1])  # distinct routes, not one alias
    np.testing.assert_allclose(outs[0].sum(axis=1), 1.0, atol=1e-9)
    out_text = capsys.readouterr().out
    assert "closed_form" in out_text and "iterative(400)" in out_text


def test_propagate_echoes_config_next_to_output(tmp_path):
    out = tmp_path / "q.csv"
    assert run("propagate", "--features", DATA_DIR / "features.csv",
               "--logits", DATA_DIR / "logits.csv", "--out", out) == 0
    echoed = json.loads(Path(str(out) + ".config.json").read_text())
    assert echoed["command"] == "propagate" and echoed["method"] == "closed"


def test_propagate_row_count_mismatch(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("1,2,3\n4,5,6\n")
    assert run("propagate", "--features", DATA_DIR / "features.csv",
               "--logits", short, "--out", tmp_path / "q.csv") == 1
    assert "row count mismatch: 6 feature rows vs 2 logit rows" in capsys.readouterr().err


def test_propagate_reports_malformed_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,what\n")
    assert run("propagate", "--features", bad, "--logits", bad,
               "--out", tmp_path / "q.csv") == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("which,cell", [("features", "nan"), ("logits", "inf")])
def test_propagate_rejects_non_finite_cell(tmp_path, capsys, which, cell):
    inputs = {"features": DATA_DIR / "features.csv", "logits": DATA_DIR / "logits.csv"}
    lines = inputs[which].read_text().splitlines()
    lines[3] = ",".join([cell] + lines[3].split(",")[1:])
    inputs[which] = tmp_path / f"{which}.csv"
    inputs[which].write_text("\n".join(lines) + "\n")
    out = tmp_path / "q.csv"
    assert run("propagate", "--features", inputs["features"], "--logits", inputs["logits"],
               "--out", out) == 1
    err = capsys.readouterr().err
    assert "line 4: non-finite value" in err and "Traceback" not in err
    assert not out.exists()


def test_propagate_rejects_tau_outside_zero_to_inf(tmp_path, capsys):
    # at tau = inf every soft target would be uniform, whatever the logits
    out = tmp_path / "q.csv"
    for bad in ("0", "inf", "nan"):
        assert run("propagate", "--features", DATA_DIR / "features.csv",
                   "--logits", DATA_DIR / "logits.csv", "--out", out, "--tau", bad) == 1
        assert "tau must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


# --- sweep -------------------------------------------------------------------------


def test_sweep_explicit_grid(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    checkpoint = make_checkpoint(tmp_path, prefix)
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--data", prefix, "--checkpoint", checkpoint, "--out", out_dir,
               "--param", "omega", "--values", "0.2,0.8",
               "--epochs", 1, "--batch-size", 4) == 0
    lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "param,value,hm,acc"
    assert len(lines) == 3
    assert all(line.startswith("omega,") for line in lines[1:])
    assert "omega=0.2" in capsys.readouterr().out


def test_sweep_rejects_out_of_range_grid_value_before_training(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("bke.cli.finetune", lambda *a: calls.append(a))
    prefix = make_dataset(tmp_path)
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--data", prefix, "--checkpoint", "x", "--out", out_dir,
               "--param", "omega", "--values", "0.5,1.5") == 1
    assert "omega must be in [0, 1), got 1.5" in capsys.readouterr().err
    assert calls == []
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_blow_up_in_epoch_evaluation_names_the_epoch_and_grid_point(tmp_path, capsys, command):
    prefix = tmp_path / "ds"
    assert run("synth", "--out", prefix, "--n-per-class", 30, "--test-per-class", 10,
               "--seed", 1) == 0
    pre = tmp_path / "pre"
    assert run("pretrain", "--data", prefix, "--out", pre, "--epochs", 1, "--batch-size", 16,
               "--seed", 1) == 0
    sweep = command == "sweep"
    grid = ("--param", "lambda", "--values", "1,1e300") if sweep else ("--lambda", "1e300")
    out = tmp_path / "out"
    # numpy's overflow warnings are silenced, so conv2d's own check is the one report
    assert run(command, "--data", prefix, "--checkpoint", pre / "checkpoint.bkec",
               "--out", out, "--epochs", 1, *grid) == 1
    assert capsys.readouterr().err == (
        f"error: {'lambda=1e+300: ' if sweep else ''}finetune failed at epoch 0, "
        "evaluating the test split: conv2d produced non-finite values\n")
    assert not out.exists()


def test_phase_two_run_bytes_are_pinned(tmp_path):
    # hashes taken before the dataset was held as u8 pixels, and the same at
    # one and two BLAS threads: converting batch by batch changes no bit
    prefix = tmp_path / "ds"
    assert run("synth", "--out", prefix, "--n-per-class", 30, "--test-per-class", 10,
               "--seed", 1) == 0
    assert run("pretrain", "--data", prefix, "--out", tmp_path / "pre", "--epochs", 1,
               "--batch-size", 16, "--seed", 1) == 0
    assert run("finetune", "--data", prefix, "--checkpoint", tmp_path / "pre" / "checkpoint.bkec",
               "--out", tmp_path / "ft", "--epochs", 2, "--batch-size", 8, "--seed", 1) == 0
    assert run("eval", "--data", prefix, "--checkpoint", tmp_path / "ft" / "model.bkec",
               "--out", tmp_path / "ev") == 0
    got = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
           for rel in ("ft/model.bkec", "ft/metrics.csv", "ev/eval.json")}
    assert got == {
        "ft/model.bkec": "c98ef17ee2a7d53c9023380db4a859b6d5c465a157762acb7c7a8d3d967b69cc",
        "ft/metrics.csv": "ce7bb031616e977f9c586ce89a9edb922463d067f6226a0b01e7754c3611608e",
        "ev/eval.json": "eeea97b17fb160df803cbe125895cbdcf920e89694514bbba86b73d25c8fbed9",
    }


def test_sweep_default_grids_have_expected_sizes():
    assert [len(DEFAULT_GRIDS[p]) for p in ("omega", "batch_size", "tau", "lambda")] == [5, 5, 4, 4]


def test_sweep_rejects_bad_grid_value(tmp_path, capsys):
    prefix = make_dataset(tmp_path)
    assert run("sweep", "--data", prefix, "--checkpoint", "x", "--out", tmp_path / "s",
               "--param", "omega", "--values", "0.2,oops") == 1
    assert "bad grid value 'oops'" in capsys.readouterr().err


# --- sweep in two processes ---------------------------------------------------------


def test_blas_thread_reader_reads_numpys_openblas():
    threads = procs.blas_threads()
    assert type(threads) is int and threads >= 1


def test_blas_thread_reader_is_none_without_library_or_symbol(tmp_path, monkeypatch):
    monkeypatch.setattr(procs, "_openblas", procs._openblas.__wrapped__)  # a lookup per case
    monkeypatch.setattr(procs, "_NUMPY_LIBS", tmp_path)
    assert procs.blas_threads() is None
    # a file of that name that is no library
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    assert procs.blas_threads() is None
    # a library without the getter
    monkeypatch.setattr(procs.ctypes, "CDLL", lambda path: object())
    assert procs.blas_threads() is None
    with procs.one_blas_thread():
        assert procs.blas_threads() is None

    # a library with the getter but without the setter: the count stays
    class GetterOnly:
        @staticmethod
        def scipy_openblas_get_num_threads64_():
            return 2

    monkeypatch.setattr(procs.ctypes, "CDLL", lambda path: GetterOnly())
    with procs.one_blas_thread():
        assert procs.blas_threads() == 2


def test_main_runs_one_blas_thread_and_restores_the_callers_count(monkeypatch, capsys):
    counts = []

    def recording(cfg):
        counts.append(procs.blas_threads())
        if cfg["seed"]:
            raise ValueError("recorded")
        return 0

    monkeypatch.setitem(COMMANDS, "gradcheck", (recording, COMMANDS["gradcheck"][1]))
    caller, setter = procs.blas_threads(), procs._openblas("set")
    setter(2)  # a count of the caller's other than 1, whatever OPENBLAS_NUM_THREADS says
    try:
        assert run("gradcheck", "--seed", 0) == 0
        assert procs.blas_threads() == 2
        assert run("gradcheck", "--seed", 1) == 1
        assert procs.blas_threads() == 2
    finally:
        setter(caller)
    assert counts == [1, 1]
    assert capsys.readouterr().err == "error: recorded\n"


def test_artifacts_are_the_same_at_every_openblas_num_threads(tmp_path):
    # at the default batch sizes, a two-thread BLAS summed the checkpoints'
    # GEMMs in another order; the CSVs matched even then
    assert run("synth", "--out", tmp_path / "ds", "--n-per-class", 100, "--test-per-class", 30,
               "--seed", 3) == 0
    commands = [["pretrain", "--data", "../ds", "--out", "pre", "--epochs", "2", "--seed", "1"],
                ["finetune", "--data", "../ds", "--checkpoint", "pre/checkpoint.bkec",
                 "--out", "ft", "--epochs", "2", "--seed", "1"]]
    runs = {}
    for threads in (None, "1", "2"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        work = tmp_path / f"threads_{threads}"
        work.mkdir()
        stdout = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "bke.cli", *argv], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, ""), (threads, argv[0], proc.stderr)
            stdout.append(proc.stdout)
        files = {str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(work.rglob("*")) if path.is_file()}
        runs[threads] = stdout, files
    assert sorted(runs[None][1]) == ["ft/config.json", "ft/metrics.csv", "ft/model.bkec",
                                     "ft/report.json", "pre/checkpoint.bkec",
                                     "pre/config.json", "pre/pretrain_loss.csv"]
    assert runs[None] == runs["1"] == runs["2"]


IDENTITY_SCRIPT = """
import contextlib, io, json, os, shutil, sys
from pathlib import Path
from bke import cli, procs

forks = []
fork = os.fork
def counting_fork():
    forks.append(1)
    return fork()
os.fork = counting_fork
os.sched_getaffinity = lambda pid: {0, 1}  # so one-CPU machines fork too

def sweep(param):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["sweep", "--data", "ds", "--checkpoint", "pre/checkpoint.bkec",
                         "--out", "sw", "--param", param, "--epochs", "10", "--seed", "2",
                         "--learning-rate", "0.5", "--momentum", "0.5", "--tau", "1.0"])
    files = {p.name: p.read_text() for p in sorted(Path("sw").iterdir())}
    shutil.rmtree("sw")
    return [code, stdout.getvalue(), files]

result = {"blas_threads": procs.blas_threads(), "forked": {}, "serial": {}}
for param in cli.DEFAULT_GRIDS:
    result["forked"][param] = sweep(param)
result["forks"] = len(forks)
procs._fork_pays = lambda n_tasks, pin: False
for param in cli.DEFAULT_GRIDS:
    result["serial"][param] = sweep(param)
result["forks_after_serial"] = len(forks)
try:
    os.waitpid(-1, os.WNOHANG)
    result["children_left"] = True
except ChildProcessError:
    result["children_left"] = False
print(json.dumps(result))
"""


def test_forked_sweep_matches_serial_sweep_byte_for_byte(tmp_path):
    # a set on which the batch_size grid points train to different rows, so
    # outcomes swapped or repeated between the processes would show
    assert run("synth", "--out", tmp_path / "ds", "--n-per-class", 30, "--test-per-class", 10,
               "--seed", 3) == 0
    assert run("pretrain", "--data", tmp_path / "ds", "--out", tmp_path / "pre", "--epochs", 3,
               "--batch-size", 16, "--seed", 1) == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", IDENTITY_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result["blas_threads"] == 1
    assert result["forks"] == len(DEFAULT_GRIDS) and result["forks_after_serial"] == 4
    assert result["children_left"] is False
    assert result["forked"] == result["serial"]
    for param, (code, stdout, files) in result["forked"].items():
        assert code == 0 and sorted(files) == ["config.json", "sweep.csv"]
        assert len(stdout.splitlines()) == len(DEFAULT_GRIDS[param]) + 1
    rows = [line.split(",")[2:] for line in
            result["forked"]["batch_size"][2]["sweep.csv"].splitlines()[1:]]
    assert rows[0] != rows[1]  # the child's two points: outcomes swapped between them show


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep_inputs")
    prefix = root / "ds"
    assert run("synth", "--out", prefix, "--n-per-class", 30, "--test-per-class", 10,
               "--seed", 1) == 0
    assert run("pretrain", "--data", prefix, "--out", root / "pre", "--epochs", 1,
               "--batch-size", 16, "--seed", 1) == 0
    return prefix, root / "pre" / "checkpoint.bkec"


def failed_sweep(tmp_path, capsys, monkeypatch, sweep_inputs, forked, *grid):
    """The stdout and stderr of a sweep that must fail, and the number of
    forks it made; it leaves no output, no .partial and no child."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(procs, "_fork_pays", lambda n_tasks, pin: forked and n_tasks >= 2)
    prefix, checkpoint = sweep_inputs
    out = tmp_path / ("forked" if forked else "serial")
    assert run("sweep", "--data", prefix, "--checkpoint", checkpoint, "--out", out,
               "--epochs", 1, *grid) == 1
    captured = capsys.readouterr()
    assert not out.exists() and list(tmp_path.rglob("*.partial")) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.out, captured.err, len(forks)


BLOW_UP = ("error: lambda=1e+300: finetune failed at epoch 0, evaluating the test split: "
           "conv2d produced non-finite values\n")


@pytest.mark.parametrize("grid,rows,message,forks", [
    (("--param", "lambda", "--values", "1e300,1"), 0, BLOW_UP, 1),          # in the child
    (("--param", "lambda", "--values", "1,1e300"), 1, BLOW_UP, 1),          # in the parent
    (("--param", "lambda", "--values", "1,1e300,2,1e301"), 1, BLOW_UP, 1),  # first of both
    (("--param", "omega", "--values", "0.2,oops"), 0,
     "error: bad grid value 'oops' for omega\n", 0),
])
def test_failed_sweep_reads_the_same_forked_and_serial(tmp_path, capsys, monkeypatch,
                                                       sweep_inputs, grid, rows, message, forks):
    out, err, forked = failed_sweep(tmp_path, capsys, monkeypatch, sweep_inputs, True, *grid)
    assert (err, forked) == (message, forks) and len(out.splitlines()) == rows
    assert failed_sweep(tmp_path, capsys, monkeypatch, sweep_inputs, False, *grid) == (
        out, err, 0)


def test_sweep_child_that_dies_without_a_result_is_named(tmp_path, capsys, monkeypatch,
                                                         sweep_inputs):
    real = cli.finetune

    def dying(container, split, checkpoint, config):
        if config.lam == 2.0:
            os._exit(3)
        return real(container, split, checkpoint, config)

    monkeypatch.setattr(cli, "finetune", dying)
    out, err, forks = failed_sweep(tmp_path, capsys, monkeypatch, sweep_inputs, True,
                                   "--param", "lambda", "--values", "1,2,3,4")
    assert out.startswith("lambda=1.0: hm ") and len(out.splitlines()) == 1
    assert (err, forks) == (
        "error: the sweep's child process for lambda=1.0, lambda=2.0 exited with status 3 "
        "without a result for lambda=2.0\n", 1)


def test_sweep_parent_interrupted_kills_and_reaps_its_child(tmp_path, monkeypatch,
                                                            sweep_inputs):
    parent = os.getpid()

    def stuck(container, split, checkpoint, config):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(cli, "finetune", stuck)
    monkeypatch.setattr(procs, "_fork_pays", lambda n_tasks, pin: True)
    prefix, checkpoint = sweep_inputs
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run("sweep", "--data", prefix, "--checkpoint", checkpoint, "--out", tmp_path / "sw",
            "--param", "tau", "--values", "1,2")
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "sw").exists()


# --- Phase I in two processes ------------------------------------------------------


PHASE_ONE_SCRIPT = """
import contextlib, dataclasses, hashlib, io, json, os, shutil
from pathlib import Path
import numpy as np
from bke import cli, procs, selfsup

cpus = os.sched_getaffinity(0)
forks = []
fork = os.fork
def counting_fork():
    forks.append(1)
    return fork()
os.fork = counting_fork
real = {name: getattr(selfsup, name) for name in ("_target_projection", "_online_step")}

def nan_target(bundle, v2):  # runs in the worker when forked: matmul fails
    w = np.full_like(bundle.target_projector["fc2.w"], np.nan)
    nan = dataclasses.replace(bundle, target_projector={**bundle.target_projector, "fc2.w": w})
    return real["_target_projection"](nan, v2)

def nan_online(bundle, optimizer, v1, v2, target):  # conv2d fails before z2 is read
    return real["_online_step"](bundle, optimizer, v1 * np.nan, v2, target)

def exit_3(*args):
    os._exit(3)

def interrupt(*args):
    raise KeyboardInterrupt

CASES = {
    "clean": ([], {}),
    "worker_nan": ([], {"_target_projection": nan_target}),
    "parent_nan": ([], {"_online_step": nan_online}),
    "both_nan": ([], {"_target_projection": nan_target, "_online_step": nan_online}),
    "huge_lr": (["--learning-rate", "1e308"], {}),
    "worker_exit": ([], {"_target_projection": exit_3}),
    "interrupted": ([], {"_online_step": interrupt}),
}

def at_step(name, fault, step=3):
    calls = []
    def wrapper(*args):
        calls.append(1)
        return (fault if len(calls) == step + 1 else real[name])(*args)
    setattr(selfsup, name, wrapper)

def pretrain(case, forked):
    args, faults = CASES[case]
    procs._fork_pays = lambda n_tasks, pin: forked
    for name, fault in faults.items():
        at_step(name, fault)
    del forks[:]
    out = Path("pre")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(["pretrain", "--data", "ds", "--out", str(out), "--epochs", "3",
                             "--batch-size", "8", "--seed", "5", *args])
        except KeyboardInterrupt:
            code = "KeyboardInterrupt"
    vars(selfsup).update(real)
    try:
        os.waitpid(-1, os.WNOHANG)
        children_left = True
    except ChildProcessError:
        children_left = False
    files = None
    if out.exists():
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        shutil.rmtree(out)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files, "forks": len(forks), "children_left": children_left,
            "cpus_kept": os.sched_getaffinity(0) == cpus,
            "partial": [str(p) for p in Path(".").rglob("*.partial")]}

result = {"blas_threads": procs.blas_threads()}
for case in CASES:
    result[case] = {"forked": pretrain(case, True)}
    if case != "worker_exit":  # in one process the exit ends the run itself
        result[case]["serial"] = pretrain(case, False)
print(json.dumps(result))
"""


def test_forked_phase_one_matches_serial_phase_one(tmp_path):
    assert run("synth", "--out", tmp_path / "ds", "--n-per-class", 30, "--test-per-class", 10,
               "--seed", 3) == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PHASE_ONE_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = json.loads(proc.stdout)
    assert result.pop("blas_threads") == 1
    for case, runs in result.items():
        for path, outcome in runs.items():
            assert outcome.pop("forks") == (path == "forked"), (case, path)
            assert (outcome.pop("children_left"), outcome.pop("cpus_kept"),
                    outcome.pop("partial")) == (False, True, []), (case, path)
        if "serial" in runs:
            assert runs["forked"] == runs["serial"], case
    clean = result["clean"]["forked"]
    assert clean["code"] == 0 and clean["stdout"].startswith("pretrained 3 epochs on 40 images")
    assert sorted(clean["files"]) == ["checkpoint.bkec", "config.json", "pretrain_loss.csv"]
    # each fault strikes at step 3: epoch 0, the fourth batch
    where = re.fullmatch(r"error: pretrain failed at (epoch 0, batch starting \d+): "
                         r"tensor construction produced non-finite values\n",
                         result["parent_nan"]["forked"]["stderr"]).group(1)
    worker_nan = f"error: pretrain failed at {where}: matmul produced non-finite values\n"
    assert result["worker_nan"]["forked"]["stderr"] == worker_nan
    assert result["both_nan"]["forked"]["stderr"] == worker_nan  # the target runs first
    assert result["huge_lr"]["forked"]["stderr"].startswith("error: pretrain failed at epoch ")
    assert result["worker_exit"]["forked"] == {
        "code": 1, "stdout": "", "files": None,
        "stderr": f"error: pretrain's worker process exited with status 3 at {where}\n"}
    assert result["interrupted"]["forked"]["code"] == "KeyboardInterrupt"
    for case in ("worker_nan", "parent_nan", "both_nan", "huge_lr", "interrupted"):
        assert result[case]["forked"]["files"] is None, case


KILLED_PARENT_SCRIPT = """
import os, sys
from bke import cli, procs

procs._fork_pays = lambda n_tasks, pin: True  # whatever the CPU set
fork = os.fork
def reporting_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = reporting_fork
cli.main(sys.argv[1:])
"""


def kill_parent_mid_run(tmp_path, *argv):
    """Run a bke command that forks, SIGKILL it well into the run, and
    assert that its child exits too and that no --out directory is left."""
    # a zombie still answers kill(pid, 0), so the state is read from /proc
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-c", KILLED_PARENT_SCRIPT, *map(str, argv)],
                            cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True)
    try:
        child = int(proc.stdout.readline())
        time.sleep(0.5)  # well into the run
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    deadline = time.monotonic() + 5
    while process_state(child) not in (None, "Z", "X") and time.monotonic() < deadline:
        time.sleep(0.05)
    state = process_state(child)
    if state not in (None, "Z", "X"):
        os.kill(child, signal.SIGKILL)
    assert state in (None, "Z", "X")
    assert not (tmp_path / "out").exists() and list(tmp_path.rglob("*.partial")) == []


def test_phase_one_worker_exits_when_its_parent_is_killed(tmp_path):
    assert run("synth", "--out", tmp_path / "ds", "--n-per-class", 30, "--test-per-class", 10,
               "--seed", 3) == 0
    kill_parent_mid_run(tmp_path, "pretrain", "--data", "ds", "--out", "out", "--epochs", 1000,
                        "--batch-size", 8, "--seed", 5)


def test_sweep_child_exits_when_its_parent_is_killed(tmp_path, sweep_inputs):
    prefix, checkpoint = sweep_inputs
    kill_parent_mid_run(tmp_path, "sweep", "--data", prefix, "--checkpoint", checkpoint,
                        "--out", "out", "--param", "tau", "--values", "1,2",
                        "--epochs", 100000)


# --- one process, many calls ------------------------------------------------------


def test_main_called_again_after_failures_matches_a_fresh_process(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a parse error or a failed
    # command must leave nothing behind that changes the next call
    synth = ("synth", "--out", "ds", "--n-per-class", 6, "--side", 16, "--test-per-class", 2,
             "--seed", 5)
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    with pytest.raises(SystemExit) as exc:
        run("synth", "--out", "ds", "--no-such-flag")
    assert exc.value.code == 2
    assert run("synth", "--out", "ds", "--n-per-class", 2, "--test-per-class", 2) == 1
    capsys.readouterr()
    assert run(*synth) == 0
    out = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-m", "bke.cli", *map(str, synth)], cwd=fresh,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == out
    names = sorted(p.name for p in here.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    assert [(here / n).read_bytes() for n in names] == [(fresh / n).read_bytes() for n in names]


# --- gradcheck -----------------------------------------------------------------------


def test_gradcheck_passes_and_prints_per_instance(capsys):
    assert run("gradcheck", "--seed", 4) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 3
    assert all(line.endswith("[ok]") for line in out)
    assert {line.split(":")[0] for line in out} == {"cross_view", "cross_model", "bke"}


def test_gradcheck_perturbed_negative_control_fails(capsys):
    assert run("gradcheck", "--seed", 4, "--perturb") == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out


# --- scripts ------------------------------------------------------------------------


@pytest.mark.parametrize("script", ["run_sweep.py", "run_synth_experiment.py"])
def test_documented_script_imports_and_parses(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")


def test_run_sweep_script_writes_one_row_per_grid_value(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_sweep.py"),
                             "--params", "tau", "--epochs", "1", "--out", str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "tau" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + len(DEFAULT_GRIDS["tau"]) == 5


def test_sweep_that_cannot_fork_trains_serially(tmp_path, capsys, monkeypatch, sweep_inputs):
    prefix, checkpoint = sweep_inputs
    out = tmp_path / "sw"

    def sweep():
        code = run("sweep", "--data", prefix, "--checkpoint", checkpoint, "--out", out,
                   "--param", "tau", "--epochs", 1)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return code, capsys.readouterr().out, files

    monkeypatch.setattr(procs, "_fork_pays", lambda n_tasks, pin: False)
    serial = sweep()
    assert serial[0] == 0 and len(serial[1].splitlines()) == len(DEFAULT_GRIDS["tau"]) + 1
    assert sorted(serial[2]) == ["config.json", "sweep.csv"]
    pipe = os.pipe
    pipes, forks, made = [], [], []  # made[0]: the pipes that open before EMFILE

    def recording_pipe():
        if len(pipes) == made[0]:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        pipes.append(pipe())
        return pipes[-1]

    def failing_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(procs, "_fork_pays", lambda n_tasks, pin: True)
    for n_pipes in (2, 0, 1):  # the fork fails, then the first pipe, then the second
        made[:], pipes[:], forks[:] = [n_pipes], [], []
        assert sweep() == serial
        assert len(pipes) == n_pipes and len(forks) == (n_pipes == 2)
        for fd in (fd for pair in pipes for fd in pair):
            with pytest.raises(OSError):
                os.fstat(fd)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

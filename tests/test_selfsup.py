import errno
import os
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bke import procs, selfsup
from bke import tensor as T
from bke.models import BundleSpecs, EncoderSpec, MlpSpec, encode, init_bundle, predict, project
from bke.optim import SgdMomentum
from bke.rng import substream_states
from bke.selfsup import (
    CollapseError,
    SslConfig,
    cross_model_loss,
    cross_view_loss,
    pretrain,
    ssl_step,
    write_loss_csv,
)

TINY = BundleSpecs(
    encoder=EncoderSpec(input_side=8, conv_stages=((2, 2), (3, 2))),
    projector=MlpSpec(3, 4, 3),
    predictor=MlpSpec(3, 3, 3),
)


def nonzero_rows(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    return x + np.sign(x.sum(axis=1, keepdims=True)) * 0.1


# --- loss values --------------------------------------------------------------


def test_cross_view_identical_rows_zero():
    q = nonzero_rows((4, 6), 0)
    assert cross_view_loss(q, q.copy()).item() == pytest.approx(0.0, abs=1e-10)


def test_cross_view_orthogonal_rows_two():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 3.0], [4.0, 0.0]])
    assert cross_view_loss(a, b).item() == pytest.approx(2.0, abs=1e-10)


def test_cross_view_antipodal_rows_four():
    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert cross_view_loss(a, -2.0 * a).item() == pytest.approx(4.0, abs=1e-10)


def test_cross_model_equal_is_zero_and_scale_free():
    q = nonzero_rows((3, 5), 1)
    z = nonzero_rows((3, 5), 2)
    assert cross_model_loss(q, q.copy()).item() == pytest.approx(0.0, abs=1e-10)
    assert cross_model_loss(q, z).item() == pytest.approx(
        cross_model_loss(3.7 * q, z).item(), abs=1e-10
    )


def test_cross_model_rejects_taped_z2():
    with T.Tape() as tape:
        z2 = tape.leaf(nonzero_rows((2, 3), 3))
        with pytest.raises(ValueError, match="detached"):
            cross_model_loss(nonzero_rows((2, 3), 4), z2)


def test_squared_distance_identity():
    # mean ||a_hat - b_hat||^2 computed directly must equal 2 - 2 cos
    a = nonzero_rows((8, 7), 5)
    b = nonzero_rows((8, 7), 6)
    ah = a / np.linalg.norm(a, axis=1, keepdims=True)
    bh = b / np.linalg.norm(b, axis=1, keepdims=True)
    direct = ((ah - bh) ** 2).sum(axis=1).mean()
    assert cross_view_loss(a, b).item() == pytest.approx(direct, abs=1e-10)


@settings(max_examples=100)
@given(
    arrays(np.float64, (3, 4), elements=st.floats(-50, 50)),
    arrays(np.float64, (3, 4), elements=st.floats(-50, 50)),
)
def test_loss_bounds(a, b):
    if np.any(np.linalg.norm(a, axis=1) < 1e-9) or np.any(np.linalg.norm(b, axis=1) < 1e-9):
        return
    for value in (cross_view_loss(a, b).item(), cross_model_loss(a, b).item()):
        assert -1e-12 <= value <= 4.0 + 1e-12


def test_loss_zero_row_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        cross_view_loss(np.zeros((2, 3)), np.ones((2, 3)))


# --- gradients ----------------------------------------------------------------


def test_cross_view_gradient_flows_through_both_args():
    params = {"q1": nonzero_rows((2, 4), 7), "q1p": nonzero_rows((2, 4), 8)}
    report = T.finite_difference_check(
        lambda p: cross_view_loss(p["q1"], p["q1p"]), params
    )
    assert report.passed, f"max rel err {report.max_rel_err}"
    assert all(err >= 0.0 for err in report.per_param.values())
    with T.Tape() as tape:
        q1 = tape.leaf(params["q1"])
        q1p = tape.leaf(params["q1p"])
        grads = tape.backward(cross_view_loss(q1, q1p))
    assert np.any(grads[q1.node_id].data != 0.0)
    assert np.any(grads[q1p.node_id].data != 0.0)


def test_target_parameters_get_exactly_zero_gradient():
    # replicate the training wiring with the target branch on-tape but detached
    bundle = init_bundle(TINY, 1)
    v1 = np.random.default_rng(0).uniform(size=(2, 1, 8, 8))
    v2 = np.random.default_rng(1).uniform(size=(2, 1, 8, 8))
    with T.Tape() as tape:
        enc = {k: tape.leaf(v) for k, v in bundle.online_encoder.items()}
        proj = {k: tape.leaf(v) for k, v in bundle.online_projector.items()}
        pred = {k: tape.leaf(v) for k, v in bundle.predictor.items()}
        tenc = {k: tape.leaf(v) for k, v in bundle.target_encoder.items()}
        tproj = {k: tape.leaf(v) for k, v in bundle.target_projector.items()}
        q1 = predict(pred, project(proj, encode(enc, TINY.encoder, v1)))
        q1p = predict(pred, project(proj, encode(enc, TINY.encoder, v2)))
        z2 = T.detach(project(tproj, encode(tenc, TINY.encoder, v2)))
        loss = T.add(cross_view_loss(q1, q1p), cross_model_loss(q1p, z2))
        grads = tape.backward(loss)
    for group in (tenc, tproj):
        for leaf in group.values():
            assert np.all(grads[leaf.node_id].data == 0.0)
    assert any(np.any(grads[leaf.node_id].data != 0.0) for leaf in enc.values())


def test_ssl_loss_gradient_matches_finite_differences():
    bundle = init_bundle(TINY, 13)
    v1 = np.random.default_rng(2).uniform(size=(2, 1, 8, 8))
    v2 = np.random.default_rng(3).uniform(size=(2, 1, 8, 8))
    z2 = project(bundle.target_projector, encode(bundle.target_encoder, TINY.encoder, v2)).data
    flat = {}
    for group, params in (("enc", bundle.online_encoder),
                          ("proj", bundle.online_projector),
                          ("pred", bundle.predictor)):
        for k, v in params.items():
            flat[f"{group}/{k}"] = v

    def unflatten(p, group):
        return {k.split("/", 1)[1]: v for k, v in p.items() if k.startswith(group + "/")}

    def f(p):
        q1 = predict(unflatten(p, "pred"),
                     project(unflatten(p, "proj"), encode(unflatten(p, "enc"), TINY.encoder, v1)))
        q1p = predict(unflatten(p, "pred"),
                      project(unflatten(p, "proj"), encode(unflatten(p, "enc"), TINY.encoder, v2)))
        return T.add(cross_view_loss(q1, q1p), cross_model_loss(q1p, z2))

    report = T.finite_difference_check(f, flat)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_param}"


# --- ssl_step and pretrain ------------------------------------------------------


def images_fixture(n=8, side=16, seed=4):
    return np.random.default_rng(seed).uniform(size=(n, 1, side, side))


def step_config(**kwargs):
    base = dict(epochs=1, batch_size=8, learning_rate=0.05, momentum=0.9, zeta=0.5, seed=1)
    base.update(kwargs)
    return SslConfig(**base)


def step_rngs(config):
    """One view stream per image of images_fixture(), keyed as pretrain keys epoch 0."""
    return substream_states(range(8), config.seed, "augment", 0)


def test_ssl_step_outputs_consistent():
    bundle = init_bundle(TINY, 17)
    config = step_config()
    out = ssl_step(bundle, images_fixture(), config, SgdMomentum(0.05, 0.9), step_rngs(config))
    assert out.loss_total == out.loss_cv + out.loss_cm
    assert 0.0 <= out.loss_cv <= 4.0 and 0.0 <= out.loss_cm <= 4.0
    assert out.feature_std > 0.0


def test_ssl_step_records_no_node_without_edges(monkeypatch):
    # counted through Tape._record, as the benchmark's tracer counts nodes
    nodes = []
    record = T.Tape._record

    def counting_record(tape, kind, edges, shape):
        nodes.append((kind, len(edges)))
        return record(tape, kind, edges, shape)

    monkeypatch.setattr(T.Tape, "_record", counting_record)
    config = step_config()
    ssl_step(init_bundle(TINY, 17), images_fixture(), config, SgdMomentum(0.05, 0.9),
             step_rngs(config))
    assert nodes and all(kind == "leaf" or n_edges for kind, n_edges in nodes)
    # q1 and q1' are normalized on the tape; the detached target z2 is not
    assert sum(kind == "l2_normalize_rows" for kind, _ in nodes) == 3


def test_ssl_step_zeta_one_freezes_target():
    bundle = init_bundle(TINY, 19)
    before = {k: v.copy() for k, v in bundle.target_encoder.items()}
    config = step_config(zeta=1.0)
    for _ in range(3):
        ssl_step(bundle, images_fixture(), config, SgdMomentum(0.05, 0.9), step_rngs(config))
    for k in before:
        np.testing.assert_array_equal(bundle.target_encoder[k], before[k])
    # online side did move
    assert any(not np.array_equal(bundle.online_encoder[k], bundle.target_encoder[k])
               for k in before)


def test_ssl_step_zeta_zero_copies_online():
    bundle = init_bundle(TINY, 23)
    config = step_config(zeta=0.0)
    ssl_step(bundle, images_fixture(), config, SgdMomentum(0.05, 0.9), step_rngs(config))
    for k in bundle.online_encoder:
        np.testing.assert_array_equal(bundle.target_encoder[k], bundle.online_encoder[k])
    for k in bundle.online_projector:
        np.testing.assert_array_equal(bundle.target_projector[k], bundle.online_projector[k])


def test_pretrain_deterministic_checkpoints(tmp_path):
    images = images_fixture(n=8)
    config = SslConfig(epochs=2, batch_size=4, learning_rate=0.05, zeta=0.9, seed=7)
    p1, p2 = tmp_path / "a.bkec", tmp_path / "b.bkec"
    _, h1 = pretrain(images, config, specs=TINY, checkpoint_path=p1)
    _, h2 = pretrain(images, config, specs=TINY, checkpoint_path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert h1 == h2


def test_pretrain_on_u8_pixels_matches_their_floats_byte_for_byte(tmp_path):
    # the u8 pixels are converted a batch at a time, as images_at converts them
    pixels = np.random.default_rng(11).integers(0, 256, size=(10, 1, 8, 8), dtype=np.uint8)
    config = SslConfig(epochs=2, batch_size=4, learning_rate=0.05, zeta=0.9, seed=3)
    outputs = []
    for name, images in (("u8", pixels), ("float", pixels / 255.0)):
        ckpt, log = tmp_path / f"{name}.bkec", tmp_path / f"{name}.csv"
        _, history = pretrain(images, config, specs=TINY, checkpoint_path=ckpt)
        write_loss_csv(history, log)
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_pretrain_loss_csv_format(tmp_path):
    images = images_fixture(n=6)
    config = SslConfig(epochs=3, batch_size=4, seed=2)
    log = tmp_path / "loss.csv"
    _, history = pretrain(images, config, specs=TINY)
    write_loss_csv(history, log)
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "epoch,loss_cv,loss_cm,loss_total"
    assert len(lines) == 1 + config.epochs
    for line, entry in zip(lines[1:], history):
        cells = line.split(",")
        assert int(cells[0]) == entry.epoch
        assert float(cells[1]) == entry.loss_cv  # %.17g round-trips exactly
        assert float(cells[3]) == entry.loss_total


def test_untrained_loss_in_expected_band():
    bundle = init_bundle(BundleSpecs.default(16), 31)
    images = images_fixture(n=16, seed=9)
    from bke.augment import make_view_pair
    from bke.rng import substream_states

    pair = make_view_pair(images, substream_states(range(len(images)), 3, "augment", 0))
    v1, v2 = pair.v1, pair.v2
    spec = bundle.specs.encoder
    q1 = predict(bundle.predictor, project(bundle.online_projector, encode(bundle.online_encoder, spec, v1)))
    q1p = predict(bundle.predictor, project(bundle.online_projector, encode(bundle.online_encoder, spec, v2)))
    z2 = project(bundle.target_projector, encode(bundle.target_encoder, spec, v2)).data
    total = cross_view_loss(q1, q1p).item() + cross_model_loss(q1p, z2).item()
    assert 0.0 < total < 8.0


def test_pretrain_loss_trends_down():
    images = images_fixture(n=64, seed=12)
    config = SslConfig(epochs=20, batch_size=32, learning_rate=0.05, zeta=0.99, seed=5)
    _, history = pretrain(images, config)
    first5 = np.mean([h.loss_total for h in history[:5]])
    last5 = np.mean([h.loss_total for h in history[-5:]])
    assert last5 < first5


@pytest.fixture
def serial(monkeypatch):
    """Phase I in one process, so a stub of ssl_step is the step at any
    BLAS thread count."""
    monkeypatch.setattr(procs, "fork_pays", lambda n: False)


def test_collapse_detector_trips_after_three_flat_epochs(monkeypatch, serial):
    flat = selfsup.SslBatchOutputs(loss_cv=0.0, loss_cm=0.0, loss_total=0.0, feature_std=0.0)
    calls = []
    monkeypatch.setattr(selfsup, "ssl_step", lambda *a, **k: calls.append(1) or flat)
    with pytest.raises(CollapseError, match="collapsed"):
        pretrain(images_fixture(n=4), SslConfig(epochs=10, batch_size=4, seed=1), specs=TINY)
    assert len(calls) == 3


def test_pretrain_runs_at_batch_size_one():
    _, history = pretrain(images_fixture(n=4), SslConfig(epochs=3, batch_size=1), specs=TINY)
    assert [h.epoch for h in history] == [0, 1, 2]


def test_tail_batch_of_one_does_not_count_toward_collapse(monkeypatch, serial):
    # batches of 2 then 1: the pair's std alone is above the threshold, and the
    # losses still average over all three images
    def step(bundle, images, *a):
        n = len(images)
        return selfsup.SslBatchOutputs(loss_cv=n, loss_cm=0.0, loss_total=n,
                                       feature_std=1.2e-6 if n >= 2 else 0.0)

    monkeypatch.setattr(selfsup, "ssl_step", step)
    _, history = pretrain(images_fixture(n=3), SslConfig(epochs=4, batch_size=2), specs=TINY)
    assert len(history) == 4
    assert all(h.loss_total == 5 / 3 for h in history)


def test_nonfinite_loss_reported_with_location(monkeypatch, serial):
    def explode(*a, **k):
        raise FloatingPointError("conv2d produced non-finite values")

    monkeypatch.setattr(selfsup, "ssl_step", explode)
    with pytest.raises(CollapseError, match="pretrain failed at epoch 0, batch starting"):
        pretrain(images_fixture(n=4), SslConfig(epochs=1, batch_size=4, seed=1), specs=TINY)


def test_value_error_reported_with_location(monkeypatch, serial):
    def explode(*a, **k):
        raise ValueError("l2_normalize_rows: zero-norm row")

    monkeypatch.setattr(selfsup, "ssl_step", explode)
    with pytest.raises(CollapseError, match=r"epoch 0, batch starting \d+: l2_normalize_rows"):
        pretrain(images_fixture(n=4), SslConfig(epochs=1, batch_size=4, seed=1), specs=TINY)


def test_config_validation():
    with pytest.raises(ValueError, match="zeta"):
        SslConfig(zeta=1.5)
    with pytest.raises(ValueError, match="learning_rate"):
        SslConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="momentum"):
        SslConfig(momentum=1.0)


@pytest.mark.parametrize("name", ["learning_rate", "momentum", "zeta"])
def test_config_rejects_nan(name):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=name):
            SslConfig(**{name: bad})


def test_optimizer_rejects_nan():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be positive"):
            SgdMomentum(bad)
    with pytest.raises(ValueError, match="momentum"):
        SgdMomentum(0.1, float("nan"))


def test_config_is_frozen_and_checked_on_replace():
    with pytest.raises(FrozenInstanceError):
        SslConfig().zeta = 0.5
    with pytest.raises(ValueError, match="zeta must be in"):
        replace(SslConfig(), zeta=1.5)


def test_pretrain_that_cannot_fork_runs_in_one_process(tmp_path, monkeypatch):
    images = images_fixture(n=8)
    config = SslConfig(epochs=2, batch_size=4, learning_rate=0.05, zeta=0.9, seed=7)
    serial = tmp_path / "serial.bkec"
    monkeypatch.setattr(procs, "fork_pays", lambda n: False)
    _, expected = pretrain(images, config, specs=TINY, checkpoint_path=serial)
    pipes, forks, made = [], [], []  # made[0]: the pipes that open before EMFILE
    pipe = os.pipe

    def recording_pipe():
        if len(pipes) == 2 * made[0]:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        pipes.extend(pipe())
        return pipes[-2:]

    def failing_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(procs, "fork_pays", lambda n: True)
    monkeypatch.setattr(procs, "cpu_pair", lambda: (0, 1))
    cpus = os.sched_getaffinity(0)
    for n_pipes in (2, 0, 1):  # the fork fails, then the first pipe, then the second
        made[:], pipes[:], forks[:] = [n_pipes], [], []
        forked = tmp_path / "forked.bkec"
        _, history = pretrain(images, config, specs=TINY, checkpoint_path=forked)
        assert history == expected and len(forks) == (n_pipes == 2)
        assert len(pipes) == 2 * n_pipes
        assert forked.read_bytes() == serial.read_bytes()
        assert os.sched_getaffinity(0) == cpus
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_pretrain_on_more_than_two_cpus_runs_in_one_process(monkeypatch):
    # two CPUs picked from a larger set would be the same two for every run
    # started beside this one, so the split needs a set of exactly two
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(procs, "blas_threads", lambda: 1)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    assert procs.fork_pays(4) and procs.cpu_pair() is None
    config = SslConfig(epochs=2, batch_size=4, learning_rate=0.05, zeta=0.9, seed=7)
    _, history = pretrain(images_fixture(n=8), config, specs=TINY)
    assert len(history) == 2 and forks == []

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from bke import ensemble
from bke import tensor as T
from bke.data import SplitSpec, synth_blobs
from bke.ensemble import BkeConfig, finetune
from bke.models import BundleSpecs, EncoderSpec, MlpSpec, init_bundle, save_checkpoint
from bke.optim import SgdMomentum
from bke.rng import substream_states
from bke.selfsup import SslConfig, ssl_step

TINY = BundleSpecs(
    encoder=EncoderSpec(input_side=8, conv_stages=((2, 2), (3, 2))),
    projector=MlpSpec(3, 4, 3),
    predictor=MlpSpec(3, 3, 3),
)


def test_sgd_momentum_law_keeps_same_named_groups_apart():
    # online_projector and predictor both hold an fc2.b of shape (32,)
    groups = ("online_projector", "predictor")
    rng = np.random.default_rng(0)
    p0, g1, g2 = ({group: rng.normal(size=32) for group in groups} for _ in range(3))
    copies = [{group: a.copy() for group, a in d.items()} for d in (p0, g1, g2)]
    bundle = SimpleNamespace(**{group: {"fc2.b": p0[group]} for group in groups})
    opt = SgdMomentum(lr=0.1, momentum=0.5)
    stepped = []
    for g in (g1, g2):
        tape = T.Tape()
        leaves = {group: tape.leaves(getattr(bundle, group)) for group in groups}
        grads = {leaves[group]["fc2.b"].node_id: T.Tensor(g[group]) for group in groups}
        opt.step(bundle, leaves, grads)
        stepped.append({group: getattr(bundle, group)["fc2.b"] for group in groups})
    p1, p2 = stepped

    assert list(opt.velocity) == ["online_projector/fc2.b", "predictor/fc2.b"]
    for group in groups:
        np.testing.assert_array_equal(p1[group], p0[group] - 0.1 * g1[group])
        v2 = 0.5 * g1[group] + g2[group]
        np.testing.assert_array_equal(opt.velocity[f"{group}/fc2.b"], v2)
        np.testing.assert_array_equal(p2[group], p1[group] - 0.1 * v2)
    for before, after in zip(copies, (p0, g1, g2)):
        for group in groups:
            np.testing.assert_array_equal(after[group], before[group])


def test_sgd_step_rejects_gradient_of_wrong_shape():
    bundle = SimpleNamespace(predictor={"fc2.b": np.zeros(3)})
    leaves = {"predictor": T.Tape().leaves(bundle.predictor)}
    grads = {leaves["predictor"]["fc2.b"].node_id: T.Tensor(np.zeros(4))}
    with pytest.raises(ValueError, match="gradient shape .* for predictor/fc2.b"):
        SgdMomentum(0.1).step(bundle, leaves, grads)


def record_names(path) -> list[str]:
    """The tensor record names of a checkpoint file, in file order."""
    blob = path.read_bytes()
    (count,) = struct.unpack_from("<I", blob, 8)
    names, at = [], 12
    for _ in range(count):
        (length,) = struct.unpack_from("<H", blob, at)
        names.append(blob[at + 2 : at + 2 + length].decode("utf-8"))
        at += 2 + length
        (rank,) = struct.unpack_from("<B", blob, at)
        dims = struct.unpack_from(f"<{rank}I", blob, at + 1)
        at += 1 + 4 * rank + 8 * math.prod(dims)
    return names


def saved_names(bundle, path, groups) -> list[str]:
    save_checkpoint(bundle, path)
    return sorted(name for name in record_names(path) if name.partition("/")[0] in groups)


def test_velocity_keys_are_checkpoint_record_names(tmp_path, monkeypatch):
    # Phase I: one ssl_step trains the online encoder, projector and predictor
    bundle = init_bundle(TINY, 17)
    optimizer = SgdMomentum(0.05, 0.9)
    images = np.random.default_rng(4).uniform(size=(8, 1, 16, 16))
    ssl_step(bundle, images, SslConfig(epochs=1, batch_size=8, seed=1), optimizer,
             substream_states(range(8), 1, "augment", 0))
    trained = ("online_encoder", "online_projector", "predictor")
    assert sorted(optimizer.velocity) == saved_names(bundle, tmp_path / "pre.bkec", trained)

    # Phase II: one step over 16 images trains the online encoder and the head
    made = []

    class Recording(SgdMomentum):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    monkeypatch.setattr(ensemble, "SgdMomentum", Recording)
    container = synth_blobs(n_per_class=12, side=8, seed=3)
    train = tuple(int(i) for c in (0, 1) for i in np.flatnonzero(container.labels == c)[:8])
    test = tuple(i for i in range(len(container.labels)) if i not in train)
    config = BkeConfig(batch_size=16, epochs=1, lam=1.0, seed=4)
    tuned, _, _ = finetune(container, SplitSpec(train, test), init_bundle(TINY, 5), config)
    (optimizer,) = made
    names = saved_names(tuned, tmp_path / "ft.bkec", ("online_encoder", "classifier"))
    assert sorted(optimizer.velocity) == names

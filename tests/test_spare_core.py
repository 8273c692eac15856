"""The model with its ops split over the spare core: at 1, 2 and 3 usable
CPUs a train step, ``predict`` and ``predict_batch`` give the serial path's
bytes, and ``predict_batch``'s chunk workers split no op while they hold
the spare-core token."""

import dataclasses
import hashlib
import threading

import numpy as np
import pytest

from setdet import tensor as T
from setdet.data import (TRAIN_NAMESPACE, VAL_NAMESPACE, SyntheticConfig, build_dataset,
                         grid_instances_scene)
from setdet.detector import Detector, ModelConfig
from setdet.matching import total_loss
from setdet.training import PREDICT_CHUNK, TrainConfig, forward_batch, predict_batch

from test_tape import tiny_step
from test_detector import tiny_model
from test_tensor import record_helper

# the default split bound, and 0: then every op with two or more slices splits
THRESHOLDS = [T.SPLIT_MIN_WORK, 0]


def sha(array) -> str:
    return "none" if array is None else hashlib.sha256(
        np.ascontiguousarray(array, "<f8").tobytes()).hexdigest()


@pytest.fixture(params=[1, 2, 3])
def cpus(request, monkeypatch):
    monkeypatch.setattr(T, "_usable_cpus", lambda: request.param)
    return request.param


def serially(monkeypatch, fn, *args):
    with monkeypatch.context() as patch:
        patch.setattr(T, "_usable_cpus", lambda: 1)
        return fn(*args)


def train_step_digests(aux):
    """SHA-256 of a default seed-5 step's loss and each of its 103 gradients."""
    cfg = dataclasses.replace(TrainConfig(seed=5), aux_loss=aux)
    samples = build_dataset(cfg.data, cfg.batch_size, TRAIN_NAMESPACE, cfg.seed)
    model = Detector(cfg.model, np.random.default_rng(cfg.seed))
    out = model.forward(np.stack([s.image for s in samples]), train=True,
                        rng=np.random.default_rng([5, 4]))
    loss, _ = total_loss(out, [s.targets for s in samples], cfg.loss, aux=aux)
    loss.backward()
    return [sha(loss.data)] + [sha(p.tensor.grad) for p in model.parameters()]


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=["bound", "every-op"])
@pytest.mark.parametrize("aux", [True, False], ids=["aux", "final-only"])
def test_train_step_sha_equal(monkeypatch, cpus, threshold, aux):
    want = serially(monkeypatch, train_step_digests, aux)
    monkeypatch.setattr(T, "SPLIT_MIN_WORK", threshold)
    helper = record_helper(monkeypatch)
    got = train_step_digests(aux)
    assert len(got) == 104 and "none" not in got
    assert got == want
    assert bool(helper.calls) == (cpus > 1)


def default_model():
    return Detector(ModelConfig(), np.random.default_rng(11))


def image(side):
    if side == 64:
        return build_dataset(SyntheticConfig(), 1, VAL_NAMESPACE, 11)[0].image
    return grid_instances_scene(1, 60, np.random.default_rng([11, 5]), side=120,
                                num_classes=SyntheticConfig().num_classes).image


def predict_bytes(model, img):
    with T.no_grad():
        out, memory, embs = model.forward_with_internals(img[None])
    dets = [(d.class_id, d.confidence, d.box.tobytes()) for d in model.predict(img)]
    return [a.data.tobytes() for a in (out.class_logits, out.boxes, memory, embs)], dets


@pytest.mark.parametrize("threshold", THRESHOLDS, ids=["bound", "every-op"])
@pytest.mark.parametrize("side", [64, 120])
def test_predict_bitwise(monkeypatch, cpus, threshold, side):
    model, img = default_model(), image(side)
    want = serially(monkeypatch, predict_bytes, model, img)
    monkeypatch.setattr(T, "SPLIT_MIN_WORK", threshold)
    helper = record_helper(monkeypatch)
    assert predict_bytes(model, img) == want
    # at B=1 only attention has slices to split: at 64 px each of its calls
    # fits in one block of scores, and at 120 px the encoder's calls split
    # only with no bound
    assert bool(helper.calls) == (cpus > 1 and side == 120 and threshold == 0)


@pytest.fixture(scope="module")
def samples():
    # 45 images: chunks of 20, 20 and 5
    return build_dataset(SyntheticConfig(), 45, VAL_NAMESPACE, 3)


def batch_bytes(model, chosen):
    out = forward_batch(model, chosen)
    dets = [[(d.class_id, d.confidence, d.box.tobytes()) for d in image]
            for image in predict_batch(model, chosen)]
    return out.class_logits.data.tobytes(), out.boxes.data.tobytes(), dets


def test_predict_batch_bitwise(monkeypatch, samples, cpus):
    model = default_model()
    want = serially(monkeypatch, batch_bytes, model, samples)
    assert batch_bytes(model, samples) == want


def test_multi_chunk_predict_batch_hands_nothing_to_the_helper(monkeypatch, samples):
    # the chunk workers hold the token, so even with no bound no op splits;
    # a single chunk runs in the caller, and its ops split
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(T, "SPLIT_MIN_WORK", 0)
    model = default_model()
    helper = record_helper(monkeypatch)
    predict_batch(model, samples)
    assert helper.calls == []
    predict_batch(model, samples[:PREDICT_CHUNK])
    assert helper.calls
    assert not T._SPARE_CORE.locked()


def test_threads_do_not_grow(monkeypatch):
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(T, "SPLIT_MIN_WORK", 0)
    model = tiny_model()
    helper = record_helper(monkeypatch)
    tiny_step(model).backward()
    alive = threading.active_count()
    for seed in range(1, 50):
        model.zero_grad()
        tiny_step(model, seed).backward()
    assert threading.active_count() == alive
    assert len(helper.calls) > 50

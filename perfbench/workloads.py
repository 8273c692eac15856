"""The benchmark's workloads: set-up, one operation and its output check.

Each workload builds every input from the workload seed and drives setdet
only through public names looked up at call time (``matching.total_loss``,
``training.clip_grad_norm``, ``model.forward``), so a traced run sees each
call through the tracer's wrappers.  All are closed loops with one client.

An operation returns ``(seconds, outputs)``: ``seconds`` is the operation's
wall time followed by the wall times of its two parts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from setdet import data, detector, evaluation, matching, training

import refeval

TOLERANCE = 1e-12
DETECTIONS_PER_IMAGE = 10
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def close(value, reference) -> bool:
    """Equal to 1e-12 relative (absolute below 1); NaN equals NaN."""
    if math.isnan(reference):
        return math.isnan(value)
    return abs(value - reference) <= TOLERANCE * max(1.0, abs(reference))


def _model(cfg, seed):
    return detector.Detector(cfg.model, np.random.default_rng(seed))


class Train:
    """Training steps at the default TrainConfig, in train()'s shuffle order.

    Parts: forward with matching and loss; backward, clipping and AdamW.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = training.TrainConfig(seed=seed)
        self.images_per_op = self.cfg.batch_size

    def setup(self):
        cfg = self.cfg
        state = SimpleNamespace(orders={}, train_set=data.build_dataset(
            cfg.data, cfg.train_size, data.TRAIN_NAMESPACE, self.seed))
        self.reset(state)
        _, state.first_step = self.op(state, 0)      # warm-up
        return state

    def reset(self, state):
        """A fresh model and optimizer, built as training.train builds them."""
        cfg = self.cfg
        state.model = _model(cfg, self.seed)
        state.params = state.model.parameters()
        groups = state.model.param_groups()
        state.optimizer = training.AdamW(
            [(groups["transformer"], cfg.lr_transformer),
             (groups["backbone"], cfg.lr_backbone)],
            weight_decay=cfg.weight_decay)

    def reference(self, state):
        """First-step (loss, pre-clip grad norm) recorded for this seed, or
        None when the table has no entry for it."""
        return recorded_first_step(self.seed)

    def setup_checks(self, state, reference):
        if reference is None:
            return {f"no recorded first step for seed {self.seed}; first steps "
                    "are compared only with the set-up's warm-up step": None}
        return {"set-up's first step matches the recorded reference":
                all(close(v, r) for v, r in zip(state.first_step, reference))}

    def op(self, state, k):
        cfg = self.cfg
        steps_per_epoch = math.ceil(len(state.train_set) / cfg.batch_size)
        epoch, step = divmod(k, steps_per_epoch)
        epoch += 1
        if epoch not in state.orders:
            state.orders[epoch] = np.random.default_rng(
                [self.seed, 2, epoch]).permutation(len(state.train_set))
        lr_scale = 1.0 / cfg.lr_drop_factor if epoch >= cfg.lr_drop_epoch else 1.0
        t0 = perf_counter()
        batch_idx = state.orders[epoch][step * cfg.batch_size:
                                        (step + 1) * cfg.batch_size]
        images = np.stack([state.train_set[i].image for i in batch_idx])
        targets = [state.train_set[i].targets for i in batch_idx]
        rng = np.random.default_rng([self.seed, 3, epoch, step])
        state.model.zero_grad()
        out = state.model.forward(images, train=True, rng=rng)
        loss, _ = matching.total_loss(out.layers, targets, cfg.loss, aux=cfg.aux_loss)
        value = loss.item()
        t1 = perf_counter()
        loss.backward()
        norm = training.clip_grad_norm(state.params, cfg.clip_norm)
        state.optimizer.step(lr_scale)
        t2 = perf_counter()
        return (t2 - t0, t1 - t0, t2 - t1), (value, norm)

    def check(self, state, reference, k, outputs) -> bool:
        if not all(math.isfinite(v) for v in outputs):
            return False
        want = state.first_step if reference is None else reference
        return k != 0 or all(close(v, r) for v, r in zip(outputs, want))


def scored_detections(samples, seed: int, num_classes: int):
    """Ten seeded detections per val image, made from its ground truth.

    Each object gets a detection (one in five a duplicate) shifted to an
    IoU drawn from [0.45, 1), so matches spread over all ten thresholds; one
    in ten carries a wrong class.  Random boxes of every size fill the rest,
    so detections fall in all three area ranges.
    """
    rng = np.random.default_rng([seed, 7])
    result = []
    for sample in samples:
        dets = []
        for cls, box in zip(sample.targets.classes, sample.targets.boxes):
            for _ in range(1 + (rng.random() < 0.2)):
                target_iou = rng.uniform(0.45, 1.0)
                label = int(cls) if rng.random() < 0.9 else int(rng.integers(num_classes))
                # equal boxes offset by s along one axis of extent w have
                # IoU (w - s) / (w + s)
                axis = int(rng.integers(2))
                shifted = np.array(box, dtype=np.float64)
                shifted[axis] += (rng.choice((-1.0, 1.0)) * box[axis + 2]
                                  * (1.0 - target_iou) / (1.0 + target_iou))
                confidence = 0.5 * target_iou + 0.5 * rng.random()
                dets.append(detector.Detection(label, float(confidence), shifted))
        while len(dets) < DETECTIONS_PER_IMAGE:
            w, h = rng.uniform(0.05, 0.45, 2)
            box = np.array([rng.uniform(w / 2, 1 - w / 2),
                            rng.uniform(h / 2, 1 - h / 2), w, h])
            dets.append(detector.Detection(int(rng.integers(num_classes)),
                                           float(0.6 * rng.random()), box))
        result.append(dets[:DETECTIONS_PER_IMAGE])
    return result


class Val:
    """The validation half of an epoch on the 200-image val split.

    Parts: ``predict_batch`` over the split (no_grad, B=50); scoring 200
    images x 10 seeded detections with ``evaluate_detections``.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = training.TrainConfig(seed=seed)
        self.images_per_op = self.cfg.val_size

    def setup(self):
        cfg = self.cfg
        val_set = data.build_dataset(cfg.data, cfg.val_size, data.VAL_NAMESPACE,
                                     self.seed)
        state = SimpleNamespace(
            val_set=val_set, model=_model(cfg, self.seed),
            targets=[s.targets for s in val_set],
            scored=scored_detections(val_set, self.seed, cfg.model.num_classes))
        training.predict_batch(state.model, val_set[:50])    # warm-up
        return state

    def reset(self, state):
        pass

    def reference(self, state):
        return refeval.score(state.scored, state.targets, self.cfg.model.num_classes)

    def setup_checks(self, state, reference):
        return {}

    def op(self, state, k):
        t0 = perf_counter()
        predicted = training.predict_batch(state.model, state.val_set)
        t1 = perf_counter()
        report = evaluation.evaluate_detections(state.scored, state.targets,
                                                self.cfg.model.num_classes)
        t2 = perf_counter()
        return (t2 - t0, t1 - t0, t2 - t1), (predicted, report)

    def check(self, state, reference, k, outputs) -> bool:
        predicted, report = outputs
        if len(predicted) != len(state.val_set):
            return False
        if any(len(d) != self.cfg.model.num_queries for d in predicted):
            return False
        fields = refeval.report_fields(report)
        per_class, want = fields.pop("per_class_AP"), dict(reference)
        want_per_class = want.pop("per_class_AP")
        return (set(per_class) == set(want_per_class)
                and all(close(per_class[c], want_per_class[c]) for c in want_per_class)
                and all(close(fields[name], want[name]) for name in want))


class Predict:
    """Single-image ``Detector.predict`` on the unbatched [3, H, W] path.

    One operation is a request pair: a 64x64 val image, then a 120x120
    ``grid_instances_scene`` image with 5-100 instances (the paper's
    saturation input).  Parts: the 64-side request; the 120-side request.
    """

    images_per_op = 2
    pool = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = training.TrainConfig(seed=seed)

    def setup(self):
        cfg = self.cfg
        small = data.build_dataset(cfg.data, self.pool, data.VAL_NAMESPACE, self.seed)
        large = []
        for i in range(self.pool):
            rng = np.random.default_rng([self.seed, 5, i])
            cls, count = int(rng.integers(cfg.data.num_classes)), int(rng.integers(5, 101))
            large.append(data.grid_instances_scene(cls, count, rng, side=120,
                                                   num_classes=cfg.data.num_classes))
        state = SimpleNamespace(small=small, large=large, model=_model(cfg, self.seed))
        state.model.predict(small[0].image)                   # warm-up
        state.model.predict(large[0].image)
        return state

    def reset(self, state):
        pass

    def reference(self, state):
        """Each pool image's detections from the batched predict_batch path."""
        return (training.predict_batch(state.model, state.small),
                training.predict_batch(state.model, state.large))

    def setup_checks(self, state, reference):
        return {}

    def op(self, state, k):
        i = k % self.pool
        t0 = perf_counter()
        small = state.model.predict(state.small[i].image)
        t1 = perf_counter()
        large = state.model.predict(state.large[i].image)
        t2 = perf_counter()
        return (t2 - t0, t1 - t0, t2 - t1), (small, large)

    def check(self, state, reference, k, outputs) -> bool:
        i = k % self.pool
        return all(_same_detections(got, want[i])
                   for got, want in zip(outputs, reference))


def _same_detections(got, want) -> bool:
    return len(got) == len(want) and all(
        g.class_id == w.class_id and close(g.confidence, w.confidence)
        and all(close(a, b) for a, b in zip(g.box.tolist(), w.box.tolist()))
        for g, w in zip(got, want))


def fingerprint(outputs) -> str:
    """An operation's outputs as text that is equal only for bitwise-equal
    numbers (floats are written with repr, NaN as NaN)."""
    def plain(value):
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        if isinstance(value, detector.Detection):
            return [value.class_id, value.confidence, value.box.tolist()]
        if isinstance(value, evaluation.EvalReport):
            return refeval.report_fields(value)
        return value
    return json.dumps(plain(outputs))


WORKLOADS = {"train": Train, "val": Val, "predict": Predict}


def recorded_first_step(seed: int):
    """(loss, grad norm) of the first train step recorded for ``seed``, if any."""
    if not REFERENCE_FILE.exists():
        return None
    with open(REFERENCE_FILE) as fh:
        table = json.load(fh)["train_first_step"]
    entry = table.get(str(seed))
    return None if entry is None else tuple(entry)

"""Optimization: AdamW with decoupled weight decay, global-norm gradient
clipping, the seeded training loop, and the evaluations the CLI prints.

Every stochastic choice in a run is a pure function of (seed, epoch,
step): dataset content, shuffle order, and dropout masks.  Together with
checkpointed optimizer state this makes interrupted runs resumable with
bitwise-identical results.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .boxes import iou_matrix
from .data import (
    TRAIN_NAMESPACE,
    VAL_NAMESPACE,
    SyntheticConfig,
    build_dataset,
    grid_instances_scene,
)
from .detector import (
    CheckpointError,
    DetectionOutput,
    Detector,
    ModelConfig,
    NonFiniteInputError,
    check_arrays,
    load_checkpoint,
    postprocess,
    read_checkpoint_arrays,
    save_checkpoint,
    write_arrays,
)
from .evaluation import (
    EvalReport,
    NonFiniteDetectionError,
    evaluate_detections,
    greedy_match,
    nms,
    panoptic_quality,
)
from .layers import ConfigError, check_bool, check_int, check_real, check_unit_interval
from .matching import LossWeights, dice_loss, focal_loss, match, total_loss
from .segmentation import MaskHead, downsample_map, panoptic_from_sample, panoptic_merge
from .tensor import DimensionError, Parameter

# Images per forward in predict_batch.  On two threads, chunks of 50 raised
# peak memory by 44% and chunks of 10 saved a quarter of the time, not 40%.
PREDICT_CHUNK = 20


class TrainingDivergedError(RuntimeError):
    """Raised when the model output or the loss turns non-finite; message
    carries diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization recipe plus the nested model/data/loss configs."""

    lr_transformer: float = 1e-4
    lr_backbone: float = 1e-5
    weight_decay: float = 1e-4
    clip_norm: float = 0.1
    epochs: int = 120
    lr_drop_epoch: int = 90
    lr_drop_factor: float = 10.0
    batch_size: int = 16
    seed: int = 0
    train_size: int = 512
    val_size: int = 200
    aux_loss: bool = True
    loss: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: SyntheticConfig = field(default_factory=SyntheticConfig)

    def __post_init__(self):
        for name in ("epochs", "lr_drop_epoch", "batch_size", "train_size", "val_size"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed)
        for name in ("lr_transformer", "lr_backbone", "clip_norm", "lr_drop_factor"):
            check_real(name, getattr(self, name), low_open=True)
        check_real("weight_decay", self.weight_decay)
        check_bool("aux_loss", self.aux_loss)
        if self.lr_drop_epoch >= self.epochs:
            raise ConfigError(f"lr_drop_epoch must be < epochs = {self.epochs}, "
                              f"got {self.lr_drop_epoch}")
        if self.model.image_side != self.data.image_side:
            raise ConfigError(f"model.image_side must equal data.image_side = "
                              f"{self.data.image_side}, got {self.model.image_side}")
        if self.model.num_queries < self.data.max_targets:
            raise ConfigError(f"model.num_queries must be >= data.max_objects plus boxed stuff "
                              f"bands = {self.data.max_targets}, got {self.model.num_queries}")
        if self.model.num_classes < self.data.num_target_classes:
            raise ConfigError(f"model.num_classes must be >= data.num_classes plus boxed stuff "
                              f"bands = {self.data.num_target_classes}, "
                              f"got {self.model.num_classes}")

    def lr_scale(self, epoch: int) -> float:
        """Multiplier on both base lrs for a 1-based epoch index."""
        return 1.0 / self.lr_drop_factor if epoch >= self.lr_drop_epoch else 1.0

    def lr_at(self, epoch: int) -> tuple[float, float]:
        """(transformer lr, backbone lr) for a 1-based epoch index."""
        scale = self.lr_scale(epoch)
        return self.lr_transformer * scale, self.lr_backbone * scale

    @staticmethod
    def from_dict(data: dict) -> "TrainConfig":
        """The one reader: an unknown key at any level fails in a constructor."""
        data = dict(data)
        return TrainConfig(model=ModelConfig(**data.pop("model", {})),
                           loss=LossWeights(**data.pop("loss", {})),
                           data=SyntheticConfig(**data.pop("data", {})), **data)

    @staticmethod
    def from_json(path: str) -> "TrainConfig":
        with open(path) as fh:
            return TrainConfig.from_dict(json.load(fh))

    def to_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=1)


class AdamW:
    """Bias-corrected Adam moments with decoupled weight decay.

    The decay shrinks parameters by (1 - lr*wd) before each gradient
    step, independently of the moment buffers.
    """

    def __init__(self, param_groups, weight_decay: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        # param_groups: list of (list[Parameter], base learning rate)
        self.groups = [(list(params), float(lr)) for params, lr in param_groups]
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {}
        self.v = {}
        for params, _ in self.groups:
            for p in params:
                self.m[p.name] = np.zeros_like(p.tensor.data)
                self.v[p.name] = np.zeros_like(p.tensor.data)

    def step(self, lr_scale: float = 1.0):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for params, base_lr in self.groups:
            lr = base_lr * lr_scale
            for p in params:
                g = p.tensor.grad
                if g is None:
                    g = 0.0
                m = self.m[p.name]
                v = self.v[p.name]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * np.square(g)
                if self.weight_decay:
                    p.tensor.data *= 1.0 - lr * self.weight_decay
                p.tensor.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                p.tensor._version += 1      # a tape recorded before now is stale

    def save(self, path: str):
        arrays = {"step": np.float64(self.step_count).reshape(())}
        for name in self.m:
            arrays.update({f"m.{name}": self.m[name], f"v.{name}": self.v[name]})
        write_arrays(path, arrays)

    def load(self, path: str):
        """Restore state saved for the same groups; all checked before assigning."""
        arrays = read_checkpoint_arrays(path)
        shapes = {"step": ()}
        for name, m in self.m.items():
            shapes[f"m.{name}"] = shapes[f"v.{name}"] = m.shape
        check_arrays(arrays, shapes, path)
        step = float(arrays["step"])
        if not (step >= 0 and step.is_integer()):
            raise CheckpointError(f"{path}: step {step} is not an integer >= 0")
        self.step_count = int(step)
        for name in self.m:
            self.m[name] = arrays[f"m.{name}"]
            self.v[name] = arrays[f"v.{name}"]


def clip_grad_norm(params, max_norm: float = 0.1) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = 0.0
    grads = []
    for p in params:
        g = p.tensor.grad if isinstance(p, Parameter) else p
        if g is None:
            continue
        grads.append(g)
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


CSV_HEADER = ["epoch", "loss", "class_loss", "l1_loss", "giou_loss",
              "val_ap50", "val_ap"]


@dataclass
class TrainResult:
    checkpoint: str
    metrics_csv: str
    history: list
    model: Detector

    def last10_median(self, key: str) -> float:
        values = [row[key] for row in self.history[-10:]]
        return float(np.median(values))


def evaluate_model(model: Detector, samples, use_layer: int = -1,
                   override_empty: bool = True,
                   nms_thresh: float | None = None) -> EvalReport:
    """Score inference over samples against targets, after NMS if ``nms_thresh``."""
    if nms_thresh is not None:
        check_unit_interval("iou_thresh", nms_thresh)
    detections = predict_batch(model, samples, use_layer, override_empty)
    if nms_thresh is not None:
        detections = [nms(dets, nms_thresh) for dets in detections]
    return evaluate_detections(detections, [s.targets for s in samples],
                               model.config.num_classes)


def evaluate_layers(model: Detector, samples, nms_thresh: float) -> list[dict]:
    """AP and AP50 of each decoder layer (1-based), without and with NMS, from
    one forward (paper Fig. 4); no-object slots are dropped, not overridden."""
    check_unit_interval("iou_thresh", nms_thresh)
    output = forward_batch(model, samples)
    targets = [s.targets for s in samples]
    rows = []
    for layer in range(output.class_logits.shape[0]):
        detections = postprocess(output, use_layer=layer, override_empty=False)
        plain = evaluate_detections(detections, targets, model.config.num_classes)
        with_nms = evaluate_detections([nms(dets, nms_thresh) for dets in detections],
                                       targets, model.config.num_classes)
        rows.append({"layer": layer + 1, "AP": plain.ap, "AP50": plain.ap50,
                     "AP_nms": with_nms.ap, "AP50_nms": with_nms.ap50})
    return rows


def missed_fraction(model: Detector, class_id: int, count: int, repeats: int,
                    seed: int, side: int, object_size: float | None):
    """Fraction of grid instances the model fails to find, per repeat."""
    check_int("repeats", repeats, 1)
    fractions = []
    for rep in range(repeats):
        rng = np.random.default_rng([seed, 5, count, rep])
        sample = grid_instances_scene(class_id, count, rng, side=side,
                                      object_size=object_size,
                                      num_classes=model.config.num_classes)
        if count == 0:
            fractions.append(0.0)
            continue
        dets = model.predict(sample.image)
        dets = sorted((d for d in dets if d.class_id == class_id),
                      key=lambda d: -d.confidence)
        boxes = np.array([d.box for d in dets]).reshape(-1, 4)
        found = int((greedy_match(iou_matrix(boxes, sample.targets.boxes), 0.5) >= 0).sum())
        fractions.append(1.0 - found / count)
    return np.array(fractions)


def evaluate_panoptic(model: Detector, head: MaskHead, samples, num_things: int,
                      conf_thresh: float = 0.85) -> dict:
    """Mean PQ, SQ, RQ, PQ_th and PQ_st over images of detector + mask head +
    merge; classes below ``num_things`` are things.  A field that is NaN in
    every image (PQ_st with no stuff segment anywhere) is reported as NaN."""
    check_unit_interval("conf_thresh", conf_thresh)
    for i, s in enumerate(samples):
        if s.mask_labels is None or s.stuff_map is None:
            raise ValueError(f"sample {i} has no panoptic ground truth (masks and "
                             f"stuff_map); file-backed annotations hold boxes only")
    side = model.config.feature_side
    factor = model.config.stride // 2

    def score(images, chunk):
        out, memory, embs = model.forward_with_internals(images)
        mask_logits = head(embs, memory, side, side).logits.data
        probs = T.softmax(out.class_logits.data[-1])[..., :-1]  # no no-object
        return [panoptic_quality(
                    panoptic_merge(mask_logits[b], probs[b].max(axis=-1),
                                   probs[b].argmax(axis=-1), thing_classes=num_things,
                                   conf_thresh=conf_thresh),
                    downsample_map(panoptic_from_sample(sample, num_things), factor))
                for b, sample in enumerate(chunk)]

    totals = [t for part in _map_chunks(score, samples) for t in part]
    fields = {"PQ": "pq", "SQ": "sq", "RQ": "rq", "PQ_th": "pq_things", "PQ_st": "pq_stuff"}
    report = {}
    for key, name in fields.items():
        values = np.array([getattr(t, name) for t in totals])
        report[key] = math.nan if np.isnan(values).all() else float(np.nanmean(values))
    return {**report, "images": len(samples)}


def predict_batch(model: Detector, samples, use_layer: int = -1, override_empty: bool = True):
    """Detections for each sample, in order: ``postprocess(forward_batch(...))``."""
    return postprocess(forward_batch(model, samples), use_layer, override_empty)


def forward_batch(model: Detector, samples) -> DetectionOutput:
    """Every decoder layer's predictions for all samples, from batched
    no_grad forwards (``_map_chunks``); the arrays are [L, B, ...] over the
    samples, in order."""
    outputs = _map_chunks(lambda images, chunk: model.forward(images), samples)
    cfg = model.config
    # the empty arrays give zero samples the right [L, 0, ...] shapes
    logits = np.zeros((cfg.dec_layers, 0, cfg.num_queries, cfg.num_classes + 1))
    boxes = np.zeros((cfg.dec_layers, 0, cfg.num_queries, 4))
    return DetectionOutput(
        T.Tensor(np.concatenate([logits, *(o.class_logits.data for o in outputs)], axis=1)),
        T.Tensor(np.concatenate([boxes, *(o.boxes.data for o in outputs)], axis=1)))


def _map_chunks(fn, samples) -> list:
    """``fn(images, chunk)`` under ``no_grad`` for each chunk of
    ``PREDICT_CHUNK`` samples, with ``images`` the chunk's stacked [b,3,H,W]
    images; the results come back in sample order.

    The chunks run on one thread per usable CPU (``T._usable_cpus``; a
    single chunk runs in the calling thread).  While two or more chunk
    workers run they hold the spare-core token (``T._SPARE_CORE``, waited
    for if an op elsewhere holds it), so no op inside a chunk splits its
    slices over the helper thread: every core already runs a chunk.  A
    single chunk's ops may split.  Images share no state in a forward but
    conv2d's read-only index maps, and every op computes each image with
    the same products whatever the batch (conv2d gathers each image's
    columns through the map and runs one product per image).  So the
    results do not depend on the threads, the chunking or the image sizes
    seen before: they equal one forward over all the images, or over each
    image alone, bit for bit.  The threads pay off with one BLAS thread
    (``OPENBLAS_NUM_THREADS=1``), the setting every measurement of setdet
    uses: a multi-threaded BLAS already spreads each large product over
    the cores and spin-waits, and the two kinds of threads then compete.
    All images must share one shape.  A non-finite pixel raises
    ``NonFiniteInputError`` naming the sample's index in ``samples``.
    """
    shapes = [(3, *s.labels.shape) for s in samples]    # images are built per chunk
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise DimensionError(f"sample {i} has image shape {shape}, "
                                 f"sample 0 has {shapes[0]}")

    def run(lo):
        chunk = samples[lo:lo + PREDICT_CHUNK]
        images = np.stack([s.image for s in chunk])
        try:
            with T.no_grad():
                return fn(images, chunk)
        except NonFiniteInputError as exc:     # the model saw the chunk as its batch
            raise NonFiniteInputError(lo + exc.image, len(samples), exc.count) from None

    starts = range(0, len(samples), PREDICT_CHUNK)
    workers = min(len(starts), T._usable_cpus())
    if workers <= 1:
        return [run(lo) for lo in starts]
    with T._SPARE_CORE, ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, starts))


def train(cfg: TrainConfig, out_dir: str, resume: str | None = None,
          log=None) -> TrainResult:
    """Full training run; writes per-epoch CSV metrics and checkpoints.

    Checkpoints are written at the lr drop and at the end, each with an
    optimizer-state sidecar (.opt) and a progress sidecar (.state.json)
    so runs can resume exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    model = Detector(cfg.model, np.random.default_rng(cfg.seed))
    groups = model.param_groups()
    optimizer = AdamW([(groups["transformer"], cfg.lr_transformer),
                       (groups["backbone"], cfg.lr_backbone)],
                      weight_decay=cfg.weight_decay)
    start_epoch = 1
    if resume is not None:
        start_epoch = _completed_epochs(resume + ".state.json", cfg.epochs) + 1
        load_checkpoint(model, resume)
        optimizer.load(resume + ".opt")

    train_set = build_dataset(cfg.data, cfg.train_size, TRAIN_NAMESPACE, cfg.seed)
    val_set = build_dataset(cfg.data, cfg.val_size, VAL_NAMESPACE, cfg.seed)
    params = model.parameters()

    csv_path = os.path.join(out_dir, "metrics.csv")
    resumed = resume is not None and os.path.exists(csv_path)
    history = _read_history(csv_path, start_epoch) if resumed else []
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(_csv_row(row) for row in history)

    final_path = os.path.join(out_dir, "checkpoint_final.sdtr")
    for epoch in range(start_epoch, cfg.epochs + 1):
        lr_scale = cfg.lr_scale(epoch)
        order = np.random.default_rng([cfg.seed, 2, epoch]) \
            .permutation(len(train_set))
        epoch_loss = 0.0
        epoch_comps = {"class": 0.0, "l1": 0.0, "giou": 0.0}
        steps = 0
        for step, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch_idx = order[lo:lo + cfg.batch_size]
            images = np.stack([train_set[i].image for i in batch_idx])
            targets = [train_set[i].targets for i in batch_idx]
            rng_step = np.random.default_rng([cfg.seed, 3, epoch, step])
            model.zero_grad()
            out = model.forward(images, train=True, rng=rng_step)
            scored = slice(None) if cfg.aux_loss else slice(-1, None)
            if not all(np.isfinite(x.data[scored]).all() for x in (out.class_logits, out.boxes)):
                raise TrainingDivergedError(
                    f"non-finite model output at epoch {epoch} step {step}")
            loss, comps = total_loss(out, targets, cfg.loss, aux=cfg.aux_loss)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    f"loss={value}, components={comps}")
            loss.backward()
            clip_grad_norm(params, cfg.clip_norm)
            optimizer.step(lr_scale)
            epoch_loss += value
            for key in epoch_comps:
                epoch_comps[key] += float(comps[key].sum())
            steps += 1

        try:
            report = evaluate_model(model, val_set)
        except NonFiniteDetectionError as exc:
            raise TrainingDivergedError(
                f"non-finite model output in validation at epoch {epoch}: {exc}") from exc
        row = {
            "epoch": epoch,
            "loss": epoch_loss / steps,
            "class_loss": epoch_comps["class"] / steps,
            "l1_loss": epoch_comps["l1"] / steps,
            "giou_loss": epoch_comps["giou"] / steps,
            "val_ap50": report.ap50,
            "val_ap": report.ap,
        }
        history.append(row)
        with open(csv_path, "a", newline="") as fh:
            csv.writer(fh).writerow(_csv_row(row))
        if log is not None:
            tlr, blr = cfg.lr_at(epoch)
            log(f"epoch {epoch}/{cfg.epochs} loss={row['loss']:.4f} "
                f"AP50={row['val_ap50']:.3f} AP={row['val_ap']:.3f} lr={tlr:g}")
        if epoch == cfg.lr_drop_epoch:
            _save_state(model, optimizer, epoch,
                        os.path.join(out_dir, f"checkpoint_epoch{epoch}.sdtr"))
    _save_state(model, optimizer, cfg.epochs, final_path)
    return TrainResult(checkpoint=final_path, metrics_csv=csv_path,
                       history=history, model=model)


def _csv_row(row: dict) -> list:
    # repr keeps every float exact, so a resume reads back the same history
    return [repr(row[k]) if isinstance(row[k], float) else row[k] for k in CSV_HEADER]


def _read_history(csv_path: str, before_epoch: int) -> list:
    """The rows of an earlier run's metrics.csv for epochs before ``before_epoch``."""
    with open(csv_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    if header != CSV_HEADER:
        raise ValueError(f"{csv_path}: header {header} is not {CSV_HEADER}")
    return [dict(zip(CSV_HEADER, [int(row[0])] + [float(v) for v in row[1:]]))
            for row in rows if int(row[0]) < before_epoch]


def _completed_epochs(path: str, epochs: int) -> int:
    """The epoch count in a checkpoint's progress file, checked against the run."""
    try:
        with open(path) as fh:
            state = json.load(fh)
    except ValueError as exc:
        raise CheckpointError(f"{path}: not a JSON progress file: {exc}") from None
    done = state.get("completed_epochs") if isinstance(state, dict) else None
    if type(done) is not int or not 1 <= done <= epochs:
        raise CheckpointError(f"{path}: completed_epochs must be an integer in "
                              f"[1, {epochs}], got {done!r}")
    return done


def _save_state(model, optimizer, epoch, path):
    save_checkpoint(model, path)
    optimizer.save(path + ".opt")
    with open(path + ".state.json", "w") as fh:
        json.dump({"completed_epochs": epoch}, fh)


# -- mask head training (two-step recipe) --------------------------------------

@dataclass(frozen=True)
class MaskTrainConfig:
    epochs: int = 25
    lr: float = 1e-4
    weight_decay: float = 1e-4
    clip_norm: float = 0.1
    batch_size: int = 16

    def __post_init__(self):
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_real("lr", self.lr, low_open=True)
        check_real("clip_norm", self.clip_norm, low_open=True)
        check_real("weight_decay", self.weight_decay)


def train_mask_head(model: Detector, cfg: TrainConfig,
                    mask_cfg: MaskTrainConfig | None = None,
                    log=None) -> MaskHead:
    """Freeze the detector and fit the mask head with DICE + focal.

    The frozen detector runs once per run, before the first epoch: its
    final decoder embeddings and encoder memory are kept for every train
    image, with the final layer's matching and the ground-truth masks
    block-averaged down to the mask logits' resolution.  Each step then
    runs the head once on its batch's slices.
    """
    mask_cfg = mask_cfg or MaskTrainConfig()
    head = MaskHead(model.config.d, model.config.num_heads,
                    np.random.default_rng(cfg.seed + 17))
    optimizer = AdamW([(head.parameters(), mask_cfg.lr)],
                      weight_decay=mask_cfg.weight_decay)
    train_set = build_dataset(cfg.data, cfg.train_size, TRAIN_NAMESPACE, cfg.seed)
    side = model.config.feature_side
    n_slots = model.config.num_queries

    def frozen(images, chunk):
        out, memory, embs = model.forward_with_internals(images)
        logits, boxes = out.class_logits.data[-1], out.boxes.data[-1]
        slots = [a.slot_of_target
                 for a in match(logits, boxes, [s.targets for s in chunk], cfg.loss)]
        return embs.data, memory.data, slots

    parts = _map_chunks(frozen, train_set)
    embs = np.concatenate([p[0] for p in parts])                 # [S, d, N]
    memory = np.concatenate([p[1] for p in parts])               # [S, d, HW]
    slot_of_target = [slots for p in parts for slots in p[2]]
    gt_masks = [_downsample_mask(s.masks, model.config.stride // 2) for s in train_set]

    for epoch in range(1, mask_cfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, 4, epoch]) \
            .permutation(len(train_set))
        epoch_loss = 0.0
        count = 0
        for lo in range(0, len(order), mask_cfg.batch_size):
            batch_idx = order[lo:lo + mask_cfg.batch_size]
            # flat index b * N + slot into the batch's [b*N, 2h, 2w] logits
            rows = np.concatenate([b * n_slots + slot_of_target[i]
                                   for b, i in enumerate(batch_idx)])
            if len(rows) == 0:
                continue
            head.zero_grad()
            mask_out = head(T.Tensor(embs[batch_idx]), T.Tensor(memory[batch_idx]),
                            side, side)
            pred = T.take(T.reshape(mask_out.logits, (len(batch_idx) * n_slots,
                                                      2 * side, 2 * side)), rows, axis=0)
            gt = np.concatenate([gt_masks[i] for i in batch_idx])
            batch_loss = (T.tsum(dice_loss(pred, gt)) * cfg.loss.dice
                          + focal_loss(pred, gt) * (cfg.loss.focal * len(gt))) \
                * (1.0 / len(gt))
            value = batch_loss.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite mask loss at epoch {epoch}")
            batch_loss.backward()
            clip_grad_norm(head.parameters(), mask_cfg.clip_norm)
            optimizer.step()
            epoch_loss += value
            count += 1
        if log is not None:
            log(f"mask epoch {epoch}/{mask_cfg.epochs} "
                f"loss={epoch_loss / max(1, count):.4f}")
    return head


def _downsample_mask(masks: np.ndarray, factor: int) -> np.ndarray:
    """Block-average [..., H, W] masks by ``factor`` and threshold at 0.5."""
    h, w = masks.shape[-2:]
    hh, ww = h // factor, w // factor
    blocks = masks[..., :hh * factor, :ww * factor].astype(np.float64) \
        .reshape(*masks.shape[:-2], hh, factor, ww, factor).mean(axis=(-3, -1))
    return (blocks > 0.5).astype(np.float64)


def load_mask_head(model_config: ModelConfig, path: str) -> MaskHead:
    head = MaskHead(model_config.d, model_config.num_heads, np.random.default_rng(0))
    load_checkpoint(head, path)
    return head

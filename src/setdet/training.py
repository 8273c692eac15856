"""Optimization: AdamW with decoupled weight decay, global-norm gradient
clipping, and the seeded training loop.

Every stochastic choice in a run is a pure function of (seed, epoch,
step): dataset content, shuffle order, and dropout masks.  Together with
checkpointed optimizer state this makes interrupted runs resumable with
bitwise-identical results.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import (
    TRAIN_NAMESPACE,
    VAL_NAMESPACE,
    SyntheticConfig,
    build_dataset,
)
from .detector import (
    CheckpointError,
    Detector,
    ModelConfig,
    check_arrays,
    load_checkpoint,
    postprocess,
    read_checkpoint_arrays,
    save_checkpoint,
    write_arrays,
)
from .evaluation import EvalReport, evaluate_detections, nms as nms_filter
from .matching import LossWeights, dice_loss, focal_loss, match, total_loss
from .segmentation import MaskHead
from .tensor import DimensionError, Parameter

# Images per forward in predict_batch.  On two threads, chunks of 50 raised
# peak memory by 44% and chunks of 10 saved a quarter of the time, not 40%.
PREDICT_CHUNK = 20


class TrainingDivergedError(RuntimeError):
    """Raised when the loss turns non-finite; message carries diagnostics."""


@dataclass
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
        for name in ("epochs", "lr_drop_epoch", "batch_size", "train_size",
                     "val_size"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("batch_size", "train_size", "val_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not 1 <= self.lr_drop_epoch < self.epochs:
            raise ValueError(
                f"lr_drop_epoch {self.lr_drop_epoch} must be in [1, {self.epochs})")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        if self.data.max_objects > self.model.num_queries:
            raise ValueError(
                f"{self.data.max_objects} objects exceed {self.model.num_queries} slots")

    def lr_scale(self, epoch: int) -> float:
        """Multiplier on both base lrs for a 1-based epoch index."""
        return 1.0 / self.lr_drop_factor if epoch >= self.lr_drop_epoch else 1.0

    def lr_at(self, epoch: int) -> tuple[float, float]:
        """(transformer lr, backbone lr) for a 1-based epoch index."""
        scale = self.lr_scale(epoch)
        return self.lr_transformer * scale, self.lr_backbone * scale

    def to_dict(self) -> dict:
        return {
            "lr_transformer": self.lr_transformer, "lr_backbone": self.lr_backbone,
            "weight_decay": self.weight_decay, "clip_norm": self.clip_norm,
            "dropout": self.model.dropout, "epochs": self.epochs,
            "lr_drop_epoch": self.lr_drop_epoch,
            "lr_drop_factor": self.lr_drop_factor,
            "batch_size": self.batch_size, "seed": self.seed,
            "train_size": self.train_size, "val_size": self.val_size,
            "aux_loss": self.aux_loss,
            "loss": {"l1": self.loss.l1, "giou": self.loss.giou,
                     "eos": self.loss.eos, "dice": self.loss.dice,
                     "focal": self.loss.focal},
            "model": self.model.to_dict(),
            "data": self.data.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "TrainConfig":
        data = dict(data)
        dropout = data.pop("dropout", None)
        model = ModelConfig.from_dict(data.pop("model", {}))
        if dropout is not None:
            model.dropout = dropout
        loss = LossWeights(**data.pop("loss", {}))
        synth = SyntheticConfig.from_dict(data.pop("data", {}))
        return TrainConfig(model=model, loss=loss, data=synth, **data)

    @staticmethod
    def from_json(path: str) -> "TrainConfig":
        with open(path) as fh:
            return TrainConfig.from_dict(json.load(fh))

    def to_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


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
    """Run inference over samples and score detections against targets."""
    detections = predict_batch(model, samples, use_layer=use_layer,
                               override_empty=override_empty,
                               nms_thresh=nms_thresh)
    targets = [s.targets for s in samples]
    return evaluate_detections(detections, targets, model.config.num_classes)


def predict_batch(model: Detector, samples, use_layer: int = -1,
                  override_empty: bool = True, nms_thresh: float | None = None):
    """Detections for each sample, in order, from batched no_grad forwards.

    The samples are cut into chunks of ``PREDICT_CHUNK`` images, and the
    chunks run on one thread per usable CPU (a single chunk runs in the
    calling thread).  Images share no state in a forward, so the output
    does not depend on the threads; it differs from one forward over all
    the images only in the last bits of BLAS rounding.  The threads pay
    off with one BLAS thread (``OPENBLAS_NUM_THREADS=1``), the setting
    every measurement of setdet uses: a multi-threaded BLAS already spreads
    each large product over the cores and spin-waits, and the two kinds of
    threads then compete.  All images must share one shape.
    """
    shape = samples[0].image.shape if len(samples) else None
    for i, s in enumerate(samples):
        if s.image.shape != shape:
            raise DimensionError(f"sample {i} has image shape {s.image.shape}, "
                                 f"sample 0 has {shape}")

    def run(chunk):
        images = np.stack([s.image for s in chunk])
        with T.no_grad():
            out = model.forward(images)
        dets = postprocess(out, use_layer=use_layer, override_empty=override_empty)
        if nms_thresh is not None:
            dets = [nms_filter(d, nms_thresh) for d in dets]
        return dets

    chunks = [samples[lo:lo + PREDICT_CHUNK]
              for lo in range(0, len(samples), PREDICT_CHUNK)]
    workers = min(len(chunks), _usable_cpus())
    if workers <= 1:
        results = [run(chunk) for chunk in chunks]
    else:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run, chunks))
    return [dets for result in results for dets in result]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
            try:
                loss, comps = total_loss(out.layers, targets, cfg.loss,
                                         aux=cfg.aux_loss)
            except ValueError as exc:
                # non-finite predictions surface first in the matching cost
                raise TrainingDivergedError(
                    f"non-finite model output at epoch {epoch} step {step}: "
                    f"{exc}") from exc
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
                epoch_comps[key] += comps[key]
            steps += 1

        report = evaluate_model(model, val_set)
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

@dataclass
class MaskTrainConfig:
    epochs: int = 25
    lr: float = 1e-4
    weight_decay: float = 1e-4
    clip_norm: float = 0.1
    batch_size: int = 16
    hidden: int = 8


def train_mask_head(model: Detector, cfg: TrainConfig,
                    mask_cfg: MaskTrainConfig | None = None,
                    log=None) -> MaskHead:
    """Freeze the detector and fit the mask head with DICE + focal.

    Targets come from the final decoder layer's matching; ground-truth
    masks are block-averaged down to the mask logits' resolution.
    """
    mask_cfg = mask_cfg or MaskTrainConfig()
    head = MaskHead(model.config.d, model.config.num_heads,
                    np.random.default_rng(cfg.seed + 17), hidden=mask_cfg.hidden)
    optimizer = AdamW([(head.parameters(), mask_cfg.lr)],
                      weight_decay=mask_cfg.weight_decay)
    train_set = build_dataset(cfg.data, cfg.train_size, TRAIN_NAMESPACE, cfg.seed)
    side = model.config.feature_side
    mask_stride = model.config.stride // 2

    for epoch in range(1, mask_cfg.epochs + 1):
        order = np.random.default_rng([cfg.seed, 4, epoch]) \
            .permutation(len(train_set))
        epoch_loss = 0.0
        count = 0
        for lo in range(0, len(order), mask_cfg.batch_size):
            batch_idx = order[lo:lo + mask_cfg.batch_size]
            head.zero_grad()
            batch_loss = None
            num_objects = max(1, sum(len(train_set[i].targets) for i in batch_idx))
            for i in batch_idx:
                sample = train_set[i]
                if len(sample.targets) == 0 or sample.masks is None:
                    continue
                with T.no_grad():
                    out, memory, final_embs = model.forward_with_internals(
                        sample.image[None])
                logits = out.layers[-1].class_logits.data[0]
                boxes = out.layers[-1].boxes.data[0]
                assignment = match(logits, boxes, sample.targets, cfg.loss)
                mask_out = head(T.Tensor(final_embs.data[0]), T.Tensor(memory.data[0]),
                                side, side)
                pred = T.take(mask_out.logits, assignment.slot_of_target, axis=0)
                gt = np.stack([_downsample_mask(m, mask_stride)
                               for m in sample.masks])
                term = (T.tsum(dice_loss(pred, gt)) * cfg.loss.dice
                        + focal_loss(pred, gt) * (cfg.loss.focal * len(gt)))
                batch_loss = term if batch_loss is None else batch_loss + term
            if batch_loss is None:
                continue
            batch_loss = batch_loss * (1.0 / num_objects)
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


def _downsample_mask(mask: np.ndarray, factor: int) -> np.ndarray:
    h, w = mask.shape
    hh, ww = h // factor, w // factor
    blocks = mask[:hh * factor, :ww * factor].astype(np.float64) \
        .reshape(hh, factor, ww, factor).mean(axis=(1, 3))
    return (blocks > 0.5).astype(np.float64)


def load_mask_head(model_config: ModelConfig, path: str,
                   hidden: int = 8) -> MaskHead:
    head = MaskHead(model_config.d, model_config.num_heads,
                    np.random.default_rng(0), hidden=hidden)
    load_checkpoint(head, path)
    return head

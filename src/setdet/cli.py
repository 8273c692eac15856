"""Command-line interface: training, evaluation, the ablation commands,
the instance-saturation sweep, and the panoptic pipeline.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import tensor as T
from .boxes import iou_matrix
from .data import (
    VAL_NAMESPACE,
    build_dataset,
    grid_instances_scene,
    load_annotations,
    load_image_raw,
)
from .detector import Detector, load_checkpoint, save_checkpoint
from .evaluation import greedy_match, panoptic_quality
from .segmentation import downsample_map, panoptic_from_sample, panoptic_merge
from .training import (
    MaskTrainConfig,
    TrainConfig,
    evaluate_model,
    load_mask_head,
    train,
    train_mask_head,
)

SEED_ENV_VAR = "SDTR_SEED"


def _load_config(path: str | None) -> TrainConfig:
    cfg = TrainConfig.from_json(path) if path else TrainConfig.from_dict({})
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=int(env_seed))
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR}={env_seed!r}: {exc}") from None
        print(f"seed {cfg.seed} from {SEED_ENV_VAR}")
    return cfg


def _load_model(cfg: TrainConfig, ckpt: str) -> Detector:
    model = Detector(cfg.model, np.random.default_rng(cfg.seed))
    load_checkpoint(model, ckpt)
    return model


def _val_samples(cfg: TrainConfig, data_path: str | None):
    if data_path is None:
        return build_dataset(cfg.data, cfg.val_size, VAL_NAMESPACE, cfg.seed)
    refs = load_annotations(data_path, num_classes=cfg.model.num_classes)
    return [ref.materialize(cfg.data) for ref in refs]


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.spatial_enc:
        cfg.model.spatial_encoding = args.spatial_enc
    if args.query_enc:
        cfg.model.query_encoding = args.query_enc
    result = train(cfg, args.out, resume=args.resume, log=print)
    print(f"checkpoint: {result.checkpoint}")
    print(f"metrics: {result.metrics_csv}")
    print(f"last-epoch AP50={result.history[-1]['val_ap50']:.4f} "
          f"last-10-median AP50={result.last10_median('val_ap50'):.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.ckpt)
    samples = _val_samples(cfg, args.data)
    report = evaluate_model(model, samples, use_layer=args.layer,
                            override_empty=not args.no_override,
                            nms_thresh=args.nms)
    report.to_json(args.report)
    print(json.dumps(report.to_dict(), indent=1))
    return 0


def cmd_ablate_layers(args) -> int:
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.ckpt)
    samples = _val_samples(cfg, args.data)
    rows = []
    for layer in range(cfg.model.dec_layers):
        plain = evaluate_model(model, samples, use_layer=layer,
                               override_empty=False)
        with_nms = evaluate_model(model, samples, use_layer=layer,
                                  override_empty=False, nms_thresh=args.nms)
        rows.append({"layer": layer + 1, "AP": plain.ap, "AP50": plain.ap50,
                     "AP_nms": with_nms.ap, "AP50_nms": with_nms.ap50})
        print(f"layer {layer + 1}: AP={plain.ap:.4f} AP50={plain.ap50:.4f} "
              f"AP+nms={with_nms.ap:.4f} AP50+nms={with_nms.ap50:.4f}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["layer", "AP", "AP50",
                                                "AP_nms", "AP50_nms"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


def cmd_ablate_posenc(args) -> int:
    cfg = _load_config(args.config)
    cfg.model.spatial_encoding = args.mode
    if args.query_enc:
        cfg.model.query_encoding = args.query_enc
    if args.epochs:
        cfg.epochs = args.epochs
        cfg.lr_drop_epoch = max(1, int(args.epochs * 0.75))
    out = args.out or f"runs/posenc_{args.mode}"
    result = train(cfg, out, log=print)
    print(f"mode={args.mode} last-10-median AP={result.last10_median('val_ap'):.4f} "
          f"AP50={result.last10_median('val_ap50'):.4f}")
    return 0


def cmd_ablate_loss(args) -> int:
    cfg = _load_config(args.config)
    if args.drop == "l1":
        cfg.loss.l1 = 0.0
    elif args.drop == "giou":
        cfg.loss.giou = 0.0
    out = args.out or f"runs/loss_drop_{args.drop or 'none'}"
    result = train(cfg, out, log=print)
    print(f"drop={args.drop} last-10-median AP={result.last10_median('val_ap'):.4f} "
          f"AP50={result.last10_median('val_ap50'):.4f}")
    return 0


def missed_fraction(model: Detector, class_id: int, count: int, repeats: int,
                    seed: int, side: int, object_size: float | None,
                    override_empty: bool = True):
    """Fraction of grid instances the model fails to find, per repeat."""
    fractions = []
    for rep in range(repeats):
        rng = np.random.default_rng([seed, 5, count, rep])
        sample = grid_instances_scene(class_id, count, rng, side=side,
                                      object_size=object_size,
                                      num_classes=model.config.num_classes)
        if count == 0:
            fractions.append(0.0)
            continue
        dets = model.predict(sample.image, override_empty=override_empty)
        dets = sorted((d for d in dets if d.class_id == class_id),
                      key=lambda d: -d.confidence)
        boxes = np.array([d.box for d in dets]).reshape(-1, 4)
        found = int((greedy_match(iou_matrix(boxes, sample.targets.boxes), 0.5) >= 0).sum())
        fractions.append(1.0 - found / count)
    return np.array(fractions)


def cmd_instances_sweep(args) -> int:
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.ckpt)
    counts = [int(c) for c in args.counts.split(",")]
    rows = []
    for count in counts:
        fractions = missed_fraction(model, args.class_id, count, args.repeats,
                                    cfg.seed, args.side, args.object_size)
        rows.append({"count": count, "missed_mean": float(fractions.mean()),
                     "missed_std": float(fractions.std())})
        print(f"count {count:3d}: missed {fractions.mean():.3f} "
              f"+/- {fractions.std():.3f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["count", "missed_mean",
                                                    "missed_std"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


def cmd_train_mask(args) -> int:
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.ckpt)
    mask_cfg = MaskTrainConfig(epochs=args.epochs)
    head = train_mask_head(model, cfg, mask_cfg, log=print)
    save_checkpoint(head, args.out)
    print(f"mask head: {args.out}")
    return 0


def cmd_eval_panoptic(args) -> int:
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.ckpt)
    head = load_mask_head(cfg.model, args.mask_ckpt)
    samples = _val_samples(cfg, args.data)
    side = model.config.feature_side
    factor = model.config.stride // 2
    num_things = cfg.data.num_classes
    totals = []
    for sample in samples:
        with T.no_grad():
            out, memory, embs = model.forward_with_internals(sample.image[None])
            mask_out = head(T.Tensor(embs.data[0]), T.Tensor(memory.data[0]), side, side)
        probs_all = T.softmax(out.layers[-1].class_logits.data[0])[:, :-1]  # no no-object
        confidences = probs_all.max(axis=-1)
        classes = probs_all.argmax(axis=-1)
        pred = panoptic_merge(mask_out.logits.data, confidences, classes,
                              thing_classes=num_things,
                              conf_thresh=args.conf_thresh)
        gt = downsample_map(panoptic_from_sample(sample, num_things), factor)
        totals.append(panoptic_quality(pred, gt))
    result = {
        "PQ": float(np.nanmean([t.pq for t in totals])),
        "SQ": float(np.nanmean([t.sq for t in totals])),
        "RQ": float(np.nanmean([t.rq for t in totals])),
        "PQ_th": float(np.nanmean([t.pq_things for t in totals])),
        "PQ_st": float(np.nanmean([t.pq_stuff for t in totals])),
        "images": len(samples),
    }
    print(json.dumps(result, indent=1))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.ckpt)
    image = load_image_raw(args.image)
    dets = model.predict(image, use_layer=args.layer,
                         override_empty=not args.no_override)
    payload = [{"class": d.class_id, "confidence": d.confidence,
                "box": [float(v) for v in d.box]} for d in dets]
    text = json.dumps(payload, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setdet",
        description="Desk-scale set-prediction detector: train, evaluate, ablate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--config", help="TrainConfig JSON (defaults when omitted)")
    p.add_argument("--out", default="runs/train", help="output directory")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--spatial-enc", choices=["sine-attn", "sine-input",
                                             "learned-attn", "none"])
    p.add_argument("--query-enc", choices=["attn", "input"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", help="annotation JSON; omit to use the val split")
    p.add_argument("--report", default="report.json")
    p.add_argument("--config")
    p.add_argument("--layer", type=int, default=-1)
    p.add_argument("--no-override", action="store_true")
    p.add_argument("--nms", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate-layers",
                       help="per-decoder-layer AP with and without NMS")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--out", default="layers.csv")
    p.add_argument("--nms", type=float, default=0.5)
    p.set_defaults(func=cmd_ablate_layers)

    p = sub.add_parser("ablate-posenc", help="train a positional-encoding variant")
    p.add_argument("--mode", required=True,
                   choices=["none", "sine-input", "learned-attn", "sine-attn"])
    p.add_argument("--query-enc", choices=["attn", "input"])
    p.add_argument("--config")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate_posenc)

    p = sub.add_parser("ablate-loss", help="train with a box-loss term removed")
    p.add_argument("--drop", choices=["l1", "giou"])
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate_loss)

    p = sub.add_parser("instances-sweep",
                       help="missed-instance fractions on the 10x10 grid")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--class-id", type=int, default=0, dest="class_id")
    p.add_argument("--counts", default="5,10,20,50,100")
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--side", type=int, default=120)
    p.add_argument("--object-size", type=float)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_instances_sweep)

    p = sub.add_parser("train-mask", help="fit the mask head on a frozen detector")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config")
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--out", default="mask_head.sdtr")
    p.set_defaults(func=cmd_train_mask)

    p = sub.add_parser("eval-panoptic", help="panoptic quality of the full pipeline")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mask-ckpt", required=True)
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--report")
    p.add_argument("--conf-thresh", type=float, default=0.85)
    p.set_defaults(func=cmd_eval_panoptic)

    p = sub.add_parser("predict", help="detections for one image file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--config")
    p.add_argument("--layer", type=int, default=-1)
    p.add_argument("--no-override", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: training, evaluation, the per-decoder-layer
ablation, the instance-saturation sweep, and the panoptic pipeline.  Each
command parses, does file IO and prints; the work is in ``training``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .data import VAL_NAMESPACE, build_dataset, load_annotations, load_image_raw
from .detector import Detector, load_checkpoint, save_checkpoint
from .training import (
    MaskTrainConfig,
    TrainConfig,
    evaluate_layers,
    evaluate_model,
    evaluate_panoptic,
    load_mask_head,
    missed_fraction,
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


def _write_csv(path: str, rows: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    model = dataclasses.replace(
        cfg.model, spatial_encoding=args.spatial_enc or cfg.model.spatial_encoding,
        query_encoding=args.query_enc or cfg.model.query_encoding)
    result = train(dataclasses.replace(cfg, model=model), args.out,
                   resume=args.resume, log=print)
    print(f"checkpoint: {result.checkpoint}")
    print(f"metrics: {result.metrics_csv}")
    print(f"last-epoch AP50={result.history[-1]['val_ap50']:.4f} "
          f"last-10-median AP={result.last10_median('val_ap'):.4f} "
          f"AP50={result.last10_median('val_ap50'):.4f}")
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
    rows = evaluate_layers(model, _val_samples(cfg, args.data), nms_thresh=args.nms)
    for row in rows:
        print(f"layer {row['layer']}: AP={row['AP']:.4f} AP50={row['AP50']:.4f} "
              f"AP+nms={row['AP_nms']:.4f} AP50+nms={row['AP50_nms']:.4f}")
    _write_csv(args.out, rows)
    return 0


def cmd_instances_sweep(args) -> int:
    cfg = _load_config(args.config)
    model = _load_model(cfg, args.ckpt)
    rows = []
    for count in args.counts:
        fractions = missed_fraction(model, args.class_id, count, args.repeats,
                                    cfg.seed, args.side, args.object_size)
        rows.append({"count": count, "missed_mean": float(fractions.mean()),
                     "missed_std": float(fractions.std())})
        print(f"count {count:3d}: missed {fractions.mean():.3f} "
              f"+/- {fractions.std():.3f}")
    if args.out:
        _write_csv(args.out, rows)
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
    result = evaluate_panoptic(model, head, _val_samples(cfg, args.data),
                               num_things=cfg.data.num_classes,
                               conf_thresh=args.conf_thresh)
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


def comma_separated_ints(text: str) -> list[int]:
    return [int(c) for c in text.split(",")]


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

    p = sub.add_parser("instances-sweep",
                       help="missed-instance fractions on the 10x10 grid")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--class-id", type=int, default=0, dest="class_id")
    p.add_argument("--counts", type=comma_separated_ints, default="5,10,20,50,100")
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

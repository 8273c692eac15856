import json
import os

import numpy as np
import pytest

from setdet.boxes import iou_matrix
from setdet.cli import _load_model, main
from setdet.data import (
    SyntheticConfig,
    build_dataset,
    grid_instances_scene,
    save_annotations,
    save_image_raw,
)
from setdet.detector import Detection, Detector, ModelConfig, save_checkpoint
from setdet.segmentation import MaskHead
from setdet.training import TrainConfig, missed_fraction

TINY = {
    "epochs": 2, "lr_drop_epoch": 1, "batch_size": 4, "train_size": 8,
    "val_size": 4,
    "model": dict(d=8, num_heads=2, enc_layers=1, dec_layers=2, num_queries=4,
                  num_classes=2, ffn_width=16, backbone_channels=(4, 6, 8),
                  image_side=16, dropout=0.0),
    "data": dict(image_side=16, num_classes=2, min_objects=1, max_objects=2,
                 size_range=(4, 7)),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = TrainConfig(**{**TINY, "model": ModelConfig(**TINY["model"]),
                         "data": SyntheticConfig(**TINY["data"])})
    cfg_path = str(root / "cfg.json")
    cfg.to_json(cfg_path)
    out_dir = str(root / "run")
    assert main(["train", "--config", cfg_path, "--out", out_dir]) == 0
    ckpt = os.path.join(out_dir, "checkpoint_final.sdtr")
    assert os.path.exists(ckpt)
    return {"root": root, "cfg_path": cfg_path, "ckpt": ckpt, "cfg": cfg}


def test_train_writes_metrics(trained):
    metrics = os.path.join(str(trained["root"] / "run"), "metrics.csv")
    lines = open(metrics).read().strip().splitlines()
    assert lines[0] == "epoch,loss,class_loss,l1_loss,giou_loss,val_ap50,val_ap"
    assert len(lines) == 3


def test_eval_writes_report(trained, tmp_path):
    report = str(tmp_path / "report.json")
    code = main(["eval", "--ckpt", trained["ckpt"], "--config", trained["cfg_path"],
                 "--report", report])
    assert code == 0
    data = json.load(open(report))
    assert set(data) >= {"AP", "AP50", "AP75", "AP_S", "AP_M", "AP_L"}


def test_eval_with_annotation_file(trained, tmp_path):
    cfg = trained["cfg"]
    samples = build_dataset(cfg.data, 3, 1, cfg.seed)
    ann = str(tmp_path / "val.json")
    save_annotations(samples, ann)
    report = str(tmp_path / "report.json")
    code = main(["eval", "--ckpt", trained["ckpt"], "--config", trained["cfg_path"],
                 "--data", ann, "--report", report])
    assert code == 0 and os.path.exists(report)


def test_ablate_layers_csv(trained, tmp_path):
    out = str(tmp_path / "layers.csv")
    code = main(["ablate-layers", "--ckpt", trained["ckpt"],
                 "--config", trained["cfg_path"], "--out", out])
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "layer,AP,AP50,AP_nms,AP50_nms"
    assert len(lines) == 3     # two decoder layers


def test_predict_on_image_file(trained, tmp_path):
    cfg = trained["cfg"]
    sample = build_dataset(cfg.data, 1, 1, cfg.seed)[0]
    image_path = str(tmp_path / "img.simg")
    save_image_raw(image_path, sample.image)
    out = str(tmp_path / "dets.json")
    code = main(["predict", "--ckpt", trained["ckpt"], "--config",
                 trained["cfg_path"], "--image", image_path, "--out", out])
    assert code == 0
    dets = json.load(open(out))
    assert isinstance(dets, list)
    for det in dets:
        assert set(det) == {"class", "confidence", "box"}


def test_instances_sweep_runs(trained, tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = main(["instances-sweep", "--ckpt", trained["ckpt"], "--config",
                 trained["cfg_path"], "--counts", "2,5", "--repeats", "3",
                 "--side", "40", "--object-size", "3", "--out", out])
    assert code == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "count,missed_mean,missed_std"
    assert len(lines) == 3


def test_missed_fraction_bounds(trained):
    model = _load_model(trained["cfg"], trained["ckpt"])
    fractions = missed_fraction(model, 0, 4, repeats=2, seed=0, side=40,
                                object_size=3)
    assert ((fractions >= 0) & (fractions <= 1)).all()


def greedy_match_count_reference(dets, targets, thresh=0.5):
    """The instance sweep's own matching loop before it used greedy_match."""
    if not dets or len(targets) == 0:
        return 0
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    boxes = np.stack([dets[i].box for i in order])
    ious = iou_matrix(boxes, targets.boxes)
    taken = np.zeros(len(targets), dtype=bool)
    found = 0
    for row in ious:
        masked = np.where(taken, -1.0, row)
        best = int(np.argmax(masked))
        if masked[best] >= thresh:
            taken[best] = True
            found += 1
    return found


def missed_fraction_reference(model, class_id, count, repeats, seed, side, object_size):
    fractions = []
    for rep in range(repeats):
        rng = np.random.default_rng([seed, 5, count, rep])
        sample = grid_instances_scene(class_id, count, rng, side=side,
                                      object_size=object_size,
                                      num_classes=model.config.num_classes)
        if count == 0:
            fractions.append(0.0)
            continue
        dets = [d for d in model.predict(sample.image) if d.class_id == class_id]
        fractions.append(1.0 - greedy_match_count_reference(dets, sample.targets) / count)
    return fractions


def test_missed_fraction_matches_reference_loop(trained):
    model = _load_model(trained["cfg"], trained["ckpt"])
    for class_id, count in ((0, 0), (0, 1), (0, 4), (1, 9)):
        got = missed_fraction(model, class_id, count, repeats=3, seed=2, side=40,
                              object_size=3)
        want = missed_fraction_reference(model, class_id, count, 3, 2, 40, 3)
        assert got.tolist() == want


class _ScriptedModel:
    """Stands in for a Detector: predict returns fixed detections."""

    def __init__(self, detections):
        self.detections = detections
        self.config = ModelConfig(**TINY["model"])

    def predict(self, image, override_empty=True):
        return self.detections


def test_match_count_against_reference_loop():
    # detections scattered over the grid cells, so some hit and some tie
    rng = np.random.default_rng(8)
    for case in range(100):
        count = int(rng.integers(1, 10))
        sample = grid_instances_scene(0, count, np.random.default_rng([case, 5, count, 0]),
                                      side=40, object_size=3, num_classes=2)
        dets = []
        for box in sample.targets.boxes[rng.random(count) < 0.7]:
            for _ in range(int(rng.integers(1, 3))):
                dets.append(Detection(int(rng.integers(0, 2)), round(float(rng.random()), 1),
                                      box + rng.normal(0.0, 0.01, 4)))
        got = missed_fraction(_ScriptedModel(dets), 0, count, repeats=1, seed=case,
                              side=40, object_size=3)
        found = greedy_match_count_reference([d for d in dets if d.class_id == 0],
                                             sample.targets)
        assert got.tolist() == [1.0 - found / count]


def test_env_seed_override(trained, tmp_path, monkeypatch, capsys):
    cfg = TrainConfig(**{**TINY, "seed": 3, "model": ModelConfig(**TINY["model"]),
                         "data": SyntheticConfig(**TINY["data"])})
    path = str(tmp_path / "cfg.json")
    cfg.to_json(path)
    monkeypatch.setenv("SDTR_SEED", "42")
    assert TrainConfig.from_json(path).seed == 3      # the config reader ignores it
    code = main(["eval", "--ckpt", trained["ckpt"], "--config", path,
                 "--report", str(tmp_path / "report.json")])
    assert code == 0
    assert "seed 42 from SDTR_SEED" in capsys.readouterr().out.splitlines()
    monkeypatch.delenv("SDTR_SEED")
    assert main(["eval", "--ckpt", trained["ckpt"], "--config", path,
                 "--report", str(tmp_path / "report.json")]) == 0
    assert "SDTR_SEED" not in capsys.readouterr().out


@pytest.mark.parametrize("value", ["-1", "abc", "true"])
def test_bad_env_seed_names_the_variable(tmp_path, monkeypatch, value):
    monkeypatch.setenv("SDTR_SEED", value)
    with pytest.raises(ValueError, match=f"SDTR_SEED='{value}'"):
        main(["eval", "--ckpt", str(tmp_path / "never_read.sdtr"),
              "--report", str(tmp_path / "report.json")])


@pytest.mark.parametrize("seed", [-1, "abc", "3", True])
def test_bad_config_seed_rejected(tmp_path, monkeypatch, seed):
    monkeypatch.delenv("SDTR_SEED", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": seed}))
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        main(["eval", "--ckpt", str(tmp_path / "never_read.sdtr"), "--config",
              str(path), "--report", str(tmp_path / "report.json")])


def test_mask_pipeline_end_to_end(trained, tmp_path):
    mask_ckpt = str(tmp_path / "mask.sdtr")
    code = main(["train-mask", "--ckpt", trained["ckpt"], "--config",
                 trained["cfg_path"], "--epochs", "1", "--out", mask_ckpt])
    assert code == 0 and os.path.exists(mask_ckpt)
    report = str(tmp_path / "pq.json")
    code = main(["eval-panoptic", "--ckpt", trained["ckpt"], "--mask-ckpt",
                 mask_ckpt, "--config", trained["cfg_path"], "--report", report])
    assert code == 0
    data = json.load(open(report))
    assert set(data) >= {"PQ", "SQ", "RQ", "PQ_th", "PQ_st"}


def test_posenc_flag_controls_model(trained, tmp_path):
    out = str(tmp_path / "posenc_run")
    code = main(["train", "--config", trained["cfg_path"], "--out", out,
                 "--spatial-enc", "none", "--query-enc", "input"])
    assert code == 0
    ckpt = os.path.join(out, "checkpoint_final.sdtr")
    from setdet.detector import read_checkpoint_arrays
    names = set(read_checkpoint_arrays(ckpt))
    assert "object_queries" in names
    assert not any(n.startswith("spatial_enc") for n in names)


def test_ablate_loss_drops_term(trained, tmp_path):
    # the box-loss ablation is train with one loss weight set to 0
    cfg = json.load(open(trained["cfg_path"]))
    cfg["loss"]["l1"] = 0
    path = str(tmp_path / "no_l1.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = str(tmp_path / "loss_run")
    assert main(["train", "--config", path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "checkpoint_final.sdtr"))
    header, *rows = open(os.path.join(out, "metrics.csv")).read().strip().splitlines()
    column = header.split(",").index("l1_loss")
    assert len(rows) == 2
    assert all(float(row.split(",")[column]) == 0.0 for row in rows)


def test_ablate_loss_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["ablate-loss", "--drop", "l1"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'ablate-loss'" in capsys.readouterr().err


@pytest.mark.parametrize("command, layer", [("eval", "5"), ("predict", "-3"),
                                            ("predict", "2")])
def test_layer_index_checked(trained, tmp_path, command, layer):
    image = str(tmp_path / "img.simg")
    save_image_raw(image, build_dataset(trained["cfg"].data, 1, 1, 0)[0].image)
    extra = {"eval": ["--report", str(tmp_path / "r.json")], "predict": ["--image", image]}
    with pytest.raises(ValueError, match=f"use_layer {layer} is out of range for 2 "
                                         f"decoder layers"):
        main([command, "--ckpt", trained["ckpt"], "--config", trained["cfg_path"],
              "--layer", layer, *extra[command]])


@pytest.mark.parametrize("command, nms", [("eval", "-1"), ("eval", "nan"),
                                          ("ablate-layers", "2")])
def test_nms_threshold_checked(trained, tmp_path, command, nms):
    out = str(tmp_path / "out")
    extra = {"eval": ["--report", out], "ablate-layers": ["--out", out]}
    with pytest.raises(ValueError, match="iou_thresh must be a real in"):
        main([command, "--ckpt", trained["ckpt"], "--config", trained["cfg_path"],
              "--nms", nms, *extra[command]])
    assert not os.path.exists(out)


def test_instances_sweep_inputs_checked(trained, capsys):
    base = ["instances-sweep", "--ckpt", trained["ckpt"], "--config", trained["cfg_path"],
            "--side", "40", "--object-size", "3"]
    with pytest.raises(SystemExit) as exit_info:
        main(base + ["--counts", "2,abc"])
    assert exit_info.value.code == 2
    assert "argument --counts: invalid" in capsys.readouterr().err
    with pytest.raises(ValueError, match="repeats must be an int >= 1, got 0"):
        main(base + ["--counts", "2", "--repeats", "0"])
    for class_id in ("-1", "2", "7"):
        with pytest.raises(ValueError, match=rf"class_id must be in \[0, 2\), got {class_id}"):
            main(base + ["--counts", "2", "--repeats", "1", "--class-id", class_id])


def test_eval_panoptic_rejects_file_backed_annotations(trained, tmp_path, monkeypatch):
    cfg = trained["cfg"]
    mask_ckpt = str(tmp_path / "mask.sdtr")
    save_checkpoint(MaskHead(cfg.model.d, cfg.model.num_heads, np.random.default_rng(0)),
                    mask_ckpt)
    records = []
    for i, sample in enumerate(build_dataset(cfg.data, 2, 1, cfg.seed)):
        image_path = str(tmp_path / f"img{i}.simg")
        save_image_raw(image_path, sample.image)
        records.append({"id": i, "width": 16, "height": 16, "file": image_path,
                        "objects": [{"class": int(c), "box": [float(v) for v in b]}
                                    for c, b in zip(sample.targets.classes,
                                                    sample.targets.boxes)]})
    ann = str(tmp_path / "files.json")
    with open(ann, "w") as fh:
        json.dump({"images": records}, fh)

    def failing(*args, **kwargs):
        raise AssertionError("the detector ran before the samples were checked")

    monkeypatch.setattr(Detector, "forward_with_internals", failing)
    report = str(tmp_path / "pq.json")
    with pytest.raises(ValueError, match="^sample 0 has no panoptic ground truth"):
        main(["eval-panoptic", "--ckpt", trained["ckpt"], "--mask-ckpt", mask_ckpt,
              "--config", trained["cfg_path"], "--data", ann, "--report", report])
    assert not os.path.exists(report)

import builtins
import copy
import dataclasses
import json
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest

from setdet import tensor as T
from setdet.data import VAL_NAMESPACE, Sample, SyntheticConfig, build_dataset
from setdet import training
from setdet.detector import (
    CheckpointError,
    Detector,
    ModelConfig,
    load_checkpoint,
    postprocess,
    save_checkpoint,
)
from setdet.evaluation import evaluate_detections, nms, panoptic_quality
from setdet.layers import ConfigError
from setdet.matching import CapacityError, LossWeights, TargetSet, total_loss
from setdet.segmentation import MaskHead, downsample_map, panoptic_from_sample, panoptic_merge
from setdet.tensor import DimensionError, Parameter, Tensor
from setdet.training import (
    PREDICT_CHUNK,
    AdamW,
    TrainConfig,
    TrainingDivergedError,
    clip_grad_norm,
    evaluate_layers,
    evaluate_model,
    evaluate_panoptic,
    predict_batch,
    train,
)

from multiplies import count_matmul_multiplies

TINY_MODEL = dict(d=8, num_heads=2, enc_layers=1, dec_layers=2, num_queries=4,
                  num_classes=2, ffn_width=16, backbone_channels=(4, 6, 8),
                  image_side=16, dropout=0.0)
TINY_DATA = dict(image_side=16, num_classes=2, min_objects=1, max_objects=2,
                 size_range=(4, 7))


def tiny_train_config(**overrides):
    base = dict(epochs=2, lr_drop_epoch=1, batch_size=4, train_size=8,
                val_size=4, model=ModelConfig(**TINY_MODEL),
                data=SyntheticConfig(**TINY_DATA))
    base.update(overrides)
    return TrainConfig(**base)


def make_param(name, value):
    return Parameter(name, Tensor(np.asarray(value, dtype=np.float64)))


class TestAdamW:
    def test_zero_gradient_pure_decay(self):
        p = make_param("w", [2.0])
        opt = AdamW([([p], 0.01)], weight_decay=0.1)
        p.tensor.grad = np.zeros(1)
        opt.step()
        assert p.tensor.data[0] == pytest.approx(2.0 * (1 - 0.01 * 0.1), abs=1e-15)
        opt.step()
        assert p.tensor.data[0] == pytest.approx(2.0 * (1 - 0.01 * 0.1) ** 2, abs=1e-15)

    def test_first_step_closed_form(self):
        lr = 0.05
        p = make_param("w", [1.0])
        opt = AdamW([([p], lr)], weight_decay=0.0)
        p.tensor.grad = np.ones(1)
        opt.step()
        # bias-corrected m-hat = v-hat = 1 on the first step
        assert p.tensor.data[0] == pytest.approx(1.0 - lr / (1.0 + 1e-8), abs=1e-12)

    def test_group_learning_rates(self):
        fast = make_param("fast", [1.0])
        slow = make_param("slow", [1.0])
        opt = AdamW([([fast], 1e-2), ([slow], 1e-4)], weight_decay=0.0)
        fast.tensor.grad = np.ones(1)
        slow.tensor.grad = np.ones(1)
        opt.step()
        assert abs(1.0 - fast.tensor.data[0]) == pytest.approx(1e-2, rel=1e-6)
        assert abs(1.0 - slow.tensor.data[0]) == pytest.approx(1e-4, rel=1e-6)

    def test_lr_scale(self):
        p = make_param("w", [1.0])
        opt = AdamW([([p], 0.1)], weight_decay=0.0)
        p.tensor.grad = np.ones(1)
        opt.step(lr_scale=0.1)
        assert abs(1.0 - p.tensor.data[0]) == pytest.approx(0.01, rel=1e-6)

    def test_state_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        p = make_param("w", rng.normal(size=(3, 2)))
        opt = AdamW([([p], 1e-3)])
        for _ in range(3):
            p.tensor.grad = rng.normal(size=(3, 2))
            opt.step()
        path = str(tmp_path / "opt.bin")
        opt.save(path)
        other = AdamW([([make_param("w", np.zeros((3, 2)))], 1e-3)])
        other.load(path)
        assert other.step_count == 3
        np.testing.assert_array_equal(other.m["w"], opt.m["w"])
        np.testing.assert_array_equal(other.v["w"], opt.v["w"])


class TestClip:
    def test_below_threshold_untouched(self):
        p = make_param("w", np.zeros(4))
        p.tensor.grad = np.full(4, 0.02)
        norm = clip_grad_norm([p], 0.1)
        assert norm == pytest.approx(0.04)
        np.testing.assert_array_equal(p.tensor.grad, np.full(4, 0.02))

    def test_scaled_to_exact_norm(self):
        p = make_param("w", np.zeros(4))
        p.tensor.grad = np.full(4, 0.5)
        clip_grad_norm([p], 0.1)
        assert np.sqrt((p.tensor.grad ** 2).sum()) == pytest.approx(0.1, abs=1e-15)

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(1)
        params = [make_param(f"p{i}", np.zeros(5)) for i in range(4)]
        for p in params:
            p.tensor.grad = rng.normal(size=5)
        clip_grad_norm(params, 0.1)
        total = sum((p.tensor.grad ** 2).sum() for p in params)
        assert np.sqrt(total) <= 0.1 + 1e-12


class TestTrainConfig:
    def test_lr_schedule_drop(self):
        cfg = tiny_train_config(epochs=10, lr_drop_epoch=7)
        assert cfg.lr_at(6) == (cfg.lr_transformer, cfg.lr_backbone)
        assert cfg.lr_at(7) == (cfg.lr_transformer / 10, cfg.lr_backbone / 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_train_config(epochs=2, lr_drop_epoch=2)
        with pytest.raises(ValueError):
            tiny_train_config(batch_size=0)
        with pytest.raises(ValueError):
            tiny_train_config(data=SyntheticConfig(**{**TINY_DATA, "max_objects": 9}))

    @pytest.mark.parametrize("model, data, fault", [
        ({}, {"include_stuff_boxes": True}, "model.num_classes must be >= data.num_classes"),
        ({}, {"include_stuff_boxes": True, "stuff_classes": 2},
         "model.num_classes must be >= data.num_classes"),
        ({}, {"num_classes": 4}, "model.num_classes must be >= data.num_classes"),
        ({}, {"num_classes": 5}, "model.num_classes must be >= data.num_classes"),
        ({"num_queries": 5, "num_classes": 5},
         {"max_objects": 5, "stuff_classes": 2, "include_stuff_boxes": True},
         "model.num_queries must be >= data.max_objects"),
    ], ids=["stuff-boxes", "two-stuff-boxes", "four-classes", "five-classes", "slots"])
    def test_targets_must_fit_the_model(self, model, data, fault):
        with pytest.raises(ConfigError, match="^" + re.escape(fault)):
            TrainConfig.from_dict({"model": model, "data": data})

    def test_targets_fitting_exactly_accepted(self):
        cfg = TrainConfig.from_dict({
            "model": {"num_queries": 7, "num_classes": 5},
            "data": {"max_objects": 5, "stuff_classes": 2, "include_stuff_boxes": True}})
        assert (cfg.data.max_targets, cfg.data.num_target_classes) == (7, 5)

    def test_model_and_data_sides_must_agree(self):
        with pytest.raises(ConfigError, match=r"^model\.image_side must equal "
                                              r"data\.image_side = 64, got 32$"):
            TrainConfig.from_dict({"model": {"image_side": 32}})

    @pytest.mark.parametrize("seed", [-1, "abc", "3", True, 2.0])
    def test_seed_must_be_natural_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig.from_dict({"seed": seed})

    def test_data_seed_rejected(self):
        # the scenes follow the top-level seed; a data seed would be ignored
        with pytest.raises(TypeError, match="'seed'"):
            TrainConfig.from_dict({"data": {"seed": 5}})

    @pytest.mark.parametrize("name, value", [
        ("train_size", 0), ("train_size", -1), ("train_size", True),
        ("val_size", 0), ("val_size", -3), ("val_size", 4.0),
        ("batch_size", "4"), ("batch_size", 2.5), ("batch_size", 0),
        ("epochs", "3"), ("epochs", 3.0), ("epochs", True),
        ("lr_drop_epoch", "1"), ("lr_drop_epoch", True)])
    def test_integer_fields_checked(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            tiny_train_config(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} "):
            TrainConfig.from_dict({name: value})

    @pytest.mark.parametrize("name, value", [
        ("lr_transformer", 0.0), ("lr_transformer", "1e-4"), ("lr_backbone", -1e-5),
        ("lr_backbone", math.nan), ("clip_norm", -1.0), ("clip_norm", math.inf),
        ("lr_drop_factor", 0), ("lr_drop_factor", True), ("weight_decay", -1e-4),
        ("weight_decay", math.nan)])
    def test_float_fields_checked(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real"):
            tiny_train_config(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be a finite real"):
            TrainConfig.from_dict({name: value})

    @pytest.mark.parametrize("value", [1.0, -0.5, math.nan, "0.1", True])
    def test_model_dropout_checked(self, value):
        with pytest.raises(ConfigError, match="^dropout must be a real in"):
            ModelConfig(**{**TINY_MODEL, "dropout": value})
        with pytest.raises(ConfigError, match="^dropout must be a real in"):
            TrainConfig.from_dict({"model": {"dropout": value}})

    @pytest.mark.parametrize("name, value", [
        ("l1", "5"), ("giou", math.inf), ("eos", math.nan), ("dice", -1.0),
        ("focal", False)])
    def test_loss_weights_checked(self, name, value):
        with pytest.raises(ValueError, match=f"^loss weight {name} must be a finite real"):
            LossWeights(**{name: value})
        with pytest.raises(ValueError, match=f"^loss weight {name} must be a finite real"):
            TrainConfig.from_dict({"loss": {name: value}})

    @pytest.mark.parametrize("name, value", [
        ("temperature", 0), ("temperature", -1.0), ("temperature", math.nan),
        ("temperature", math.inf), ("temperature", "10000"), ("temperature", True),
        ("enc_layers", -1), ("dec_layers", 0), ("ffn_width", "256"), ("ffn_width", 0),
        ("d", 8.0), ("num_heads", True), ("num_queries", 0), ("num_classes", "2"),
        ("image_side", 16.0), ("backbone_channels[1]", 0), ("backbone_channels[0]", "4"),
        ("backbone_channels", 4), ("skip_first_self_attention", "false"),
        ("skip_first_self_attention", 0)])
    def test_model_fields_checked(self, name, value):
        kw = {name: value}
        if name.startswith("backbone_channels["):
            channels = list(TINY_MODEL["backbone_channels"])
            channels[int(name[-2])] = value
            kw = {"backbone_channels": channels}
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "):
            ModelConfig(**{**TINY_MODEL, **kw})
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "):
            TrainConfig.from_dict({"model": kw})

    def test_model_field_edges_accepted(self):
        # an empty encoder is the identity; an int temperature is a real
        cfg = ModelConfig(**{**TINY_MODEL, "enc_layers": 0, "dec_layers": 1,
                             "temperature": 100, "skip_first_self_attention": True})
        detections = Detector(cfg, np.random.default_rng(0)).predict(np.zeros((3, 16, 16)))
        assert len(detections) == cfg.num_queries

    @pytest.mark.parametrize("name, value", [
        ("color_jitter", -1), ("color_jitter", math.nan), ("color_jitter", math.inf),
        ("color_jitter", "0.1"), ("min_visible", math.nan), ("min_visible", 2.0),
        ("min_visible", -0.1), ("min_visible", True), ("size_range", [10]),
        ("size_range", [10, 12, 14]), ("size_range", [10.0, 12]), ("size_range", 10),
        ("size_range", [True, 12]), ("image_side", "64"), ("image_side", 64.0),
        ("num_classes", True), ("min_objects", 1.0), ("max_objects", "5"),
        ("stuff_classes", 1.5), ("include_stuff_boxes", "false"), ("include_stuff_boxes", 1)])
    def test_data_fields_checked(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            SyntheticConfig(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig.from_dict({"data": {name: value}})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_aux_loss_must_be_bool(self, value):
        with pytest.raises(ValueError, match="^aux_loss must be a bool"):
            TrainConfig.from_dict({"aux_loss": value})

    @pytest.mark.parametrize("make, field, value", [
        (ModelConfig, "d", 8.0), (ModelConfig, "temperature", math.nan),
        (ModelConfig, "skip_first_self_attention", 1),
        (SyntheticConfig, "max_objects", "5"), (SyntheticConfig, "min_visible", 2.0),
        (SyntheticConfig, "include_stuff_boxes", 1),
        (LossWeights, "eos", "0.1"), (LossWeights, "giou", -0.5),
        (TrainConfig, "batch_size", 0), (TrainConfig, "lr_backbone", math.inf),
        (TrainConfig, "aux_loss", 0),
        (training.MaskTrainConfig, "epochs", 2.0), (training.MaskTrainConfig, "lr", -1e-4),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_every_config_raises_config_error(self, make, field, value):
        with pytest.raises(ConfigError, match=f"^(loss weight )?{field} must be "):
            make(**{field: value})

    @pytest.mark.parametrize("make, fields, name", [
        (ModelConfig, {"d": 12, "num_heads": 8}, "d"),
        (ModelConfig, {"spatial_encoding": "sine"}, "spatial_encoding"),
        (ModelConfig, {"image_side": 60}, "image_side"),
        (SyntheticConfig, {"min_objects": 3, "max_objects": 2}, "max_objects"),
        (SyntheticConfig, {"stuff_classes": 3}, "stuff_classes"),
        (SyntheticConfig, {"num_classes": 7}, "num_classes"),
        (SyntheticConfig, {"size_range": (2, 10)}, "size_range[0]"),
        (SyntheticConfig, {"size_range": (10, 33)}, "image_side"),
        (TrainConfig, {"epochs": 5, "lr_drop_epoch": 5}, "lr_drop_epoch"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_range_and_cross_field_faults_are_config_errors(self, make, fields, name):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must "):
            make(**fields)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 0), ("epochs", -3), ("epochs", 2.0), ("batch_size", 0),
        ("batch_size", "16"), ("lr", 0.0), ("lr", "1e-4"),
        ("lr", math.nan), ("clip_norm", -0.1), ("weight_decay", -1e-4),
        ("weight_decay", math.inf)])
    def test_mask_train_config_checked(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            training.MaskTrainConfig(**{name: value})

    def test_json_roundtrip(self, tmp_path):
        # a field changed at every level, the tuples included
        cfg = tiny_train_config(
            weight_decay=0.0, aux_loss=False, loss=LossWeights(eos=0.25, focal=2),
            model=ModelConfig(**{**TINY_MODEL, "dropout": 0.2,
                                 "spatial_encoding": "learned-attn"}),
            data=SyntheticConfig(**{**TINY_DATA, "size_range": (5, 8)}))
        path = str(tmp_path / "cfg.json")
        cfg.to_json(path)
        assert TrainConfig.from_json(path) == cfg

    def test_json_keys_are_the_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        tiny_train_config().to_json(str(path))
        data = json.loads(path.read_text())

        def fields(cls):
            return {f.name for f in dataclasses.fields(cls)}
        assert set(data) == fields(TrainConfig)
        assert set(data["model"]) == fields(ModelConfig)
        assert set(data["loss"]) == fields(LossWeights)
        assert set(data["data"]) == fields(SyntheticConfig)

    def test_edited_model_dropout_takes_effect(self, tmp_path):
        path = tmp_path / "cfg.json"
        tiny_train_config(model=ModelConfig(**{**TINY_MODEL, "dropout": 0.1})) \
            .to_json(str(path))
        data = json.loads(path.read_text())
        data["model"]["dropout"] = 0.0
        path.write_text(json.dumps(data))
        assert TrainConfig.from_json(str(path)).model.dropout == 0.0

    def test_top_level_dropout_rejected(self):
        with pytest.raises(TypeError, match="'dropout'"):
            TrainConfig.from_dict({"dropout": 0.25})

    @pytest.mark.parametrize("config, name", [
        (TrainConfig(), "epochs"), (ModelConfig(), "dropout"),
        (SyntheticConfig(), "max_objects"), (LossWeights(), "l1"),
        (training.MaskTrainConfig(), "lr")])
    def test_configs_are_frozen(self, config, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, getattr(config, name))


class TestTrainLoop:
    def test_seeded_rerun_is_bitwise_identical(self, tmp_path):
        cfg = tiny_train_config()
        r1 = train(cfg, str(tmp_path / "a"))
        r2 = train(cfg, str(tmp_path / "b"))
        csv1 = open(r1.metrics_csv).read()
        csv2 = open(r2.metrics_csv).read()
        assert csv1 == csv2
        for pa, pb in zip(r1.model.parameters(), r2.model.parameters()):
            assert (pa.tensor.data == pb.tensor.data).all()

    def test_metrics_equal_the_recorded_run(self, tmp_path):
        # recorded while backward kept every interior gradient and closure:
        # freeing the tape as backward walks it changes no value
        cfg = tiny_train_config(model=ModelConfig(**{**TINY_MODEL, "dropout": 0.1}))
        result = train(cfg, str(tmp_path / "run"))
        assert open(result.metrics_csv).read() == (
            "epoch,loss,class_loss,l1_loss,giou_loss,val_ap50,val_ap\n"
            "1,15.21430972489841,2.9226367983888375,8.661522320305334,"
            "3.6301506062042375,0.0,0.0\n"
            "2,15.69696481171071,2.8961160642963555,9.134770720140677,"
            "3.666078027273679,0.0,0.0\n")

    def test_loss_decreases(self, tmp_path):
        cfg = tiny_train_config(epochs=8, lr_drop_epoch=7, train_size=16)
        result = train(cfg, str(tmp_path / "run"))
        assert result.history[-1]["loss"] < result.history[0]["loss"]

    def test_resume_equivalence(self, tmp_path):
        full_cfg = tiny_train_config(epochs=4, lr_drop_epoch=2)
        full = train(full_cfg, str(tmp_path / "full"))

        half = train(full_cfg, str(tmp_path / "half"))  # writes ckpt at drop epoch 2
        drop_ckpt = os.path.join(str(tmp_path / "half"), "checkpoint_epoch2.sdtr")
        assert os.path.exists(drop_ckpt)
        resumed = train(full_cfg, str(tmp_path / "resumed"), resume=drop_ckpt)
        for pa, pb in zip(full.model.parameters(), resumed.model.parameters()):
            assert np.abs(pa.tensor.data - pb.tensor.data).max() <= 1e-12

    def test_resume_into_same_dir_keeps_metrics_and_history(self, tmp_path):
        cfg = tiny_train_config(epochs=4, lr_drop_epoch=2)
        full = train(cfg, str(tmp_path / "full"))
        run = str(tmp_path / "run")
        train(cfg, run)
        resumed = train(cfg, run, resume=os.path.join(run, "checkpoint_epoch2.sdtr"))
        assert open(resumed.metrics_csv).read() == open(full.metrics_csv).read()
        assert resumed.history == full.history
        assert [row["epoch"] for row in resumed.history] == [1, 2, 3, 4]

    @pytest.mark.parametrize("content", [
        "{}", "not json", '{"completed_epochs": "2"}', '{"completed_epochs": 2.5}',
        '{"completed_epochs": true}', '{"completed_epochs": 0}',
        '{"completed_epochs": 3}', "[2]"],
        ids=["empty", "not-json", "string", "float", "bool", "zero", "past-last-epoch",
             "list"])
    def test_resume_rejects_bad_progress_file_before_loading(self, tmp_path, content):
        cfg = tiny_train_config()
        ckpt = str(tmp_path / "ckpt.sdtr")
        # checkpoint and optimizer files that would fail to load: the
        # progress file must be checked first
        for path in (ckpt, ckpt + ".opt"):
            with open(path, "wb") as fh:
                fh.write(b"junk")
        with open(ckpt + ".state.json", "w") as fh:
            fh.write(content)
        with pytest.raises(CheckpointError, match="ckpt.sdtr.state.json"):
            train(cfg, str(tmp_path / "resumed"), resume=ckpt)

    def test_checkpoint_roundtrip_reproduces_eval(self, tmp_path):
        cfg = tiny_train_config()
        result = train(cfg, str(tmp_path / "run"))
        val = build_dataset(cfg.data, cfg.val_size, VAL_NAMESPACE, cfg.seed)
        before = evaluate_model(result.model, val)
        clone = Detector(cfg.model, np.random.default_rng(999))
        load_checkpoint(clone, result.checkpoint)
        after = evaluate_model(clone, val)
        assert _reports_identical(before.to_dict(), after.to_dict())

    def test_aux_loss_flag_changes_value_only(self, tmp_path):
        cfg_on = tiny_train_config()
        cfg_off = tiny_train_config(aux_loss=False)
        r_on = train(cfg_on, str(tmp_path / "on"))
        r_off = train(cfg_off, str(tmp_path / "off"))
        assert r_on.history[0]["loss"] != r_off.history[0]["loss"]

    def test_metrics_csv_schema(self, tmp_path):
        cfg = tiny_train_config()
        result = train(cfg, str(tmp_path / "run"))
        header = open(result.metrics_csv).readline().strip()
        assert header == "epoch,loss,class_loss,l1_loss,giou_loss,val_ap50,val_ap"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostics(self, tmp_path):
        cfg = tiny_train_config(lr_transformer=1e30, lr_backbone=1e30,
                                clip_norm=1e30, epochs=3, lr_drop_epoch=2)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(cfg, str(tmp_path / "diverge"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_closes_metrics_csv(self, tmp_path, monkeypatch):
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(builtins.open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(training, "open", tracking_open, raising=False)
        cfg = tiny_train_config(lr_transformer=1e30, lr_backbone=1e30,
                                clip_norm=1e30, epochs=3, lr_drop_epoch=2)
        with pytest.raises(TrainingDivergedError):
            train(cfg, str(tmp_path / "diverge"))
        csv_handles = [fh for fh in opened if fh.name.endswith("metrics.csv")]
        assert csv_handles and all(fh.closed for fh in csv_handles)

    def test_loss_errors_are_not_divergence(self, tmp_path, monkeypatch):
        # a finite model output is not divergence, whatever total_loss raises
        def full(*args, **kwargs):
            raise CapacityError("7 targets exceed 5 slots")

        monkeypatch.setattr(training, "total_loss", full)
        with pytest.raises(CapacityError, match="^7 targets exceed 5 slots$"):
            train(tiny_train_config(), str(tmp_path / "run"))

    @pytest.mark.parametrize("kept", ["transformer", "backbone"])
    def test_resume_rejects_optimizer_state_missing_a_group(self, tmp_path, kept):
        cfg = tiny_train_config()
        model = Detector(cfg.model, np.random.default_rng(cfg.seed))
        ckpt = str(tmp_path / "ckpt.sdtr")
        save_checkpoint(model, ckpt)
        AdamW([(model.param_groups()[kept], 1e-4)]).save(ckpt + ".opt")
        with open(ckpt + ".state.json", "w") as fh:
            json.dump({"completed_epochs": 1}, fh)
        with pytest.raises(CheckpointError, match="missing"):
            train(cfg, str(tmp_path / "resumed"), resume=ckpt)


def serial_predict(model, samples, nms_thresh=None):
    """The reference: predict_batch's chunks, forwarded one after another."""
    detections = []
    for lo in range(0, len(samples), PREDICT_CHUNK):
        images = np.stack([s.image for s in samples[lo:lo + PREDICT_CHUNK]])
        with T.no_grad():
            out = model.forward(images)
        dets = postprocess(out)
        if nms_thresh is not None:
            dets = [nms(d, nms_thresh) for d in dets]
        detections.extend(dets)
    return detections


def assert_same_detections(got, want, atol=0.0):
    assert len(got) == len(want)
    for g_image, w_image in zip(got, want):
        assert len(g_image) == len(w_image)
        for g, w in zip(g_image, w_image):
            assert g.class_id == w.class_id
            if atol == 0.0:
                assert g.confidence == w.confidence
                np.testing.assert_array_equal(g.box, w.box)
            else:
                assert abs(g.confidence - w.confidence) <= atol
                np.testing.assert_allclose(g.box, w.box, rtol=0, atol=atol)


class TestPredictBatch:
    @pytest.fixture(params=[1, 2, 3])
    def cpus(self, request, monkeypatch):
        # how many CPUs predict_batch sees, whatever this host has
        monkeypatch.setattr(T, "_usable_cpus", lambda: request.param)
        return request.param

    @pytest.fixture(scope="class")
    def model(self):
        return Detector(ModelConfig(**TINY_MODEL), np.random.default_rng(5))

    @pytest.fixture(scope="class")
    def samples(self):
        # 45 images: chunks of 20, 20 and 5
        return build_dataset(SyntheticConfig(**TINY_DATA), 45, VAL_NAMESPACE, 3)

    def test_equals_serial_chunks_bitwise(self, model, samples, cpus):
        assert_same_detections(predict_batch(model, samples),
                               serial_predict(model, samples))

    def test_equals_one_forward(self, model, samples, cpus):
        with T.no_grad():
            whole = postprocess(model.forward(np.stack([s.image for s in samples])))
        assert_same_detections(predict_batch(model, samples), whole)

    def test_order_and_pool_shutdown(self, model, samples, cpus):
        alive = threading.active_count()
        got = predict_batch(model, samples)
        assert threading.active_count() == alive
        assert len(got) == 45
        for image, sample in zip(got, samples):
            assert_same_detections([image], [model.predict(sample.image)])

    def test_empty(self, model, cpus):
        assert predict_batch(model, []) == []

    def test_nms_matches_serial(self, model, samples, cpus):
        assert_same_detections([nms(dets, 0.3) for dets in predict_batch(model, samples)],
                               serial_predict(model, samples, nms_thresh=0.3))

    def test_reruns_bitwise_equal(self, model, samples, cpus):
        assert_same_detections(predict_batch(model, samples),
                               predict_batch(model, samples))

    def test_non_finite_image_rejected(self, model, samples, cpus):
        bad = copy.deepcopy(samples[23])
        bad.palette[:, bad.labels[0, 0]] = np.nan       # written after validation
        with pytest.raises(ValueError, match=r"input image 23 of 45 has \d+ non-finite"):
            predict_batch(model, [*samples[:23], bad, *samples[24:]])

    def test_one_chunk_runs_inline(self, model, samples, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        threads = []
        forward = model.forward

        def recording(images, *args, **kwargs):
            threads.append(threading.current_thread())
            return forward(images, *args, **kwargs)

        monkeypatch.setattr(model, "forward", recording)
        predict_batch(model, samples[:PREDICT_CHUNK])
        assert threads == [threading.main_thread()]
        threads.clear()
        predict_batch(model, samples)
        assert len(threads) == 3 and threading.main_thread() not in threads

    def test_worker_error_reaches_caller(self, model, samples, cpus, monkeypatch):
        forward = model.forward

        def failing(images, *args, **kwargs):
            if len(images) == 5:
                raise RuntimeError("forward failed on the last chunk")
            return forward(images, *args, **kwargs)

        monkeypatch.setattr(model, "forward", failing)
        with pytest.raises(RuntimeError, match="last chunk"):
            predict_batch(model, samples)

    @pytest.mark.parametrize("odd", [1, 20, 44])
    def test_mixed_image_sizes_rejected_before_any_forward(
            self, model, samples, monkeypatch, odd):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 3)
        calls = []
        monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(a))
        mixed = list(samples)
        for i in (odd, 44):
            mixed[i] = Sample.from_image(np.zeros((3, 32, 32)), mixed[i].targets)
        with pytest.raises(DimensionError,
                           match=rf"sample {odd} has image shape \(3, 32, 32\)"):
            predict_batch(model, mixed)
        assert calls == []

    def test_multiply_count_equals_its_chunks(self, model, samples, cpus):
        with count_matmul_multiplies() as counter:
            predict_batch(model, samples)
        total = counter.count
        parts = 0
        for lo in range(0, len(samples), PREDICT_CHUNK):
            images = np.stack([s.image for s in samples[lo:lo + PREDICT_CHUNK]])
            with count_matmul_multiplies() as counter, T.no_grad():
                model.forward(images)
            parts += counter.count
        assert total == parts > 0

    def test_caller_still_records_gradients_after_evaluation(self, samples, cpus):
        def step_gradients(evaluate_first):
            model = Detector(ModelConfig(**TINY_MODEL), np.random.default_rng(6))
            if evaluate_first:
                evaluate_model(model, samples)
            batch = samples[:4]
            out = model.forward(np.stack([s.image for s in batch]), train=True,
                                rng=np.random.default_rng(0))
            loss, _ = total_loss(out, [s.targets for s in batch],
                                 LossWeights())
            loss.backward()
            return [p.tensor.grad for p in model.parameters()]

        after, fresh = step_gradients(True), step_gradients(False)
        assert all(g is not None for g in after)
        for got, want in zip(after, fresh):
            np.testing.assert_array_equal(got, want)
        assert sum(np.any(g != 0) for g in after) > len(after) // 2


def evaluate_layers_reference(model, samples, nms_thresh):
    """ablate-layers before one forward served every layer: a predict_batch
    pass per decoder layer, with and without NMS."""
    targets = [s.targets for s in samples]
    rows = []
    for layer in range(model.config.dec_layers):
        plain = evaluate_detections(
            predict_batch(model, samples, use_layer=layer, override_empty=False),
            targets, model.config.num_classes)
        with_nms = evaluate_detections(
            [nms(dets, nms_thresh) for dets in
             predict_batch(model, samples, use_layer=layer, override_empty=False)],
            targets, model.config.num_classes)
        rows.append({"layer": layer + 1, "AP": plain.ap, "AP50": plain.ap50,
                     "AP_nms": with_nms.ap, "AP50_nms": with_nms.ap50})
    return rows


class TestEvaluateLayers:
    @pytest.fixture(scope="class")
    def model(self):
        return Detector(ModelConfig(**{**TINY_MODEL, "dec_layers": 3}),
                        np.random.default_rng(4))

    @pytest.fixture(scope="class")
    def samples(self, model):
        """45 images whose targets are layer 1's own detections, so that no
        layer scores AP 0."""
        images = build_dataset(SyntheticConfig(**TINY_DATA), 45, VAL_NAMESPACE, 3)
        own = predict_batch(model, images, use_layer=1)
        return [Sample(labels=s.labels, palette=s.palette, targets=TargetSet.create(
                    [d.class_id for d in dets], [d.box for d in dets]))
                for s, dets in zip(images, own)]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("nms_thresh", [0.1, 0.5])
    def test_one_forward_per_chunk_equals_a_pass_per_layer(
            self, model, samples, monkeypatch, cpus, nms_thresh):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        want = evaluate_layers_reference(model, samples, nms_thresh)
        calls = []
        forward = model.forward

        def counting(images, *args, **kwargs):
            calls.append(len(images))
            return forward(images, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counting)
        got = evaluate_layers(model, samples, nms_thresh=nms_thresh)
        assert sorted(calls) == [5, 20, 20]
        assert _reports_identical(got, want)
        assert [row["layer"] for row in got] == [1, 2, 3]
        assert all(row[key] > 0 for row in got for key in ("AP", "AP50", "AP_nms", "AP50_nms"))


def eval_panoptic_reference(model, head, samples, num_things, conf_thresh):
    """The eval-panoptic command's loop as it stood in the CLI."""
    side = model.config.feature_side
    factor = model.config.stride // 2
    totals = []
    for sample in samples:
        with T.no_grad():
            out, memory, embs = model.forward_with_internals(sample.image[None])
            mask_out = head(embs, memory, side, side)      # the head takes a batch of one
        probs_all = T.softmax(out.class_logits.data[-1, 0])[:, :-1]
        confidences = probs_all.max(axis=-1)
        classes = probs_all.argmax(axis=-1)
        pred = panoptic_merge(mask_out.logits.data[0], confidences, classes,
                              thing_classes=num_things, conf_thresh=conf_thresh)
        gt = downsample_map(panoptic_from_sample(sample, num_things), factor)
        totals.append(panoptic_quality(pred, gt))
    return {
        "PQ": float(np.nanmean([t.pq for t in totals])),
        "SQ": float(np.nanmean([t.sq for t in totals])),
        "RQ": float(np.nanmean([t.rq for t in totals])),
        "PQ_th": float(np.nanmean([t.pq_things for t in totals])),
        "PQ_st": float(np.nanmean([t.pq_stuff for t in totals])),
        "images": len(samples),
    }


@pytest.mark.parametrize("conf_thresh", [0.0, 0.3])
def test_evaluate_panoptic_equals_cli_loop(conf_thresh):
    # stuff bands are classes too, so stuff is predicted and scored
    model = Detector(ModelConfig(**{**TINY_MODEL, "num_classes": 3}),
                     np.random.default_rng(3))
    head = MaskHead(TINY_MODEL["d"], TINY_MODEL["num_heads"], np.random.default_rng(4))
    samples = build_dataset(SyntheticConfig(**TINY_DATA, include_stuff_boxes=True), 12,
                            VAL_NAMESPACE, 3)
    got = evaluate_panoptic(model, head, samples, 2, conf_thresh=conf_thresh)
    assert _reports_identical(got, eval_panoptic_reference(model, head, samples, 2,
                                                           conf_thresh))
    assert got["PQ"] > 0 and got["images"] == 12


def _reports_identical(a, b) -> bool:
    if isinstance(a, dict):
        return set(a) == set(b) and all(_reports_identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_reports_identical, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (np.isnan(a) and np.isnan(b)) or a == b
    return a == b


class TestPanopticBatchRank:
    """The panoptic path forwards the frozen detector once per chunk."""

    @pytest.fixture(scope="class")
    def model(self):
        return Detector(ModelConfig(**{**TINY_MODEL, "num_classes": 3}),
                        np.random.default_rng(3))

    @pytest.fixture(scope="class")
    def head(self):
        return MaskHead(TINY_MODEL["d"], TINY_MODEL["num_heads"], np.random.default_rng(4))

    @pytest.fixture(scope="class")
    def samples(self):
        # 45 images: chunks of 20, 20 and 5
        return build_dataset(SyntheticConfig(**TINY_DATA, include_stuff_boxes=True), 45,
                             VAL_NAMESPACE, 3)

    @staticmethod
    def count_forwards(model, monkeypatch):
        calls = []
        forward = model.forward_with_internals

        def counting(images, *args, **kwargs):
            calls.append(len(images))
            return forward(images, *args, **kwargs)

        monkeypatch.setattr(model, "forward_with_internals", counting)
        return calls

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_evaluate_panoptic_one_forward_per_chunk(self, model, head, samples,
                                                     monkeypatch, cpus):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        want = eval_panoptic_reference(model, head, samples, 2, 0.0)
        calls = self.count_forwards(model, monkeypatch)
        got = evaluate_panoptic(model, head, samples, 2, conf_thresh=0.0)
        assert sorted(calls) == [5, 20, 20]
        assert _reports_identical(got, want)
        assert got["PQ"] > 0 and got["images"] == 45

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_train_mask_head_runs_the_detector_once(self, monkeypatch, epochs):
        cfg = tiny_train_config(train_size=45)
        model = Detector(cfg.model, np.random.default_rng(0))
        calls = self.count_forwards(model, monkeypatch)
        matches = []
        match = training.match

        def counting_match(*args, **kwargs):
            matches.append(match(*args, **kwargs))
            return matches[-1]

        monkeypatch.setattr(training, "match", counting_match)
        training.train_mask_head(model, cfg, training.MaskTrainConfig(epochs=epochs,
                                                                      batch_size=8))
        assert sorted(calls) == [5, 20, 20]
        assert sorted(map(len, matches)) == [5, 20, 20]

    def test_field_nan_in_every_image_is_nan(self, model, head, samples):
        # every pixel belongs to one thing, so no image has a stuff segment
        side = TINY_DATA["image_side"]
        things = [Sample(labels=np.zeros((side, side), dtype=np.uint8), palette=s.palette,
                         targets=TargetSet.create([0], [[0.5, 0.5, 1.0, 1.0]]),
                         mask_labels=[0], stuff_map=s.stuff_map)
                  for s in samples[:3]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_panoptic(model, head, things, 2, conf_thresh=1.0)
        assert math.isnan(got["PQ_st"])
        assert got["PQ"] == got["PQ_th"] == got["SQ"] == got["RQ"] == 0.0
        assert got["images"] == 3

    @staticmethod
    def forbid_forward(model, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("the detector ran before the inputs were checked")

        monkeypatch.setattr(model, "forward", failing)
        monkeypatch.setattr(model, "forward_with_internals", failing)

    @pytest.mark.parametrize("call, message", [
        (lambda m, h, s: evaluate_model(m, s, nms_thresh=2), r"iou_thresh .* got 2$"),
        (lambda m, h, s: evaluate_model(m, s, nms_thresh=float("nan")), "iou_thresh .* got nan$"),
        (lambda m, h, s: evaluate_layers(m, s, nms_thresh=-1), "iou_thresh .* got -1$"),
        (lambda m, h, s: evaluate_panoptic(m, h, s, 2, conf_thresh=1.5),
         r"conf_thresh .* got 1\.5$"),
        (lambda m, h, s: evaluate_panoptic(m, h, s, 2, conf_thresh="0.5"),
         "conf_thresh .* got '0.5'$"),
    ], ids=["eval-2", "eval-nan", "layers--1", "panoptic-1.5", "panoptic-str"])
    def test_thresholds_checked_before_any_forward(self, model, head, samples, monkeypatch,
                                                   call, message):
        self.forbid_forward(model, monkeypatch)
        with pytest.raises(ValueError, match=r"^\w+ must be a real in \[0, 1\], got"):
            call(model, head, samples)
        with pytest.raises(ValueError, match=message):
            call(model, head, samples)

    def test_samples_without_panoptic_truth_rejected_before_any_forward(
            self, model, head, samples, monkeypatch):
        self.forbid_forward(model, monkeypatch)
        boxes_only = list(samples[:4])
        boxes_only[2] = Sample(samples[2].labels, samples[2].palette, samples[2].targets)
        boxes_only[3] = Sample(samples[3].labels, samples[3].palette, samples[3].targets)
        with pytest.raises(ValueError, match="^sample 2 has no panoptic ground truth"):
            evaluate_panoptic(model, head, boxes_only, 2)

import builtins
import json
import os

import numpy as np
import pytest

from setdet.data import SyntheticConfig
from setdet import training
from setdet.detector import (
    CheckpointError,
    Detector,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from setdet.matching import LossWeights
from setdet.tensor import Parameter, Tensor
from setdet.training import (
    AdamW,
    TrainConfig,
    TrainingDivergedError,
    clip_grad_norm,
    evaluate_model,
    train,
)

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

    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_train_config()
        path = str(tmp_path / "cfg.json")
        cfg.to_json(path)
        loaded = TrainConfig.from_json(path)
        assert loaded.to_dict() == cfg.to_dict()

    def test_top_level_dropout_override(self):
        cfg = TrainConfig.from_dict({"dropout": 0.25,
                                     "model": ModelConfig(**TINY_MODEL).to_dict(),
                                     "data": SyntheticConfig(**TINY_DATA).to_dict(),
                                     "epochs": 2, "lr_drop_epoch": 1,
                                     "train_size": 8, "val_size": 4})
        assert cfg.model.dropout == 0.25


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
        from setdet.data import build_dataset, VAL_NAMESPACE
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

    def test_divergence_aborts_with_diagnostics(self, tmp_path):
        cfg = tiny_train_config(lr_transformer=1e30, lr_backbone=1e30,
                                clip_norm=1e30, epochs=3, lr_drop_epoch=2)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(cfg, str(tmp_path / "diverge"))

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


def _reports_identical(a, b) -> bool:
    if isinstance(a, dict):
        return set(a) == set(b) and all(_reports_identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_reports_identical, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (np.isnan(a) and np.isnan(b)) or a == b
    return a == b

import builtins
import json
import os
import threading

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
from setdet.evaluation import nms
from setdet.matching import LossWeights, total_loss
from setdet.tensor import DimensionError, Parameter, Tensor
from setdet.training import (
    PREDICT_CHUNK,
    AdamW,
    TrainConfig,
    TrainingDivergedError,
    clip_grad_norm,
    evaluate_model,
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
        monkeypatch.setattr(training, "_usable_cpus", lambda: request.param)
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
        assert_same_detections(predict_batch(model, samples), whole, atol=1e-12)

    def test_order_and_pool_shutdown(self, model, samples, cpus):
        alive = threading.active_count()
        got = predict_batch(model, samples)
        assert threading.active_count() == alive
        assert len(got) == 45
        for image, sample in zip(got, samples):
            assert_same_detections([image], [model.predict(sample.image)], atol=1e-12)

    def test_empty(self, model, cpus):
        assert predict_batch(model, []) == []

    def test_nms_matches_serial(self, model, samples, cpus):
        assert_same_detections(predict_batch(model, samples, nms_thresh=0.3),
                               serial_predict(model, samples, nms_thresh=0.3))

    def test_reruns_bitwise_equal(self, model, samples, cpus):
        assert_same_detections(predict_batch(model, samples),
                               predict_batch(model, samples))

    def test_one_chunk_runs_inline(self, model, samples, monkeypatch):
        monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
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
        monkeypatch.setattr(training, "_usable_cpus", lambda: 3)
        calls = []
        monkeypatch.setattr(model, "forward", lambda *a, **k: calls.append(a))
        mixed = list(samples)
        for i in (odd, 44):
            mixed[i] = Sample(image=np.zeros((3, 32, 32)), targets=mixed[i].targets)
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
            loss, _ = total_loss(out.layers, [s.targets for s in batch],
                                 LossWeights())
            loss.backward()
            return [p.tensor.grad for p in model.parameters()]

        after, fresh = step_gradients(True), step_gradients(False)
        assert all(g is not None for g in after)
        for got, want in zip(after, fresh):
            np.testing.assert_array_equal(got, want)
        assert sum(np.any(g != 0) for g in after) > len(after) // 2


def _reports_identical(a, b) -> bool:
    if isinstance(a, dict):
        return set(a) == set(b) and all(_reports_identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_reports_identical, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (np.isnan(a) and np.isnan(b)) or a == b
    return a == b

import numpy as np
import pytest

from setdet import tensor as T
from setdet.detector import (
    CheckpointError,
    Detection,
    Detector,
    ModelConfig,
    load_checkpoint,
    postprocess,
    read_checkpoint_arrays,
    save_checkpoint,
)
from setdet.layers import ConfigError, MultiHeadAttention
from setdet.matching import LossWeights, TargetSet, dice_loss, total_loss
from setdet.tensor import DimensionError, Tensor, grad_check

TINY = dict(d=8, num_heads=2, enc_layers=1, dec_layers=2, num_queries=3,
            num_classes=2, ffn_width=16, backbone_channels=(4, 6, 8),
            image_side=16)


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return Detector(cfg, np.random.default_rng(seed))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=10, num_heads=4)

    def test_sine_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=6, num_heads=2)

    def test_image_side_vs_stride(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_side=60)

    def test_roundtrip_dict(self):
        cfg = ModelConfig(**TINY)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestBackbone:
    def test_stride_arithmetic(self):
        model = tiny_model()
        out = model.backbone_forward(np.random.default_rng(0).random((1, 3, 16, 16)))
        assert out.shape == (1, 8, 2, 2)

    def test_finite_on_unit_range(self):
        model = tiny_model()
        out = model.backbone_forward(np.random.default_rng(1).random((1, 3, 16, 16)))
        assert np.isfinite(out.data).all()

    def test_parameter_count_closed_form(self):
        model = tiny_model()
        plan = [(3, 4), (4, 6), (6, 8)]
        want = sum(co * ci * 9 + co for ci, co in plan)
        assert sum(p.tensor.size for p in model.backbone.parameters()) == want

    def test_indivisible_side_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            model.backbone_forward(np.zeros((1, 3, 15, 15)))

    @pytest.mark.parametrize("shape, side", [((1, 3, 17, 16), "height 17"),
                                             ((1, 3, 16, 17), "width 17"),
                                             ((2, 3, 17, 16), "height 17")])
    def test_each_side_checked_against_stride(self, shape, side):
        model = tiny_model()
        with pytest.raises(ConfigError, match=f"image {side} not divisible by stride 8"):
            model.forward(np.zeros(shape))


class TestForward:
    def test_boxes_sigmoid_bounded(self):
        model = tiny_model()
        out = model.forward(np.random.default_rng(2).random((1, 3, 16, 16)))
        for layer in out:
            assert (layer.boxes.data >= 0).all() and (layer.boxes.data <= 1).all()

    def test_layer_and_slot_counts(self):
        model = tiny_model()
        out = model.forward(np.random.default_rng(3).random((1, 3, 16, 16)))
        assert len(out) == 2
        assert out.layer(0).class_logits.shape == (1, 3, 3)   # B x N x (K+1)
        assert out.layer(0).boxes.shape == (1, 3, 4)

    def test_eval_mode_deterministic(self):
        model = tiny_model()
        image = np.random.default_rng(4).random((1, 3, 16, 16))
        with T.no_grad():
            a = model.forward(image)
            b = model.forward(image)
        assert (a.layer(-1).class_logits.data == b.layer(-1).class_logits.data).all()
        assert (a.layer(-1).boxes.data == b.layer(-1).boxes.data).all()

    def test_class_probabilities_sum_to_one(self):
        model = tiny_model()
        out = model.forward(np.random.default_rng(5).random((1, 3, 16, 16)))
        logits = out.layer(-1).class_logits.data
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_batch_matches_single(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        images = rng.random((2, 3, 16, 16))
        with T.no_grad():
            batched = model.forward(images)
            singles = [model.forward(images[b:b + 1]) for b in range(2)]
        for b, single in enumerate(singles):
            for got, want in zip(batched, single):
                np.testing.assert_allclose(got.class_logits.data[b],
                                           want.class_logits.data[0], atol=1e-12)
                np.testing.assert_allclose(got.boxes.data[b], want.boxes.data[0],
                                           atol=1e-12)

    def test_per_layer_loss_isolation(self):
        # each layer's loss term only sees that layer's output
        model = tiny_model()
        rng = np.random.default_rng(7)
        out = model.forward(rng.random((1, 3, 16, 16)))
        targets = [TargetSet.create([0], [[0.5, 0.5, 0.4, 0.4]])]
        w = LossWeights()
        full, _ = total_loss(out.layers, targets, w)
        parts = [total_loss([layer], targets, w)[0].item() for layer in out.layers]
        assert full.item() == pytest.approx(sum(parts), abs=1e-12)


class TestEndToEndGradient:
    def test_total_loss_grad_on_parameters(self):
        model = tiny_model()
        rng = np.random.default_rng(8)
        image = rng.random((1, 3, 16, 16))
        targets = [TargetSet.create([0, 1], [[0.3, 0.3, 0.3, 0.3],
                                             [0.7, 0.6, 0.2, 0.4]])]
        w = LossWeights()
        from setdet.matching import Assignment, batch_hungarian_loss

        fixed = [Assignment(np.array([0, 2]), 3)] * 2

        def loss_fn(_):
            out = model.forward(image)
            value = None
            for layer, assignment in zip(out.layers, fixed):
                term, _ = batch_hungarian_loss(layer.class_logits, layer.boxes, targets,
                                               [assignment], w, num_objects=2)
                value = term if value is None else value + term
            return value

        for name in ("object_queries", "class_head.weight", "backbone.conv0.weight"):
            param = next(p for p in model.parameters() if p.name == name)
            err = grad_check(loss_fn, param.tensor, eps=1e-5)
            assert err <= 1e-4, f"{name}: {err}"


def probs_to_logits(probs):
    return np.log(np.asarray(probs, dtype=np.float64))


class TestPostprocess:
    def fake_output(self, probs, boxes=None):
        from setdet.detector import DetectionOutput, LayerPrediction
        probs = np.asarray(probs, dtype=np.float64)
        n = probs.shape[0]
        boxes = np.tile([0.5, 0.5, 0.2, 0.2], (n, 1)) if boxes is None else boxes
        layer = LayerPrediction(Tensor(probs_to_logits(probs)[None]), Tensor(boxes[None]))
        return DetectionOutput([layer])          # a batch of one image

    def test_real_class_argmax(self):
        out = self.fake_output([[0.7, 0.3]])    # K=1, no-object index 1
        dets, = postprocess(out)
        assert len(dets) == 1
        assert dets[0].class_id == 0 and dets[0].confidence == pytest.approx(0.7)

    def test_override_emits_second_best(self):
        out = self.fake_output([[0.1, 0.3, 0.6]])   # no-object wins
        dets, = postprocess(out, override_empty=True)
        assert len(dets) == 1
        assert dets[0].class_id == 1 and dets[0].confidence == pytest.approx(0.3)

    def test_no_override_drops_slot(self):
        out = self.fake_output([[0.1, 0.3, 0.6]])
        assert postprocess(out, override_empty=False) == [[]]

    def test_use_layer_selects(self):
        from setdet.detector import DetectionOutput, LayerPrediction
        l0 = LayerPrediction(Tensor(probs_to_logits([[[0.9, 0.1]]])),
                             Tensor(np.tile([0.5, 0.5, 0.2, 0.2], (1, 1, 1))))
        l1 = LayerPrediction(Tensor(probs_to_logits([[[0.2, 0.8]]])),
                             Tensor(np.tile([0.5, 0.5, 0.2, 0.2], (1, 1, 1))))
        out = DetectionOutput([l0, l1])
        assert len(postprocess(out, use_layer=0, override_empty=False)[0]) == 1
        assert postprocess(out, use_layer=1, override_empty=False) == [[]]


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = tiny_model(seed=3)
        path = str(tmp_path / "model.sdtr")
        save_checkpoint(model, path)
        other = tiny_model(seed=99)
        load_checkpoint(other, path)
        for a, b in zip(model.parameters(), other.parameters()):
            assert a.name == b.name
            assert (a.tensor.data == b.tensor.data).all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sdtr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(tiny_model(), str(path))

    def test_bad_version_rejected(self, tmp_path):
        import struct
        path = tmp_path / "bad.sdtr"
        path.write_bytes(b"SDTR" + struct.pack("<II", 9, 0))
        with pytest.raises(CheckpointError):
            load_checkpoint(tiny_model(), str(path))

    def test_name_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "model.sdtr")
        save_checkpoint(model, path)
        smaller = tiny_model(enc_layers=0)
        with pytest.raises(CheckpointError):
            load_checkpoint(smaller, path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "model.sdtr")
        save_checkpoint(model, path)
        wider = tiny_model(num_queries=4)
        with pytest.raises(CheckpointError):
            load_checkpoint(wider, path)

    def test_raw_read(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "model.sdtr")
        save_checkpoint(model, path)
        arrays = read_checkpoint_arrays(path)
        assert set(arrays) == {p.name for p in model.parameters()}


@pytest.mark.parametrize("call, match", [
    (lambda: tiny_model().forward(np.zeros((3, 16, 16))),
     r"\[B,3,H,W\] batch, got shape \(3, 16, 16\); Detector\.predict"),
    (lambda: MultiHeadAttention(8, 2, np.random.default_rng(0), "attn")(
        Tensor(np.zeros((8, 5))), Tensor(np.zeros((8, 9)))), r"\[B,d,N\]"),
    (lambda: T.conv2d(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((4, 3, 3, 3)))),
     "4-d input"),
    (lambda: dice_loss(Tensor(np.zeros((4, 4))), np.zeros((4, 4))), r"\[k,h,w\]"),
], ids=["forward", "attention", "conv2d", "dice_loss"])
def test_single_image_rank_rejected(call, match):
    # the model path takes a leading batch axis only; predict lifts one image
    with pytest.raises(DimensionError, match=match):
        call()


def test_predict_returns_detections():
    model = tiny_model()
    dets = model.predict(np.random.default_rng(9).random((3, 16, 16)))
    assert isinstance(dets, list)
    for det in dets:
        assert isinstance(det, Detection)
        assert 0 <= det.class_id < 2
        assert 0.0 <= det.confidence <= 1.0

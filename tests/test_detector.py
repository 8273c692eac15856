import re

import numpy as np
import pytest

from setdet import tensor as T
from setdet.data import TRAIN_NAMESPACE, build_dataset
from setdet.detector import (
    CheckpointError,
    Detection,
    DetectionOutput,
    Detector,
    ModelConfig,
    load_checkpoint,
    postprocess,
    read_checkpoint_arrays,
    save_checkpoint,
    write_arrays,
)
from setdet.layers import ConfigError, MultiHeadAttention
from setdet.matching import LossWeights, TargetSet, dice_loss, total_loss
from setdet.segmentation import MaskHead
from setdet.tensor import DimensionError, Tensor, grad_check
from setdet.training import TrainConfig

TINY = dict(d=8, num_heads=2, enc_layers=1, dec_layers=2, num_queries=3,
            num_classes=2, ffn_width=16, backbone_channels=(4, 6, 8),
            image_side=16)


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY, **overrides})
    return Detector(cfg, np.random.default_rng(seed))


def tape_nodes(roots):
    """Every recorded node reachable from ``roots`` through ``_parents``
    that no ``backward()`` has walked yet."""
    nodes, seen, stack = [], set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward not in (None, T._spent):
                nodes.append(node)
            stack.extend(node._parents)
    return nodes


def op_name(node):
    return node._backward.__qualname__.split(".")[0]      # "linear.<locals>.backward"


def tape_bytes(root):
    """Bytes the tape under ``root`` keeps alive: each node's output and the
    arrays its backward closure holds, directly or through a Tensor, with
    each base array counted once."""
    held = {}
    for node in tape_nodes([root]):
        cells = [c.cell_contents for c in node._backward.__closure__ or ()]
        for value in [node.data] + cells:
            value = value.data if isinstance(value, Tensor) else value
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                held[id(value)] = value.nbytes
    return sum(held.values())


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
        for boxes in out.boxes.data:
            assert (boxes >= 0).all() and (boxes <= 1).all()

    def test_layer_and_slot_counts(self):
        model = tiny_model()
        out = model.forward(np.random.default_rng(3).random((1, 3, 16, 16)))
        assert len(out.class_logits.data) == 2
        assert out.class_logits.data[0].shape == (1, 3, 3)   # B x N x (K+1)
        assert out.boxes.data[0].shape == (1, 3, 4)

    def test_eval_mode_deterministic(self):
        model = tiny_model()
        image = np.random.default_rng(4).random((1, 3, 16, 16))
        with T.no_grad():
            a = model.forward(image)
            b = model.forward(image)
        assert (a.class_logits.data[-1] == b.class_logits.data[-1]).all()
        assert (a.boxes.data[-1] == b.boxes.data[-1]).all()

    @pytest.mark.parametrize("enc,dec", [(1, 2), (2, 1)])
    def test_one_attention_node_per_attention_layer(self, monkeypatch, enc, dec):
        calls, attention = [], T.attention

        def counted(q, k, v, heads):
            calls.append((q.shape[:2], heads))
            return attention(q, k, v, heads)

        def no_softmax(*args):
            raise AssertionError("the model path runs no separate softmax")

        monkeypatch.setattr(T, "attention", counted)
        monkeypatch.setattr(T, "softmax_lastdim", no_softmax)
        model = tiny_model(enc_layers=enc, dec_layers=dec)
        model.forward(np.random.default_rng(6).random((2, 3, 16, 16)))
        # encoder self-attention, then decoder self- and cross-attention,
        # each on the [B, d, N] projections
        assert calls == [((2, 8), 2)] * (enc + 2 * dec)

    @pytest.mark.parametrize("enc,dec", [(1, 2), (2, 1)])
    def test_one_linear_node_per_projection_and_head_layer(self, enc, dec):
        model = tiny_model(enc_layers=enc, dec_layers=dec)
        out = model.forward(np.random.default_rng(6).random((2, 3, 16, 16)), train=True,
                            rng=np.random.default_rng(7))
        nodes = tape_nodes([out.class_logits, out.boxes])
        names = [op_name(n) for n in nodes]
        # q, k, v and output projections of every attention, two FFN layers
        # per layer, and the class head and three box layers per decoder layer
        assert names.count("linear") == 4 * (enc + 2 * dec) + 2 * (enc + dec) + 4 * dec
        assert names.count("relu") == len(TINY["backbone_channels"])
        assert all(op_name(p) == "conv2d" for n in nodes if op_name(n) == "relu"
                   for p in n._parents)
        biases = {id(p.tensor) for p in model.parameters() if p.name.endswith("bias")}
        assert not any(id(p) in biases for n in nodes if op_name(n) == "add"
                       for p in n._parents)

    def test_loss_nodes_do_not_grow_with_depth(self):
        targets = [TargetSet.create([0], [[0.5, 0.5, 0.4, 0.4]]),
                   TargetSet.create([1, 0], [[0.3, 0.3, 0.2, 0.3], [0.7, 0.6, 0.3, 0.2]])]
        added = []
        for layers in (1, 2, 6):
            model = tiny_model(dec_layers=layers)
            out = model.forward(np.random.default_rng(8).random((2, 3, 16, 16)), train=True,
                                rng=np.random.default_rng(9))
            loss, comps = total_loss(out, targets, LossWeights())
            assert all(len(value) == layers for value in comps.values())
            added.append(len(tape_nodes([loss])) - len(tape_nodes([out.class_logits,
                                                                   out.boxes])))
        # one match and one loss call score every layer: 107 loss nodes at two
        # layers and 323 at six while each layer had its own
        assert added[0] == added[1] == added[2] < 60

    def test_layers_alias_is_the_output(self):
        out = tiny_model().forward(np.zeros((1, 3, 16, 16)))
        assert out.layers is out

    def test_default_train_step_tape_bytes(self):
        cfg = TrainConfig(seed=3)
        samples = build_dataset(cfg.data, cfg.batch_size, TRAIN_NAMESPACE, cfg.seed)
        model = Detector(cfg.model, np.random.default_rng(cfg.seed))
        out = model.forward(np.stack([s.image for s in samples]), train=True,
                            rng=np.random.default_rng(4))
        loss, _ = total_loss(out, [s.targets for s in samples], cfg.loss)
        # 65.1 MB measured once the Linear layers became one node each
        # (86.2 MB with separate matmul, bias add and ReLU nodes)
        assert tape_bytes(loss) < 68e6

    def test_class_probabilities_sum_to_one(self):
        model = tiny_model()
        out = model.forward(np.random.default_rng(5).random((1, 3, 16, 16)))
        logits = out.class_logits.data[-1]
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
            for got, want in [(batched.class_logits, single.class_logits),
                              (batched.boxes, single.boxes)]:
                for got_layer, want_layer in zip(got.data, want.data):
                    np.testing.assert_array_equal(got_layer[b], want_layer[0])

    def test_per_layer_loss_isolation(self):
        # each layer's loss term only sees that layer's output
        model = tiny_model()
        rng = np.random.default_rng(7)
        out = model.forward(rng.random((1, 3, 16, 16)))
        targets = [TargetSet.create([0], [[0.5, 0.5, 0.4, 0.4]])]
        w = LossWeights()
        full, _ = total_loss(out, targets, w)
        parts = [total_loss(DetectionOutput(Tensor(logits[None]), Tensor(boxes[None])),
                            targets, w)[0].item()
                 for logits, boxes in zip(out.class_logits.data, out.boxes.data)]
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

        fixed = [Assignment(np.array([0, 2]), 3)] * 2     # one per layer

        def loss_fn(_):
            out = model.forward(image)
            value, _ = batch_hungarian_loss(out.class_logits, out.boxes, targets, fixed, w)
            return value

        for name in ("object_queries", "class_head.weight", "backbone.conv0.weight"):
            param = next(p for p in model.parameters() if p.name == name)
            err = grad_check(loss_fn, param.tensor, eps=1e-5)
            assert err <= 1e-4, f"{name}: {err}"


def probs_to_logits(probs):
    return np.log(np.asarray(probs, dtype=np.float64))


class TestPostprocess:
    def fake_output(self, probs, boxes=None):
        probs = np.asarray(probs, dtype=np.float64)
        n = probs.shape[0]
        boxes = np.tile([0.5, 0.5, 0.2, 0.2], (n, 1)) if boxes is None else boxes
        # one layer of a batch of one image
        return DetectionOutput(Tensor(probs_to_logits(probs)[None, None]),
                               Tensor(boxes[None, None]))

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

    def two_layer_output(self):
        boxes = Tensor(np.tile([0.5, 0.5, 0.2, 0.2], (1, 1, 1)))
        return DetectionOutput(T.stack([Tensor(probs_to_logits([[[0.9, 0.1]]])),
                                        Tensor(probs_to_logits([[[0.2, 0.8]]]))]),
                               T.stack([boxes, boxes]))

    def test_use_layer_selects(self):
        out = self.two_layer_output()
        assert len(postprocess(out, use_layer=0, override_empty=False)[0]) == 1
        assert postprocess(out, use_layer=1, override_empty=False) == [[]]
        assert len(postprocess(out, use_layer=-2, override_empty=False)[0]) == 1
        for index in (2, -3, 5):
            with pytest.raises(ValueError, match=f"^use_layer {index} is out of range "
                                                 f"for 2 decoder layers"):
                postprocess(out, use_layer=index)

    @staticmethod
    def per_slot(output, use_layer, override_empty):
        """``postprocess`` as a loop over images and slots, the reference
        the batched version must equal."""
        probs = T.softmax(output.class_logits.data[use_layer])
        no_object = probs.shape[-1] - 1
        batch = []
        for image_probs, image_boxes in zip(probs, output.boxes.data[use_layer]):
            detections = []
            for p, box in zip(image_probs, image_boxes):
                best = int(np.argmax(p))
                if best == no_object:
                    if not override_empty:
                        continue
                    best = int(np.argmax(p[:no_object]))
                detections.append(Detection(best, float(p[best]), box.copy()))
            batch.append(detections)
        return batch

    @pytest.mark.parametrize("override_empty", [True, False], ids=["override", "drop"])
    @pytest.mark.parametrize("use_layer", [0, -1])
    def test_equals_per_slot_loop(self, use_layer, override_empty):
        rng = np.random.default_rng(4)
        # small integer logits tie often; the last image's slots are all no-object
        logits = rng.integers(-2, 3, size=(2, 5, 7, 4)).astype(np.float64)
        logits[:, -1, :, -1] = 9.0
        boxes = rng.random((2, 5, 7, 4))
        out = DetectionOutput(Tensor(logits), Tensor(boxes))
        got = postprocess(out, use_layer=use_layer, override_empty=override_empty)
        want = self.per_slot(out, use_layer, override_empty)

        def fields(batch):
            return [[(type(d.class_id), d.class_id, type(d.confidence), d.confidence,
                      d.box.tobytes()) for d in dets] for dets in batch]

        assert fields(got) == fields(want)
        assert [len(dets) for dets in got[:-1]] == [len(dets) for dets in want[:-1]]
        assert len(got[-1]) == (7 if override_empty else 0)
        # each detection owns its box
        flat = [det.box for dets in got for det in dets]
        assert all(b.base is None for b in flat)
        flat[0][:] = -1.0
        assert (out.boxes.data >= 0).all()

    @pytest.mark.parametrize("index", [True, 1.0, np.int64(1), "1"],
                             ids=["bool", "float", "numpy-int", "str"])
    def test_use_layer_must_be_an_int(self, index):
        # True once selected layer 1, and 1.0 raised a bare TypeError
        with pytest.raises(ValueError, match=f"^use_layer {re.escape(repr(index))} is out "
                                             f"of range for 2 decoder layers"):
            postprocess(self.two_layer_output(), use_layer=index)


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

    def test_per_head_layout_rejected(self, tmp_path):
        # files written while q/k/v were stored per head, [M, d', d] and
        # [M, d', 1], do not load: there is no reshape on load
        model = Detector(ModelConfig(), np.random.default_rng(0))
        arrays = {p.name: p.tensor.data for p in model.parameters()}
        for name, array in arrays.items():
            if re.search(r"_attn\.[qkv]_proj\.", name):
                arrays[name] = array.reshape(8, 8, -1)
        path = str(tmp_path / "per_head.sdtr")
        write_arrays(path, arrays)
        with pytest.raises(CheckpointError, match=re.escape(
                "shape mismatch for encoder.layers.0.self_attn.q_proj.weight: "
                "file (8, 8, 64) vs expected (64, 64)")):
            load_checkpoint(model, path)

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
    (lambda: MaskHead(8, 2, np.random.default_rng(0))(
        Tensor(np.zeros((8, 5))), Tensor(np.zeros((8, 9))), 3, 3),
     r"\[B,d,N\] embeddings and \[B,d,HW\] memory, got \(8, 5\) and \(8, 9\)"),
], ids=["forward", "attention", "conv2d", "dice_loss", "mask_head"])
def test_single_image_rank_rejected(call, match):
    # the model path takes a leading batch axis only; predict lifts one image
    with pytest.raises(DimensionError, match=match):
        call()


@pytest.mark.parametrize("image", [np.zeros((2, 3, 16, 16)), np.zeros((16, 16)),
                                   np.float64(0.5)], ids=["batch", "plane", "scalar"])
def test_predict_names_the_callers_shape(image):
    with pytest.raises(DimensionError, match=re.escape(
            f"Detector.predict takes one [3,H,W] image, got shape {np.shape(image)};")):
        tiny_model().predict(image)


def test_predict_takes_an_array_like():
    model = tiny_model()
    image = np.random.default_rng(9).random((3, 16, 16))
    want = [(d.class_id, d.confidence, d.box.tobytes()) for d in model.predict(image)]
    for like in (image.tolist(), Tensor(image)):
        assert [(d.class_id, d.confidence, d.box.tobytes()) for d in model.predict(like)] \
            == want


def test_predict_returns_detections():
    model = tiny_model()
    dets = model.predict(np.random.default_rng(9).random((3, 16, 16)))
    assert isinstance(dets, list)
    for det in dets:
        assert isinstance(det, Detection)
        assert 0 <= det.class_id < 2
        assert 0.0 <= det.confidence <= 1.0


class TestNonFiniteInput:
    # a NaN pixel would otherwise come out as NaN confidences and boxes
    def test_predict(self):
        image = np.random.default_rng(9).random((3, 16, 16))
        image[1, 4, 5] = np.nan
        with pytest.raises(ValueError, match=r"input image 0 of 1 has 1 non-finite"):
            tiny_model().predict(image)

    def test_forward_names_the_first_image(self):
        images = np.random.default_rng(9).random((3, 3, 16, 16))
        images[1, 0, 2, 3:5] = [np.inf, -np.inf]
        images[2, 2, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"input image 1 of 3 has 2 non-finite"):
            tiny_model().forward(images)

"""The SDTR state files (model, optimizer, mask head) and the raw image
reader: byte compatibility with the original writers, strict rejection
of malformed input, and truncation / byte-flip fuzzing."""

import math
import struct

import numpy as np
import pytest

from setdet.data import AnnotationError, load_image_raw, save_image_raw
from setdet.detector import (
    CheckpointError,
    Detector,
    ModelConfig,
    load_checkpoint,
    read_checkpoint_arrays,
    save_checkpoint,
    write_arrays,
)
from setdet.segmentation import MaskHead
from setdet.training import AdamW, load_mask_head

TINY = dict(d=8, num_heads=2, enc_layers=1, dec_layers=1, num_queries=3,
            num_classes=2, ffn_width=8, backbone_channels=(4, 8),
            image_side=16)


def tiny_model(seed=0):
    return Detector(ModelConfig(**TINY), np.random.default_rng(seed))


def tiny_head(seed=0):
    return MaskHead(TINY["d"], TINY["num_heads"], np.random.default_rng(seed))


def stepped_optimizer(model, steps=3, seed=0, per_group=None):
    groups = model.param_groups()
    opt = AdamW([(groups["transformer"][:per_group], 1e-4),
                 (groups["backbone"][:per_group], 1e-5)])
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for p in model.parameters():
            p.tensor.grad = rng.normal(size=p.tensor.data.shape)
        opt.step()
    return opt


# -- the writers as they were before the container had one home ---------------

def legacy_write(path, entries):
    """Reference copy of the original hand-rolled SDTR writer."""
    with open(path, "wb") as fh:
        fh.write(b"SDTR")
        fh.write(struct.pack("<II", 1, len(entries)))
        for name, array in entries:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", array.ndim))
            fh.write(struct.pack(f"<{array.ndim}I", *array.shape))
            fh.write(array.astype("<f8").tobytes())


def legacy_params(module):
    return [(p.name, p.tensor.data) for p in module.parameters()]


def legacy_optimizer(opt):
    entries = [("step", np.float64(opt.step_count).reshape(()))]
    for name in opt.m:
        entries += [(f"m.{name}", opt.m[name]), (f"v.{name}", opt.v[name])]
    return entries


def params_snapshot(module):
    return [p.tensor.data.tobytes() for p in module.parameters()]


def optimizer_snapshot(opt):
    return ([opt.step_count] + [a.tobytes() for a in opt.m.values()]
            + [a.tobytes() for a in opt.v.values()])


class TestLegacyCompatibility:
    def test_model_checkpoint_bytes(self, tmp_path):
        model = tiny_model(seed=3)
        new, old = tmp_path / "new.sdtr", tmp_path / "old.sdtr"
        save_checkpoint(model, str(new))
        legacy_write(old, legacy_params(model))
        assert new.read_bytes() == old.read_bytes()
        other = tiny_model(seed=9)
        load_checkpoint(other, str(old))
        assert params_snapshot(other) == params_snapshot(model)

    def test_optimizer_state_bytes(self, tmp_path):
        opt = stepped_optimizer(tiny_model())
        new, old = tmp_path / "new.opt", tmp_path / "old.opt"
        opt.save(str(new))
        legacy_write(old, legacy_optimizer(opt))
        assert new.read_bytes() == old.read_bytes()
        other = stepped_optimizer(tiny_model(), steps=1, seed=5)
        other.load(str(old))
        assert optimizer_snapshot(other) == optimizer_snapshot(opt)

    def test_mask_head_bytes(self, tmp_path):
        head = tiny_head(seed=4)
        new, old = tmp_path / "new.sdtr", tmp_path / "old.sdtr"
        save_checkpoint(head, str(new))
        legacy_write(old, legacy_params(head))
        assert new.read_bytes() == old.read_bytes()
        loaded = load_mask_head(ModelConfig(**TINY), str(old))
        assert params_snapshot(loaded) == params_snapshot(head)


class TestStrictContainer:
    def test_wrong_shape_assigns_nothing(self, tmp_path):
        model = tiny_model()
        arrays = {p.name: p.tensor.data for p in model.parameters()}
        arrays["object_queries"] = np.zeros((1, 1))
        write_arrays(str(tmp_path / "bad.sdtr"), arrays)
        target = tiny_model(seed=7)
        before = params_snapshot(target)
        with pytest.raises(CheckpointError, match="object_queries"):
            load_checkpoint(target, str(tmp_path / "bad.sdtr"))
        assert params_snapshot(target) == before

    def test_duplicate_name_rejected(self, tmp_path):
        legacy_write(tmp_path / "dup.sdtr", [("a", np.zeros(2)), ("a", np.ones(2))])
        with pytest.raises(CheckpointError, match="entry 1: duplicate"):
            read_checkpoint_arrays(str(tmp_path / "dup.sdtr"))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "tail.sdtr"
        write_arrays(str(path), {"a": np.zeros(2)})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="trailing"):
            read_checkpoint_arrays(str(path))

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "name.sdtr"
        path.write_bytes(b"SDTR" + struct.pack("<III", 1, 1, 2) + b"\xff\xfe"
                         + struct.pack("<I", 0) + np.float64(1.0).tobytes())
        with pytest.raises(CheckpointError, match="entry 0: name is not UTF-8"):
            read_checkpoint_arrays(str(path))

    def test_mask_head_stray_entry_rejected(self, tmp_path):
        head = tiny_head()
        arrays = {p.name: p.tensor.data for p in head.parameters()}
        arrays["stray"] = np.zeros(1)
        write_arrays(str(tmp_path / "head.sdtr"), arrays)
        with pytest.raises(CheckpointError, match="stray"):
            load_mask_head(ModelConfig(**TINY), str(tmp_path / "head.sdtr"))

    @pytest.mark.parametrize("dropped", ["transformer", "backbone"])
    def test_optimizer_missing_group_rejected(self, tmp_path, dropped):
        model = tiny_model()
        kept = [g for name, g in model.param_groups().items() if name != dropped]
        AdamW([(kept[0], 1e-4)]).save(str(tmp_path / "part.opt"))
        opt = stepped_optimizer(model)
        before = optimizer_snapshot(opt)
        with pytest.raises(CheckpointError, match="missing"):
            opt.load(str(tmp_path / "part.opt"))
        assert optimizer_snapshot(opt) == before

    @pytest.mark.parametrize("step", [-1.0, 2.5, np.nan])
    def test_optimizer_step_must_be_natural(self, tmp_path, step):
        opt = stepped_optimizer(tiny_model())
        arrays = {"step": np.float64(step).reshape(())}
        for name in opt.m:
            arrays[f"m.{name}"] = opt.m[name]
            arrays[f"v.{name}"] = opt.v[name]
        write_arrays(str(tmp_path / "step.opt"), arrays)
        with pytest.raises(CheckpointError, match="step"):
            opt.load(str(tmp_path / "step.opt"))
        assert opt.step_count == 3


# -- fuzzing -------------------------------------------------------------------

def sdtr_layout(buf):
    """(field offsets that hold a count, rank or length; every header
    boundary; (start, size) of each payload) of an SDTR container."""
    (count,) = struct.unpack_from("<I", buf, 8)
    sized, bounds, payloads = [8], [0, 4, 8, 12], []
    pos = 12
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", buf, pos)
        sized.append(pos)
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", buf, pos)
        sized += [pos + 4 * k for k in range(rank + 1)]
        bounds += [pos - name_len - 4, pos - name_len, pos, pos + 4]
        shape = struct.unpack_from(f"<{rank}I", buf, pos + 4)
        pos += 4 + 4 * rank
        bounds.append(pos)
        payloads.append((pos, 8 * math.prod(shape)))
        pos += 8 * math.prod(shape)
    assert pos == len(buf)
    return sized, bounds, payloads


def image_layout(buf):
    return [4, 8], [0, 4, 8, 12], [(12, len(buf) - 12)]


def mutations(buf, layout, rng, payload_cuts=24):
    """Truncations at every header boundary and at sampled payload offsets,
    then single-byte flips in every count, rank and length field."""
    sized, bounds, payloads = layout(buf)
    cuts = set(bounds)
    cuts.update(b + d for b in bounds for d in (-1, 1))
    spans = [(start, size) for start, size in payloads if size > 1]
    for k in rng.integers(len(spans), size=payload_cuts):
        start, size = spans[k]
        cuts.add(start + int(rng.integers(1, size)))
    for cut in sorted(c for c in cuts if 0 <= c < len(buf)):
        yield f"truncated to {cut}", buf[:cut]
    for offset in sized:
        for byte, mask in ((0, 0x01), (0, 0xFF), (1, 0x01), (3, 0xFF)):
            flipped = bytearray(buf)
            flipped[offset + byte] ^= mask
            yield f"byte {offset + byte} ^ {mask:#x}", bytes(flipped)


def fuzz(tmp_path, buf, layout, load, snapshot, error, match=None):
    path = tmp_path / "fuzzed"
    before = snapshot()
    count = 0
    for label, data in mutations(buf, layout, np.random.default_rng(0)):
        path.write_bytes(data)
        with pytest.raises(error, match=match) as info:
            load(str(path))
        assert type(info.value) is error, (label, info.value)
        assert snapshot() == before, label
        count += 1
    return count


class TestFuzz:
    def test_model_checkpoint(self, tmp_path):
        save_checkpoint(tiny_model(seed=1), str(tmp_path / "model.sdtr"))
        target = tiny_model(seed=2)
        n = fuzz(tmp_path, (tmp_path / "model.sdtr").read_bytes(), sdtr_layout,
                 lambda p: load_checkpoint(target, p),
                 lambda: params_snapshot(target), CheckpointError)
        assert n > 500

    def test_optimizer_state(self, tmp_path):
        model = tiny_model()
        stepped_optimizer(model, seed=1, per_group=4).save(str(tmp_path / "state.opt"))
        target = stepped_optimizer(model, seed=2, per_group=4)
        fuzz(tmp_path, (tmp_path / "state.opt").read_bytes(), sdtr_layout,
             target.load, lambda: optimizer_snapshot(target), CheckpointError)

    def test_mask_head(self, tmp_path):
        save_checkpoint(tiny_head(seed=1), str(tmp_path / "head.sdtr"))
        buf = (tmp_path / "head.sdtr").read_bytes()
        fuzz(tmp_path, buf, sdtr_layout,
             lambda p: load_mask_head(ModelConfig(**TINY), p),
             lambda: None, CheckpointError)
        target = tiny_head(seed=2)
        fuzz(tmp_path, buf, sdtr_layout, lambda p: load_checkpoint(target, p),
             lambda: params_snapshot(target), CheckpointError)

    def test_raw_image(self, tmp_path):
        image = np.random.default_rng(3).random((3, 5, 7))
        save_image_raw(str(tmp_path / "img.raw"), image)
        fuzz(tmp_path, (tmp_path / "img.raw").read_bytes(), image_layout,
             load_image_raw, lambda: None, AnnotationError)

    def test_short_prefixes(self, tmp_path):
        # a 6-byte prefix used to escape as struct.error
        save_image_raw(str(tmp_path / "img.raw"), np.zeros((3, 2, 2)))
        (tmp_path / "img6").write_bytes((tmp_path / "img.raw").read_bytes()[:6])
        with pytest.raises(AnnotationError, match="truncated"):
            load_image_raw(str(tmp_path / "img6"))

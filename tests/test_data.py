import json

import numpy as np
import pytest

from setdet.data import (
    AnnotationError,
    Sample,
    SampleRef,
    SyntheticConfig,
    TRAIN_NAMESPACE,
    _pack_seed,
    _unpack_seed,
    build_dataset,
    generate_scene,
    grid_instances_scene,
    load_annotations,
    load_image_raw,
    save_annotations,
    save_image_raw,
    scene_rng,
)
from setdet.matching import TargetSet


class TestGenerateScene:
    def test_object_count_in_range(self):
        cfg = SyntheticConfig(min_objects=2, max_objects=4)
        for seed in range(20):
            sample = generate_scene(cfg, np.random.default_rng(seed))
            assert 2 <= len(sample.targets) <= 4

    def test_seeded_determinism_bitwise(self):
        cfg = SyntheticConfig()
        a = generate_scene(cfg, np.random.default_rng(7))
        b = generate_scene(cfg, np.random.default_rng(7))
        assert (a.image == b.image).all()
        assert (a.targets.boxes == b.targets.boxes).all()
        assert (a.targets.classes == b.targets.classes).all()

    def test_boxes_inside_image(self):
        cfg = SyntheticConfig()
        for seed in range(30):
            sample = generate_scene(cfg, np.random.default_rng(seed))
            b = sample.targets.boxes
            if len(b) == 0:
                continue
            assert (b[:, 0] - b[:, 2] / 2 >= -1e-9).all()
            assert (b[:, 0] + b[:, 2] / 2 <= 1 + 1e-9).all()
            assert (b[:, 1] - b[:, 3] / 2 >= -1e-9).all()
            assert (b[:, 1] + b[:, 3] / 2 <= 1 + 1e-9).all()

    def test_disc_box_matches_geometry(self):
        # a disc of radius r must produce a box of side ~2r, within a pixel
        cfg = SyntheticConfig(num_classes=2, min_objects=1, max_objects=1)
        for seed in range(40):
            sample = generate_scene(cfg, np.random.default_rng(seed))
            if sample.targets.classes[0] != 1:
                continue
            w_px = sample.targets.boxes[0, 2] * cfg.image_side
            h_px = sample.targets.boxes[0, 3] * cfg.image_side
            assert abs(w_px - h_px) <= 2.0  # discs are round
            assert cfg.size_range[0] - 2 <= w_px <= cfg.size_range[1] + 2

    def test_visibility_floor_respected(self):
        cfg = SyntheticConfig(min_objects=4, max_objects=5, min_visible=0.3)
        for seed in range(15):
            sample = generate_scene(cfg, np.random.default_rng(seed))
            boxes_px = sample.targets.boxes[:, 2:] * cfg.image_side
            for mask, (w, h) in zip(sample.masks, boxes_px):
                # visible area vs a rough own-area lower bound from the box
                assert mask.sum() > 0

    def test_masks_disjoint(self):
        cfg = SyntheticConfig(min_objects=3, max_objects=5)
        sample = generate_scene(cfg, np.random.default_rng(11))
        total = np.zeros_like(sample.masks[0], dtype=int)
        for m in sample.masks:
            total += m
        assert total.max() <= 1

    def test_stuff_boxes_mode(self):
        cfg = SyntheticConfig(include_stuff_boxes=True, stuff_classes=2,
                              min_objects=1, max_objects=2)
        sample = generate_scene(cfg, np.random.default_rng(3))
        stuff_ids = set(sample.targets.classes.tolist()) & {3, 4}
        assert stuff_ids == {3, 4}


class TestGridScene:
    def test_full_grid(self):
        sample = grid_instances_scene(1, 100, np.random.default_rng(0))
        assert len(sample.targets) == 100

    def test_empty_grid(self):
        sample = grid_instances_scene(0, 0, np.random.default_rng(0))
        assert len(sample.targets) == 0
        assert sample.image.shape[1] == 120

    def test_constant_object_size(self):
        sizes = set()
        for count in (5, 30, 77, 100):
            sample = grid_instances_scene(0, count, np.random.default_rng(1))
            wh = np.round(sample.targets.boxes[:, 2:] * 120, 9)
            sizes.update(map(tuple, wh))
        assert len(sizes) == 1

    def test_count_range_validated(self):
        with pytest.raises(ValueError):
            grid_instances_scene(0, 101, np.random.default_rng(0))

    def test_side_divisibility_validated(self):
        with pytest.raises(ValueError):
            grid_instances_scene(0, 5, np.random.default_rng(0), side=96)


class TestDatasets:
    def test_build_dataset_is_pure(self):
        cfg = SyntheticConfig()
        a = build_dataset(cfg, 4, TRAIN_NAMESPACE, 5)
        b = build_dataset(cfg, 4, TRAIN_NAMESPACE, 5)
        assert all((x.image == y.image).all() for x, y in zip(a, b))

    def test_namespaces_disjoint(self):
        cfg = SyntheticConfig()
        train = build_dataset(cfg, 3, 0, 5)
        val = build_dataset(cfg, 3, 1, 5)
        assert not any((a.image == b.image).all() for a, b in zip(train, val))


class TestAnnotations:
    def test_roundtrip_targets(self, tmp_path):
        cfg = SyntheticConfig()
        samples = build_dataset(cfg, 5, TRAIN_NAMESPACE, 2)
        path = str(tmp_path / "ann.json")
        save_annotations(samples, path)
        refs = load_annotations(path, num_classes=cfg.num_classes)
        assert len(refs) == 5
        for ref, sample in zip(refs, samples):
            np.testing.assert_allclose(ref.targets.boxes, sample.targets.boxes,
                                       atol=1e-12)
            assert (ref.targets.classes == sample.targets.classes).all()
            remat = ref.materialize(cfg)
            assert (remat.image == sample.image).all()

    def test_empty_dataset(self, tmp_path):
        path = str(tmp_path / "empty.json")
        path_obj = tmp_path / "empty.json"
        path_obj.write_text(json.dumps({"images": []}))
        assert load_annotations(path) == []

    def test_out_of_range_box_rejected_with_index(self, tmp_path):
        good = {"id": 0, "width": 64, "height": 64, "synthetic_seed": 0,
                "objects": [{"class": 0, "box": [0.5, 0.5, 0.2, 0.2]}]}
        # an out-of-range box, and synthetic seeds that are not integers >= 0
        for bad in ({"objects": [{"class": 0, "box": [0.5, 0.5, 1.2, 0.2]}]},
                    {"synthetic_seed": -1}, {"synthetic_seed": "7"},
                    {"synthetic_seed": 2.5}, {"synthetic_seed": True}):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"images": [good, {**good, "id": 1, **bad}]}))
            with pytest.raises(AnnotationError, match="record 1"):
                load_annotations(str(path))

    @pytest.mark.parametrize("field, value", [
        ("width", 64.7), ("height", "64"), ("width", True), ("height", 0),
        ("id", 1.0), ("id", "1"), ("id", True)])
    def test_non_integer_size_or_id_rejected(self, tmp_path, field, value):
        good = {"id": 0, "width": 64, "height": 64, "synthetic_seed": 0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [good, {**good, "id": 1, field: value}]}))
        with pytest.raises(AnnotationError, match=f"record 1: {field} "):
            load_annotations(str(path))

    @pytest.mark.parametrize("value", [1.7, True, "1"])
    def test_non_integer_class_rejected(self, tmp_path, value):
        good = {"id": 0, "width": 64, "height": 64, "synthetic_seed": 0}
        bad = {**good, "id": 1, "objects": [{"class": value, "box": [0.5, 0.5, 0.2, 0.2]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [good, bad]}))
        with pytest.raises(AnnotationError, match="record 1: class .* is not an integer"):
            load_annotations(str(path))

    @pytest.mark.parametrize("value", [0, 12345, ["a.simg"]])
    def test_non_string_file_rejected(self, tmp_path, value):
        good = {"id": 0, "width": 64, "height": 64, "synthetic_seed": 0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"images": [good, {**good, "id": 1, "file": value}]}))
        with pytest.raises(AnnotationError, match="record 1: file .* is not a string"):
            load_annotations(str(path))

    def test_unknown_class_rejected(self, tmp_path):
        record = {"images": [{"id": 0, "width": 64, "height": 64,
                              "objects": [{"class": 7, "box": [0.5, 0.5, 0.2, 0.2]}]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        with pytest.raises(AnnotationError, match="record 0"):
            load_annotations(str(path), num_classes=3)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(AnnotationError, match="malformed"):
            load_annotations(str(path))


class TestRawImages:
    def test_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.random((3, 8, 6))
        path = str(tmp_path / "img.simg")
        save_image_raw(path, image)
        loaded = load_image_raw(path)
        assert loaded.shape == (3, 8, 6)
        assert np.abs(loaded - image).max() <= 0.5 / 255 + 1e-12

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.simg"
        path.write_bytes(b"JUNK" + b"\x00" * 8)
        with pytest.raises(AnnotationError):
            load_image_raw(str(path))

    def test_materialize_checks_the_recorded_size(self, tmp_path):
        path = str(tmp_path / "img.simg")
        save_image_raw(path, np.zeros((3, 8, 6)))     # 6 wide, 8 high
        empty = TargetSet.create([], [])
        sample = SampleRef(id=4, width=6, height=8, targets=empty,
                           file=path).materialize(SyntheticConfig())
        assert sample.image.shape == (3, 8, 6)
        for width, height in ((8, 6), (6, 6), (7, 8)):
            ref = SampleRef(id=4, width=width, height=height, targets=empty,
                            file=path)
            with pytest.raises(AnnotationError,
                               match=f"record 4: .* is 6x8, the record says "
                                     f"{width}x{height}"):
                ref.materialize(SyntheticConfig())


def test_pack_seed_rejects_aliasing_fields():
    # these used to unpack as (1, 0, 5) and (0, 1, 0)
    with pytest.raises(ValueError, match="^namespace 16"):
        _pack_seed(0, 16, 5)
    with pytest.raises(ValueError, match="^index 1048576"):
        _pack_seed(0, 1, 2**20)
    with pytest.raises(ValueError, match="^seed -1"):
        _pack_seed(-1, 0, 0)
    assert _unpack_seed(_pack_seed(3, 15, 2**20 - 1)) == (3, 15, 2**20 - 1)

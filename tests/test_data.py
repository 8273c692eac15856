import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from setdet.data import (
    _STUFF_COLORS,
    _THING_COLORS,
    AnnotationError,
    Sample,
    SampleRef,
    SyntheticConfig,
    TRAIN_NAMESPACE,
    _extent_box,
    _pack_seed,
    _raster,
    _unpack_seed,
    _visibility_ok,
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
from setdet.tensor import DimensionError


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

    @pytest.mark.parametrize("stuff_boxes", [False, True])
    def test_targets_reach_the_counted_bounds(self, stuff_boxes):
        cfg = SyntheticConfig(include_stuff_boxes=stuff_boxes, stuff_classes=2,
                              min_objects=4, max_objects=4)
        assert cfg.max_targets == 4 + 2 * stuff_boxes
        assert cfg.num_target_classes == 3 + 2 * stuff_boxes
        for sample in build_dataset(cfg, 6, TRAIN_NAMESPACE, 2):
            assert len(sample.targets) == cfg.max_targets
            assert sample.targets.classes.max() < cfg.num_target_classes
            if stuff_boxes:
                assert sample.targets.classes.max() == cfg.num_target_classes - 1


# -- the dense renderer that the label-map renderer replaced, kept as its reference

def dense_raster(shape, side, cx, cy, size_x, size_y):
    """The shape tested on every pixel of the frame, as before windows."""
    ys, xs = np.mgrid[0:side, 0:side].astype(np.float64)
    kind = shape % 3
    if kind == 0:
        return (np.abs(xs - cx) <= size_x / 2) & (np.abs(ys - cy) <= size_y / 2)
    if kind == 1:
        r = min(size_x, size_y) / 2
        return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    half_w = size_x / 2
    h = size_y
    top = cy - h / 2
    bottom = cy + h / 2
    inside_y = (ys >= top) & (ys <= bottom)
    frac = np.clip((ys - top) / max(h, 1e-9), 0.0, 1.0)
    return inside_y & (np.abs(xs - cx) <= frac * half_w)


def dense_extent_box(mask):
    side_y, side_x = mask.shape
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    y0, y1 = rows[0], rows[-1]
    x0, x1 = cols[0], cols[-1]
    return np.array([
        (x0 + x1 + 1) / 2.0 / side_x,
        (y0 + y1 + 1) / 2.0 / side_y,
        (x1 - x0 + 1) / side_x,
        (y1 - y0 + 1) / side_y,
    ])


def dense_visibility_ok(own_masks, new_mask, min_visible):
    for prev in own_masks:
        remaining = prev & ~new_mask
        if remaining.sum() < min_visible * prev.sum():
            return False
    return True


def dense_background(cfg, rng):
    side = cfg.image_side
    image = np.zeros((3, side, side))
    stuff_map = np.zeros((side, side), dtype=np.int64)
    jitter = cfg.color_jitter

    def color(base):
        return np.clip(base + rng.uniform(-jitter, jitter, 3), 0.0, 1.0)

    if cfg.stuff_classes == 1:
        image[:] = color(_STUFF_COLORS[0])[:, None, None]
        stuff_map[:] = cfg.num_classes
    else:
        split = int(rng.integers(side // 3, 2 * side // 3))
        image[:, :split, :] = color(_STUFF_COLORS[0])[:, None, None]
        image[:, split:, :] = color(_STUFF_COLORS[1])[:, None, None]
        stuff_map[:split, :] = cfg.num_classes
        stuff_map[split:, :] = cfg.num_classes + 1
    return image, stuff_map


def dense_visible_masks(own_masks):
    visible = []
    cover = None
    for mask in reversed(own_masks):          # front-most drawn last
        visible.append(mask if cover is None else mask & ~cover)
        cover = mask if cover is None else (cover | mask)
    return list(reversed(visible))


def dense_generate_scene(cfg, rng):
    """(image, targets, masks, stuff_map) as the dense renderer drew them."""
    side = cfg.image_side
    image, stuff_map = dense_background(cfg, rng)
    count = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    own_masks, classes, boxes = [], [], []
    for _ in range(count):
        cls = int(rng.integers(0, cfg.num_classes))
        for _ in range(100):
            sx = rng.uniform(*cfg.size_range)
            sy = rng.uniform(*cfg.size_range)
            if cls % 3 == 1:
                sy = sx
            cx = rng.uniform(sx / 2 + 1.0, side - 1.0 - sx / 2)
            cy = rng.uniform(sy / 2 + 1.0, side - 1.0 - sy / 2)
            mask = dense_raster(cls, side, cx, cy, sx, sy)
            if mask.any() and dense_visibility_ok(own_masks, mask, cfg.min_visible):
                break
        else:
            raise AssertionError("the reference scene could not be placed")
        own_masks.append(mask)
        classes.append(cls)
        boxes.append(dense_extent_box(mask))
        jitter = rng.uniform(-cfg.color_jitter, cfg.color_jitter, 3)
        color = np.clip(_THING_COLORS[cls] + jitter, 0.0, 1.0)
        image[:, mask] = color[:, None]
    visible = dense_visible_masks(own_masks)
    if cfg.include_stuff_boxes:
        thing_cover = np.zeros((side, side), dtype=bool)
        for m in own_masks:
            thing_cover |= m
        for stuff_cls in sorted(set(stuff_map.reshape(-1).tolist())):
            region = stuff_map == stuff_cls
            classes.append(int(stuff_cls))
            boxes.append(dense_extent_box(region))
            visible.append(region & ~thing_cover)
    targets = (TargetSet.create(classes, np.stack(boxes)) if classes
               else TargetSet.empty())
    masks = np.stack(visible) if visible else np.zeros((0, side, side), dtype=bool)
    return image, targets, masks, stuff_map


def dense_grid_scene(class_id, count, rng, side=120):
    cell = side // 10
    object_size = max(4, int(0.8 * cell))
    image = np.zeros((3, side, side))
    image[:] = _STUFF_COLORS[0][:, None, None]
    stuff_map = np.full((side, side), 3, dtype=np.int64)
    visible_cells = rng.choice(100, size=count, replace=False)
    color = _THING_COLORS[class_id]
    own_masks, boxes = [], []
    for cell_idx in sorted(visible_cells.tolist()):
        gy, gx = divmod(cell_idx, 10)
        mask = dense_raster(class_id, side, gx * cell + cell // 2, gy * cell + cell // 2,
                            object_size, object_size)
        own_masks.append(mask)
        boxes.append(dense_extent_box(mask))
        image[:, mask] = color[:, None]
    targets = (TargetSet.create([class_id] * count, np.stack(boxes)) if count
               else TargetSet.empty())
    masks = np.stack(own_masks) if own_masks else np.zeros((0, side, side), dtype=bool)
    return image, targets, masks, stuff_map


def assert_equals_dense(sample, dense):
    image, targets, masks, stuff_map = dense
    assert sample.image.tobytes() == image.tobytes()
    assert sample.masks.shape == masks.shape and (sample.masks == masks).all()
    np.testing.assert_array_equal(sample.stuff_map, stuff_map)
    assert sample.targets.classes.tobytes() == targets.classes.tobytes()
    assert sample.targets.boxes.tobytes() == targets.boxes.tobytes()


class TestDenseReference:
    """The label map reads back the dense renderer's scenes bit for bit."""

    @pytest.mark.parametrize("fields", [
        {}, {"stuff_classes": 2}, {"include_stuff_boxes": True},
        {"include_stuff_boxes": True, "stuff_classes": 2},
        {"min_visible": 0.0, "max_objects": 8}], ids=str)
    def test_generate_scene(self, fields):
        cfg = SyntheticConfig(**fields)
        samples = build_dataset(cfg, 24, TRAIN_NAMESPACE, 9)
        for i, sample in enumerate(samples):
            assert_equals_dense(sample, dense_generate_scene(
                cfg, scene_rng(9, TRAIN_NAMESPACE, i)))
            assert sample.seed == _pack_seed(9, TRAIN_NAMESPACE, i)

    @pytest.mark.parametrize("count", range(101))
    def test_grid_scene(self, count):
        for seed in range(3):
            sample = grid_instances_scene(seed % 3, count, np.random.default_rng(seed))
            assert_equals_dense(sample, dense_grid_scene(seed % 3, count,
                                                         np.random.default_rng(seed)))


def placements(count, sides=(64, 120, 97)):
    """(shape, side, cx, cy, sx, sy) of seeded random shapes: sizes from 3
    to half the side with both ends of the default range drawn often,
    centres from half a size off the frame to half a size past it, a
    quarter of them snapped to a .5 boundary and some with an edge exactly
    on the frame's edge."""
    rng = np.random.default_rng(22)
    for i in range(count):
        side = sides[i % len(sides)]
        shape = int(rng.integers(0, 3))
        ends = [3.0, 10.0, 26.0, side / 2]
        sx, sy = (float(rng.choice(ends)) if rng.random() < 0.3
                  else rng.uniform(3.0, side / 2) for _ in range(2))
        cx, cy = (rng.uniform(-size / 2, side + size / 2) for size in (sx, sy))
        if rng.random() < 0.25:
            cx, cy = round(2 * cx) / 2, round(2 * cy) / 2
        if rng.random() < 0.1:
            cx = sx / 2 if rng.random() < 0.5 else side - 1 - sx / 2
        yield shape, side, cx, cy, sx, sy


def windowed_frame(side, rows, cols, mask):
    frame = np.zeros((side, side), dtype=bool)
    frame[rows, cols] = mask
    return frame


class TestWindowedRaster:
    """A shape is tested only inside its window; the full-frame test is the
    reference, and it must be false everywhere else."""

    def test_equals_the_full_frame_raster(self):
        shapes = set()
        for shape, side, cx, cy, sx, sy in placements(6000):
            rows, cols, mask = _raster(shape, side, cx, cy, sx, sy)
            dense = dense_raster(shape, side, cx, cy, sx, sy)
            assert mask.shape == (rows.stop - rows.start, cols.stop - cols.start)
            assert windowed_frame(side, rows, cols, mask).tobytes() == dense.tobytes()
            if dense.any():
                shapes.add((shape, side))
                assert (_extent_box(mask, side, rows.start, cols.start).tobytes()
                        == dense_extent_box(dense).tobytes())
        assert len(shapes) == 9            # every shape on every side

    def test_window_keeps_a_pixel_of_margin(self):
        # the window holds every pixel within one pixel of the shape's reach,
        # in exact arithmetic, so rounding cannot push a true pixel outside
        for shape, side, cx, cy, sx, sy in placements(3000):
            rows, cols, _ = _raster(shape, side, cx, cy, sx, sy)
            if shape % 3 == 1:
                sx = sy = min(sx, sy)
            for span, centre, size in ((rows, cy, sy), (cols, cx, sx)):
                reach = Fraction(size) / 2 + 1
                lo = min(max(math.ceil(Fraction(centre) - reach), 0), side)
                hi = max(min(math.floor(Fraction(centre) + reach) + 1, side), 0)
                assert 0 <= span.start <= span.stop <= side
                assert lo >= hi or span.start <= lo and span.stop >= hi

    @pytest.mark.parametrize("min_visible", [0.0, 0.3, 0.5, 0.99, 1.0])
    def test_visibility_equals_the_full_frame_count(self, min_visible):
        shapes = list(placements(2000, sides=(64,)))
        decisions = set()
        for i in range(0, len(shapes), 4):
            windowed, dense = [], []
            for shape, side, cx, cy, sx, sy in shapes[i:i + 3]:
                rows, cols, mask = _raster(shape, side, cx, cy, sx, sy)
                windowed.append((rows, cols, mask, np.count_nonzero(mask)))
                dense.append(dense_raster(shape, side, cx, cy, sx, sy))
            shape, side, cx, cy, sx, sy = shapes[i + 3]
            rows, cols, mask = _raster(shape, side, cx, cy, sx, sy)
            want = dense_visibility_ok(dense, dense_raster(shape, side, cx, cy, sx, sy),
                                       min_visible)
            assert _visibility_ok(windowed, rows, cols, mask, min_visible) == want
            decisions.add(want)
        assert decisions == ({True} if min_visible == 0.0 else {True, False})


class TestLabelStorage:
    def test_default_train_set_is_small(self):
        tracemalloc.start()
        try:
            samples = build_dataset(SyntheticConfig(), 512, TRAIN_NAMESPACE, 0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(samples) == 512
        assert held < 8 * 2**20

    def test_image_is_a_fresh_contiguous_read(self):
        for sample in (generate_scene(SyntheticConfig(stuff_classes=2), np.random.default_rng(1)),
                       grid_instances_scene(2, 30, np.random.default_rng(1))):
            image = sample.image
            assert image.flags.c_contiguous and image.dtype == np.float64
            before = image.copy()
            image[:] = -1.0
            assert (sample.image == before).all()

    def test_from_image_round_trips_a_raw_file(self, tmp_path):
        path = str(tmp_path / "scene.simg")
        save_image_raw(path, build_dataset(SyntheticConfig(), 1, TRAIN_NAMESPACE, 4)[0].image)
        image = load_image_raw(path)
        sample = Sample.from_image(image, TargetSet.empty())
        assert sample.labels.dtype == np.uint8
        assert sample.image.tobytes() == image.tobytes()
        assert sample.masks is None and sample.stuff_map is None

    def test_from_image_round_trips_many_colours(self):
        image = np.random.default_rng(2).random((3, 24, 20))
        image[:, 0, :2] = [[0.0, -0.0]] * 3           # equal, but not the same bits
        sample = Sample.from_image(image, TargetSet.empty())
        assert sample.labels.dtype == np.uint16 and sample.palette.shape == (3, 480)
        assert sample.image.tobytes() == image.tobytes()
        assert sample.image.flags.c_contiguous


# a 2x3 two-colour sample with one target, whose mask is the colour-1 pixels
VALID = {"labels": np.array([[0, 1, 1], [0, 0, 1]], dtype=np.uint8),
         "palette": np.array([[0.1, 0.9]] * 3), "mask_labels": [1],
         "targets": TargetSet.create([0], [[0.5, 0.5, 0.5, 0.5]]),
         "stuff_map": np.full((2, 3), 3, dtype=np.uint8)}


class TestMalformedStorage:
    def test_valid_sample_accepted(self):
        assert Sample(**VALID).masks.tolist() == [[[False, True, True], [False, False, True]]]

    @pytest.mark.parametrize("field, value, error", [
        ("labels", VALID["labels"][None], DimensionError),
        ("labels", VALID["labels"].astype(np.int64), ValueError),
        ("labels", VALID["labels"].astype(np.float64), ValueError),
        ("labels", np.array([[0, 1, 2], [0, 0, 1]], dtype=np.uint8), ValueError),
        ("palette", VALID["palette"][:2], DimensionError),
        ("palette", VALID["palette"][0], DimensionError),
        ("palette", VALID["palette"].astype(np.float32), ValueError),
        ("palette", np.array([[0.1, np.nan]] * 3), ValueError),
        ("mask_labels", [2], ValueError),
        ("mask_labels", [-1], ValueError),
        ("mask_labels", [1.0], ValueError),
        ("mask_labels", [0, 1], ValueError),
        ("stuff_map", np.full((3, 2), 3, dtype=np.uint8), DimensionError),
    ], ids=["labels-3d", "labels-signed", "labels-float", "label-index", "palette-shape",
            "palette-1d", "palette-float32", "palette-nan", "mask-label-index",
            "mask-label-negative", "mask-label-float", "mask-label-count", "stuff-map-shape"])
    def test_rejected_naming_the_field(self, field, value, error):
        with pytest.raises(error, match=f"^{field} "):
            Sample(**{**VALID, field: value})


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

    @pytest.mark.parametrize("class_id, num_classes, limit", [
        (-1, 3, 3), (3, 3, 3), (2, 2, 2), (7, 3, 3), (6, 8, 6)])
    def test_class_id_validated(self, class_id, num_classes, limit):
        with pytest.raises(ValueError, match=rf"^class_id must be in \[0, {limit}\), "
                                             f"got {class_id}"):
            grid_instances_scene(class_id, 5, np.random.default_rng(0),
                                 num_classes=num_classes)

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
        # boxes that are not 4 numbers in [0, 1], and synthetic seeds that are
        # not integers >= 0
        box_cases = ([0.5, 0.5, 1.2, 0.2], [float("nan"), 0.5, 0.2, 0.2],
                     ["0.5", 0.5, 0.2, 0.2], [True, 0.5, 0.2, 0.2])
        for bad in (*({"objects": [{"class": 0, "box": box}]} for box in box_cases),
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

"""Synthetic detection scenes and annotation io.

Scenes are rendered back-to-front: filled rectangles, discs and
triangles with per-class base colors and jitter, over one or two stuff
background bands.  Boxes tightly bound each object's own rasterized
extent; per-object masks keep only the visible (un-occluded) pixels.
Generation is a pure function of the supplied RNG, so datasets are
reproducible bit-for-bit from (seed, index).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .matching import TargetSet

IMAGE_MAGIC = b"SIMG"

_THING_COLORS = np.array([
    [0.85, 0.25, 0.20],   # rectangle
    [0.20, 0.75, 0.30],   # disc
    [0.25, 0.35, 0.90],   # triangle
    [0.85, 0.80, 0.20],
    [0.75, 0.25, 0.80],
    [0.20, 0.80, 0.80],
])
_STUFF_COLORS = np.array([
    [0.55, 0.55, 0.55],
    [0.35, 0.30, 0.25],
])


class GenerationError(RuntimeError):
    """Scene constraints could not be satisfied within the retry budget."""


class AnnotationError(ValueError):
    """Malformed annotation record; message carries the record index."""


@dataclass
class SyntheticConfig:
    """Scene recipe; thing classes cycle through rectangle/disc/triangle."""

    image_side: int = 64
    num_classes: int = 3              # thing classes
    min_objects: int = 1
    max_objects: int = 5
    size_range: tuple = (10, 26)      # object extent in pixels
    color_jitter: float = 0.10
    stuff_classes: int = 1            # background bands (1 or 2)
    min_visible: float = 0.30         # occlusion cap
    include_stuff_boxes: bool = False  # emit stuff bands as boxed targets

    def __post_init__(self):
        self.size_range = tuple(self.size_range)
        if not 1 <= self.stuff_classes <= len(_STUFF_COLORS):
            raise ValueError(f"stuff_classes must be 1..{len(_STUFF_COLORS)}")
        if self.num_classes < 1 or self.num_classes > len(_THING_COLORS):
            raise ValueError(f"num_classes must be 1..{len(_THING_COLORS)}")
        if self.max_objects < self.min_objects or self.min_objects < 0:
            raise ValueError("invalid object count range")
        if self.size_range[0] < 3 or self.size_range[1] > self.image_side // 2:
            raise ValueError(f"size range {self.size_range} unusable for "
                             f"side {self.image_side}")

    def to_dict(self) -> dict:
        return {
            "image_side": self.image_side, "num_classes": self.num_classes,
            "min_objects": self.min_objects, "max_objects": self.max_objects,
            "size_range": list(self.size_range), "color_jitter": self.color_jitter,
            "stuff_classes": self.stuff_classes, "min_visible": self.min_visible,
            "include_stuff_boxes": self.include_stuff_boxes,
        }

    @staticmethod
    def from_dict(data: dict) -> "SyntheticConfig":
        return SyntheticConfig(**data)


@dataclass
class Sample:
    """One scene: image in [0,1], targets, and panoptic ground truth."""

    image: np.ndarray                 # [3, H, W]
    targets: TargetSet
    masks: np.ndarray | None = None   # [m, H, W] bool, visible pixels only
    stuff_map: np.ndarray | None = None  # [H, W] stuff class id per pixel
    seed: int | None = None


def _pixel_grid(side: int):
    ys, xs = np.mgrid[0:side, 0:side].astype(np.float64)
    return ys, xs


def _raster(shape: int, side: int, cx: float, cy: float, size_x: float,
            size_y: float) -> np.ndarray:
    """Rasterize one shape onto pixel centers; kind cycles rect/disc/triangle."""
    ys, xs = _pixel_grid(side)
    kind = shape % 3
    if kind == 0:
        return (np.abs(xs - cx) <= size_x / 2) & (np.abs(ys - cy) <= size_y / 2)
    if kind == 1:
        r = min(size_x, size_y) / 2
        return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    # upward triangle: apex on top, base at the bottom edge of the extent
    half_w = size_x / 2
    h = size_y
    top = cy - h / 2
    bottom = cy + h / 2
    inside_y = (ys >= top) & (ys <= bottom)
    frac = np.clip((ys - top) / max(h, 1e-9), 0.0, 1.0)
    return inside_y & (np.abs(xs - cx) <= frac * half_w)


def _extent_box(mask: np.ndarray) -> np.ndarray:
    """Tight normalized (cx, cy, w, h) around a mask's true pixels."""
    side_y, side_x = mask.shape
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if len(rows) == 0:
        raise GenerationError("shape rasterized to an empty mask")
    y0, y1 = rows[0], rows[-1]
    x0, x1 = cols[0], cols[-1]
    return np.array([
        (x0 + x1 + 1) / 2.0 / side_x,
        (y0 + y1 + 1) / 2.0 / side_y,
        (x1 - x0 + 1) / side_x,
        (y1 - y0 + 1) / side_y,
    ])


def _background(cfg: SyntheticConfig, rng) -> tuple[np.ndarray, np.ndarray]:
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


def generate_scene(cfg: SyntheticConfig, rng: np.random.Generator) -> Sample:
    """Render one scene; raises GenerationError after 100 failed placements."""
    side = cfg.image_side
    image, stuff_map = _background(cfg, rng)
    count = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    own_masks: list[np.ndarray] = []
    classes: list[int] = []
    boxes: list[np.ndarray] = []

    for _ in range(count):
        cls = int(rng.integers(0, cfg.num_classes))
        placed = False
        for _ in range(100):
            sx = rng.uniform(*cfg.size_range)
            sy = rng.uniform(*cfg.size_range)
            if cls % 3 == 1:
                sy = sx                        # discs are round
            cx = rng.uniform(sx / 2 + 1.0, side - 1.0 - sx / 2)
            cy = rng.uniform(sy / 2 + 1.0, side - 1.0 - sy / 2)
            mask = _raster(cls, side, cx, cy, sx, sy)
            if not mask.any():
                continue
            if _visibility_ok(own_masks, mask, cfg.min_visible):
                placed = True
                break
        if not placed:
            raise GenerationError(
                f"could not place object {len(own_masks)} within 100 retries")
        own_masks.append(mask)
        classes.append(cls)
        boxes.append(_extent_box(mask))
        jitter = rng.uniform(-cfg.color_jitter, cfg.color_jitter, 3)
        color = np.clip(_THING_COLORS[cls] + jitter, 0.0, 1.0)
        image[:, mask] = color[:, None]

    visible = _visible_masks(own_masks)
    if cfg.include_stuff_boxes:
        thing_cover = np.zeros((side, side), dtype=bool)
        for m in own_masks:
            thing_cover |= m
        for stuff_cls in sorted(set(stuff_map.reshape(-1).tolist())):
            region = stuff_map == stuff_cls
            classes.append(int(stuff_cls))
            boxes.append(_extent_box(region))
            visible.append(region & ~thing_cover)
    targets = (TargetSet.create(classes, np.stack(boxes)) if classes
               else TargetSet.empty())
    masks = np.stack(visible) if visible else np.zeros((0, side, side), dtype=bool)
    return Sample(image=image, targets=targets, masks=masks, stuff_map=stuff_map)


def _visibility_ok(own_masks, new_mask, min_visible) -> bool:
    cover = new_mask
    for prev in own_masks:
        remaining = prev & ~cover
        if remaining.sum() < min_visible * prev.sum():
            return False
    return True


def _visible_masks(own_masks):
    visible = []
    cover = None
    for mask in reversed(own_masks):          # front-most drawn last
        visible.append(mask if cover is None else mask & ~cover)
        cover = mask if cover is None else (cover | mask)
    return list(reversed(visible))


def grid_instances_scene(class_id: int, count: int, rng: np.random.Generator,
                         side: int = 120, object_size: float | None = None,
                         num_classes: int = 3) -> Sample:
    """A canonical object tiled on a 10x10 grid with random cells masked.

    Exactly ``count`` of the 100 cells are visible; the object's
    absolute size never changes with the count, so only the instance
    number varies.  ``side`` must be divisible by 10 so every cell gets
    an identical integer-aligned raster.
    """
    if not 0 <= count <= 100:
        raise ValueError(f"count must be 0..100, got {count}")
    if side % 10 != 0:
        raise ValueError(f"grid side must be divisible by 10, got {side}")
    cell = side // 10
    if object_size is None:
        object_size = max(4, int(0.8 * cell))
    image = np.zeros((3, side, side))
    image[:] = _STUFF_COLORS[0][:, None, None]
    stuff_map = np.full((side, side), num_classes, dtype=np.int64)
    visible_cells = rng.choice(100, size=count, replace=False)
    color = _THING_COLORS[class_id]
    own_masks = []
    boxes = []
    for cell_idx in sorted(visible_cells.tolist()):
        gy, gx = divmod(cell_idx, 10)
        cx = gx * cell + cell // 2
        cy = gy * cell + cell // 2
        mask = _raster(class_id, side, cx, cy, object_size, object_size)
        own_masks.append(mask)
        boxes.append(_extent_box(mask))
        image[:, mask] = color[:, None]
    targets = (TargetSet.create([class_id] * count, np.stack(boxes)) if count
               else TargetSet.empty())
    masks = np.stack(own_masks) if own_masks else np.zeros((0, side, side), dtype=bool)
    return Sample(image=image, targets=targets, masks=masks, stuff_map=stuff_map)


def scene_rng(seed: int, namespace: int, index: int) -> np.random.Generator:
    """Deterministic per-scene RNG stream."""
    return np.random.default_rng([seed, namespace, index])


TRAIN_NAMESPACE = 0
VAL_NAMESPACE = 1


def build_dataset(cfg: SyntheticConfig, count: int, namespace: int,
                  seed: int) -> list[Sample]:
    """Fixed dataset of ``count`` scenes: scene i is pure in (seed, ns, i)."""
    samples = []
    for i in range(count):
        sample = generate_scene(cfg, scene_rng(seed, namespace, i))
        sample.seed = _pack_seed(seed, namespace, i)
        samples.append(sample)
    return samples


def _pack_seed(seed: int, namespace: int, index: int) -> int:
    """One int from (seed, namespace, index); rejects values that would alias."""
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    if not 0 <= namespace < 16:
        raise ValueError(f"namespace {namespace} outside [0, 16)")
    if not 0 <= index < 1 << 20:
        raise ValueError(f"index {index} outside [0, 2**20)")
    return (seed << 24) | (namespace << 20) | index


def _unpack_seed(packed: int) -> tuple[int, int, int]:
    return packed >> 24, (packed >> 20) & 0xF, packed & 0xFFFFF


# -- annotations ---------------------------------------------------------------

@dataclass
class SampleRef:
    """Annotation record: targets plus a way to rematerialize the image."""

    id: int
    width: int
    height: int
    targets: TargetSet
    synthetic_seed: int | None = None
    file: str | None = None

    def materialize(self, cfg: SyntheticConfig) -> Sample:
        if self.file is not None:
            image = load_image_raw(self.file)
            h, w = image.shape[1:]
            if (w, h) != (self.width, self.height):
                raise AnnotationError(
                    f"record {self.id}: {self.file} is {w}x{h}, the record "
                    f"says {self.width}x{self.height}")
            return Sample(image=image, targets=self.targets)
        if self.synthetic_seed is None:
            raise AnnotationError(f"record {self.id} has neither file nor seed")
        seed, ns, idx = _unpack_seed(self.synthetic_seed)
        sample = generate_scene(cfg, scene_rng(seed, ns, idx))
        sample.seed = self.synthetic_seed
        return sample


def save_annotations(samples, path: str, start_id: int = 0):
    """Write the JSON annotation file for a list of Samples or SampleRefs."""
    records = []
    for i, sample in enumerate(samples):
        if isinstance(sample, SampleRef):
            record = {
                "id": sample.id, "width": sample.width, "height": sample.height,
                "objects": _objects_json(sample.targets),
            }
            if sample.file is not None:
                record["file"] = sample.file
            else:
                record["synthetic_seed"] = sample.synthetic_seed
        else:
            h, w = sample.image.shape[1:]
            record = {"id": start_id + i, "width": w, "height": h,
                      "objects": _objects_json(sample.targets)}
            if sample.seed is not None:
                record["synthetic_seed"] = sample.seed
        records.append(record)
    with open(path, "w") as fh:
        json.dump({"images": records}, fh, indent=1)


def _objects_json(targets: TargetSet):
    return [{"class": int(c), "box": [float(v) for v in b]}
            for c, b in zip(targets.classes, targets.boxes)]


def load_annotations(path: str, num_classes: int | None = None) -> list[SampleRef]:
    """Parse and validate the annotation schema.

    Boxes must be componentwise in [0, 1]; class ids must be integers,
    and < K when ``num_classes`` is given; ``file``, if set, is a path
    string.  Violations raise AnnotationError naming the offending
    record index.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"malformed JSON: {exc}") from None
    if not isinstance(data, dict) or "images" not in data:
        raise AnnotationError("top-level object must contain 'images'")
    refs = []
    for index, record in enumerate(data["images"]):
        try:
            classes = []
            boxes = []
            for obj in record.get("objects", []):
                cls = obj["class"]
                if type(cls) is not int:
                    raise AnnotationError(
                        f"record {index}: class {cls!r} is not an integer")
                box = [float(v) for v in obj["box"]]
                if len(box) != 4 or any(v < 0.0 or v > 1.0 for v in box):
                    raise AnnotationError(
                        f"record {index}: box {box} outside [0,1]^4")
                if cls < 0 or (num_classes is not None and cls >= num_classes):
                    raise AnnotationError(f"record {index}: unknown class {cls}")
                classes.append(cls)
                boxes.append(box)
            targets = (TargetSet.create(classes, boxes) if classes
                       else TargetSet.empty())
            seed = record.get("synthetic_seed")
            if seed is not None and (type(seed) is not int or seed < 0):
                raise AnnotationError(
                    f"record {index}: synthetic_seed {seed!r} is not an integer >= 0")
            if type(record["id"]) is not int:
                raise AnnotationError(
                    f"record {index}: id {record['id']!r} is not an integer")
            for field in ("width", "height"):
                if type(record[field]) is not int or record[field] < 1:
                    raise AnnotationError(
                        f"record {index}: {field} {record[field]!r} is not an integer >= 1")
            file = record.get("file")
            if file is not None and type(file) is not str:
                raise AnnotationError(f"record {index}: file {file!r} is not a string")
            refs.append(SampleRef(
                id=record["id"], width=record["width"], height=record["height"],
                targets=targets, synthetic_seed=seed, file=file))
        except AnnotationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise AnnotationError(f"record {index}: {exc}") from None
    return refs


# -- raw image io --------------------------------------------------------------

def save_image_raw(path: str, image: np.ndarray):
    """Portable raw RGB: magic, u32 height/width, u8 row-major pixels."""
    _, h, w = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(IMAGE_MAGIC)
        fh.write(struct.pack("<II", h, w))
        fh.write(pixels.transpose(1, 2, 0).tobytes())


def load_image_raw(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != IMAGE_MAGIC:
        raise AnnotationError(f"bad image magic {buf[:4]!r}")
    if len(buf) < 12:
        raise AnnotationError(f"image header truncated at {len(buf)} bytes")
    h, w = struct.unpack("<II", buf[4:12])
    if len(buf) - 12 != h * w * 3:
        raise AnnotationError(f"{h}x{w} image needs {h * w * 3} pixel bytes, "
                              f"found {len(buf) - 12}")
    raw = np.frombuffer(buf, dtype=np.uint8, offset=12)
    return raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0

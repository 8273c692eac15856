"""Synthetic detection scenes and annotation io.

Scenes are rendered back-to-front: filled rectangles, discs and
triangles with per-class base colors and jitter, over one or two stuff
background bands.  Each shape is rasterized only inside its window, the
block of pixels its extent can reach plus a pixel of margin; its box, its
overlap with earlier objects and its label write are all worked out on
that block.  Boxes tightly bound each object's own rasterized extent;
per-object masks keep only the visible (un-occluded) pixels.
Generation is a pure function of the supplied RNG, so datasets are
reproducible bit-for-bit from (seed, index).

A scene is flat colours, so it is stored as in the COCO panoptic format:
one palette index per pixel (``Sample.labels``, the smallest unsigned
dtype that fits) and one colour per index (``Sample.palette``, [3, L]).
Each band and each object owns one index, so an object's visible mask is
the set of pixels that hold its index.  The image and the masks are
computed from these on each read; a 64x64 scene with its stuff map takes
about 8 KB instead of the 128 KB of a float64 image and stuff map.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .layers import ConfigError, check_bool, check_int, check_real
from .matching import TargetSet
from .tensor import DimensionError

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


@dataclass(frozen=True)
class SyntheticConfig:
    """Scene recipe; thing classes cycle through rectangle/disc/triangle."""

    image_side: int = 64
    num_classes: int = 3              # thing classes
    min_objects: int = 1
    max_objects: int = 5
    size_range: tuple = (10, 26)      # object extent in pixels
    color_jitter: float = 0.10
    stuff_classes: int = 1            # background bands (1 or 2)
    # Placing an object must leave each earlier object min_visible of its
    # area uncovered by the new object alone; objects drawn later can cover
    # it further, so this is no floor on the share that stays visible.
    min_visible: float = 0.30
    include_stuff_boxes: bool = False  # emit stuff bands as boxed targets

    def __post_init__(self):
        size_range = self.size_range
        if (not isinstance(size_range, (list, tuple)) or len(size_range) != 2
                or any(type(v) is not int for v in size_range)):
            raise ConfigError(f"size_range must be a pair of ints, got {size_range!r}")
        object.__setattr__(self, "size_range", tuple(size_range))
        check_int("size_range[0]", self.size_range[0], 3)
        # the largest object must fit in half the image
        check_int("image_side", self.image_side, 2 * self.size_range[1])
        for name, low in (("num_classes", 1), ("min_objects", 0),
                          ("max_objects", self.min_objects), ("stuff_classes", 1)):
            check_int(name, getattr(self, name), low)
        check_bool("include_stuff_boxes", self.include_stuff_boxes)
        check_real("color_jitter", self.color_jitter)
        check_real("min_visible", self.min_visible, high=1, high_open=False)
        for name, high in (("stuff_classes", len(_STUFF_COLORS)),
                           ("num_classes", len(_THING_COLORS))):
            if getattr(self, name) > high:
                raise ConfigError(f"{name} must be at most {high}, got {getattr(self, name)}")

    @property
    def num_target_classes(self) -> int:
        """Class ids a target can take: the things, then one per stuff band
        when the bands are boxed targets (band b is class num_classes + b)."""
        return self.num_classes + self.include_stuff_boxes * self.stuff_classes

    @property
    def max_targets(self) -> int:
        """Most targets one scene holds: its objects plus any boxed bands."""
        return self.max_objects + self.include_stuff_boxes * self.stuff_classes


@dataclass
class Sample:
    """One scene: a palette index per pixel, targets, and panoptic ground truth.

    ``image`` and ``masks`` are computed from ``labels`` on each read, so
    each read returns a fresh array and writing into it changes nothing.
    ``mask_labels`` holds the palette index of each target's visible
    region; it is None for a box-only sample, whose ``masks`` is then
    None.  ``Sample.from_image`` encodes any dense image exactly.
    """

    labels: np.ndarray                # [H, W] unsigned palette index per pixel
    palette: np.ndarray               # [3, L] float64 colour per index
    targets: TargetSet
    mask_labels: np.ndarray | None = None  # [m] palette index of each target
    stuff_map: np.ndarray | None = None    # [H, W] stuff class id per pixel
    seed: int | None = None

    def __post_init__(self):
        self.labels = labels = np.asarray(self.labels)
        self.palette = palette = np.ascontiguousarray(self.palette)
        if labels.ndim != 2:
            raise DimensionError(f"labels must be [H, W], got shape {labels.shape}")
        if labels.dtype.kind != "u":
            raise ValueError(f"labels must be unsigned integers, got {labels.dtype}")
        if palette.ndim != 2 or palette.shape[0] != 3:
            raise DimensionError(f"palette must be [3, L], got shape {palette.shape}")
        if palette.dtype != np.float64:
            raise ValueError(f"palette must be float64, got {palette.dtype}")
        if not np.isfinite(palette).all():
            raise ValueError("palette holds a non-finite colour")
        size = palette.shape[1]
        if labels.size and labels.max() >= size:
            raise ValueError(f"labels hold index {labels.max()}, the palette has "
                             f"{size} colours")
        if self.mask_labels is not None:
            self.mask_labels = mask_labels = np.asarray(self.mask_labels)
            if mask_labels.ndim != 1 or len(mask_labels) != len(self.targets):
                raise ValueError(f"mask_labels must hold one index per target "
                                 f"({len(self.targets)}), got shape {mask_labels.shape}")
            if len(mask_labels) and (mask_labels.dtype.kind not in "ui" or not
                                     0 <= mask_labels.min() <= mask_labels.max() < size):
                raise ValueError(f"mask_labels {mask_labels.tolist()} are not indices "
                                 f"into the palette's {size} colours")
        if self.stuff_map is not None and self.stuff_map.shape != labels.shape:
            raise DimensionError(f"stuff_map has shape {self.stuff_map.shape}, "
                                 f"labels {labels.shape}")

    @property
    def image(self) -> np.ndarray:
        """[3, H, W] float64, C-contiguous and fresh on each read."""
        return np.take(self.palette, self.labels, axis=1)

    @property
    def masks(self) -> np.ndarray | None:
        """[m, H, W] bool, the visible pixels of each target, or None."""
        if self.mask_labels is None:
            return None
        return self.labels[None] == self.mask_labels[:, None, None]

    @classmethod
    def from_image(cls, image: np.ndarray, targets: TargetSet) -> "Sample":
        """A box-only sample of a dense [3, H, W] image, which ``image``
        reads back bit for bit."""
        image = np.ascontiguousarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[0] != 3:
            raise DimensionError(f"image must be [3, H, W], got shape {image.shape}")
        # unique over the bit patterns, so that -0.0 and 0.0 stay apart
        colours, inverse = np.unique(image.reshape(3, -1).view(np.uint64), axis=1,
                                     return_inverse=True)
        labels = inverse.reshape(image.shape[1:]).astype(_index_dtype(colours.shape[1]))
        return cls(labels=labels, palette=colours.view(np.float64), targets=targets)


def _index_dtype(size: int) -> np.dtype:
    """Smallest unsigned dtype that holds the indices 0..size-1."""
    return np.min_scalar_type(max(size - 1, 0))


@functools.lru_cache(maxsize=None)
def _coords(side: int) -> np.ndarray:
    """Pixel-centre coordinates 0..side-1 as float64, shared and read-only."""
    coords = np.arange(side, dtype=np.float64)
    coords.flags.writeable = False
    return coords


def _span(centre: float, half: float, side: int) -> slice:
    """The pixels of one axis a shape reaching ``half`` either side of
    ``centre`` can cover, clipped to the frame.

    A pixel p passes a shape's test only if |p - centre| <= half up to
    rounding, so floor(centre - half) <= p <= floor(centre + half); one
    more pixel on each side absorbs any rounding of those bounds.
    """
    lo = min(max(math.floor(centre - half) - 1, 0), side)
    return slice(lo, max(min(math.floor(centre + half) + 2, side), lo))


def _raster(shape: int, side: int, cx: float, cy: float, size_x: float,
            size_y: float) -> tuple[slice, slice, np.ndarray]:
    """Rasterize one shape onto pixel centres; kind cycles rect/disc/triangle.

    The shape is tested only inside its window, the block of the
    side x side frame that its extent can reach (``_span``), and every
    pixel outside it is false.  Returns the window's row and column slices
    and the window's mask, each pixel decided by the same float64 test as
    on the whole frame.
    """
    kind = shape % 3
    half_x, half_y = size_x / 2, size_y / 2
    if kind == 1:                              # a disc takes the smaller size
        half_x = half_y = min(size_x, size_y) / 2
    rows, cols = _span(cy, half_y, side), _span(cx, half_x, side)
    ys, xs = _coords(side)[rows, None], _coords(side)[cols]
    if kind == 0:
        return rows, cols, (np.abs(xs - cx) <= half_x) & (np.abs(ys - cy) <= half_y)
    if kind == 1:
        return rows, cols, (xs - cx) ** 2 + (ys - cy) ** 2 <= half_x * half_x
    # upward triangle: apex on top, base at the bottom edge of the extent
    top = cy - half_y
    inside_y = (ys >= top) & (ys <= cy + half_y)
    frac = np.clip((ys - top) / max(size_y, 1e-9), 0.0, 1.0)
    return rows, cols, inside_y & (np.abs(xs - cx) <= frac * half_x)


def _extent_box(mask: np.ndarray, side: int, top: int = 0, left: int = 0) -> np.ndarray:
    """Tight normalized (cx, cy, w, h) around a mask's true pixels.

    ``mask`` is the block of a side x side frame whose first pixel is
    row ``top``, column ``left``.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if len(rows) == 0:
        raise GenerationError("shape rasterized to an empty mask")
    y0, y1 = rows[0] + top, rows[-1] + top
    x0, x1 = cols[0] + left, cols[-1] + left
    return np.array([
        (x0 + x1 + 1) / 2.0 / side,
        (y0 + y1 + 1) / 2.0 / side,
        (x1 - x0 + 1) / side,
        (y1 - y0 + 1) / side,
    ])


def _background(cfg: SyntheticConfig, rng) -> tuple[np.ndarray, list]:
    """Band index per pixel (uint8) and one colour per band."""
    side = cfg.image_side
    jitter = cfg.color_jitter

    def color(base):
        return np.clip(base + rng.uniform(-jitter, jitter, 3), 0.0, 1.0)

    bands = np.zeros((side, side), dtype=np.uint8)
    if cfg.stuff_classes == 1:
        return bands, [color(_STUFF_COLORS[0])]
    split = int(rng.integers(side // 3, 2 * side // 3))
    bands[split:, :] = 1
    return bands, [color(_STUFF_COLORS[0]), color(_STUFF_COLORS[1])]


def generate_scene(cfg: SyntheticConfig, rng: np.random.Generator) -> Sample:
    """Render one scene; raises GenerationError after 100 failed placements.

    Each object overwrites the labels under it with its own palette index,
    so the pixels left holding an index are that object's visible mask.
    """
    side = cfg.image_side
    bands, palette = _background(cfg, rng)
    num_bands = len(palette)
    count = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    labels = bands.astype(_index_dtype(num_bands + count))
    placed: list[tuple] = []          # (rows, cols, mask, area) of each object
    classes: list[int] = []
    boxes: list[np.ndarray] = []

    for _ in range(count):
        cls = int(rng.integers(0, cfg.num_classes))
        for _ in range(100):
            sx = rng.uniform(*cfg.size_range)
            sy = rng.uniform(*cfg.size_range)
            if cls % 3 == 1:
                sy = sx                        # discs are round
            cx = rng.uniform(sx / 2 + 1.0, side - 1.0 - sx / 2)
            cy = rng.uniform(sy / 2 + 1.0, side - 1.0 - sy / 2)
            rows, cols, mask = _raster(cls, side, cx, cy, sx, sy)
            if mask.any() and _visibility_ok(placed, rows, cols, mask, cfg.min_visible):
                break
        else:
            raise GenerationError(
                f"could not place object {len(placed)} within 100 retries")
        placed.append((rows, cols, mask, np.count_nonzero(mask)))
        classes.append(cls)
        boxes.append(_extent_box(mask, side, rows.start, cols.start))
        jitter = rng.uniform(-cfg.color_jitter, cfg.color_jitter, 3)
        labels[rows, cols][mask] = len(palette)
        palette.append(np.clip(_THING_COLORS[cls] + jitter, 0.0, 1.0))

    mask_labels = list(range(num_bands, num_bands + count))
    if cfg.include_stuff_boxes:
        for band in range(num_bands):
            classes.append(cfg.num_classes + band)
            boxes.append(_extent_box(bands == band, side))
            mask_labels.append(band)          # the band's pixels no object covers
    targets = (TargetSet.create(classes, np.stack(boxes)) if classes
               else TargetSet.empty())
    return Sample(labels=labels, palette=np.stack(palette, axis=1), targets=targets,
                  mask_labels=np.array(mask_labels, dtype=labels.dtype),
                  stuff_map=bands + np.uint8(cfg.num_classes))


def _visibility_ok(placed, rows, cols, mask, min_visible) -> bool:
    """Whether each earlier object keeps ``min_visible`` of its area
    uncovered by the new one.

    ``placed`` holds each earlier object's window, mask and pixel count;
    the new object is ``mask`` on the window ``rows``, ``cols``.  Two
    shapes can share only pixels where their windows meet, so the overlap
    is counted on that block alone.
    """
    for prev_rows, prev_cols, prev, area in placed:
        y0, y1 = max(rows.start, prev_rows.start), min(rows.stop, prev_rows.stop)
        x0, x1 = max(cols.start, prev_cols.start), min(cols.stop, prev_cols.stop)
        if y0 >= y1 or x0 >= x1:
            continue                          # the windows do not meet
        overlap = np.count_nonzero(
            prev[y0 - prev_rows.start:y1 - prev_rows.start,
                 x0 - prev_cols.start:x1 - prev_cols.start]
            & mask[y0 - rows.start:y1 - rows.start, x0 - cols.start:x1 - cols.start])
        if area - overlap < min_visible * area:
            return False
    return True


def grid_instances_scene(class_id: int, count: int, rng: np.random.Generator,
                         side: int = 120, object_size: float | None = None,
                         num_classes: int = 3) -> Sample:
    """A canonical object tiled on a 10x10 grid with random cells masked.

    Exactly ``count`` of the 100 cells are visible; the object's
    absolute size never changes with the count, so only the instance
    number varies.  ``side`` must be divisible by 10 so every cell gets
    an identical integer-aligned raster.  Each mask holds its object's
    visible pixels; cells are drawn in index order, and objects overlap
    only when ``object_size`` is at least the cell size.
    """
    if not 0 <= count <= 100:
        raise ValueError(f"count must be 0..100, got {count}")
    limit = min(num_classes, len(_THING_COLORS))     # only thing classes have a colour
    if not 0 <= class_id < limit:
        raise ValueError(f"class_id must be in [0, {limit}), got {class_id}")
    if side % 10 != 0:
        raise ValueError(f"grid side must be divisible by 10, got {side}")
    cell = side // 10
    if object_size is None:
        object_size = max(4, int(0.8 * cell))
    labels = np.zeros((side, side), dtype=_index_dtype(1 + count))
    stuff_map = np.full((side, side), num_classes, dtype=_index_dtype(num_classes + 1))
    visible_cells = rng.choice(100, size=count, replace=False)
    boxes = []
    for cell_idx in sorted(visible_cells.tolist()):
        gy, gx = divmod(cell_idx, 10)
        cx = gx * cell + cell // 2
        cy = gy * cell + cell // 2
        rows, cols, mask = _raster(class_id, side, cx, cy, object_size, object_size)
        boxes.append(_extent_box(mask, side, rows.start, cols.start))
        labels[rows, cols][mask] = len(boxes)
    targets = (TargetSet.create([class_id] * count, np.stack(boxes)) if count
               else TargetSet.empty())
    palette = np.repeat(_THING_COLORS[class_id][:, None], 1 + count, axis=1)
    palette[:, 0] = _STUFF_COLORS[0]
    return Sample(labels=labels, palette=palette, targets=targets,
                  mask_labels=np.arange(1, 1 + count, dtype=labels.dtype),
                  stuff_map=stuff_map)


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
            return Sample.from_image(image, self.targets)
        if self.synthetic_seed is None:
            raise AnnotationError(f"record {self.id} has neither file nor seed")
        seed, ns, idx = _unpack_seed(self.synthetic_seed)
        sample = generate_scene(cfg, scene_rng(seed, ns, idx))
        sample.seed = self.synthetic_seed
        return sample


def save_annotations(samples, path: str):
    """Write the JSON annotation file of a list of Samples; record i has id i."""
    records = []
    for i, sample in enumerate(samples):
        h, w = sample.labels.shape
        record = {"id": i, "width": w, "height": h,
                  "objects": [{"class": int(c), "box": [float(v) for v in b]}
                              for c, b in zip(sample.targets.classes, sample.targets.boxes)]}
        if sample.seed is not None:
            record["synthetic_seed"] = sample.seed
        records.append(record)
    with open(path, "w") as fh:
        json.dump({"images": records}, fh, indent=1)


def load_annotations(path: str, num_classes: int | None = None) -> list[SampleRef]:
    """Parse and validate the annotation schema.

    Boxes must be 4 JSON numbers in [0, 1]; class ids must be integers,
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
                box = obj["box"]
                if type(box) is not list or len(box) != 4 or any(
                        type(v) not in (int, float) or not 0 <= v <= 1 for v in box):
                    raise AnnotationError(
                        f"record {index}: box {box!r} is not 4 numbers in [0, 1]")
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

"""Mask head over decoder slots and the unified panoptic merge.

The head takes a batch, as the detector does: the final decoder
embeddings [B,d,N] and the encoder memory [B,d,HW].  Each slot embedding
attends over its image's memory, producing one heatmap per attention
head; a small conv + bilinear-upsample stack turns the stacked heatmaps
into per-slot mask logits at twice the feature resolution (stride 4 for
the default stride-8 backbone).  Merging works on one image: a per-pixel
argmax over confident slots, followed by collapsing stuff classes and
removing tiny segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import ConfigError, check_unit_interval, kaiming_uniform, xavier_uniform
from .tensor import Parameter, Tensor

MASK_CONV_WIDTH = 8               # channels of the first conv


@dataclass(frozen=True)
class SegmentInfo:
    class_id: int
    is_thing: bool


@dataclass
class PanopticMap:
    """Label map of segment ids (0 = void) plus the segment table."""

    labels: np.ndarray                # [H, W] int
    segments: dict                    # id -> SegmentInfo

    @property
    def shape(self):
        return self.labels.shape

    def area(self, segment_id: int) -> int:
        return int((self.labels == segment_id).sum())


@dataclass
class MaskOutput:
    """Per-slot mask logits plus the raw per-head heatmaps of a batch."""

    logits: Tensor                    # [B, N, 2h, 2w]
    heatmaps: Tensor                  # [B, M, N, HW], rows sum to 1 over HW


class MaskHead:
    """Multi-head attention heatmaps -> conv stack -> per-slot logits."""

    def __init__(self, d: int, num_heads: int, rng, name: str = "mask_head"):
        if d % num_heads != 0:
            raise ConfigError(f"width {d} not divisible by {num_heads} heads")
        self.d = d
        self.num_heads = num_heads
        self.d_head = d // num_heads
        stack = lambda: np.stack([
            xavier_uniform(rng, (self.d_head, d), d, self.d_head)
            for _ in range(num_heads)])
        self.q_proj = Parameter(f"{name}.q_proj.weight", Tensor(stack()))
        self.k_proj = Parameter(f"{name}.k_proj.weight", Tensor(stack()))
        self.q_bias = Parameter(f"{name}.q_proj.bias",
                                Tensor(np.zeros((num_heads, self.d_head, 1))))
        self.k_bias = Parameter(f"{name}.k_proj.bias",
                                Tensor(np.zeros((num_heads, self.d_head, 1))))
        hidden = MASK_CONV_WIDTH
        self.conv1_w = Parameter(f"{name}.conv1.weight",
                                 Tensor(kaiming_uniform(rng, (hidden, num_heads, 3, 3),
                                                        num_heads * 9)))
        self.conv1_b = Parameter(f"{name}.conv1.bias", Tensor(np.zeros(hidden)))
        self.conv2_w = Parameter(f"{name}.conv2.weight",
                                 Tensor(kaiming_uniform(rng, (1, hidden, 3, 3), hidden * 9)))
        self.conv2_b = Parameter(f"{name}.conv2.bias", Tensor(np.zeros(1)))

    def parameters(self):
        return [self.q_proj, self.q_bias, self.k_proj, self.k_bias,
                self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b]

    def zero_grad(self):
        for p in self.parameters():
            p.tensor.zero_grad()

    def attention_maps(self, decoder_embs: Tensor, memory: Tensor) -> Tensor:
        """Heatmaps [B, M, N, HW]; each row is a softmax over the HW grid."""
        if decoder_embs.ndim != 3 or memory.ndim != 3:
            raise T.DimensionError(f"mask head needs [B,d,N] embeddings and [B,d,HW] "
                                   f"memory, got {decoder_embs.shape} and {memory.shape}")
        batch, d, n = decoder_embs.shape
        q = T.matmul(self.q_proj.tensor, T.reshape(decoder_embs, (batch, 1, d, n))) \
            + self.q_bias.tensor                                  # [B,M,dh,N]
        k = T.matmul(self.k_proj.tensor, T.reshape(memory, (batch, 1, d, memory.shape[-1]))) \
            + self.k_bias.tensor                                  # [B,M,dh,HW]
        scores = T.matmul(T.transpose(q * (1.0 / math.sqrt(self.d_head))), k)
        return T.softmax_lastdim(scores)

    def __call__(self, decoder_embs: Tensor, memory: Tensor,
                 height: int, width: int) -> MaskOutput:
        """Mask logits [B,N,2h,2w] for [B,d,N] embeddings and [B,d,HW] memory."""
        if memory.shape[-1] != height * width:
            raise T.DimensionError(
                f"memory length {memory.shape[-1]} != {height}x{width}")
        heat = self.attention_maps(decoder_embs, memory)          # [B,M,N,HW]
        batch, _, n = decoder_embs.shape
        maps = T.reshape(T.transpose(heat, (0, 2, 1, 3)),
                         (batch * n, self.num_heads, height, width))
        x = T.relu(T.conv2d(maps, self.conv1_w.tensor, self.conv1_b.tensor,
                            padding=1))
        x = T.upsample2x_bilinear(x)
        x = T.conv2d(x, self.conv2_w.tensor, self.conv2_b.tensor, padding=1)
        logits = T.reshape(x, (batch, n, 2 * height, 2 * width))
        return MaskOutput(logits=logits, heatmaps=heat)


def panoptic_merge(mask_logits: np.ndarray, confidences: np.ndarray,
                   classes: np.ndarray, thing_classes: int,
                   conf_thresh: float = 0.85, min_area: int = 4) -> PanopticMap:
    """Fuse per-slot masks into a disjoint segmentation.

    Slots below the confidence threshold are dropped; each pixel goes to
    the highest-logit surviving slot; slots of the same stuff class
    collapse into one segment; segments smaller than ``min_area`` are
    deleted and their pixels move to the next-best surviving slot (void
    if none remains).
    """
    check_unit_interval("conf_thresh", conf_thresh)
    mask_logits = np.asarray(mask_logits, dtype=np.float64)
    confidences = np.asarray(confidences, dtype=np.float64)
    classes = np.asarray(classes, dtype=np.int64)
    n, h, w = mask_logits.shape
    labels = np.zeros((h, w), dtype=np.int64)
    keep = np.flatnonzero(confidences >= conf_thresh)
    if len(keep) == 0:
        return PanopticMap(labels=labels, segments={})

    logits = mask_logits[keep]                      # [k, h, w]
    kept_classes = classes[keep]

    # slot -> segment id, collapsing stuff classes into one segment
    seg_of_slot = np.zeros(len(keep), dtype=np.int64)
    segments: dict[int, SegmentInfo] = {}
    stuff_segment: dict[int, int] = {}
    next_id = 1
    for i, cls in enumerate(kept_classes):
        is_thing = cls < thing_classes
        if not is_thing and int(cls) in stuff_segment:
            seg_of_slot[i] = stuff_segment[int(cls)]
            continue
        seg_of_slot[i] = next_id
        segments[next_id] = SegmentInfo(int(cls), bool(is_thing))
        if not is_thing:
            stuff_segment[int(cls)] = next_id
        next_id += 1

    winner = np.argmax(logits, axis=0)              # [h, w] kept-slot index
    labels = seg_of_slot[winner]

    ids, areas = np.unique(labels, return_counts=True)
    dead = {int(s) for s, a in zip(ids, areas) if a < min_area}
    if dead:
        alive_slots = np.array([i for i in range(len(keep))
                                if seg_of_slot[i] not in dead])
        dead_pixels = np.isin(labels, list(dead))
        if len(alive_slots) == 0:
            labels[dead_pixels] = 0
        else:
            ys, xs = np.nonzero(dead_pixels)
            if len(ys):
                best = alive_slots[np.argmax(logits[alive_slots][:, ys, xs], axis=0)]
                labels[ys, xs] = seg_of_slot[best]
        for seg in dead:
            segments.pop(seg, None)

    present = set(np.unique(labels).tolist()) - {0}
    segments = {sid: info for sid, info in segments.items() if sid in present}
    return PanopticMap(labels=labels, segments=segments)


def panoptic_from_sample(sample, num_thing_classes: int) -> PanopticMap:
    """Ground-truth PanopticMap from a synthetic Sample."""
    stuff = sample.stuff_map
    h, w = stuff.shape
    labels = np.zeros((h, w), dtype=np.int64)
    segments = {}
    next_id = 1
    for cls in sorted(set(stuff.reshape(-1).tolist())):
        region = stuff == cls
        labels[region] = next_id
        segments[next_id] = SegmentInfo(int(cls), False)
        next_id += 1
    masks = sample.masks if sample.masks is not None else []
    for cls, mask in zip(sample.targets.classes, masks):
        # stuff boxes carry their band's mask; stuff_map already labels it
        if cls >= num_thing_classes or not mask.any():
            continue
        labels[mask] = next_id
        segments[next_id] = SegmentInfo(int(cls), True)
        next_id += 1
    present = set(np.unique(labels).tolist()) - {0}
    segments = {sid: info for sid, info in segments.items() if sid in present}
    return PanopticMap(labels=labels, segments=segments)


def downsample_map(pmap: PanopticMap, factor: int) -> PanopticMap:
    """Majority-vote downsampling (for comparing against stride-4 masks)."""
    h, w = pmap.labels.shape
    hh, ww = h // factor, w // factor
    blocks = pmap.labels[:hh * factor, :ww * factor] \
        .reshape(hh, factor, ww, factor).transpose(0, 2, 1, 3).reshape(hh, ww, -1)
    out = np.zeros((hh, ww), dtype=np.int64)
    for i in range(hh):
        for j in range(ww):
            vals, counts = np.unique(blocks[i, j], return_counts=True)
            out[i, j] = vals[np.argmax(counts)]
    present = set(np.unique(out).tolist()) - {0}
    segments = {sid: info for sid, info in pmap.segments.items() if sid in present}
    return PanopticMap(labels=out, segments=segments)

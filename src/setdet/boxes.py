"""Box geometry on normalized (cx, cy, w, h) coordinates.

Two parallel implementations live here on purpose: plain-numpy pairwise
functions for cost matrices and metrics, and tape-recorded versions for
the differentiable loss path.  Both compute areas from min/max of corner
coordinates so values stay piecewise-differentiable, with denominators
clamped so degenerate zero-area boxes give IoU 0 instead of 0/0.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

_AREA_EPS = 1e-12


def box_corners(boxes: np.ndarray) -> np.ndarray:
    """(cx, cy, w, h) -> (x0, y0, x1, y1), any leading shape."""
    boxes = np.asarray(boxes, dtype=np.float64)
    cx, cy, w, h = boxes[..., 0], boxes[..., 1], boxes[..., 2], boxes[..., 3]
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU, [..., m, 4] x [..., n, 4] -> [..., m, n]; zero-area
    pairs give 0.  Leading axes broadcast: [I, m, 4] x [I, n, 4] gives one
    [m, n] matrix per image, each equal to that image's 2-D call."""
    inter, union = _inter_union(*_pairwise_corners(boxes_a, boxes_b))
    return inter / np.maximum(union, _AREA_EPS)


def giou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise generalized IoU in [-1, 1], shaped as ``iou_matrix``."""
    ca, cb = _pairwise_corners(boxes_a, boxes_b)
    inter, union = _inter_union(ca, cb)
    iou = inter / np.maximum(union, _AREA_EPS)
    hull = ((np.maximum(ca[..., 2], cb[..., 2]) - np.minimum(ca[..., 0], cb[..., 0]))
            * (np.maximum(ca[..., 3], cb[..., 3]) - np.minimum(ca[..., 1], cb[..., 1])))
    return iou - (hull - union) / np.maximum(hull, _AREA_EPS)


def _pairwise_corners(boxes_a, boxes_b):
    """Corners broadcast for pairing: [..., m, 1, 4] and [..., 1, n, 4]."""
    return box_corners(boxes_a)[..., :, None, :], box_corners(boxes_b)[..., None, :, :]


def _inter_union(ca, cb):
    iw = np.maximum(np.minimum(ca[..., 2], cb[..., 2])
                    - np.maximum(ca[..., 0], cb[..., 0]), 0.0)
    ih = np.maximum(np.minimum(ca[..., 3], cb[..., 3])
                    - np.maximum(ca[..., 1], cb[..., 1]), 0.0)
    inter = iw * ih
    area_a = (ca[..., 2] - ca[..., 0]) * (ca[..., 3] - ca[..., 1])
    area_b = (cb[..., 2] - cb[..., 0]) * (cb[..., 3] - cb[..., 1])
    return inter, area_a + area_b - inter


def _corners_t(boxes: Tensor):
    cx = T.take(boxes, [0], axis=-1 + boxes.ndim)
    cy = T.take(boxes, [1], axis=-1 + boxes.ndim)
    w = T.take(boxes, [2], axis=-1 + boxes.ndim)
    h = T.take(boxes, [3], axis=-1 + boxes.ndim)
    half_w = w * 0.5
    half_h = h * 0.5
    return cx - half_w, cy - half_h, cx + half_w, cy + half_h


def giou_tensor(pred: Tensor, target) -> Tensor:
    """Differentiable elementwise GIoU of aligned box lists [k, 4] -> [k, 1]."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    ax0, ay0, ax1, ay1 = _corners_t(pred)
    bx0, by0, bx1, by1 = _corners_t(target)
    iw = T.maximum(T.minimum(ax1, bx1) - T.maximum(ax0, bx0), 0.0)
    ih = T.maximum(T.minimum(ay1, by1) - T.maximum(ay0, by0), 0.0)
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    iou = inter / T.maximum(union, _AREA_EPS)
    hull = (T.maximum(ax1, bx1) - T.minimum(ax0, bx0)) \
        * (T.maximum(ay1, by1) - T.minimum(ay0, by0))
    return iou - (hull - union) / T.maximum(hull, _AREA_EPS)


def l1_tensor(pred: Tensor, target) -> Tensor:
    """Differentiable per-pair L1 box distance, [k, 4] -> [k, 1]."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    return T.tsum(T.absolute(pred - target), axis=-1, keepdims=True)

"""Detection metrics: pairwise IoU, COCO-style average precision with
101-point interpolation, greedy class-wise NMS, and panoptic quality.

Headline AP is the mean over IoU thresholds 0.50:0.05:0.95 and over
classes.  Size buckets split ground truth by box area fraction of the
image: small < 1/64, medium < 1/16, large otherwise (the 64x64 analogue
of the usual 32^2/96^2 pixel cutoffs).

As in pycocotools' COCOeval, each image's IoUs within a class are computed
once, and every IoU threshold and size bucket is matched against them.  A
class is scored in one pass over all I images: its detections and ground
truth are padded into [I, n_max, 4] and [I, m_max, 4] stacks, giving one
[I, n_max, m_max] IoU tensor and one greedy match per class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .boxes import iou_matrix
from .layers import check_unit_interval
from .segmentation import PanopticMap

IOU_THRESHOLDS = np.arange(0.50, 0.96, 0.05)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
# box-area ranges [lo, hi): all, small, medium, large
AREA_RANGES = ((-np.inf, np.inf), (0.0, 1 / 64), (1 / 64, 1 / 16), (1 / 16, np.inf))


@dataclass
class EvalReport:
    """Aggregate detection metrics; values in [0, 1], NaN when undefined."""

    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float
    per_class_ap: dict

    def to_dict(self) -> dict:
        return {
            "AP": self.ap, "AP50": self.ap50, "AP75": self.ap75,
            "AP_S": self.ap_small, "AP_M": self.ap_medium, "AP_L": self.ap_large,
            "per_class_AP": {str(k): v for k, v in self.per_class_ap.items()},
        }

    def to_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, allow_nan=True)


def greedy_match(ious, thresholds, ignored=None) -> np.ndarray:
    """Greedy matching of ranked detections to ground truth, per threshold.

    ``ious`` is [..., n, m] with rows in descending detection confidence;
    each leading index (an image, say) is a problem of its own.  At each of
    the T ``thresholds``, a row takes the not yet taken column of highest
    IoU >= threshold (the first on ties).  Columns flagged in ``ignored``
    (broadcast against [..., T, m]: [m] for every threshold, or one mask
    per threshold) are tried only when no other column qualifies.  Returns
    [..., T, n]: the column each row took, or -1.
    """
    ious = np.asarray(ious, dtype=np.float64)
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    *batch, n, m = ious.shape
    took = np.full((n, *batch, len(thresholds)), -1)
    if m == 0:
        return np.moveaxis(took, 0, -1)
    # columns lead, so each reduction over them is m whole-array passes
    # instead of one short reduction per (..., threshold)
    ious = np.moveaxis(ious, -1, 0)[..., None]                    # [m, ..., n, 1]
    ignored = np.moveaxis(np.broadcast_to(False if ignored is None else ignored,
                                          (*batch, len(thresholds), m)), -1, 0)
    taken = np.zeros(ignored.shape, dtype=bool)                   # [m, ..., T]
    columns = np.arange(m).reshape(m, *[1] * (taken.ndim - 1))
    pools = (~ignored, ignored)
    for i in range(n):
        for pool in pools:
            free = np.where(pool & ~taken, ious[..., i, :], -1.0)
            top = free.max(axis=0)
            best = np.where(free == top, columns, m).min(axis=0)  # first column at the top
            hit = (took[i] < 0) & (top >= thresholds)
            took[i][hit] = best[hit]
            taken |= hit & (columns == best)
    return np.moveaxis(took, 0, -1)


def _pad(rows, image, num_images):
    """Flat ``rows`` grouped by a non-decreasing ``image`` index -> the
    zero-padded [I, k_max, ...] stack and its [I, k_max] mask of real rows;
    each image keeps its rows' order."""
    counts = np.bincount(image, minlength=num_images)
    slot = np.arange(len(image)) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.zeros((num_images, counts.max(initial=0), *rows.shape[1:]))
    padded[image, slot] = rows
    return padded, np.arange(padded.shape[1]) < counts[:, None]


def _class_ap(scores, det_boxes, det_image, gt_boxes, gt_image, num_images,
              thresholds, area_ranges) -> np.ndarray:
    """AP of one class at every area range and threshold, [R, T].

    Detections (``scores`` [D], ``det_boxes`` [D, 4]) and ground truth
    (``gt_boxes`` [G, 4]) come flat in image order, with each row's image in
    ``det_image`` / ``gt_image``; ``average_precision`` gives the rules.
    Both sides are padded to one [I, k_max, 4] stack, so one IoU tensor and
    one greedy match serve every image; padded pairs get IoU -1 and never
    reach a threshold.
    """
    num_t = len(thresholds)
    # one (range, threshold) pair per row: [R*T, 1]
    lo, hi = np.repeat(np.asarray(area_ranges, dtype=np.float64).T, num_t, axis=1)[:, :, None]
    # descending confidence within each image, ties in detection order
    order = np.lexsort((-scores, det_image))
    scores, det_image = scores[order], det_image[order]
    dets, det_real = _pad(det_boxes[order], det_image, num_images)    # [I, n, 4]
    gts, gt_real = _pad(gt_boxes, gt_image, num_images)               # [I, m, 4]
    ious = np.where(det_real[:, :, None] & gt_real[:, None, :], iou_matrix(dets, gts), -1.0)
    det_area = (dets[..., 2] * dets[..., 3])[:, None, :]
    # padding and an appended column have NaN area, in no range; a row that
    # took no column reads the appended one
    gt_area = np.where(gt_real, gts[..., 2] * gts[..., 3], np.nan)
    gt_area = np.pad(gt_area, ((0, 0), (0, 1)), constant_values=np.nan)[:, None, :]
    gt_inside = (gt_area >= lo) & (gt_area < hi)                       # [I, R*T, m+1]
    took = greedy_match(ious, np.tile(thresholds, len(area_ranges)), ~gt_inside[..., :-1])
    # +1 true positive, -1 false positive, 0 drops out of the curve
    outcomes = np.where(took >= 0, np.take_along_axis(gt_inside, took, axis=-1),
                        -1 * ((det_area >= lo) & (det_area < hi)))
    total_gt = gt_inside.sum(axis=(0, 2))

    # real rows in image, then detection order; ties in confidence keep it
    rank = np.argsort(-scores, kind="stable")
    outcomes = outcomes.transpose(1, 0, 2)[:, det_real][:, rank]
    aps = np.full(len(outcomes), np.nan)
    for k in np.flatnonzero(total_gt):
        tp = np.cumsum(outcomes[k][outcomes[k] != 0] > 0)
        aps[k] = _interpolated_ap(tp / total_gt[k], tp / np.arange(1, len(tp) + 1))
    return aps.reshape(len(area_ranges), num_t)


def _image_index(per_image) -> np.ndarray:
    """The image of each row when the per-image lists are concatenated."""
    return np.repeat(np.arange(len(per_image)), [len(rows) for rows in per_image])


def average_precision(detections_by_image, gts_by_image, iou_thresh: float,
                      area_bucket: tuple | None = None) -> float:
    """Single-threshold AP over a set of images (class-agnostic core).

    ``detections_by_image``: per image, a list of (confidence, box).
    ``gts_by_image``: per image, an [m, 4] array of boxes.  Detections
    are taken in descending confidence and greedily matched to the
    not-yet-matched ground truth of highest IoU >= threshold; the
    precision-recall curve is integrated at 101 recall points.

    With ``area_bucket`` = (lo, hi), ground truth outside the bucket is
    ignored: detections matching ignored boxes (or unmatched detections
    whose own area is outside the bucket) drop out of the curve.
    """
    return float(_class_ap(*_flatten(detections_by_image, gts_by_image), [iou_thresh],
                           [area_bucket or AREA_RANGES[0]])[0, 0])


def _flatten(detections_by_image, gts_by_image) -> tuple:
    """Per-image (confidence, box) lists and [m, 4] arrays -> the leading
    arguments of ``_class_ap``."""
    if len(detections_by_image) != len(gts_by_image):
        raise ValueError(f"{len(detections_by_image)} detection lists for "
                         f"{len(gts_by_image)} images")
    dets = [det for image_dets in detections_by_image for det in image_dets]
    gts = [np.asarray(g, dtype=np.float64).reshape(-1, 4) for g in gts_by_image]
    return (np.array([conf for conf, _ in dets], dtype=np.float64),
            np.array([box for _, box in dets], dtype=np.float64).reshape(-1, 4),
            _image_index(detections_by_image), np.concatenate([np.zeros((0, 4)), *gts]),
            _image_index(gts), len(gts))


def _interpolated_ap(recall, precision) -> float:
    # max precision at any recall >= r, evaluated at the 101 grid points;
    # index -1 (no such recall, or no detections) reads the appended 0
    order = np.argsort(-recall, kind="stable")
    max_prec = np.append(np.maximum.accumulate(precision[order]), 0.0)
    idx = np.searchsorted(-recall[order], -RECALL_POINTS, side="right") - 1
    return float(max_prec[idx].mean())


def _mean_over_classes(values) -> float:
    values = values[~np.isnan(values)]
    return float(np.mean(values)) if values.size else float("nan")


def _by_class(classes, num_classes: int) -> list:
    """Row indices of each class in 0..num_classes-1, in row order; other
    class ids are in no list."""
    order = np.argsort(classes, kind="stable")
    bounds = np.searchsorted(classes[order], np.arange(num_classes + 1))
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def evaluate_detections(detections, target_sets, num_classes: int) -> EvalReport:
    """Full COCO-style report; per-class APs averaged over thresholds."""
    scores, det_boxes, det_image, gt_boxes, gt_image, num_images = _flatten(
        [[(d.confidence, d.box) for d in image_dets] for image_dets in detections],
        [ts.boxes for ts in target_sets])
    det_rows = _by_class(np.array([d.class_id for image_dets in detections
                                   for d in image_dets], dtype=np.int64), num_classes)
    gt_rows = _by_class(np.concatenate([np.zeros(0, dtype=np.int64),
                                        *(ts.classes for ts in target_sets)]), num_classes)
    grid = {}
    for cls, (d, g) in enumerate(zip(det_rows, gt_rows)):
        if len(g):
            grid[cls] = _class_ap(scores[d], det_boxes[d], det_image[d], gt_boxes[g],
                                  gt_image[g], num_images, IOU_THRESHOLDS, AREA_RANGES)
    aps = np.array(list(grid.values())).reshape(-1, len(AREA_RANGES), len(IOU_THRESHOLDS))
    by_range = aps.mean(axis=2)                                          # [C, R]
    return EvalReport(
        ap=_mean_over_classes(by_range[:, 0]),
        ap50=_mean_over_classes(aps[:, 0, 0]),
        ap75=_mean_over_classes(aps[:, 0, 5]),
        ap_small=_mean_over_classes(by_range[:, 1]),
        ap_medium=_mean_over_classes(by_range[:, 2]),
        ap_large=_mean_over_classes(by_range[:, 3]),
        per_class_ap={cls: float(v) for cls, v in zip(grid, by_range[:, 0])},
    )


def nms(detections: list, iou_thresh: float = 0.5) -> list:
    """Greedy class-wise suppression: keep the highest-confidence box,
    drop same-class boxes overlapping a kept one with IoU > threshold."""
    check_unit_interval("iou_thresh", iou_thresh)
    if not detections:
        return []
    boxes = np.stack([d.box for d in detections])
    classes = np.array([d.class_id for d in detections])
    suppresses = (iou_matrix(boxes, boxes) > iou_thresh) & (classes[:, None] == classes)
    order = sorted(range(len(detections)),
                   key=lambda i: -detections[i].confidence)
    kept: list[int] = []
    for i in order:
        if not suppresses[i, kept].any():
            kept.append(i)
    kept.sort()
    return [detections[i] for i in kept]


@dataclass
class PQResult:
    pq: float
    sq: float
    rq: float
    pq_things: float
    pq_stuff: float
    true_positives: int
    false_positives: int
    false_negatives: int


def panoptic_quality(pred: PanopticMap, gt: PanopticMap) -> PQResult:
    """Pooled panoptic quality.

    Same-class segment pairs with IoU > 0.5 are matches (the threshold
    makes matches unique); PQ = sum of matched IoUs over
    (TP + FP/2 + FN/2), with SQ x RQ the usual factorization.  Things
    and stuff additionally get their own pooled PQ.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"resolution mismatch: {pred.shape} vs {gt.shape}")
    matches = []           # (iou, pred_id, gt_id, is_thing)
    matched_pred = set()
    matched_gt = set()
    pred_areas = {sid: pred.area(sid) for sid in pred.segments}
    for gid, ginfo in gt.segments.items():
        g_mask = gt.labels == gid
        g_area = int(g_mask.sum())
        overlap_ids, overlap_counts = np.unique(pred.labels[g_mask],
                                                return_counts=True)
        for pid, inter in zip(overlap_ids, overlap_counts):
            pid = int(pid)
            if pid == 0 or pid not in pred.segments:
                continue
            pinfo = pred.segments[pid]
            if pinfo.class_id != ginfo.class_id:
                continue
            union = g_area + pred_areas[pid] - int(inter)
            iou = inter / union if union else 0.0
            if iou > 0.5:
                matches.append((iou, pid, gid, ginfo.is_thing))
                matched_pred.add(pid)
                matched_gt.add(gid)

    def pooled(thing_filter):
        tp = [m for m in matches if thing_filter(m[3])]
        fp = [pid for pid, info in pred.segments.items()
              if pid not in matched_pred and thing_filter(info.is_thing)]
        fn = [gid for gid, info in gt.segments.items()
              if gid not in matched_gt and thing_filter(info.is_thing)]
        denom = len(tp) + 0.5 * len(fp) + 0.5 * len(fn)
        iou_sum = sum(m[0] for m in tp)
        pq = iou_sum / denom if denom else float("nan")
        sq = iou_sum / len(tp) if tp else 0.0
        rq = len(tp) / denom if denom else float("nan")
        return pq, sq, rq, len(tp), len(fp), len(fn)

    pq, sq, rq, tp, fp, fn = pooled(lambda is_thing: True)
    pq_th = pooled(lambda is_thing: is_thing)[0]
    pq_st = pooled(lambda is_thing: not is_thing)[0]
    return PQResult(pq=pq, sq=sq, rq=rq, pq_things=pq_th, pq_stuff=pq_st,
                    true_positives=tp, false_positives=fp, false_negatives=fn)

"""Detection metrics: pairwise IoU, COCO-style average precision with
101-point interpolation, greedy class-wise NMS, and panoptic quality.

Headline AP is the mean over IoU thresholds 0.50:0.05:0.95 and over
classes.  Size buckets split ground truth by box area fraction of the
image: small < 1/64, medium < 1/16, large otherwise (the 64x64 analogue
of the usual 32^2/96^2 pixel cutoffs).

As in pycocotools' COCOeval, IoU is computed once per image and class, and
every IoU threshold and size bucket is matched against that one matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .boxes import iou_matrix
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

    ``ious`` is [n, m] with rows in descending detection confidence.  At
    each of the T ``thresholds``, a row takes the not yet taken column of
    highest IoU >= threshold (the first on ties).  Columns flagged in
    ``ignored`` ([m], or [T, m] for one mask per threshold) are tried only
    when no other column qualifies.  Returns [T, n]: the column each row
    took, or -1.
    """
    ious = np.asarray(ious, dtype=np.float64)
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    n, m = ious.shape
    ignored = np.broadcast_to(False if ignored is None else ignored, (len(thresholds), m))
    taken = np.zeros((len(thresholds), m), dtype=bool)
    took = np.full((len(thresholds), n), -1)
    if m == 0:
        return took
    for i, row in enumerate(ious):
        for pool in (~ignored, ignored):
            free = np.where(pool & ~taken, row, -1.0)
            best = free.argmax(axis=1)
            hit = (took[:, i] < 0) & (free.max(axis=1) >= thresholds)
            took[hit, i] = best[hit]
            taken[hit, best[hit]] = True
    return took


def _class_ap(detections_by_image, gts_by_image, thresholds, area_ranges) -> np.ndarray:
    """AP of one class at every area range and threshold, [R, T], from one
    IoU matrix per image; ``average_precision`` gives the rules."""
    num_t = len(thresholds)
    # one (range, threshold) pair per row: [R*T, 1]
    lo, hi = np.repeat(np.asarray(area_ranges, dtype=np.float64).T, num_t, axis=1)[:, :, None]
    confidences, outcomes, total_gt = [], [np.zeros((len(lo), 0), dtype=int)], 0
    for dets, gts in zip(detections_by_image, gts_by_image):
        dets = sorted(dets, key=lambda d: -d[0])
        boxes = np.array([box for _, box in dets], dtype=np.float64).reshape(-1, 4)
        gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
        det_area = boxes[:, 2] * boxes[:, 3]
        # the appended NaN area lies in no range; a row that took no column reads it
        gt_area = np.append(gts[:, 2] * gts[:, 3], np.nan)
        gt_inside = (gt_area >= lo) & (gt_area < hi)
        took = greedy_match(iou_matrix(boxes, gts), np.tile(thresholds, len(area_ranges)),
                            ~gt_inside[:, :-1])
        # +1 true positive, -1 false positive, 0 drops out of the curve
        outcomes.append(np.where(took >= 0, np.take_along_axis(gt_inside, took, axis=1),
                                 -1 * ((det_area >= lo) & (det_area < hi))))
        total_gt = total_gt + gt_inside.sum(axis=1)
        confidences.extend(conf for conf, _ in dets)

    # descending confidence; ties keep image order, then detection order
    rank = np.argsort(-np.asarray(confidences, dtype=np.float64), kind="stable")
    outcomes = np.concatenate(outcomes, axis=1)[:, rank]
    aps = np.full(len(outcomes), np.nan)
    for k in np.flatnonzero(total_gt):
        tp = np.cumsum(outcomes[k][outcomes[k] != 0] > 0)
        aps[k] = _interpolated_ap(tp / total_gt[k], tp / np.arange(1, len(tp) + 1))
    return aps.reshape(len(area_ranges), num_t)


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
    return float(_class_ap(detections_by_image, gts_by_image, [iou_thresh],
                           [area_bucket or AREA_RANGES[0]])[0, 0])


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


def evaluate_detections(detections, target_sets, num_classes: int) -> EvalReport:
    """Full COCO-style report; per-class APs averaged over thresholds."""
    grid = {}
    for cls in range(num_classes):
        dets = [[(d.confidence, d.box) for d in image_dets if d.class_id == cls]
                for image_dets in detections]
        gts = [ts.boxes[ts.classes == cls] for ts in target_sets]
        if sum(len(g) for g in gts):
            grid[cls] = _class_ap(dets, gts, IOU_THRESHOLDS, AREA_RANGES)
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

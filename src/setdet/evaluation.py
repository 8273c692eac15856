"""Detection metrics: pairwise IoU, COCO-style average precision with
101-point interpolation, greedy class-wise NMS, and panoptic quality.

Headline AP is the mean over IoU thresholds 0.50:0.05:0.95 and over
classes.  Size buckets split ground truth by box area fraction of the
image: small < 1/64, medium < 1/16, large otherwise (the 64x64 analogue
of the usual 32^2/96^2 pixel cutoffs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .boxes import iou_matrix
from .detector import Detection
from .segmentation import PanopticMap

IOU_THRESHOLDS = np.arange(0.50, 0.96, 0.05)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
SMALL_AREA = 1.0 / 64.0
MEDIUM_AREA = 1.0 / 16.0


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
    records = []      # (confidence, image, det_index)
    for img, dets in enumerate(detections_by_image):
        for di, (conf, _) in enumerate(dets):
            records.append((-conf, img, di))
    records.sort()

    gt_matched = [np.zeros(len(g), dtype=bool) for g in gts_by_image]
    gt_ignored = []
    total_gt = 0
    for g in gts_by_image:
        g = np.asarray(g, dtype=np.float64).reshape(-1, 4)
        if area_bucket is None:
            ignored = np.zeros(len(g), dtype=bool)
        else:
            areas = g[:, 2] * g[:, 3]
            ignored = ~((areas >= area_bucket[0]) & (areas < area_bucket[1]))
        gt_ignored.append(ignored)
        total_gt += int((~ignored).sum())

    flags = []        # True = true positive, False = false positive
    for _, img, di in records:
        conf, box = detections_by_image[img][di]
        gts = np.asarray(gts_by_image[img], dtype=np.float64).reshape(-1, 4)
        if len(gts) == 0:
            ious = np.zeros(0)
        else:
            ious = iou_matrix(np.asarray(box).reshape(1, 4), gts)[0]
        ignored = gt_ignored[img]
        matched = gt_matched[img]
        candidates = np.where(~matched & ~ignored, ious, -1.0)
        best = int(np.argmax(candidates)) if len(gts) else -1
        if best >= 0 and candidates[best] >= iou_thresh:
            matched[best] = True
            flags.append(True)
            continue
        # no real match; an ignored ground truth can absorb the detection
        if area_bucket is not None:
            ignorable = np.where(~matched & ignored, ious, -1.0)
            alt = int(np.argmax(ignorable)) if len(gts) else -1
            if alt >= 0 and ignorable[alt] >= iou_thresh:
                matched[alt] = True
                continue
            area = float(box[2] * box[3])
            if not (area_bucket[0] <= area < area_bucket[1]):
                continue
        flags.append(False)

    if total_gt == 0:
        return float("nan")
    if not flags:
        return 0.0
    tp = np.cumsum(flags)
    fp = np.cumsum([not f for f in flags])
    recall = tp / total_gt
    precision = tp / np.maximum(tp + fp, 1)
    return _interpolated_ap(recall, precision)


def _interpolated_ap(recall, precision) -> float:
    # max precision at any recall >= r, evaluated at the 101 grid points
    order = np.argsort(-recall, kind="stable")
    max_prec = np.maximum.accumulate(precision[order])
    rec_desc = recall[order]
    idx = np.searchsorted(-rec_desc, -RECALL_POINTS, side="right") - 1
    values = np.where(idx >= 0, max_prec[np.clip(idx, 0, None)], 0.0)
    return float(values.mean())


def _split_by_class(detections, target_sets, class_id):
    dets = [[(d.confidence, d.box) for d in image_dets if d.class_id == class_id]
            for image_dets in detections]
    gts = [ts.boxes[ts.classes == class_id] for ts in target_sets]
    return dets, gts


def evaluate_detections(detections, target_sets, num_classes: int) -> EvalReport:
    """Full COCO-style report; per-class APs averaged over thresholds."""
    per_class = {}
    grid = {}
    for cls in range(num_classes):
        dets, gts = _split_by_class(detections, target_sets, cls)
        if sum(len(g) for g in gts) == 0:
            continue
        aps = [average_precision(dets, gts, t) for t in IOU_THRESHOLDS]
        grid[cls] = aps
        per_class[cls] = float(np.mean(aps))

    def mean_at(thresh_index=None, bucket=None):
        if not grid:
            return float("nan")
        if bucket is None:
            if thresh_index is None:
                return float(np.mean([np.mean(v) for v in grid.values()]))
            return float(np.mean([v[thresh_index] for v in grid.values()]))
        values = []
        for cls in grid:
            dets, gts = _split_by_class(detections, target_sets, cls)
            aps = [average_precision(dets, gts, t, area_bucket=bucket)
                   for t in IOU_THRESHOLDS]
            aps = [a for a in aps if not np.isnan(a)]
            if aps:
                values.append(np.mean(aps))
        return float(np.mean(values)) if values else float("nan")

    return EvalReport(
        ap=mean_at(),
        ap50=mean_at(thresh_index=0),
        ap75=mean_at(thresh_index=5),
        ap_small=mean_at(bucket=(0.0, SMALL_AREA)),
        ap_medium=mean_at(bucket=(SMALL_AREA, MEDIUM_AREA)),
        ap_large=mean_at(bucket=(MEDIUM_AREA, np.inf)),
        per_class_ap=per_class,
    )


def nms(detections: list, iou_thresh: float = 0.5) -> list:
    """Greedy class-wise suppression: keep the highest-confidence box,
    drop same-class boxes overlapping a kept one with IoU > threshold."""
    if not detections:
        return []
    order = sorted(range(len(detections)),
                   key=lambda i: -detections[i].confidence)
    kept: list[int] = []
    for i in order:
        det = detections[i]
        suppressed = False
        for j in kept:
            other = detections[j]
            if other.class_id != det.class_id:
                continue
            iou = iou_matrix(det.box.reshape(1, 4), other.box.reshape(1, 4))[0, 0]
            if iou > iou_thresh:
                suppressed = True
                break
        if not suppressed:
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

    def to_dict(self):
        return {"PQ": self.pq, "SQ": self.sq, "RQ": self.rq,
                "PQ_th": self.pq_things, "PQ_st": self.pq_stuff,
                "TP": self.true_positives, "FP": self.false_positives,
                "FN": self.false_negatives}


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

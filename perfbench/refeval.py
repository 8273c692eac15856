"""Reference scorer that the val workload checks ``setdet.evaluation`` against.

It is written apart from setdet: IoU is computed once per image and class,
then the greedy matching is replayed for each IoU threshold and area range,
and the precision envelope is read off at the 101 recall points.  The
semantics follow ``evaluate_detections``: detections are taken by descending
confidence (ties by image, then detection order); a detection matches the
unmatched in-range ground truth of highest IoU at or above the threshold;
with an area range, a detection that matches out-of-range ground truth, or
that misses and lies outside the range itself, drops out of the curve.
"""

from __future__ import annotations

import numpy as np

IOU_THRESHOLDS = np.arange(0.50, 0.96, 0.05)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
AREA_RANGES = (("AP_S", 0.0, 1.0 / 64.0),
               ("AP_M", 1.0 / 64.0, 1.0 / 16.0),
               ("AP_L", 1.0 / 16.0, np.inf))


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (cx, cy, w, h) boxes, [m, 4] x [n, 4] -> [m, n]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)[:, None, :]
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)[None, :, :]
    ax0, ax1 = a[..., 0] - a[..., 2] / 2, a[..., 0] + a[..., 2] / 2
    ay0, ay1 = a[..., 1] - a[..., 3] / 2, a[..., 1] + a[..., 3] / 2
    bx0, bx1 = b[..., 0] - b[..., 2] / 2, b[..., 0] + b[..., 2] / 2
    by0, by1 = b[..., 1] - b[..., 3] / 2, b[..., 1] + b[..., 3] / 2
    iw = np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0)
    ih = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0)
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / np.maximum(union, 1e-12)


def _best(row, matched, ignored, want_ignored):
    """First index of the highest IoU among unmatched boxes of one kind."""
    best, value = -1, -1.0
    for g, v in enumerate(row):
        if not matched[g] and ignored[g] == want_ignored and v > value:
            best, value = g, v
    return best, value


def _average_precision(order, ious, det_areas, gt_areas, thresh, area_range):
    if area_range is None:
        ignored = [[False] * len(a) for a in gt_areas]
    else:
        lo, hi = area_range
        ignored = [[not lo <= x < hi for x in a] for a in gt_areas]
    matched = [[False] * len(a) for a in gt_areas]
    total = sum(row.count(False) for row in ignored)
    flags = []
    for img, det in order:
        row, done, skip = ious[img][det], matched[img], ignored[img]
        best, value = _best(row, done, skip, False)
        if best >= 0 and value >= thresh:
            done[best] = True
            flags.append(True)
            continue
        if area_range is not None:
            alt, value = _best(row, done, skip, True)
            if alt >= 0 and value >= thresh:
                done[alt] = True
                continue
            if not lo <= det_areas[img][det] < hi:
                continue
        flags.append(False)
    if total == 0:
        return float("nan")
    if not flags:
        return 0.0
    hits = np.asarray(flags)
    tp = np.cumsum(hits)
    fp = np.cumsum(~hits)
    recall = tp / total
    precision = tp / np.maximum(tp + fp, 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, RECALL_POINTS, side="left")
    values = np.where(first < len(recall),
                      envelope[np.minimum(first, len(recall) - 1)], 0.0)
    return float(values.mean())


def score(detections, target_sets, num_classes: int) -> dict:
    """AP, AP50, AP75, AP_S/M/L and per-class AP, as evaluate_detections reports them."""
    grid, per_class = {}, {}
    ranged = {name: [] for name, _, _ in AREA_RANGES}
    for cls in range(num_classes):
        gts = [ts.boxes[ts.classes == cls] for ts in target_sets]
        if sum(len(g) for g in gts) == 0:
            continue
        dets = [[d for d in image if d.class_id == cls] for image in detections]
        order = [(img, det) for _, img, det in sorted(
            (-d.confidence, img, det)
            for img, image in enumerate(dets) for det, d in enumerate(image))]
        ious = [iou(np.array([d.box for d in image]), g).tolist()
                for image, g in zip(dets, gts)]
        det_areas = [[float(d.box[2] * d.box[3]) for d in image] for image in dets]
        gt_areas = [(g[:, 2] * g[:, 3]).tolist() for g in gts]
        grid[cls] = [_average_precision(order, ious, det_areas, gt_areas, t, None)
                     for t in IOU_THRESHOLDS]
        per_class[cls] = float(np.mean(grid[cls]))
        for name, lo, hi in AREA_RANGES:
            aps = [_average_precision(order, ious, det_areas, gt_areas, t, (lo, hi))
                   for t in IOU_THRESHOLDS]
            aps = [a for a in aps if not np.isnan(a)]
            if aps:
                ranged[name].append(np.mean(aps))

    def mean(values):
        return float(np.mean(values)) if values else float("nan")

    report = {
        "AP": mean([np.mean(v) for v in grid.values()]),
        "AP50": mean([v[0] for v in grid.values()]),
        "AP75": mean([v[5] for v in grid.values()]),
    }
    report.update({name: mean(values) for name, values in ranged.items()})
    report["per_class_AP"] = per_class
    return report


def report_fields(report) -> dict:
    """The same fields read from a setdet EvalReport."""
    return {"AP": report.ap, "AP50": report.ap50, "AP75": report.ap75,
            "AP_S": report.ap_small, "AP_M": report.ap_medium,
            "AP_L": report.ap_large, "per_class_AP": dict(report.per_class_ap)}

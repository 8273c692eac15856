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

Most detections can match nothing.  A *live row* is a detection with an
IoU at or above the lowest threshold against some ground truth of its
class and image; any other row takes no column at any threshold and
changes no state, so the matcher visits live rows only.  On the val split
a class pads each image to 7-8 detection rows, but only about one of them
(at most 4-6) is live: the rest are duplicates, wrong-class boxes or
background.  The precision-recall curves of every (area range, threshold)
pair are then integrated together, in whole-array passes over the
detections in confidence order.
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


class NonFiniteDetectionError(ValueError):
    """A detection's confidence or box holds NaN or inf."""


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
    per threshold) are tried only when no other column qualifies.  A NaN
    IoU in a column still free in a pool blocks that pool for the row.
    Returns [..., T, n]: the column each row took, or -1.

    Only live rows are visited: a row with no IoU at or above the lowest
    threshold can take nothing, and in detection output most rows are such
    (duplicates, other objects' boxes, background).  Step r takes the r-th
    live row of every problem that has one, at every threshold and in both
    pools at once; problems are ordered by live-row count, so the problems
    of step r are a leading slice.  Free columns read their IoU and all
    others -1, so thresholds are taken to be above -1.
    """
    ious = np.asarray(ious, dtype=np.float64)
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    *batch, n, m = ious.shape
    num_t = len(thresholds)
    took = np.full((*batch, num_t, n), -1)
    if took.size == 0 or m == 0:
        return took
    ious = ious.reshape(-1, n, m)
    # fmin skips a NaN threshold, which no IoU reaches
    live = (ious >= np.fmin.reduce(thresholds)).any(axis=-1)          # [P, n]
    count = live.sum(axis=1)
    problems = np.argsort(-count, kind="stable")
    count = count[problems]
    if count[0] == 0:
        return took
    problem, row = np.nonzero(live[problems])
    step = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    # the r-th live row of each problem, columns leading: [steps, m, 1, P]
    rows = np.zeros((count[0], m, 1, len(problems)))
    rows[step, :, 0, problem] = ious[problems[problem], row]
    ignored = np.broadcast_to(False if ignored is None else ignored, (*batch, num_t, m))
    ignored = ignored.reshape(-1, num_t, m)[problems].transpose(2, 1, 0)   # [m, T, P]
    # the free columns of each pool, in-range first: [2, m, T, P]
    free = np.ascontiguousarray(np.stack((~ignored, ignored)))
    columns = np.arange(m)[:, None, None]
    # the first column at the top is m minus the largest m - c over columns c at the top
    reversed_columns = np.arange(m, 0, -1, dtype=np.min_scalar_type(m))[:, None, None]
    thresholds = thresholds[:, None]
    took_live = np.empty((count[0], num_t, len(problems)), dtype=took.dtype)
    for r in range(count[0]):
        k = int(np.count_nonzero(count > r))
        ranked = np.where(free[..., :k], rows[r, ..., :k], -1.0)
        top = ranked.max(axis=1)                                          # [2, T, k]
        best = m - ((ranked == top[:, None]) * reversed_columns).max(axis=1).astype(np.intp)
        hit = top >= thresholds
        took_live[r, :, :k] = pick = np.where(hit[0], best[0], np.where(hit[1], best[1], -1))
        free[..., :k] &= columns != pick
    took.reshape(-1, num_t, n)[problems[problem], :, row] = took_live[step, :, problem]
    return took


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

    Only the M rows that took a column at some threshold differ between
    curves; any other row is a false positive of each range its own area
    lies in.  So each (range, threshold) curve is a column of [M, R*T]
    outcomes in confidence order, plus a count of those false positives.
    A curve's precision envelope is a suffix maximum over its true
    positives alone, since precision falls at every false positive, and
    recall point p is reached at the first true positive whose recall
    t / G (G ground truth in range) is at or above p.
    """
    num_r, num_t = len(area_ranges), len(thresholds)
    lo, hi = np.asarray(area_ranges, dtype=np.float64).T[:, :, None]   # [R, 1]
    # descending confidence within each image, ties in detection order
    order = np.lexsort((-scores, det_image))
    scores, det_image = scores[order], det_image[order]
    dets, det_real = _pad(det_boxes[order], det_image, num_images)    # [I, n, 4]
    gts, gt_real = _pad(gt_boxes, gt_image, num_images)               # [I, m, 4]
    ious = np.where(det_real[:, :, None] & gt_real[:, None, :], iou_matrix(dets, gts), -1.0)
    # padding and an appended column have NaN area, in no range; a row that
    # took no column reads the appended one
    gt_area = np.where(gt_real, gts[..., 2] * gts[..., 3], np.nan)
    gt_area = np.pad(gt_area, ((0, 0), (0, 1)), constant_values=np.nan)[:, None, :]
    gt_inside = (gt_area >= lo) & (gt_area < hi)                       # [I, R, m+1]
    took = greedy_match(ious, np.tile(thresholds, num_r),
                        np.repeat(~gt_inside[..., :-1], num_t, axis=1))   # [I, R*T, n]
    total_gt = gt_inside.sum(axis=(0, 2))                              # [R]

    # real rows in confidence order; ties keep image, then detection order
    rank = np.argsort(-scores, kind="stable")
    image, slot = (index[rank] for index in np.nonzero(det_real))
    det_area = dets[image, slot, 2] * dets[image, slot, 3]
    det_inside = (det_area >= lo) & (det_area < hi)                    # [R, D]
    # a row that took no column at any threshold is a false positive of each
    # range it lies in; only the matched rows differ between thresholds
    matched = (took >= 0).any(axis=1)[image, slot]
    false_pos = np.cumsum(det_inside & ~matched, axis=1)               # [R, D]
    rows = np.flatnonzero(matched)
    image, slot = image[rows], slot[rows]
    took = took[image, :, slot].reshape(len(rows), num_r, num_t)       # [M, R, T]
    true_pos = np.take_along_axis(gt_inside[image], took, axis=-1)
    # a row that took an out-of-range column, or took none and lies out of
    # range itself, drops out of the curve
    kept = true_pos | ((took < 0) & det_inside[:, rows].T[:, :, None])
    true_pos = true_pos.reshape(len(rows), num_r * num_t)              # [M, R*T]
    # true positives and curve entries so far, at each matched row
    tp_count = np.cumsum(true_pos, axis=0)
    kept_count = (np.cumsum(kept.reshape(len(rows), num_r * num_t), axis=0)
                  + np.repeat(false_pos[:, rows].T, num_t, axis=1))
    row, curve = np.nonzero(true_pos)
    tp = tp_count[row, curve]
    # the t-th true positive's precision in row t - 1, then the max over it
    # and all later ones; the last row stays 0
    envelope = np.zeros((tp.max(initial=0) + 1, num_r * num_t))
    envelope[tp - 1, curve] = tp / kept_count[row, curve]
    envelope = np.maximum.accumulate(envelope[::-1], axis=0)[::-1]
    # the true positives each recall point needs, per range: [R, 101]
    needed = np.zeros((num_r, len(RECALL_POINTS)), dtype=np.intp)
    for r in np.flatnonzero(total_gt):
        needed[r] = np.searchsorted(np.arange(total_gt[r] + 1) / total_gt[r],
                                    RECALL_POINTS, side="left")
    at = np.repeat(np.clip(needed - 1, 0, len(envelope) - 1), num_t, axis=0)
    # [R*T, 101] in C order, so each row's mean sums pairwise as one curve's
    # 1-D mean does
    aps = envelope[at, np.arange(num_r * num_t)[:, None]].mean(axis=1)
    aps[np.repeat(total_gt == 0, num_t)] = np.nan
    return aps.reshape(num_r, num_t)


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


def _reject_first(bad, image, kind, fault, error=ValueError):
    """Raise ``error`` for the first row flagged in ``bad``, naming its
    image and its index there; ``image`` is non-decreasing and
    ``fault(i)`` describes flat row i."""
    if bad.any():
        i = int(np.argmax(bad))
        row = i - int(np.searchsorted(image, image[i]))
        raise error(f"{kind} {row} of image {image[i]}: {fault(i)}")


def _detection_boxes(boxes, image) -> np.ndarray:
    """Per-detection boxes -> [D, 4] float64.  A box that is not 4 numbers
    raises a ValueError, a non-finite one ``NonFiniteDetectionError``,
    both named by ``_reject_first``."""
    if not boxes:
        return np.zeros((0, 4))
    try:
        stacked = np.array(boxes, dtype=np.float64)
    except ValueError:
        stacked = None        # rows of unequal shape, or not numbers
    if stacked is None or stacked.shape != (len(boxes), 4):
        _reject_first(np.array([np.shape(box) != (4,) for box in boxes]), image, "detection",
                      lambda i: f"box of shape {np.shape(boxes[i])}, not (4,)")
        stacked = np.array(boxes, dtype=np.float64)    # raises: an entry is no number
    _reject_first(~np.isfinite(stacked).all(axis=1), image, "detection",
                  lambda i: f"box {stacked[i].tolist()} is not finite", NonFiniteDetectionError)
    return stacked


def _flatten(detections_by_image, gts_by_image) -> tuple:
    """Per-image (confidence, box) lists and [m, 4] arrays -> the leading
    arguments of ``_class_ap``.  A box that is not 4 numbers, or a
    non-finite ground-truth value, raises a ValueError naming its image and
    row; a non-finite confidence or detection box value raises
    ``NonFiniteDetectionError``."""
    if len(detections_by_image) != len(gts_by_image):
        raise ValueError(f"{len(detections_by_image)} detection lists for "
                         f"{len(gts_by_image)} images")
    dets = [det for image_dets in detections_by_image for det in image_dets]
    det_image = _image_index(detections_by_image)
    scores = np.array([conf for conf, _ in dets], dtype=np.float64)
    _reject_first(~np.isfinite(scores), det_image, "detection",
                  lambda i: f"confidence {scores[i]} is not finite", NonFiniteDetectionError)
    gts = [np.asarray(g, dtype=np.float64) for g in gts_by_image]
    gts = [g.reshape(0, 4) if g.size == 0 else g for g in gts]
    for img, g in enumerate(gts):
        if g.ndim != 2 or g.shape[1] != 4:
            raise ValueError(f"ground truth of image {img}: boxes of shape {g.shape}, "
                             f"not (m, 4)")
    gt_image = _image_index(gts)
    gt_boxes = np.concatenate([np.zeros((0, 4)), *gts])
    _reject_first(~np.isfinite(gt_boxes).all(axis=1), gt_image, "ground truth",
                  lambda i: f"box {gt_boxes[i].tolist()} is not finite")
    det_boxes = _detection_boxes([box for _, box in dets], det_image)
    return scores, det_boxes, det_image, gt_boxes, gt_image, len(gts)


def _mean_over_classes(values) -> float:
    values = values[~np.isnan(values)]
    return float(np.mean(values)) if values.size else float("nan")


def _by_class(classes, num_classes: int) -> list:
    """Row indices of each class in 0..num_classes-1, in row order."""
    order = np.argsort(classes, kind="stable")
    bounds = np.searchsorted(classes[order], np.arange(num_classes + 1))
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def evaluate_detections(detections, target_sets, num_classes: int) -> EvalReport:
    """Full COCO-style report; per-class APs averaged over thresholds.

    A class id outside [0, num_classes), a non-finite confidence or box
    value, or a box that is not 4 numbers raises a ValueError naming the
    image and the row (detection or ground truth); a non-finite detection
    value raises its subclass ``NonFiniteDetectionError``.
    """
    scores, det_boxes, det_image, gt_boxes, gt_image, num_images = _flatten(
        [[(d.confidence, d.box) for d in image_dets] for image_dets in detections],
        [ts.boxes for ts in target_sets])
    for img, ts in enumerate(target_sets):
        if len(ts.classes) != len(ts.boxes):
            raise ValueError(f"ground truth of image {img}: {len(ts.classes)} classes "
                             f"for {len(ts.boxes)} boxes")
    det_classes = np.array([d.class_id for image_dets in detections for d in image_dets],
                           dtype=np.int64)
    gt_classes = np.concatenate([np.zeros(0, dtype=np.int64),
                                 *(ts.classes for ts in target_sets)])
    for kind, classes, image in (("detection", det_classes, det_image),
                                 ("ground truth", gt_classes, gt_image)):
        _reject_first((classes < 0) | (classes >= num_classes), image, kind,
                      lambda i: f"class {classes[i]} outside [0, {num_classes})")
    det_rows = _by_class(det_classes, num_classes)
    gt_rows = _by_class(gt_classes, num_classes)
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
    drop same-class boxes overlapping a kept one with IoU > threshold.

    A box that is not 4 numbers raises a ValueError, and a non-finite
    confidence or box value its subclass ``NonFiniteDetectionError``, each
    naming the detection's index in the list as a row of image 0."""
    check_unit_interval("iou_thresh", iou_thresh)
    if not detections:
        return []
    scores = np.array([d.confidence for d in detections], dtype=np.float64)
    image = np.zeros(len(detections), dtype=np.intp)
    _reject_first(~np.isfinite(scores), image, "detection",
                  lambda i: f"confidence {scores[i]} is not finite", NonFiniteDetectionError)
    boxes = _detection_boxes([d.box for d in detections], image)
    classes = np.array([d.class_id for d in detections])
    suppresses = (iou_matrix(boxes, boxes) > iou_thresh) & (classes[:, None] == classes)
    kept: list[int] = []
    for i in np.argsort(-scores, kind="stable").tolist():
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

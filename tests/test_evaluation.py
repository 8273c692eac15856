import json
import os
import re

import numpy as np
import pytest

from setdet import evaluation
from setdet.boxes import box_corners, giou_matrix, iou_matrix
from setdet.data import grid_instances_scene
from setdet.detector import Detection
from setdet.evaluation import (
    AREA_RANGES,
    IOU_THRESHOLDS,
    EvalReport,
    NonFiniteDetectionError,
    average_precision,
    evaluate_detections,
    greedy_match,
    nms,
    panoptic_quality,
)
from setdet.matching import TargetSet
from setdet.segmentation import PanopticMap, SegmentInfo

UNIT = np.array([0.5, 0.5, 1.0, 1.0])
QUARTER = np.array([0.5, 0.5, 0.5, 0.5])


class TestIouMatrix:
    def test_identical(self):
        box = np.array([[0.4, 0.4, 0.2, 0.3]])
        assert iou_matrix(box, box)[0, 0] == pytest.approx(1.0)

    def test_disjoint(self):
        a = np.array([[0.2, 0.2, 0.2, 0.2]])
        b = np.array([[0.8, 0.8, 0.2, 0.2]])
        assert iou_matrix(a, b)[0, 0] == 0.0

    def test_quarter(self):
        assert iou_matrix(UNIT[None], QUARTER[None])[0, 0] == pytest.approx(0.25)

    def test_zero_area(self):
        z = np.array([[0.5, 0.5, 0.0, 0.0]])
        assert iou_matrix(z, z)[0, 0] == 0.0

    @pytest.mark.parametrize("pairwise", [iou_matrix, giou_matrix])
    def test_leading_axis_equals_per_slice(self, pairwise):
        rng = np.random.default_rng(6)
        # sixteenths tie exactly; a zero side gives zero-area boxes
        a = np.concatenate([rng.integers(4, 13, (5, 7, 2)), rng.integers(0, 9, (5, 7, 2))], -1) / 16
        b = np.concatenate([rng.integers(4, 13, (5, 3, 2)), rng.integers(0, 9, (5, 3, 2))], -1) / 16
        assert (a[..., 2:] == 0).any() and (b[..., 2:] == 0).any()
        batched = pairwise(a, b)
        assert batched.shape == (5, 7, 3)
        for i in range(5):
            np.testing.assert_array_equal(batched[i], pairwise(a[i], b[i]), strict=True)
        # one set of ground truth broadcast against every image
        np.testing.assert_array_equal(pairwise(a, b[0]), np.stack([pairwise(x, b[0]) for x in a]))


def pairwise_areas_reference(boxes_a, boxes_b):
    """Intersection, union and enclosing-box area, as both pairwise
    functions computed them before iou_matrix stopped computing the hull."""
    ca = box_corners(boxes_a)[..., :, None, :]
    cb = box_corners(boxes_b)[..., None, :, :]
    iw = np.maximum(np.minimum(ca[..., 2], cb[..., 2])
                    - np.maximum(ca[..., 0], cb[..., 0]), 0.0)
    ih = np.maximum(np.minimum(ca[..., 3], cb[..., 3])
                    - np.maximum(ca[..., 1], cb[..., 1]), 0.0)
    inter = iw * ih
    area_a = (ca[..., 2] - ca[..., 0]) * (ca[..., 3] - ca[..., 1])
    area_b = (cb[..., 2] - cb[..., 0]) * (cb[..., 3] - cb[..., 1])
    union = area_a + area_b - inter
    hw = np.maximum(ca[..., 2], cb[..., 2]) - np.minimum(ca[..., 0], cb[..., 0])
    hh = np.maximum(ca[..., 3], cb[..., 3]) - np.minimum(ca[..., 1], cb[..., 1])
    return inter, union, hw * hh


class TestPairwiseAgainstSharedAreas:
    def test_iou_and_giou_equal_the_shared_area_path(self):
        rng = np.random.default_rng(15)
        # sixteenths tie exactly; a zero side gives zero-area boxes
        a = np.concatenate([rng.integers(4, 13, (6, 9, 2)), rng.integers(0, 9, (6, 9, 2))], -1) / 16
        b = np.concatenate([rng.uniform(0.2, 0.8, (6, 5, 2)), rng.uniform(0, 0.6, (6, 5, 2))], -1)
        for x, y in ((a, b), (a, a), (a[0], b[0]), (a, b[0])):
            inter, union, hull = pairwise_areas_reference(x, y)
            iou = inter / np.maximum(union, 1e-12)
            np.testing.assert_array_equal(iou_matrix(x, y), iou, strict=True)
            np.testing.assert_array_equal(
                giou_matrix(x, y), iou - (hull - union) / np.maximum(hull, 1e-12), strict=True)


def ap_oracle(flags, total_gt):
    """Direct 101-point integration of a TP/FP sequence (already sorted)."""
    tp = fp = 0
    points = []
    for flag in flags:
        tp += flag
        fp += not flag
        points.append((tp / total_gt, tp / (tp + fp)))
    total = 0.0
    for r in np.linspace(0, 1, 101):
        best = max((p for rec, p in points if rec >= r - 1e-12), default=0.0)
        total += best
    return total / 101


class TestAveragePrecision:
    def test_perfect_single(self):
        dets = [[(0.42, np.array([0.5, 0.5, 0.2, 0.2]))]]
        gts = [np.array([[0.51, 0.5, 0.2, 0.2]])]
        assert average_precision(dets, gts, 0.5) == pytest.approx(1.0)

    def test_no_detections(self):
        assert average_precision([[]], [np.array([[0.5, 0.5, 0.2, 0.2]])], 0.5) == 0.0

    def test_no_ground_truth_is_nan(self):
        got = average_precision([[(0.9, np.array([0.5, 0.5, 0.2, 0.2]))]], [np.zeros((0, 4))], 0.5)
        assert np.isnan(got)

    def test_scripted_instance_vs_oracle(self):
        gt1 = np.array([0.3, 0.3, 0.2, 0.2])
        gt2 = np.array([0.7, 0.7, 0.2, 0.2])
        dets = [[
            (0.9, gt1 + [0.005, 0, 0, 0]),          # TP
            (0.8, np.array([0.5, 0.1, 0.2, 0.2])),  # FP
            (0.7, gt2 + [0, 0.005, 0, 0]),          # TP
        ]]
        got = average_precision(dets, [np.stack([gt1, gt2])], 0.5)
        want = ap_oracle([True, False, True], 2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(253 / 303, abs=1e-12)

    def test_duplicates_only_match_once(self):
        gt = np.array([0.5, 0.5, 0.2, 0.2])
        dets = [[(0.9, gt.copy()), (0.8, gt.copy())]]
        got = average_precision(dets, [gt[None]], 0.5)
        want = ap_oracle([True, False], 1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_confidence_invariance(self):
        rng = np.random.default_rng(0)
        gts = [np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2]])]
        dets = [[(c, rng.uniform(0.2, 0.8, 4) * [1, 1, 0.4, 0.4] + [0, 0, 0.1, 0.1])
                 for c in (0.9, 0.6, 0.4, 0.2)]]
        base = average_precision(dets, gts, 0.5)
        squashed = [[(c ** 3 / 2, b) for c, b in dets[0]]]
        assert average_precision(squashed, gts, 0.5) == pytest.approx(base)

    def test_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(1)
        gts, dets = [], []
        for _ in range(10):
            w = rng.uniform(0.1, 0.3, 3)
            h = rng.uniform(0.1, 0.3, 3)
            cx = rng.uniform(0.25, 0.75, 3)
            cy = rng.uniform(0.25, 0.75, 3)
            g = np.stack([cx, cy, w, h], axis=-1)
            gts.append(g)
            noisy = g + rng.normal(0, 0.02, g.shape)
            dets.append([(rng.random(), box) for box in noisy])
        values = [average_precision(dets, gts, t) for t in np.arange(0.5, 0.96, 0.05)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_area_bucket_ignores_other_sizes(self):
        small = np.array([0.2, 0.2, 0.1, 0.1])
        large = np.array([0.6, 0.6, 0.5, 0.5])
        dets = [[(0.95, np.array([0.3, 0.7, 0.4, 0.4])),    # misses; large area
                 (0.9, large.copy()), (0.8, small.copy())]]
        gts = [np.stack([small, large])]
        # a hit on out-of-range ground truth, or a miss outside the range,
        # drops out of the curve
        assert average_precision(dets, gts, 0.5, (0.0, 1 / 64)) == \
            pytest.approx(ap_oracle([True], 1), abs=1e-12)
        assert average_precision(dets, gts, 0.5, (1 / 16, np.inf)) == \
            pytest.approx(ap_oracle([False, True], 1), abs=1e-12)
        assert average_precision(dets, gts, 0.5) == \
            pytest.approx(ap_oracle([False, True, True], 2), abs=1e-12)


class TestEvaluateDetections:
    def test_perfect_report(self):
        rng = np.random.default_rng(2)
        targets = []
        detections = []
        for _ in range(8):
            n = int(rng.integers(1, 4))
            w = rng.uniform(0.15, 0.4, n)
            h = rng.uniform(0.15, 0.4, n)
            cx = rng.uniform(w / 2, 1 - w / 2)
            cy = rng.uniform(h / 2, 1 - h / 2)
            boxes = np.stack([cx, cy, w, h], axis=-1)
            classes = rng.integers(0, 3, n)
            targets.append(TargetSet.create(classes, boxes))
            detections.append([Detection(int(c), 0.9, b.copy())
                               for c, b in zip(classes, boxes)])
        report = evaluate_detections(detections, targets, 3)
        assert report.ap == pytest.approx(1.0)
        assert report.ap50 == pytest.approx(1.0)
        assert report.ap <= report.ap50 + 1e-12

    def test_wrong_class_scores_zero(self):
        box = np.array([0.5, 0.5, 0.3, 0.3])
        targets = [TargetSet.create([0], [box])]
        detections = [[Detection(1, 0.9, box.copy())]]
        report = evaluate_detections(detections, targets, 2)
        assert report.ap == 0.0


class TestEvaluateDetectionsInputs:
    """A bad class, confidence or box raises, naming its image and row."""

    BOX = np.array([0.5, 0.5, 0.2, 0.2])

    def scene(self, det=None, gt_classes=(0, 1), gt_boxes=None):
        """Two images; ``det`` replaces the second detection of image 1."""
        boxes = np.stack([self.BOX, self.BOX + 0.1]) if gt_boxes is None else gt_boxes
        targets = [TargetSet.create([0], [self.BOX]),
                   TargetSet(np.asarray(gt_classes, dtype=np.int64), boxes)]
        detections = [[Detection(0, 0.9, self.BOX.copy())],
                      [Detection(1, 0.8, self.BOX.copy()),
                       det or Detection(0, 0.7, self.BOX.copy())]]
        return detections, targets

    @pytest.mark.parametrize("class_id", [2, 7, -1])
    def test_detection_class_outside_range(self, class_id):
        detections, targets = self.scene(Detection(class_id, 0.7, self.BOX.copy()))
        with pytest.raises(ValueError, match=rf"^detection 1 of image 1: class {class_id} "
                                             rf"outside \[0, 2\)$"):
            evaluate_detections(detections, targets, 2)

    @pytest.mark.parametrize("class_id", [5, 2, -1])
    def test_ground_truth_class_outside_range(self, class_id):
        detections, targets = self.scene(gt_classes=(1, class_id))
        with pytest.raises(ValueError, match=rf"^ground truth 1 of image 1: class {class_id} "
                                             rf"outside \[0, 2\)$"):
            evaluate_detections(detections, targets, 2)

    @pytest.mark.parametrize("confidence", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidence(self, confidence):
        detections, targets = self.scene(Detection(0, confidence, self.BOX.copy()))
        with pytest.raises(ValueError, match=rf"^detection 1 of image 1: confidence "
                                             rf"{re.escape(str(confidence))} is not finite$"):
            evaluate_detections(detections, targets, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_box(self, value):
        box = self.BOX.copy()
        box[2] = value
        detections, targets = self.scene(Detection(0, 0.7, box))
        with pytest.raises(ValueError, match=r"^detection 1 of image 1: box \[0.5, 0.5, "
                                             rf"{value}, 0.2\] is not finite$"):
            evaluate_detections(detections, targets, 2)
        detections, targets = self.scene(gt_boxes=np.stack([self.BOX, box]))
        with pytest.raises(ValueError, match=r"^ground truth 1 of image 1: box \[0.5, 0.5, "
                                             rf"{value}, 0.2\] is not finite$"):
            evaluate_detections(detections, targets, 2)

    @pytest.mark.parametrize("box", [[0.5, 0.5, 0.2], np.array([[0.5, 0.5], [0.2, 0.2]]),
                                     [0.5, 0.5, 0.2, 0.2, 0.1], 0.5])
    def test_box_not_four_numbers(self, box):
        detections, targets = self.scene(Detection(0, 0.7, box))
        with pytest.raises(ValueError, match=rf"^detection 1 of image 1: box of shape "
                                             rf"{re.escape(str(np.shape(box)))}, not \(4,\)$"):
            evaluate_detections(detections, targets, 2)

    def test_ground_truth_boxes_not_m_by_4(self):
        detections, targets = self.scene(gt_boxes=np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"^ground truth of image 1: boxes of shape "
                                             r"\(2, 3\), not \(m, 4\)$"):
            evaluate_detections(detections, targets, 2)
        detections, targets = self.scene(gt_classes=(0, 1, 1))
        with pytest.raises(ValueError, match=r"^ground truth of image 1: 3 classes for 2 boxes$"):
            evaluate_detections(detections, targets, 2)

    def test_valid_scene_scores(self):
        # class 0 finds both of its objects; class 1's one detection misses
        detections, targets = self.scene()
        assert evaluate_detections(detections, targets, 2).ap50 == 0.5


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "evaluate_detections_reports.json")

# name -> (seed, range of box sides); in the last scene set the zero-area
# box is the only small ground truth and none is medium, so AP_M is NaN
SCENARIOS = {"seed0": (0, (0.05, 0.45)), "seed3": (3, (0.05, 0.45)),
             "seed7": (7, (0.05, 0.45)), "large_only": (11, (0.3, 0.45))}


def scored_scenes(seed, sides, images=24, num_classes=4):
    """Seeded ground truth with about ten scored detections per image.

    Each object gets a detection (one in five a duplicate) shifted to an IoU
    drawn from [0.45, 1), one in ten with a wrong class; random boxes fill
    the rest up to ten.  Ground truth uses classes 0-2 only, so class 3 has
    detections but no ground truth.  Odd images round confidences to a
    tenth, so confidences tie within and across images.  Image 0 has no
    ground truth, image 1 no detections, and image 2 a zero-area ground
    truth box and a zero-area detection.
    """
    rng = np.random.default_rng([seed, 11])
    detections, targets = [], []
    for img in range(images):
        n = 0 if img == 0 else int(rng.integers(1, 6))
        w, h = rng.uniform(*sides, (2, n))
        boxes = np.stack([rng.uniform(w / 2, 1 - w / 2),
                          rng.uniform(h / 2, 1 - h / 2), w, h], axis=-1)
        classes = rng.integers(num_classes - 1, size=n)
        if img == 2:
            boxes[0, 2] = 0.0
        dets = []
        for cls, box in zip(classes, boxes):
            for _ in range(1 + (rng.random() < 0.2)):
                target_iou = rng.uniform(0.45, 1.0)
                label = int(cls) if rng.random() < 0.9 else int(rng.integers(num_classes))
                axis = int(rng.integers(2))
                shifted = box.copy()
                shifted[axis] += (rng.choice((-1.0, 1.0)) * box[axis + 2]
                                  * (1.0 - target_iou) / (1.0 + target_iou))
                confidence = 0.5 * target_iou + 0.5 * rng.random()
                dets.append(Detection(label, float(confidence), shifted))
        while len(dets) < 10:
            bw, bh = rng.uniform(*sides, 2)
            box = np.array([rng.uniform(bw / 2, 1 - bw / 2),
                            rng.uniform(bh / 2, 1 - bh / 2), bw, bh])
            dets.append(Detection(int(rng.integers(num_classes)),
                                  float(0.6 * rng.random()), box))
        dets = dets[:10]
        if img % 2:
            dets = [Detection(d.class_id, round(d.confidence, 1), d.box) for d in dets]
        if img == 1:
            dets = []
        if img == 2:
            dets.append(Detection(int(classes[0]), 0.7, np.array([0.5, 0.5, 0.0, 0.1])))
        detections.append(dets)
        targets.append(TargetSet.create(classes, boxes))
    return detections, targets, num_classes


def report_reprs(report: EvalReport) -> dict:
    """The report with every float as its repr, so equality is bitwise."""
    data = report.to_dict()
    per_class = data.pop("per_class_AP")
    data = {k: repr(v) for k, v in data.items()}
    data["per_class_AP"] = {k: repr(v) for k, v in per_class.items()}
    return data


class TestFrozenReports:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bitwise_equal_to_recorded_report(self, name):
        with open(FIXTURE) as fh:
            want = json.load(fh)[name]
        detections, targets, num_classes = scored_scenes(*SCENARIOS[name])
        assert report_reprs(evaluate_detections(detections, targets, num_classes)) == want

    def test_iou_computed_once_per_class(self, monkeypatch):
        # one [I, n_max, m_max] tensor per class with ground truth, never
        # one per threshold or area range
        calls = []

        def counting_iou(a, b):
            calls.append(a.shape[:-2])
            return iou_matrix(a, b)

        monkeypatch.setattr(evaluation, "iou_matrix", counting_iou)
        detections, targets, num_classes = scored_scenes(*SCENARIOS["seed0"])
        evaluate_detections(detections, targets, num_classes)
        classes_with_gt = len(np.unique(np.concatenate([t.classes for t in targets])))
        assert calls == [(len(targets),)] * classes_with_gt


def greedy_match_whole_array(ious, thresholds, ignored=None):
    """greedy_match before it visited live rows only: every row of every
    problem, one pool after the other, in whole-array passes."""
    ious = np.asarray(ious, dtype=np.float64)
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    *batch, n, m = ious.shape
    took = np.full((n, *batch, len(thresholds)), -1)
    if m == 0:
        return np.moveaxis(took, 0, -1)
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


def interpolated_ap_reference(recall, precision) -> float:
    """One curve's AP as _class_ap integrated each curve on its own: max
    precision at any recall >= r at the 101 grid points; index -1 (no such
    recall, or no detections) reads the appended 0."""
    order = np.argsort(-recall, kind="stable")
    max_prec = np.append(np.maximum.accumulate(precision[order]), 0.0)
    idx = np.searchsorted(-recall[order], -evaluation.RECALL_POINTS, side="right") - 1
    return float(max_prec[idx].mean())


def class_ap_reference(scores, det_boxes, det_image, gt_boxes, gt_image, num_images,
                       thresholds, area_ranges):
    """_class_ap before it ranked outcomes directly and integrated the curves
    together: dense [I, R*T, n] outcomes, then one curve at a time."""
    num_t = len(thresholds)
    lo, hi = np.repeat(np.asarray(area_ranges, dtype=np.float64).T, num_t, axis=1)[:, :, None]
    order = np.lexsort((-scores, det_image))
    scores, det_image = scores[order], det_image[order]
    dets, det_real = evaluation._pad(det_boxes[order], det_image, num_images)
    gts, gt_real = evaluation._pad(gt_boxes, gt_image, num_images)
    ious = np.where(det_real[:, :, None] & gt_real[:, None, :], iou_matrix(dets, gts), -1.0)
    det_area = (dets[..., 2] * dets[..., 3])[:, None, :]
    gt_area = np.where(gt_real, gts[..., 2] * gts[..., 3], np.nan)
    gt_area = np.pad(gt_area, ((0, 0), (0, 1)), constant_values=np.nan)[:, None, :]
    gt_inside = (gt_area >= lo) & (gt_area < hi)
    took = greedy_match_whole_array(ious, np.tile(thresholds, len(area_ranges)),
                                    ~gt_inside[..., :-1])
    outcomes = np.where(took >= 0, np.take_along_axis(gt_inside, took, axis=-1),
                        -1 * ((det_area >= lo) & (det_area < hi)))
    total_gt = gt_inside.sum(axis=(0, 2))
    rank = np.argsort(-scores, kind="stable")
    outcomes = outcomes.transpose(1, 0, 2)[:, det_real][:, rank]
    aps = np.full(len(outcomes), np.nan)
    for k in np.flatnonzero(total_gt):
        tp = np.cumsum(outcomes[k][outcomes[k] != 0] > 0)
        aps[k] = interpolated_ap_reference(tp / total_gt[k], tp / np.arange(1, len(tp) + 1))
    return aps.reshape(len(area_ranges), num_t)


def class_ap_per_image(detections_by_image, gts_by_image, thresholds=IOU_THRESHOLDS):
    """_class_ap before it padded the images into one tensor: one IoU
    matrix and one greedy match per image, at every range and threshold."""
    lo, hi = np.repeat(np.asarray(AREA_RANGES).T, len(thresholds), axis=1)[:, :, None]
    confidences, outcomes, total_gt = [], [np.zeros((len(lo), 0), dtype=int)], 0
    for dets, gts in zip(detections_by_image, gts_by_image):
        dets = sorted(dets, key=lambda d: -d[0])
        boxes = np.array([box for _, box in dets], dtype=np.float64).reshape(-1, 4)
        gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
        det_area = boxes[:, 2] * boxes[:, 3]
        gt_area = np.append(gts[:, 2] * gts[:, 3], np.nan)
        gt_inside = (gt_area >= lo) & (gt_area < hi)
        took = greedy_match_whole_array(iou_matrix(boxes, gts),
                                        np.tile(thresholds, len(AREA_RANGES)), ~gt_inside[:, :-1])
        outcomes.append(np.where(took >= 0, np.take_along_axis(gt_inside, took, axis=1),
                                 -1 * ((det_area >= lo) & (det_area < hi))))
        total_gt = total_gt + gt_inside.sum(axis=1)
        confidences.extend(conf for conf, _ in dets)
    rank = np.argsort(-np.asarray(confidences, dtype=np.float64), kind="stable")
    outcomes = np.concatenate(outcomes, axis=1)[:, rank]
    aps = np.full(len(outcomes), np.nan)
    for k in np.flatnonzero(total_gt):
        tp = np.cumsum(outcomes[k][outcomes[k] != 0] > 0)
        aps[k] = interpolated_ap_reference(tp / total_gt[k], tp / np.arange(1, len(tp) + 1))
    return aps.reshape(len(AREA_RANGES), len(thresholds))


def batched_class_ap(detections_by_image, gts_by_image, thresholds=IOU_THRESHOLDS):
    return evaluation._class_ap(*evaluation._flatten(detections_by_image, gts_by_image),
                                thresholds, AREA_RANGES)


class TestBatchedClassAp:
    """All images of a class in one padded tensor give bitwise the APs of
    one matrix per image."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scored_scenes_equal_per_image(self, name):
        detections, targets, num_classes = scored_scenes(*SCENARIOS[name])
        for cls in range(num_classes):
            dets = [[(d.confidence, d.box) for d in image if d.class_id == cls]
                    for image in detections]
            gts = [t.boxes[t.classes == cls] for t in targets]
            np.testing.assert_array_equal(batched_class_ap(dets, gts),
                                          class_ap_per_image(dets, gts))

    def test_ragged_edge_cases_equal_per_image(self):
        gt_a = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.1, 0.1]])
        gt_b = np.array([[0.5, 0.5, 0.4, 0.4]])
        hit_a = (0.8, gt_a[0] + [0.01, 0, 0, 0])
        near_b = (0.8, gt_b[0] + [0, 0.05, 0, 0])
        cases = {
            # ground truth in some images only; images without detections
            "gt_in_some_images": ([[hit_a, (0.9, np.array([0.1, 0.9, 0.1, 0.1]))], [],
                                   [near_b], [], [(0.8, gt_a[1])]],
                                  [gt_a, np.zeros((0, 4)), np.zeros((0, 4)), gt_b, gt_a]),
            # n_max is 0: ground truth and no detection anywhere
            "no_detections": ([[], [], []], [gt_a, np.zeros((0, 4)), gt_b]),
            # m_max is 0: detections and no ground truth, every AP undefined
            "no_ground_truth": ([[hit_a], [near_b]], [np.zeros((0, 4))] * 2),
            "no_images": ([], []),
        }
        for name, (dets, gts) in cases.items():
            # at threshold 0 any IoU qualifies, so a padded column would too
            for thresholds in (IOU_THRESHOLDS, [0.0, 0.5]):
                np.testing.assert_array_equal(batched_class_ap(dets, gts, thresholds),
                                              class_ap_per_image(dets, gts, thresholds),
                                              err_msg=name)
        assert (batched_class_ap(*cases["no_detections"])[[0, 3]] == 0.0).all()
        assert np.isnan(batched_class_ap(*cases["no_ground_truth"])).all()

    def test_random_scenes_equal_reference_curve_loop(self):
        # ragged images, boxes in every area range, zero-area boxes, and
        # confidences that tie within and across images
        rng = np.random.default_rng(12)
        levels = [IOU_THRESHOLDS, [0.0, 0.5], [0.5], [0.75, 0.5, 0.95],
                  np.sort(rng.choice(IOU_THRESHOLDS, 4, replace=False))]
        for case in range(300):
            images = int(rng.integers(0, 7))
            dets, gts = [], []
            for _ in range(images):
                m = int(rng.integers(0, 6))
                w, h = rng.uniform(0.02, 0.5, (2, m)) * (rng.random((2, m)) > 0.05)
                g = np.stack([rng.uniform(0.2, 0.8, m), rng.uniform(0.2, 0.8, m), w, h], -1)
                image_dets = [(conf, box + rng.normal(0, 0.02, 4) * [1, 1, 0, 0])
                              for box in g[rng.random(m) < 0.8]
                              for conf in rng.random(int(rng.integers(1, 3)))]
                image_dets += [(rng.random(), np.concatenate([rng.uniform(0.2, 0.8, 2),
                                                              rng.uniform(0, 0.5, 2)]))
                               for _ in range(int(rng.integers(0, 5)))]
                if case % 2:
                    image_dets = [(round(conf, 1), box) for conf, box in image_dets]
                dets.append(image_dets)
                gts.append(g)
            thresholds = levels[case % len(levels)]
            flat = evaluation._flatten(dets, gts)
            np.testing.assert_array_equal(
                evaluation._class_ap(*flat, thresholds, AREA_RANGES),
                class_ap_reference(*flat, thresholds, AREA_RANGES), err_msg=f"case {case}")

    def test_image_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 detection lists for 1 images"):
            evaluate_detections([[], []], [TargetSet.empty()], 3)
        with pytest.raises(ValueError, match="1 detection lists for 2 images"):
            average_precision([[]], [np.zeros((0, 4))] * 2, 0.5)


def greedy_match_reference(ious, thresh, ignored):
    """The per-detection loop of average_precision before greedy_match,
    one threshold at a time."""
    matched = np.zeros(ious.shape[1], dtype=bool)
    took = []
    for row in ious:
        candidates = np.where(~matched & ~ignored, row, -1.0)
        best = int(np.argmax(candidates)) if len(row) else -1
        if best >= 0 and candidates[best] >= thresh:
            matched[best] = True
            took.append(best)
            continue
        ignorable = np.where(~matched & ignored, row, -1.0)
        alt = int(np.argmax(ignorable)) if len(row) else -1
        if alt >= 0 and ignorable[alt] >= thresh:
            matched[alt] = True
            took.append(alt)
            continue
        took.append(-1)
    return took


class TestGreedyMatch:
    def test_against_per_threshold_loop(self):
        rng = np.random.default_rng(5)
        # few distinct values, so IoUs tie with each other and with thresholds
        levels = np.concatenate([[0.0, 0.3], IOU_THRESHOLDS, [0.97, 1.0]])
        for case in range(400):
            n, m = rng.integers(0, 7, 2)
            ious = rng.choice(levels, (n, m))
            if case % 4 == 0:
                ignored = None
                masks = np.zeros((len(IOU_THRESHOLDS), m), dtype=bool)
            elif case % 4 == 1:
                ignored = masks = rng.random((len(IOU_THRESHOLDS), m)) < 0.3
            else:
                ignored = rng.random(m) < 0.3
                masks = np.broadcast_to(ignored, (len(IOU_THRESHOLDS), m))
            took = greedy_match(ious, IOU_THRESHOLDS, ignored)
            assert took.shape == (len(IOU_THRESHOLDS), n)
            for t, thresh in enumerate(IOU_THRESHOLDS):
                assert took[t].tolist() == greedy_match_reference(ious, thresh, masks[t])

    def test_leading_axis_equals_per_image(self):
        rng = np.random.default_rng(8)
        levels = np.concatenate([[0.0, 0.3], IOU_THRESHOLDS, [0.97, 1.0]])
        for case in range(60):
            images = int(rng.integers(1, 6))
            n, m = rng.integers(0, 7, (images, 2)).T
            n_max, m_max = n.max(), m.max()
            # ragged images padded with IoU -1, the padding _class_ap uses
            ious = np.full((images, n_max, m_max), -1.0)
            masks = rng.random((images, len(IOU_THRESHOLDS), m_max)) < 0.3
            for i in range(images):
                ious[i, :n[i], :m[i]] = rng.choice(levels, (n[i], m[i]))
            ignored = masks if case % 2 else masks[:, 0]
            took = greedy_match(ious, IOU_THRESHOLDS, ignored if case % 2 else ignored[:, None])
            assert took.shape == (images, len(IOU_THRESHOLDS), n_max)
            for i in range(images):
                want = greedy_match(ious[i, :n[i], :m[i]], IOU_THRESHOLDS,
                                    ignored[i, ..., :m[i]])
                np.testing.assert_array_equal(took[i, :, :n[i]], want)
                assert (took[i, :, n[i]:] == -1).all()

    def test_equals_whole_array_reference(self):
        rng = np.random.default_rng(13)
        # few distinct values, so IoUs tie with each other and with the thresholds
        levels = np.concatenate([[0.0, 0.3, 0.45, np.nan], IOU_THRESHOLDS, [0.97, 1.0]])
        seen = dict.fromkeys(("no live row", "live and dead rows", "nan", "padding", "n=0",
                              "m=0", "no problem", "2-D scalar", "per-threshold ignored",
                              "shared ignored"), 0)
        for case in range(1500):
            batch = tuple(int(b) for b in rng.integers(1, 4, int(rng.integers(0, 3))))
            if case % 50 == 1:
                batch = (0, *batch)
            n, m = (int(v) for v in rng.integers(0, 8, 2))
            scalar = not batch and case % 5 == 0
            if scalar:
                thresholds = float(rng.choice(IOU_THRESHOLDS))
            elif case % 3 == 0:
                thresholds = IOU_THRESHOLDS
            else:
                thresholds = rng.choice(IOU_THRESHOLDS, int(rng.integers(1, 5)))
            num_t = np.size(thresholds)
            lowest = np.min(thresholds)
            below = levels[~(levels >= lowest)]
            # one row in two is dead, with no IoU at or above the lowest
            # threshold; a live row has one in some column
            ious = rng.choice(levels, (*batch, n, m))
            dead = rng.random((*batch, n)) < 0.5
            ious[dead] = rng.choice(below, (int(dead.sum()), m))
            if m:
                live_at = (~dead[..., None]) & (np.arange(m) == rng.integers(0, m, dead.shape)[..., None])
                ious[live_at] = rng.choice(levels[levels >= lowest], int(live_at.sum()))
            if batch and n and m:
                # ragged problems padded with IoU -1, as _class_ap pads images
                rows = rng.integers(0, n + 1, batch)[..., None, None]
                cols = rng.integers(0, m + 1, batch)[..., None, None]
                pad = (np.arange(n)[:, None] >= rows) | (np.arange(m) >= cols)
                ious[pad] = -1.0
                seen["padding"] += bool(pad.any())
            kind = case % 4
            if kind == 0:
                ignored = None
            elif kind == 1:
                ignored = rng.random((*batch, num_t, m)) < 0.3
                seen["per-threshold ignored"] += 1
            elif kind == 2:
                ignored = rng.random(m) < 0.3
                seen["shared ignored"] += 1
            else:
                ignored = rng.random((*batch, 1, m)) < 0.3
                seen["shared ignored"] += 1
            alive = (ious >= lowest).any(axis=-1)
            seen["no live row"] += not alive.any()
            seen["live and dead rows"] += bool(alive.any() and not alive.all())
            seen["no problem"] += 0 in batch
            seen["nan"] += bool(np.isnan(ious).any())
            seen["n=0"] += n == 0
            seen["m=0"] += m == 0
            seen["2-D scalar"] += scalar
            took = greedy_match(ious, thresholds, ignored)
            want = greedy_match_whole_array(ious, thresholds, ignored)
            np.testing.assert_array_equal(took, want, strict=True, err_msg=f"case {case}")
        assert min(seen.values()) >= 25, seen

    @pytest.mark.parametrize("object_size", [None, 16])
    def test_grid_scene_equals_whole_array_reference(self, object_size):
        # 100 instances; cells of 12 px overlap once objects are 16 px
        rng = np.random.default_rng(14)
        gts = grid_instances_scene(0, 100, rng, side=120, object_size=object_size).targets.boxes
        dets = np.concatenate([gts + rng.normal(0, 0.01, gts.shape) * [1, 1, 0.5, 0.5],
                               gts[rng.permutation(100)[:40]] + rng.normal(0, 0.03, (40, 4))
                               * [1, 1, 0, 0]])[rng.permutation(140)]
        ious = iou_matrix(dets, gts)
        assert ious.shape == (140, 100)
        for ignored in (None, rng.random(100) < 0.2,
                        rng.random((len(IOU_THRESHOLDS), 100)) < 0.2):
            np.testing.assert_array_equal(greedy_match(ious, IOU_THRESHOLDS, ignored),
                                          greedy_match_whole_array(ious, IOU_THRESHOLDS, ignored),
                                          strict=True)
        np.testing.assert_array_equal(greedy_match(ious, 0.5),
                                      greedy_match_whole_array(ious, 0.5), strict=True)

    def test_scalar_threshold(self):
        ious = np.array([[0.6, 0.9], [0.9, 0.2]])
        assert greedy_match(ious, 0.5).tolist() == [[1, 0]]
        assert greedy_match(ious, 0.95).tolist() == [[-1, -1]]

    def test_nan_threshold_matches_nothing(self):
        # a NaN threshold is reached by no IoU and sets no lower bound on
        # which rows are live at the other thresholds
        ious = np.array([[0.6, 0.9], [0.9, 0.2]])
        took = greedy_match(ious, [np.nan, 0.5, np.nan])
        assert took.tolist() == [[-1, -1], [1, 0], [-1, -1]]
        np.testing.assert_array_equal(took, greedy_match_whole_array(ious, [np.nan, 0.5, np.nan]))
        assert (greedy_match(ious, [np.nan]) == -1).all()


def nms_reference(detections, iou_thresh):
    """nms before it read one IoU matrix: one single-pair IoU per
    (candidate, kept) pair."""
    order = sorted(range(len(detections)), key=lambda i: -detections[i].confidence)
    kept = []
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


class TestNms:
    def test_same_class_duplicate_suppressed(self):
        box = np.array([0.5, 0.5, 0.2, 0.2])
        dets = [Detection(0, 0.9, box.copy()), Detection(0, 0.8, box.copy())]
        kept = nms(dets, 0.5)
        assert len(kept) == 1 and kept[0].confidence == 0.9

    def test_different_classes_survive(self):
        box = np.array([0.5, 0.5, 0.2, 0.2])
        dets = [Detection(0, 0.9, box.copy()), Detection(1, 0.8, box.copy())]
        assert len(nms(dets, 0.5)) == 2

    def test_crafted_cluster_vs_simulation(self):
        # box A overlaps B heavily, B overlaps C heavily, C clear of A;
        # greedy keeps A (0.9), drops B, keeps C, keeps D (other class)
        a = np.array([0.40, 0.5, 0.20, 0.20])
        b = np.array([0.45, 0.5, 0.20, 0.20])
        c = np.array([0.55, 0.5, 0.20, 0.20])
        d = np.array([0.45, 0.5, 0.20, 0.20])
        dets = [Detection(0, 0.9, a), Detection(0, 0.8, b),
                Detection(0, 0.7, c), Detection(1, 0.6, d)]
        kept = nms(dets, 0.5)
        assert [(k.class_id, k.confidence) for k in kept] == \
            [(0, 0.9), (0, 0.7), (1, 0.6)]

    def test_subset_and_idempotent(self):
        rng = np.random.default_rng(3)
        dets = [Detection(int(rng.integers(0, 2)), float(rng.random()),
                          rng.uniform(0.3, 0.7, 4) * [1, 1, 0.5, 0.5] + [0, 0, 0.05, 0.05])
                for _ in range(12)]
        kept = nms(dets, 0.5)
        ids = {id(k) for k in kept}
        assert ids <= {id(d) for d in dets}
        again = nms(kept, 0.5)
        assert [id(k) for k in again] == [id(k) for k in kept]


    def test_against_pairwise_loop(self):
        rng = np.random.default_rng(4)
        for case in range(200):
            n = int(rng.integers(0, 12))
            # sixteenths are exact, so some IoUs equal the threshold exactly;
            # a zero side gives zero-area boxes
            dets = [Detection(int(rng.integers(0, 3)), round(float(rng.random()), 1),
                              np.concatenate([rng.integers(4, 13, 2),
                                              rng.integers(0, 9, 2)]) / 16)
                    for _ in range(n)]
            thresh = float(rng.choice([0.25, 0.5, 0.75]))
            assert [id(d) for d in nms(dets, thresh)] == \
                [id(d) for d in nms_reference(dets, thresh)]

    @pytest.mark.parametrize("thresh", [-1, -0.1, 1.5, float("nan"), float("inf"),
                                        True, "0.5", None])
    def test_threshold_must_be_a_real_in_unit_interval(self, thresh):
        box = np.array([0.5, 0.5, 0.2, 0.2])
        for dets in ([], [Detection(0, 0.9, box), Detection(0, 0.8, box)]):
            with pytest.raises(ValueError, match=f"^iou_thresh must be a real in "
                                                 rf"\[0, 1\], got {re.escape(repr(thresh))}"):
                nms(dets, thresh)

    def test_threshold_edges_accepted(self):
        box = np.array([0.5, 0.5, 0.2, 0.2])
        dets = [Detection(0, 0.9, box), Detection(0, 0.8, box)]
        assert len(nms(dets, 0)) == 1 and len(nms(dets, 1.0)) == 2

    @pytest.mark.parametrize("box", [[0.5, 0.5, 0.2], [0.5, 0.5, 0.2, 0.2, 0.1],
                                     [[0.5, 0.5], [0.2, 0.2]]])
    def test_box_of_other_shape_names_its_index(self, box):
        good = np.array([0.5, 0.5, 0.2, 0.2])
        dets = [Detection(0, 0.9, good), Detection(1, 0.8, good),
                Detection(0, 0.7, np.array(box))]
        with pytest.raises(ValueError, match=re.escape(
                f"detection 2 of image 0: box of shape {np.shape(box)}, not (4,)")) as exc:
            nms(dets, 0.5)
        assert not isinstance(exc.value, NonFiniteDetectionError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_confidence_names_its_index(self, bad):
        box = np.array([0.5, 0.5, 0.2, 0.2])
        dets = [Detection(0, 0.9, box), Detection(0, bad, box), Detection(0, 0.8, box)]
        with pytest.raises(NonFiniteDetectionError,
                           match=f"^detection 1 of image 0: confidence {bad} is not finite$"):
            nms(dets, 0.5)

    def test_non_finite_box_names_its_index(self):
        box = np.array([0.5, 0.5, 0.2, 0.2])
        dets = [Detection(0, 0.9, box), Detection(1, 0.8, box),
                Detection(0, 0.7, np.array([0.5, np.nan, 0.2, 0.2]))]
        with pytest.raises(NonFiniteDetectionError,
                           match=re.escape("detection 2 of image 0: box [0.5, nan, 0.2, 0.2] "
                                            "is not finite")):
            nms(dets, 0.5)


def two_band_map(split, class_top=0, class_bottom=1, thing_top=True):
    labels = np.ones((8, 8), dtype=np.int64)
    labels[split:] = 2
    return PanopticMap(labels, {1: SegmentInfo(class_top, thing_top),
                                2: SegmentInfo(class_bottom, False)})


class TestPanopticQuality:
    def test_perfect(self):
        gt = two_band_map(4)
        result = panoptic_quality(gt, gt)
        assert result.pq == pytest.approx(1.0)
        assert result.sq == pytest.approx(1.0)
        assert result.rq == pytest.approx(1.0)

    def test_all_void_prediction(self):
        gt = two_band_map(4)
        pred = PanopticMap(np.zeros((8, 8), dtype=np.int64), {})
        result = panoptic_quality(pred, gt)
        assert result.pq == 0.0

    def test_partial_match_hand_value(self):
        # one TP at IoU 0.8 (48 of 60 rows overlap), one FN
        gt_labels = np.ones((10, 6), dtype=np.int64)
        gt_labels[8:] = 2
        gt = PanopticMap(gt_labels, {1: SegmentInfo(0, True),
                                     2: SegmentInfo(1, True)})
        pred_labels = np.zeros((10, 6), dtype=np.int64)
        pred_labels[:8] = 1          # 48 px of the 8-row gt segment... iou vs gt1
        pred = PanopticMap(pred_labels, {1: SegmentInfo(0, True)})
        result = panoptic_quality(pred, gt)
        # pred covers rows 0..7 entirely = exactly the gt segment -> IoU 1.0
        assert result.pq == pytest.approx(1.0 / 1.5)
        # now shrink the prediction to rows 0..5: IoU = 36/48 = 0.75
        pred_labels2 = np.zeros((10, 6), dtype=np.int64)
        pred_labels2[:6] = 1
        pred2 = PanopticMap(pred_labels2, {1: SegmentInfo(0, True)})
        result2 = panoptic_quality(pred2, gt)
        assert result2.pq == pytest.approx(0.75 / 1.5)

    def test_fn_and_tp_system(self):
        # spec-style instance: TP at IoU 0.8 plus one FN -> PQ = 0.8/1.5
        gt_labels = np.ones((10, 10), dtype=np.int64)
        gt_labels[:, 5:] = 2
        gt = PanopticMap(gt_labels, {1: SegmentInfo(0, True),
                                     2: SegmentInfo(1, True)})
        pred_labels = np.zeros((10, 10), dtype=np.int64)
        pred_labels[:8, :5] = 1       # 40/50 of gt segment 1 -> IoU 0.8
        pred = PanopticMap(pred_labels, {1: SegmentInfo(0, True)})
        result = panoptic_quality(pred, gt)
        assert result.pq == pytest.approx(0.8 / 1.5, abs=1e-12)
        assert result.sq == pytest.approx(0.8)
        assert result.rq == pytest.approx(1.0 / 1.5)

    def test_class_mismatch_not_matched(self):
        gt = two_band_map(4, class_top=0)
        pred = two_band_map(4, class_top=2)
        result = panoptic_quality(pred, gt)
        assert result.pq < 1.0

    def test_things_stuff_split(self):
        gt = two_band_map(4)
        pred_labels = np.ones((8, 8), dtype=np.int64)
        pred_labels[4:] = 2
        # things segment matches; stuff segment wrong class
        pred = PanopticMap(pred_labels, {1: SegmentInfo(0, True),
                                         2: SegmentInfo(5, False)})
        result = panoptic_quality(pred, gt)
        assert result.pq_things == pytest.approx(1.0)
        assert result.pq_stuff == pytest.approx(0.0)

    def test_resolution_mismatch(self):
        gt = two_band_map(4)
        pred = PanopticMap(np.zeros((4, 4), dtype=np.int64), {})
        with pytest.raises(ValueError):
            panoptic_quality(pred, gt)


def test_report_serialization(tmp_path):
    report = EvalReport(ap=0.5, ap50=0.8, ap75=0.4, ap_small=float("nan"),
                        ap_medium=0.6, ap_large=0.7, per_class_ap={0: 0.5})
    path = str(tmp_path / "report.json")
    report.to_json(path)
    with open(path) as fh:
        data = json.load(fh)
    assert data["AP50"] == 0.8

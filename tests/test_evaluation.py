import json
import os

import numpy as np
import pytest

from setdet import evaluation
from setdet.boxes import iou_matrix
from setdet.detector import Detection
from setdet.evaluation import (
    IOU_THRESHOLDS,
    EvalReport,
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

    def test_iou_computed_once_per_image_and_class(self, monkeypatch):
        calls = []

        def counting_iou(a, b):
            calls.append(1)
            return iou_matrix(a, b)

        monkeypatch.setattr(evaluation, "iou_matrix", counting_iou)
        detections, targets, num_classes = scored_scenes(*SCENARIOS["seed0"])
        evaluate_detections(detections, targets, num_classes)
        classes_with_gt = len(np.unique(np.concatenate([t.classes for t in targets])))
        assert len(calls) == len(targets) * classes_with_gt


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

    def test_scalar_threshold(self):
        ious = np.array([[0.6, 0.9], [0.9, 0.2]])
        assert greedy_match(ious, 0.5).tolist() == [[1, 0]]
        assert greedy_match(ious, 0.95).tolist() == [[-1, -1]]


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

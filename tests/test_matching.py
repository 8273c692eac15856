import itertools
import math

import numpy as np
import pytest

from setdet import boxes as B
from setdet import matching as M
from setdet import tensor as T
from setdet.matching import (
    Assignment,
    AssignmentError,
    CapacityError,
    LossWeights,
    TargetSet,
)
from setdet.tensor import Tensor, grad_check

W = LossWeights()


# ---------------------------------------------------------------------------
# oracles

def giou_monte_carlo(box_a, box_b, n=1_000_000, seed=0):
    """Estimate GIoU by sampling points uniformly inside the enclosing box."""
    ca = B.box_corners(np.asarray(box_a, dtype=np.float64))
    cb = B.box_corners(np.asarray(box_b, dtype=np.float64))
    x0, y0 = min(ca[0], cb[0]), min(ca[1], cb[1])
    x1, y1 = max(ca[2], cb[2]), max(ca[3], cb[3])
    hull = (x1 - x0) * (y1 - y0)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x0, x1, n)
    ys = rng.uniform(y0, y1, n)
    in_a = (xs >= ca[0]) & (xs <= ca[2]) & (ys >= ca[1]) & (ys <= ca[3])
    in_b = (xs >= cb[0]) & (xs <= cb[2]) & (ys >= cb[1]) & (ys <= cb[3])
    inter = np.mean(in_a & in_b) * hull
    union = np.mean(in_a | in_b) * hull
    if union == 0.0:
        return 0.0
    return inter / union - (hull - union) / hull


def brute_force_assignment(cost):
    """Exhaustive minimum over injective row->column maps."""
    m, n = cost.shape
    best = math.inf
    best_perm = None
    for perm in itertools.permutations(range(n), m):
        value = sum(cost[i, perm[i]] for i in range(m))
        if value < best:
            best = value
            best_perm = perm
    return best, best_perm


def random_boxes(rng, n):
    w = rng.uniform(0.05, 0.6, n)
    h = rng.uniform(0.05, 0.6, n)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return np.stack([cx, cy, w, h], axis=-1)


# ---------------------------------------------------------------------------
# GIoU

HALF_LEFT = (0.25, 0.5, 0.5, 1.0)
HALF_RIGHT = (0.75, 0.5, 0.5, 1.0)
UNIT = (0.5, 0.5, 1.0, 1.0)
QUARTER = (0.5, 0.5, 0.5, 0.5)


class TestGiou:
    def test_identical_positive_area(self):
        assert B.giou((0.3, 0.4, 0.2, 0.1), (0.3, 0.4, 0.2, 0.1)) == pytest.approx(1.0)

    def test_half_boxes(self):
        assert B.giou(HALF_LEFT, HALF_RIGHT) == pytest.approx(0.0, abs=1e-12)
        assert abs(B.giou(HALF_LEFT, HALF_RIGHT)
                   - giou_monte_carlo(HALF_LEFT, HALF_RIGHT)) <= 2e-3

    def test_unit_vs_quarter(self):
        assert B.giou(UNIT, QUARTER) == pytest.approx(0.25, abs=1e-12)
        assert abs(B.giou(UNIT, QUARTER) - giou_monte_carlo(UNIT, QUARTER)) <= 2e-3

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        a = random_boxes(rng, 50)
        b = random_boxes(rng, 50)
        fwd = B.giou_matrix(a, b)
        bwd = B.giou_matrix(b, a)
        np.testing.assert_array_equal(fwd, bwd.T)

    def test_nested_equals_iou(self):
        outer = (0.5, 0.5, 0.8, 0.6)
        inner = (0.5, 0.5, 0.4, 0.3)
        assert B.giou(outer, inner) == pytest.approx(
            B.iou_matrix(np.array([outer]), np.array([inner]))[0, 0])

    def test_zero_area_guard(self):
        assert B.giou((0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0)) == pytest.approx(0.0)

    def test_one_only_for_identical(self):
        rng = np.random.default_rng(2)
        a = random_boxes(rng, 40)
        jitter = a.copy()
        jitter[:, 0] += 1e-3
        vals = np.diag(B.giou_matrix(a, jitter))
        assert (vals < 1.0).all()

    def test_random_vs_monte_carlo(self):
        rng = np.random.default_rng(3)
        for i in range(30):
            a, b = random_boxes(rng, 2)
            assert abs(B.giou(a, b) - giou_monte_carlo(a, b, seed=i)) <= 2e-3

    def test_tensor_matches_numpy(self):
        rng = np.random.default_rng(4)
        a = random_boxes(rng, 25)
        b = random_boxes(rng, 25)
        got = B.giou_tensor(Tensor(a), b).data[:, 0]
        want = np.diag(B.giou_matrix(a, b))
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_range(self):
        rng = np.random.default_rng(5)
        vals = B.giou_matrix(random_boxes(rng, 30), random_boxes(rng, 30))
        assert (vals >= -1.0 - 1e-12).all() and (vals <= 1.0 + 1e-12).all()

    def test_gradient(self):
        rng = np.random.default_rng(6)
        pred = Tensor(random_boxes(rng, 5))
        target = random_boxes(rng, 5)
        err = grad_check(lambda t: T.tsum(B.giou_tensor(t, target)), pred, eps=1e-5)
        assert err <= 1e-5


class TestBoxLoss:
    def test_zero_on_match(self):
        assert M.box_loss((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2), W) == pytest.approx(0.0)

    def test_half_boxes_value(self):
        # giou term 2*(1-0) = 2, l1 term 5*0.5 = 2.5
        assert M.box_loss(HALF_LEFT, HALF_RIGHT, W) == pytest.approx(4.5, abs=1e-12)

    def test_upper_bound(self):
        rng = np.random.default_rng(7)
        a = random_boxes(rng, 200)
        b = random_boxes(rng, 200)
        vals = M.box_cost_matrix(a, b, W)
        assert (vals <= 2 * W.giou + 4 * W.l1).all()
        assert (vals >= 0.0).all()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(l1=-1.0)


# ---------------------------------------------------------------------------
# matching cost + Hungarian

class TestCostMatrix:
    def test_empty_targets(self):
        logits = np.zeros((4, 3))
        boxes = np.tile([0.5, 0.5, 0.1, 0.1], (4, 1))
        cost = M.matching_cost_matrix(logits, boxes, TargetSet.empty(), W)
        assert cost.shape == (0, 4)
        assert len(M.hungarian_assign(cost)) == 0

    def test_perfect_slot_strictly_minimal(self):
        box = np.array([0.4, 0.6, 0.2, 0.2])
        logits = np.full((3, 3), -20.0)
        logits[1, 0] = 20.0      # slot 1 certain of class 0
        boxes = np.tile([0.8, 0.2, 0.4, 0.4], (3, 1))
        boxes[1] = box
        targets = TargetSet.create([0], [box])
        cost = M.matching_cost_matrix(logits, boxes, targets, W)
        assert cost[0, 1] == pytest.approx(-1.0, abs=1e-6)
        assert cost[0, 1] < cost[0, 0] and cost[0, 1] < cost[0, 2]

    def test_hand_instance_vs_scalar_oracle(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 4))
        pred = random_boxes(rng, 3)
        targets = TargetSet.create([2, 0], random_boxes(rng, 2))
        cost = M.matching_cost_matrix(logits, pred, targets, W)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        for i in range(2):
            for j in range(3):
                expected = -probs[j, targets.classes[i]] + M.box_loss(
                    targets.boxes[i], pred[j], W)
                assert cost[i, j] == pytest.approx(expected, abs=1e-12)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            M.matching_cost_matrix(np.zeros((2, 3)), np.zeros((2, 4)),
                                   TargetSet.create([0, 1, 2], random_boxes(
                                       np.random.default_rng(0), 3)), W)


class TestHungarian:
    def test_1x1(self):
        a = M.hungarian_assign(np.array([[3.0]]))
        assert list(a.slot_of_target) == [0]

    def test_2x2_diagonal(self):
        a = M.hungarian_assign(np.array([[1.0, 10.0], [10.0, 1.0]]))
        assert list(a.slot_of_target) == [0, 1]
        assert a.total_cost(np.array([[1.0, 10.0], [10.0, 1.0]])) == pytest.approx(2.0)

    def test_rectangular_vs_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 8))
            cost = rng.uniform(-5, 5, (m, n))
            assignment = M.hungarian_assign(cost)
            best, _ = brute_force_assignment(cost)
            assert assignment.total_cost(cost) == pytest.approx(best, abs=1e-9)

    def test_more_rows_than_columns(self):
        with pytest.raises(CapacityError):
            M.hungarian_assign(np.zeros((3, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            M.hungarian_assign(np.array([[np.inf, 1.0]]))

    def test_deterministic_on_ties(self):
        cost = np.zeros((2, 4))
        a1 = M.hungarian_assign(cost)
        a2 = M.hungarian_assign(cost)
        np.testing.assert_array_equal(a1.slot_of_target, a2.slot_of_target)

    def test_assignment_validation(self):
        with pytest.raises(AssignmentError):
            Assignment(np.array([0, 0]), 3)
        with pytest.raises(AssignmentError):
            Assignment(np.array([5]), 3)


# ---------------------------------------------------------------------------
# Hungarian loss

def scalar_loss_oracle(logits, boxes, targets, slots, weights, num_objects=None):
    """Straight-line recomputation of the loss with plain floats."""
    n, kp1 = logits.shape
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    denom = max(1, len(targets) if num_objects is None else num_objects)
    class_term = 0.0
    box_term = 0.0
    assigned = {int(s): i for i, s in enumerate(slots)}
    for slot in range(n):
        if slot in assigned:
            i = assigned[slot]
            class_term += -math.log(probs[slot, targets.classes[i]])
            box_term += M.box_loss(targets.boxes[i], boxes[slot], weights)
        else:
            class_term += -weights.eos * math.log(probs[slot, kp1 - 1])
    return class_term / denom + box_term / denom


class TestHungarianLoss:
    def test_all_empty_certain(self):
        logits = np.zeros((2, 3))
        logits[:, 2] = 60.0       # certain no-object
        boxes = np.tile([0.5, 0.5, 0.2, 0.2], (2, 1))
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None]), Tensor(boxes[None]),
                                         [TargetSet.empty()],
                                         [Assignment(np.zeros(0, dtype=np.int64), 2)], W)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_perfect_prediction(self):
        box = np.array([0.4, 0.5, 0.3, 0.2])
        logits = np.full((2, 3), -40.0)
        logits[0, 1] = 40.0       # slot 0 certain of class 1
        logits[1, 2] = 40.0       # slot 1 certain no-object
        boxes = np.stack([box, [0.5, 0.5, 0.1, 0.1]])
        targets = TargetSet.create([1], [box])
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None]), Tensor(boxes[None]),
                                         [targets], [Assignment(np.array([0]), 2)], W)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_toy_instance_vs_scalar_oracle(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(3, 4))
        boxes = random_boxes(rng, 3)
        targets = TargetSet.create([1, 2], random_boxes(rng, 2))
        slots = np.array([2, 0])
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None]), Tensor(boxes[None]),
                                         [targets], [Assignment(slots, 3)], W)
        want = scalar_loss_oracle(logits, boxes, targets, slots, W)
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_gradient_fixed_assignment(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(3, 4))
        boxes = random_boxes(rng, 3)
        targets = TargetSet.create([0, 2], random_boxes(rng, 2))
        assignment = Assignment(np.array([1, 0]), 3)

        lx = Tensor(logits[None])
        err = grad_check(
            lambda t: M.batch_hungarian_loss(t, Tensor(boxes[None]), [targets],
                                             [assignment], W)[0],
            lx, eps=1e-5)
        assert err <= 1e-5

        bx = Tensor(boxes[None])
        err = grad_check(
            lambda t: M.batch_hungarian_loss(Tensor(logits[None]), t, [targets],
                                             [assignment], W)[0],
            bx, eps=1e-5)
        assert err <= 1e-5

    def test_invalid_assignment_rejected(self):
        logits = Tensor(np.zeros((1, 2, 3)))
        boxes = Tensor(np.tile([0.5, 0.5, 0.2, 0.2], (1, 2, 1)))
        targets = TargetSet.create([0], [[0.5, 0.5, 0.2, 0.2]])
        with pytest.raises(AssignmentError):
            M.batch_hungarian_loss(logits, boxes, [targets],
                                   [Assignment(np.array([0, 1]), 2)], W)


class _FakeLayer:
    def __init__(self, logits, boxes):
        self.class_logits = logits
        self.boxes = boxes


class TestTotalLoss:
    def _instance(self, seed):
        # one image: [1,N,K+1] logits, [1,N,4] boxes, a list of one TargetSet
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(1, 4, 3)))
        boxes = Tensor(random_boxes(rng, 4)[None])
        targets = [TargetSet.create([0, 1], random_boxes(rng, 2))]
        return logits, boxes, targets

    def test_single_layer_equals_hungarian_loss(self):
        logits, boxes, targets = self._instance(12)
        out = [_FakeLayer(logits, boxes)]
        value, _ = M.total_loss(out, targets, W)
        assignment = M.match(logits.data[0], boxes.data[0], targets[0], W)
        direct, _ = M.batch_hungarian_loss(logits, boxes, targets, [assignment], W)
        assert value.item() == pytest.approx(direct.item(), abs=1e-12)

    def test_duplicated_layer_doubles(self):
        logits, boxes, targets = self._instance(13)
        one, _ = M.total_loss([_FakeLayer(logits, boxes)], targets, W)
        two, _ = M.total_loss([_FakeLayer(logits, boxes)] * 2, targets, W)
        assert two.item() == pytest.approx(2 * one.item(), abs=1e-12)

    def test_two_layers_vs_per_layer_oracle(self):
        l0, b0, targets = self._instance(14)
        rng = np.random.default_rng(15)
        l1 = Tensor(rng.normal(size=(1, 4, 3)))
        b1 = Tensor(random_boxes(rng, 4)[None])
        value, _ = M.total_loss([_FakeLayer(l0, b0), _FakeLayer(l1, b1)], targets, W)
        want = 0.0
        for lg, bx in [(l0, b0), (l1, b1)]:
            a = M.match(lg.data[0], bx.data[0], targets[0], W)
            want += scalar_loss_oracle(lg.data[0], bx.data[0], targets[0],
                                       a.slot_of_target, W)
        assert value.item() == pytest.approx(want, abs=1e-12)

    def test_aux_off_uses_final_layer_only(self):
        l0, b0, targets = self._instance(16)
        rng = np.random.default_rng(17)
        l1 = Tensor(rng.normal(size=(1, 4, 3)))
        b1 = Tensor(random_boxes(rng, 4)[None])
        value, _ = M.total_loss([_FakeLayer(l0, b0), _FakeLayer(l1, b1)], targets, W,
                                aux=False)
        only_last, _ = M.total_loss([_FakeLayer(l1, b1)], targets, W)
        assert value.item() == pytest.approx(only_last.item(), abs=1e-12)

    def test_batch_normalization_uses_batch_count(self):
        # one image with 1 object + one with 3: denominator 4 for both
        rng = np.random.default_rng(18)
        logits = Tensor(rng.normal(size=(2, 4, 3)))
        boxes = Tensor(np.stack([random_boxes(rng, 4), random_boxes(rng, 4)]))
        t1 = TargetSet.create([0], random_boxes(rng, 1))
        t2 = TargetSet.create([0, 1, 1], random_boxes(rng, 3))
        value, _ = M.total_loss([_FakeLayer(logits, boxes)], [t1, t2], W)
        want = 0.0
        for b, targets in enumerate([t1, t2]):
            a = M.match(logits.data[b], boxes.data[b], targets, W)
            want += scalar_loss_oracle(logits.data[b], boxes.data[b], targets,
                                       a.slot_of_target, W, num_objects=4)
        assert value.item() == pytest.approx(want, abs=1e-12)


def test_permutation_invariance_of_min_cost_and_loss():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, n + 1))
        logits = rng.normal(size=(n, 4))
        boxes = random_boxes(rng, n)
        targets = TargetSet.create(rng.integers(0, 3, m), random_boxes(rng, m))

        cost = M.matching_cost_matrix(logits, boxes, targets, W)
        a = M.hungarian_assign(cost)
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None]), Tensor(boxes[None]),
                                         [targets], [a], W)

        perm = rng.permutation(n)
        cost_p = M.matching_cost_matrix(logits[perm], boxes[perm], targets, W)
        a_p = M.hungarian_assign(cost_p)
        loss_p, _ = M.batch_hungarian_loss(Tensor(logits[perm][None]),
                                           Tensor(boxes[perm][None]), [targets], [a_p], W)
        assert abs(a.total_cost(cost) - a_p.total_cost(cost_p)) <= 1e-12
        assert abs(loss.item() - loss_p.item()) <= 1e-12


# ---------------------------------------------------------------------------
# mask losses

class TestDiceLoss:
    def test_perfect_mask_limit(self):
        target = np.zeros((1, 4, 4))
        target[0, 1:3, 1:3] = 1.0
        logits = Tensor(np.where(target > 0, 50.0, -50.0))
        assert M.dice_loss(logits, target).item() == pytest.approx(0.0, abs=1e-6)

    def test_empty_empty(self):
        target = np.zeros((1, 3, 3))
        logits = Tensor(np.full((1, 3, 3), -60.0))
        assert M.dice_loss(logits, target).item() == pytest.approx(0.0, abs=1e-6)

    def test_2x2_hand_value(self):
        target = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        logits = Tensor(np.zeros((1, 2, 2)))
        # 1 - (2*0.5 + 1) / (4*0.5 + 1 + 1) = 0.5
        assert M.dice_loss(logits, target).item() == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(T.DimensionError):
            M.dice_loss(Tensor(np.zeros((1, 2, 2))), np.zeros((1, 3, 3)))

    def test_stacked_masks(self):
        rng = np.random.default_rng(20)
        target = (rng.random((3, 4, 4)) > 0.5).astype(float)
        logits = Tensor(rng.normal(size=(3, 4, 4)))
        vals = M.dice_loss(logits, target)
        assert vals.shape == (3, 1)
        for k in range(3):
            single = M.dice_loss(Tensor(logits.data[k:k + 1]), target[k:k + 1])
            assert vals.data[k, 0] == pytest.approx(single.item(), abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(21)
        target = (rng.random((1, 3, 3)) > 0.5).astype(float)
        x = Tensor(rng.normal(size=(1, 3, 3)))
        err = grad_check(lambda t: T.tsum(M.dice_loss(t, target)), x, eps=1e-5)
        assert err <= 1e-5


class TestFocalLoss:
    def test_gamma_zero_is_half_bce(self):
        rng = np.random.default_rng(22)
        target = (rng.random((4, 4)) > 0.5).astype(float)
        logits = rng.normal(size=(4, 4))
        got = M.focal_loss(Tensor(logits), target, alpha=0.5, gamma=0.0).item()
        p = 1 / (1 + np.exp(-logits))
        bce = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
        assert got == pytest.approx(0.5 * bce, abs=1e-10)

    def test_confident_correct_limit(self):
        target = np.array([[1.0, 0.0]])
        logits = Tensor(np.array([[40.0, -40.0]]))
        assert M.focal_loss(logits, target).item() == pytest.approx(0.0, abs=1e-12)

    def test_single_pixel_hand_value(self):
        got = M.focal_loss(Tensor(np.zeros((1, 1))), np.ones((1, 1))).item()
        want = 0.25 * 0.25 * math.log(2.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.04332, abs=5e-5)

    def test_shape_mismatch(self):
        with pytest.raises(T.DimensionError):
            M.focal_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_gradient(self):
        rng = np.random.default_rng(23)
        target = (rng.random((3, 3)) > 0.5).astype(float)
        x = Tensor(rng.normal(size=(3, 3)))
        err = grad_check(lambda t: M.focal_loss(t, target), x, eps=1e-5)
        assert err <= 1e-5

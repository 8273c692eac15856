import itertools
import math

import numpy as np
import pytest

from setdet import boxes as B
from setdet import matching as M
from setdet import tensor as T
from setdet.detector import DetectionOutput
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

def giou(box_a, box_b):
    """GIoU of one box pair, through the pairwise numpy path."""
    return float(B.giou_matrix(np.array([box_a], dtype=np.float64),
                               np.array([box_b], dtype=np.float64))[0, 0])


def box_cost(target_box, pred_box, weights):
    """Box loss of one (ground truth, prediction) pair, through the numpy path."""
    return float(M.box_cost_matrix(np.array([target_box], dtype=np.float64),
                                   np.array([pred_box], dtype=np.float64), weights)[0, 0])


def assigned_cost(assignment, cost):
    """Summed cost of the (target, slot) pairs an assignment picks."""
    return float(cost[np.arange(len(assignment)), assignment.slot_of_target].sum())


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


def reference_cost_matrix(class_logits, pred_boxes, targets, weights):
    """The per-image matching cost before the batch rank: [N,K+1] logits,
    [N,4] boxes and one TargetSet -> [m,N]."""
    logits = np.asarray(class_logits, dtype=np.float64)
    pred_boxes = np.asarray(pred_boxes, dtype=np.float64)
    n_slots = logits.shape[0]
    if len(targets) > n_slots:
        raise CapacityError(f"{len(targets)} targets exceed {n_slots} slots")
    if len(targets) == 0:
        return np.zeros((0, n_slots))
    probs = T.softmax(logits)
    class_cost = -probs[:, targets.classes].T            # [m, n]
    return class_cost + M.box_cost_matrix(targets.boxes, pred_boxes, weights)


def reference_hungarian(cost):
    """The numpy Kuhn-Munkres that the list-based solver replaced: the same
    shortest augmenting paths, with masked array updates."""
    cost = np.asarray(cost, dtype=np.float64)
    m, n = cost.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    u = np.zeros(m + 1)
    v = np.zeros(n + 1)
    p = np.full(n + 1, m, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(m):
        p[n] = i
        j0 = n
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[:n]
            reduced = cost[i0, free] - u[i0] - v[:n][free]
            cols = np.flatnonzero(free)
            better = reduced < minv[cols]
            minv[cols[better]] = reduced[better]
            way[cols[better]] = j0
            j1 = cols[np.argmin(minv[cols])]
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == m:
                break
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    slot_of_target = np.empty(m, dtype=np.int64)
    for j in range(n):
        if p[j] != m:
            slot_of_target[p[j]] = j
    return slot_of_target


def random_batch(rng):
    """Random ragged batch: [B,N,K+1] logits, [B,N,4] boxes and B target
    sets; each image is empty, full (m = N) or of random size, with equal odds."""
    batch, n, k = int(rng.integers(1, 7)), int(rng.integers(1, 11)), int(rng.integers(1, 5))
    logits = rng.normal(scale=3.0, size=(batch, n, k + 1))
    boxes = random_boxes(rng, batch * n).reshape(batch, n, 4)
    counts = rng.choice([0, n, int(rng.integers(0, n + 1))], batch)
    targets = [TargetSet.create(rng.integers(0, k, c), random_boxes(rng, c)) for c in counts]
    return logits, boxes, targets


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
        assert giou((0.3, 0.4, 0.2, 0.1), (0.3, 0.4, 0.2, 0.1)) == pytest.approx(1.0)

    def test_half_boxes(self):
        assert giou(HALF_LEFT, HALF_RIGHT) == pytest.approx(0.0, abs=1e-12)
        assert abs(giou(HALF_LEFT, HALF_RIGHT)
                   - giou_monte_carlo(HALF_LEFT, HALF_RIGHT)) <= 2e-3

    def test_unit_vs_quarter(self):
        assert giou(UNIT, QUARTER) == pytest.approx(0.25, abs=1e-12)
        assert abs(giou(UNIT, QUARTER) - giou_monte_carlo(UNIT, QUARTER)) <= 2e-3

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
        assert giou(outer, inner) == pytest.approx(
            B.iou_matrix(np.array([outer]), np.array([inner]))[0, 0])

    def test_zero_area_guard(self):
        assert giou((0.5, 0.5, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0)) == pytest.approx(0.0)

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
            assert abs(giou(a, b) - giou_monte_carlo(a, b, seed=i)) <= 2e-3

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
        assert box_cost((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.2, 0.2), W) == pytest.approx(0.0)

    def test_half_boxes_value(self):
        # giou term 2*(1-0) = 2, l1 term 5*0.5 = 2.5
        assert box_cost(HALF_LEFT, HALF_RIGHT, W) == pytest.approx(4.5, abs=1e-12)

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
        cost = M.matching_cost_matrix(logits[None], boxes[None], [TargetSet.empty()], W)[0]
        assert cost.shape == (0, 4)
        assert len(M.hungarian_assign(cost)) == 0

    def test_perfect_slot_strictly_minimal(self):
        box = np.array([0.4, 0.6, 0.2, 0.2])
        logits = np.full((3, 3), -20.0)
        logits[1, 0] = 20.0      # slot 1 certain of class 0
        boxes = np.tile([0.8, 0.2, 0.4, 0.4], (3, 1))
        boxes[1] = box
        targets = TargetSet.create([0], [box])
        cost = M.matching_cost_matrix(logits[None], boxes[None], [targets], W)[0]
        assert cost[0, 1] == pytest.approx(-1.0, abs=1e-6)
        assert cost[0, 1] < cost[0, 0] and cost[0, 1] < cost[0, 2]

    def test_hand_instance_vs_scalar_oracle(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 4))
        pred = random_boxes(rng, 3)
        targets = TargetSet.create([2, 0], random_boxes(rng, 2))
        cost = M.matching_cost_matrix(logits[None], pred[None], [targets], W)[0]
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        for i in range(2):
            for j in range(3):
                expected = -probs[j, targets.classes[i]] + box_cost(
                    targets.boxes[i], pred[j], W)
                assert cost[i, j] == pytest.approx(expected, abs=1e-12)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            M.matching_cost_matrix(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)),
                                   [TargetSet.create([0, 1, 2], random_boxes(
                                       np.random.default_rng(0), 3))], W)


class TestHungarian:
    def test_1x1(self):
        a = M.hungarian_assign(np.array([[3.0]]))
        assert list(a.slot_of_target) == [0]

    def test_2x2_diagonal(self):
        a = M.hungarian_assign(np.array([[1.0, 10.0], [10.0, 1.0]]))
        assert list(a.slot_of_target) == [0, 1]
        assert assigned_cost(a, np.array([[1.0, 10.0], [10.0, 1.0]])) == pytest.approx(2.0)

    def test_rectangular_vs_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 8))
            cost = rng.uniform(-5, 5, (m, n))
            assignment = M.hungarian_assign(cost)
            best, _ = brute_force_assignment(cost)
            assert assigned_cost(assignment, cost) == pytest.approx(best, abs=1e-9)

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


class TestBatchRank:
    """The batched cost and the list-based solver against the per-image
    cost and the numpy solver they replaced, bitwise."""

    def test_cost_slices_bitwise_equal(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            logits, boxes, targets = random_batch(rng)
            cost = M.matching_cost_matrix(logits, boxes, targets, W)
            assert cost.shape == (len(targets), max(map(len, targets)), logits.shape[1])
            for b, t in enumerate(targets):
                want = reference_cost_matrix(logits[b], boxes[b], t, W)
                assert cost[b, :len(t)].tobytes() == want.tobytes()

    def test_assignments_equal(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            logits, boxes, targets = random_batch(rng)
            got = M.match(logits, boxes, targets, W)
            assert len(got) == len(targets)
            for b, t in enumerate(targets):
                want = reference_hungarian(reference_cost_matrix(logits[b], boxes[b], t, W))
                np.testing.assert_array_equal(got[b].slot_of_target, want)

    def test_all_empty_batch(self):
        logits = np.zeros((3, 4, 3))
        boxes = np.tile([0.5, 0.5, 0.1, 0.1], (3, 4, 1))
        cost = M.matching_cost_matrix(logits, boxes, [TargetSet.empty()] * 3, W)
        assert cost.shape == (3, 0, 4)
        assert [len(a) for a in M.match(logits, boxes, [TargetSet.empty()] * 3, W)] == [0] * 3

    def test_tie_heavy_integer_matrices(self):
        rng = np.random.default_rng(26)
        for _ in range(2000):
            m = int(rng.integers(0, 7))
            n = int(rng.integers(max(m, 1), 11))
            cost = rng.integers(0, 3, (m, n)).astype(np.float64)
            np.testing.assert_array_equal(M.hungarian_assign(cost).slot_of_target,
                                          reference_hungarian(cost))

    @pytest.mark.parametrize("logits, boxes, sets", [
        ((4, 3), (4, 4), 1),
        ((2, 4, 3), (2, 3, 4), 2),
        ((2, 4, 3), (2, 4, 4), 1),
    ], ids=["single-image", "box-slots", "set-count"])
    def test_shapes_rejected(self, logits, boxes, sets):
        with pytest.raises(T.DimensionError, match=r"\[B,N,K\+1\] logits, \[B,N,4\] boxes"):
            M.match(np.zeros(logits), np.zeros(boxes), [TargetSet.empty()] * sets, W)


# K = 2 target classes, so 3 logits; -1, K (the no-object index) and K+1
@pytest.mark.parametrize("cls", [-1, 2, 3])
class TestTargetClassRange:
    def _batch(self, cls):
        rng = np.random.default_rng(27)
        logits = rng.normal(size=(2, 4, 3))
        boxes = random_boxes(rng, 8).reshape(2, 4, 4)
        targets = [TargetSet.create([1], random_boxes(rng, 1)),
                   TargetSet.create([0, cls], random_boxes(rng, 2))]
        return logits, boxes, targets

    def test_cost_matrix_rejects(self, cls):
        logits, boxes, targets = self._batch(cls)
        with pytest.raises(ValueError, match=rf"^image 1: target class {cls} .*K = 2$"):
            M.matching_cost_matrix(logits, boxes, targets, W)

    def test_loss_rejects(self, cls):
        logits, boxes, targets = self._batch(cls)
        assignments = [Assignment(np.array([0]), 4), Assignment(np.array([1, 2]), 4)]
        with pytest.raises(ValueError, match=rf"^image 1: target class {cls} .*K = 2$"):
            M.batch_hungarian_loss(Tensor(logits[None]), Tensor(boxes[None]), targets,
                                   assignments, W)


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
            box_term += box_cost(targets.boxes[i], boxes[slot], weights)
        else:
            class_term += -weights.eos * math.log(probs[slot, kp1 - 1])
    return class_term / denom + box_term / denom


class TestHungarianLoss:
    def test_all_empty_certain(self):
        logits = np.zeros((2, 3))
        logits[:, 2] = 60.0       # certain no-object
        boxes = np.tile([0.5, 0.5, 0.2, 0.2], (2, 1))
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None, None]), Tensor(boxes[None, None]),
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
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None, None]), Tensor(boxes[None, None]),
                                         [targets], [Assignment(np.array([0]), 2)], W)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_toy_instance_vs_scalar_oracle(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(3, 4))
        boxes = random_boxes(rng, 3)
        targets = TargetSet.create([1, 2], random_boxes(rng, 2))
        slots = np.array([2, 0])
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None, None]), Tensor(boxes[None, None]),
                                         [targets], [Assignment(slots, 3)], W)
        want = scalar_loss_oracle(logits, boxes, targets, slots, W)
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_gradient_fixed_assignment(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(3, 4))
        boxes = random_boxes(rng, 3)
        targets = TargetSet.create([0, 2], random_boxes(rng, 2))
        assignment = Assignment(np.array([1, 0]), 3)

        lx = Tensor(logits[None, None])
        err = grad_check(
            lambda t: M.batch_hungarian_loss(t, Tensor(boxes[None, None]), [targets],
                                             [assignment], W)[0],
            lx, eps=1e-5)
        assert err <= 1e-5

        bx = Tensor(boxes[None, None])
        err = grad_check(
            lambda t: M.batch_hungarian_loss(Tensor(logits[None, None]), t, [targets],
                                             [assignment], W)[0],
            bx, eps=1e-5)
        assert err <= 1e-5

    def test_invalid_assignment_rejected(self):
        logits = Tensor(np.zeros((1, 1, 2, 3)))
        boxes = Tensor(np.tile([0.5, 0.5, 0.2, 0.2], (1, 1, 2, 1)))
        targets = TargetSet.create([0], [[0.5, 0.5, 0.2, 0.2]])
        with pytest.raises(AssignmentError):
            M.batch_hungarian_loss(logits, boxes, [targets],
                                   [Assignment(np.array([0, 1]), 2)], W)


def stacked(*layers):
    """A DetectionOutput of (logits, boxes) layer pairs, final layer last."""
    return DetectionOutput(T.stack([lg for lg, _ in layers]), T.stack([bx for _, bx in layers]))


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
        out = stacked((logits, boxes))
        value, _ = M.total_loss(out, targets, W)
        assignment = M.match(logits.data, boxes.data, targets, W)[0]
        direct, _ = M.batch_hungarian_loss(T.stack([logits]), T.stack([boxes]), targets,
                                           [assignment], W)
        assert value.item() == pytest.approx(direct.item(), abs=1e-12)

    def test_duplicated_layer_doubles(self):
        logits, boxes, targets = self._instance(13)
        one, _ = M.total_loss(stacked((logits, boxes)), targets, W)
        two, _ = M.total_loss(stacked(*[(logits, boxes)] * 2), targets, W)
        assert two.item() == pytest.approx(2 * one.item(), abs=1e-12)

    def test_two_layers_vs_per_layer_oracle(self):
        l0, b0, targets = self._instance(14)
        rng = np.random.default_rng(15)
        l1 = Tensor(rng.normal(size=(1, 4, 3)))
        b1 = Tensor(random_boxes(rng, 4)[None])
        value, _ = M.total_loss(stacked((l0, b0), (l1, b1)), targets, W)
        want = 0.0
        for lg, bx in [(l0, b0), (l1, b1)]:
            a = M.match(lg.data, bx.data, targets, W)[0]
            want += scalar_loss_oracle(lg.data[0], bx.data[0], targets[0],
                                       a.slot_of_target, W)
        assert value.item() == pytest.approx(want, abs=1e-12)

    def test_aux_off_uses_final_layer_only(self):
        l0, b0, targets = self._instance(16)
        rng = np.random.default_rng(17)
        l1 = Tensor(rng.normal(size=(1, 4, 3)))
        b1 = Tensor(random_boxes(rng, 4)[None])
        value, _ = M.total_loss(stacked((l0, b0), (l1, b1)), targets, W, aux=False)
        only_last, _ = M.total_loss(stacked((l1, b1)), targets, W)
        assert value.item() == pytest.approx(only_last.item(), abs=1e-12)

    def test_batch_normalization_uses_batch_count(self):
        # one image with 1 object + one with 3: denominator 4 for both
        rng = np.random.default_rng(18)
        logits = Tensor(rng.normal(size=(2, 4, 3)))
        boxes = Tensor(np.stack([random_boxes(rng, 4), random_boxes(rng, 4)]))
        t1 = TargetSet.create([0], random_boxes(rng, 1))
        t2 = TargetSet.create([0, 1, 1], random_boxes(rng, 3))
        value, _ = M.total_loss(stacked((logits, boxes)), [t1, t2], W)
        want = 0.0
        for b, targets in enumerate([t1, t2]):
            a = M.match(logits.data[b:b + 1], boxes.data[b:b + 1], [targets], W)[0]
            want += scalar_loss_oracle(logits.data[b], boxes.data[b], targets,
                                       a.slot_of_target, W, num_objects=4)
        assert value.item() == pytest.approx(want, abs=1e-12)


def layer_loss_reference(class_logits, pred_boxes, target_sets, assignments, weights):
    """``batch_hungarian_loss`` of one decoder layer, as it was before the
    layers were stacked: [B,N,K+1] logits and [B,N,4] boxes, one assignment
    per image; returns (scalar Tensor, component floats)."""
    batch, n_slots, k_plus_1 = class_logits.shape
    no_object = k_plus_1 - 1
    denom = float(max(1, sum(len(t) for t in target_sets)))
    weight_mask = np.zeros((batch, n_slots, k_plus_1))
    weight_mask[:, :, no_object] = weights.eos
    matched_rows = []
    matched_targets = []
    for b, (targets, assignment) in enumerate(zip(target_sets, assignments)):
        slots = assignment.slot_of_target
        weight_mask[b, slots, no_object] = 0.0
        weight_mask[b, slots, targets.classes] = 1.0
        matched_rows.extend(b * n_slots + slots)
        matched_targets.append(targets.boxes)
    log_probs = T.log_softmax_lastdim(class_logits)
    class_term = T.tsum(log_probs * Tensor(weight_mask)) * (-1.0 / denom)
    l1_value = giou_value = 0.0
    if matched_rows:
        flat = T.reshape(pred_boxes, (batch * n_slots, 4))
        pred = T.take(flat, np.asarray(matched_rows, dtype=np.intp), axis=0)
        target = np.concatenate(matched_targets, axis=0)
        l1_term = T.tsum(B.l1_tensor(pred, target)) * (weights.l1 / denom)
        giou_term = T.tsum(1.0 - B.giou_tensor(pred, target)) * (weights.giou / denom)
        l1_value, giou_value = l1_term.item(), giou_term.item()
        total = class_term + l1_term + giou_term
    else:
        total = class_term
    return total, {"class": class_term.item(), "l1": l1_value, "giou": giou_value}


def per_layer_total_loss(layers, target_sets, weights, aux=True):
    """``total_loss`` as it was before the layers were stacked: a ``match``
    and a loss call per (logits, boxes) layer, added in order.  Returns the
    scalar and each scored layer's component dict."""
    layers = list(layers) if aux else list(layers)[-1:]
    total, components = None, []
    for logits, boxes in layers:
        assignments = M.match(logits.data, boxes.data, target_sets, weights)
        value, comps = layer_loss_reference(logits, boxes, target_sets, assignments, weights)
        total = value if total is None else total + value
        components.append(comps)
    return total, components


def random_layers(rng, layers, batch, n_slots, k, transposed):
    """``layers`` pairs of leaf [B,N,K+1] logits and [B,N,4] boxes; transposed
    leaves are laid out [B,K+1,N] and [B,4,N] in memory, as the heads' are."""
    def leaf(width, draw):
        data = draw((batch, n_slots, width))
        if transposed:
            data = np.ascontiguousarray(data.transpose(0, 2, 1)).transpose(0, 2, 1)
        return Tensor(data, requires_grad=True)

    return [(leaf(k + 1, lambda shape: rng.normal(size=shape)),
             leaf(4, lambda shape: random_boxes(rng, math.prod(shape[:2])).reshape(shape)))
            for _ in range(layers)]


class TestStackedLoss:
    """One match and one loss call over stacked layers against the per-layer loop."""

    @pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "heads-layout"])
    @pytest.mark.parametrize("aux", [True, False], ids=["aux", "final-only"])
    @pytest.mark.parametrize("layers", [1, 2, 6])
    def test_equals_per_layer_loop(self, layers, aux, transposed):
        rng = np.random.default_rng([layers, aux, transposed])
        for trial in range(12):
            batch, n_slots, k = int(rng.integers(1, 5)), int(rng.integers(1, 7)), 3
            counts = rng.integers(0, n_slots + 1, batch) * (trial != 0)  # trial 0: all empty
            targets = [TargetSet.create(rng.integers(0, k, c), random_boxes(rng, c))
                       for c in counts]
            new = random_layers(rng, layers, batch, n_slots, k, transposed)
            old = [(Tensor(lg.data.copy(), requires_grad=True),
                    Tensor(bx.data.copy(), requires_grad=True)) for lg, bx in new]
            loss, comps = M.total_loss(stacked(*new), targets, W, aux=aux)
            want, want_comps = per_layer_total_loss(old, targets, W, aux=aux)
            assert loss.data.tobytes() == want.data.tobytes()
            for key in ("class", "l1", "giou"):
                assert comps[key].tolist() == [c[key] for c in want_comps]
            loss.backward()
            want.backward()
            for got_leaf, want_leaf in zip((t for pair in new for t in pair),
                                           (t for pair in old for t in pair)):
                if want_leaf.grad is None:       # unscored layer, or boxes with no match
                    assert got_leaf.grad is None or not got_leaf.grad.any()
                else:
                    assert got_leaf.grad.tobytes() == want_leaf.grad.tobytes()

    def test_normalized_per_layer_not_per_stack(self):
        logits, boxes, targets = TestTotalLoss()._instance(24)
        one, one_comps = M.total_loss(stacked((logits, boxes)), targets, W)
        three, comps = M.total_loss(stacked(*[(logits, boxes)] * 3), targets, W)
        assert three.item() == pytest.approx(3 * one.item(), abs=1e-12)
        for key in comps:
            assert comps[key].tolist() == one_comps[key].tolist() * 3

    @pytest.mark.parametrize("sets, pairs", [(2, 1), (1, 1), (2, 3), (1, 2)],
                             ids=["one-pair-short", "one-set-short", "one-pair-over",
                                  "pairs-without-sets"])
    def test_counts_checked(self, sets, pairs):
        # 2 layers of B=2 images need 2 target sets and 4 assignments; two
        # sets with one assignment once scored half the batch silently
        rng = np.random.default_rng(25)
        logits = Tensor(rng.normal(size=(2, 2, 3, 3)))
        boxes = Tensor(random_boxes(rng, 12).reshape(2, 2, 3, 4))
        targets = [TargetSet.create([0], random_boxes(rng, 1))] * sets
        assignments = [Assignment(np.array([1]), 3)] * 2 * pairs
        with pytest.raises(AssignmentError, match=r"^2 layers of 2 images need 2 target "
                                                  rf"sets and 4 assignments, got {sets} "
                                                  rf"and {2 * pairs}$"):
            M.batch_hungarian_loss(logits, boxes, targets, assignments, W)


def test_permutation_invariance_of_min_cost_and_loss():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, n + 1))
        logits = rng.normal(size=(n, 4))
        boxes = random_boxes(rng, n)
        targets = TargetSet.create(rng.integers(0, 3, m), random_boxes(rng, m))

        cost = M.matching_cost_matrix(logits[None], boxes[None], [targets], W)[0]
        a = M.hungarian_assign(cost)
        loss, _ = M.batch_hungarian_loss(Tensor(logits[None, None]), Tensor(boxes[None, None]),
                                         [targets], [a], W)

        perm = rng.permutation(n)
        cost_p = M.matching_cost_matrix(logits[perm][None], boxes[perm][None], [targets], W)[0]
        a_p = M.hungarian_assign(cost_p)
        loss_p, _ = M.batch_hungarian_loss(Tensor(logits[perm][None, None]),
                                           Tensor(boxes[perm][None, None]), [targets], [a_p], W)
        assert abs(assigned_cost(a, cost) - assigned_cost(a_p, cost_p)) <= 1e-12
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

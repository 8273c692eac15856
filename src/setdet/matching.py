"""Bipartite matching between ground truth and prediction slots, and the
set losses computed over the matched pairs.

The training signal has two stages: first an optimal injective assignment
of ground-truth objects to prediction slots is found by minimizing a
pairwise matching cost (class probability + box distance), then the loss
proper (negative log-likelihood + box loss) is evaluated over that
assignment.  The assignment itself is treated as a constant during
backpropagation; only the loss stage is differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .boxes import giou_matrix, giou_tensor, l1_tensor
from .layers import check_real
from .tensor import Tensor


class CapacityError(ValueError):
    """More ground-truth objects than prediction slots."""


class AssignmentError(ValueError):
    """Assignment violates injectivity or slot range."""


@dataclass(frozen=True)
class TargetSet:
    """Ground-truth objects of one image: class ids and normalized boxes.

    May be empty.  Conceptually the set is padded with no-object entries
    up to the model's slot count; the padding never needs materializing
    because a no-object row would add the same constant to every
    candidate assignment.
    """

    classes: np.ndarray
    boxes: np.ndarray

    @staticmethod
    def create(classes, boxes) -> "TargetSet":
        classes = np.asarray(classes, dtype=np.int64).reshape(-1)
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        if len(classes) != len(boxes):
            raise ValueError(f"{len(classes)} classes vs {len(boxes)} boxes")
        return TargetSet(classes, boxes)

    @staticmethod
    def empty() -> "TargetSet":
        return TargetSet(np.zeros(0, dtype=np.int64), np.zeros((0, 4)))

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Assignment:
    """Injective map from ground-truth index to prediction slot."""

    slot_of_target: np.ndarray     # [m] int
    num_slots: int

    def __post_init__(self):
        slots = self.slot_of_target
        if len(slots) and (slots.min() < 0 or slots.max() >= self.num_slots):
            raise AssignmentError(f"slot ids {slots} outside [0, {self.num_slots})")
        if len(np.unique(slots)) != len(slots):
            raise AssignmentError(f"assignment {slots} is not injective")

    def __len__(self) -> int:
        return len(self.slot_of_target)


@dataclass(frozen=True)
class LossWeights:
    """Relative weights of the loss terms.

    ``eos`` down-weights the log-probability of slots assigned to
    no-object, compensating for the class imbalance between real objects
    and empty slots.
    """

    l1: float = 5.0
    giou: float = 2.0
    eos: float = 0.1
    dice: float = 1.0
    focal: float = 1.0

    def __post_init__(self):
        for name in ("l1", "giou", "eos", "dice", "focal"):
            check_real(f"loss weight {name}", getattr(self, name))


def box_cost_matrix(target_boxes: np.ndarray, pred_boxes: np.ndarray,
                    weights: LossWeights) -> np.ndarray:
    """Pairwise box loss, [m,4] x [n,4] -> [m,n], plain numpy."""
    l1 = np.abs(target_boxes[:, None, :] - pred_boxes[None, :, :]).sum(axis=-1)
    return weights.giou * (1.0 - giou_matrix(target_boxes, pred_boxes)) \
        + weights.l1 * l1


def matching_cost_matrix(class_logits: np.ndarray, pred_boxes: np.ndarray,
                         targets: TargetSet, weights: LossWeights) -> np.ndarray:
    """Pairwise matching cost between real targets (rows) and slots (cols).

    Entry (i, j) = -p_j(c_i) + L_box(b_i, b_hat_j).  The class term
    uses plain probabilities, keeping it commensurable with the box
    term.  Rows exist only for real objects: the cost of pairing a slot
    with a no-object padding entry is a constant, so padding rows could
    never change the optimal assignment.
    """
    logits = np.asarray(class_logits, dtype=np.float64)
    pred_boxes = np.asarray(pred_boxes, dtype=np.float64)
    n_slots = logits.shape[0]
    if len(targets) > n_slots:
        raise CapacityError(f"{len(targets)} targets exceed {n_slots} slots")
    if len(targets) == 0:
        return np.zeros((0, n_slots))
    probs = T.softmax(logits)
    class_cost = -probs[:, targets.classes].T            # [m, n]
    return class_cost + box_cost_matrix(targets.boxes, pred_boxes, weights)


def hungarian_assign(cost: np.ndarray) -> Assignment:
    """Minimum-cost injective assignment of rows to columns (m <= n).

    Rectangular Kuhn-Munkres with dual potentials and shortest
    augmenting paths, O(m^2 n).  Column scans run in index order with
    strict improvement, so the result is deterministic and ties resolve
    toward lower slot indices.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-d, got shape {cost.shape}")
    m, n = cost.shape
    if m > n:
        raise CapacityError(f"cost matrix {cost.shape} has more rows than columns")
    if m and not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    if m == 0:
        return Assignment(np.zeros(0, dtype=np.int64), n)

    # Column j is matched to row p[j]; index m is the virtual free row,
    # index n the virtual start column for each augmenting search.
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
    return Assignment(slot_of_target, n)


def match(class_logits, pred_boxes, targets: TargetSet,
          weights: LossWeights) -> Assignment:
    """Matching cost + Hungarian solve in one step."""
    cost = matching_cost_matrix(class_logits, pred_boxes, targets, weights)
    return hungarian_assign(cost)


def batch_hungarian_loss(class_logits: Tensor, pred_boxes: Tensor, target_sets,
                         assignments, weights: LossWeights,
                         num_objects: int | None = None):
    """Set loss of one decoder layer over a batch under fixed assignments.

    ``class_logits`` is [B,N,K+1], ``pred_boxes`` [B,N,4]; one TargetSet
    and Assignment per image.  Every slot contributes a negative
    log-likelihood term: matched slots for their target class, unmatched
    slots for no-object with weight ``weights.eos``.  Matched slots
    additionally contribute the box loss.  Class and box terms are each
    normalized by the number of real objects in the batch (floored at 1),
    which callers may override with ``num_objects``.  Returns (scalar
    Tensor, component dict).
    """
    batch, n_slots, k_plus_1 = class_logits.shape
    no_object = k_plus_1 - 1
    if num_objects is None:
        num_objects = sum(len(t) for t in target_sets)
    denom = float(max(1, num_objects))

    weight_mask = np.zeros((batch, n_slots, k_plus_1))
    weight_mask[:, :, no_object] = weights.eos
    matched_rows = []
    matched_targets = []
    for b, (targets, assignment) in enumerate(zip(target_sets, assignments)):
        if assignment.num_slots != n_slots or len(assignment) != len(targets):
            raise AssignmentError(
                f"assignment for image {b} does not fit {len(targets)} targets "
                f"and {n_slots} slots")
        slots = assignment.slot_of_target
        weight_mask[b, slots, no_object] = 0.0
        weight_mask[b, slots, targets.classes] = 1.0
        matched_rows.extend(b * n_slots + slots)
        matched_targets.append(targets.boxes)

    log_probs = T.log_softmax_lastdim(class_logits)
    class_term = T.tsum(log_probs * Tensor(weight_mask)) * (-1.0 / denom)

    l1_value = 0.0
    giou_value = 0.0
    if matched_rows:
        flat = T.reshape(pred_boxes, (batch * n_slots, 4))
        pred = T.take(flat, np.asarray(matched_rows, dtype=np.intp), axis=0)
        target = np.concatenate(matched_targets, axis=0)
        l1_term = T.tsum(l1_tensor(pred, target)) * (weights.l1 / denom)
        giou_term = T.tsum(1.0 - giou_tensor(pred, target)) * (weights.giou / denom)
        l1_value = l1_term.item()
        giou_value = giou_term.item()
        total = class_term + l1_term + giou_term
    else:
        total = class_term
    components = {"class": class_term.item(), "l1": l1_value, "giou": giou_value}
    return total, components


def total_loss(output, target_sets, weights: LossWeights, aux: bool = True):
    """Full training loss: matching + Hungarian loss per decoder layer.

    ``output`` is a sequence of per-layer predictions, each exposing
    ``class_logits`` [B,N,K+1] and ``boxes`` [B,N,4] Tensors, and
    ``target_sets`` holds one TargetSet per image.  Matching is recomputed
    independently on every layer's own predictions; with ``aux`` off only
    the final layer contributes.  Returns (scalar Tensor, component dict).
    """
    layers = list(output)
    if not aux:
        layers = layers[-1:]
    num_objects = sum(len(t) for t in target_sets)
    total = None
    components = {"class": 0.0, "l1": 0.0, "giou": 0.0}
    for layer in layers:
        logits, boxes = layer.class_logits, layer.boxes
        assignments = [
            match(logits.data[b], boxes.data[b], targets, weights)
            for b, targets in enumerate(target_sets)
        ]
        value, comps = batch_hungarian_loss(logits, boxes, target_sets,
                                            assignments, weights, num_objects)
        total = value if total is None else total + value
        for key in components:
            components[key] += comps[key]
    return total, components


def dice_loss(mask_logits: Tensor, target) -> Tensor:
    """Soft overlap loss per mask: 1 - (2*m*sig(l) + 1) / (sig(l) + m + 1),
    sums taken over pixels.  ``mask_logits`` is [k,h,w] and ``target`` a
    binary array of the same shape; returns [k, 1].  Object-count
    normalization is the caller's job.
    """
    target_np = np.asarray(target, dtype=np.float64)
    if mask_logits.ndim != 3 or mask_logits.shape != target_np.shape:
        raise T.DimensionError(f"dice_loss: need [k,h,w] masks, got mask shape "
                               f"{mask_logits.shape} vs target {target_np.shape}")
    k, h, w = mask_logits.shape
    probs = T.sigmoid(T.reshape(mask_logits, (k, h * w)))
    tgt = target_np.reshape(k, h * w)
    numer = T.tsum(probs * Tensor(2.0 * tgt), axis=1, keepdims=True) + 1.0
    denom = T.tsum(probs, axis=1, keepdims=True) + (tgt.sum(axis=1, keepdims=True) + 1.0)
    return 1.0 - numer / denom


def _softplus(x: Tensor) -> Tensor:
    return T.maximum(x, 0.0) + T.log(T.exp(-T.absolute(x)) + 1.0)


def focal_loss(mask_logits: Tensor, target, alpha: float = 0.25,
               gamma: float = 2.0) -> Tensor:
    """Sigmoid focal loss, mean over pixels:
    -alpha_t * (1 - p_t)^gamma * log(p_t), computed from logits without
    materializing probabilities near 0 or 1.
    """
    target_np = np.asarray(target, dtype=np.float64)
    if mask_logits.shape != target_np.shape:
        raise T.DimensionError(
            f"focal_loss: mask shape {mask_logits.shape} vs target {target_np.shape}")
    y = Tensor(target_np)
    log_p = -_softplus(-mask_logits)       # log sigmoid(x)
    log_1mp = -_softplus(mask_logits)      # log (1 - sigmoid(x))
    log_pt = y * log_p + (1.0 - y) * log_1mp
    log_1m_pt = y * log_1mp + (1.0 - y) * log_p
    alpha_t = alpha * target_np + (1.0 - alpha) * (1.0 - target_np)
    return T.tmean(T.exp(log_1m_pt * gamma) * log_pt * Tensor(-alpha_t))

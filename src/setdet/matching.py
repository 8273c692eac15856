"""Bipartite matching between ground truth and prediction slots, and the
set losses computed over the matched pairs.

The training signal has two stages: first an optimal injective assignment
of ground-truth objects to prediction slots is found by minimizing a
pairwise matching cost (class probability + box distance), then the loss
proper (negative log-likelihood + box loss) is evaluated over that
assignment.  Decoder layers and images share the batch rank: a step
builds one padded [L·B, m, N] cost tensor over every (layer, image) pair,
then one Hungarian solve per pair on its own rows, and one loss call
scores all L layers.  The assignment itself is treated as a constant during
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

    May be empty.  The paper pads every set with no-object entries up to
    the slot count N; those rows are never built, because a no-object row
    adds the same constant to every candidate assignment.  The batched
    cost tensor pads each image's rows with zeros only up to ``m``, the
    largest target count in the batch, and each image's solve sees only
    its own ``len(targets)`` rows.
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
    """Pairwise box loss, [..., m, 4] x [..., n, 4] -> [..., m, n], plain numpy."""
    l1 = np.abs(target_boxes[..., :, None, :] - pred_boxes[..., None, :, :]).sum(axis=-1)
    return weights.giou * (1.0 - giou_matrix(target_boxes, pred_boxes)) \
        + weights.l1 * l1


def matching_cost_matrix(class_logits: np.ndarray, pred_boxes: np.ndarray,
                         target_sets, weights: LossWeights) -> np.ndarray:
    """Pairwise matching cost between targets (rows) and slots (cols).

    [B,N,K+1] logits, [B,N,4] boxes and one TargetSet per image give [B,m,N]
    with m the largest target count and each image's rows zero-padded to m.
    Entry (b,i,j) = -p_bj(c_bi) + L_box(b_bi, b_hat_bj): plain probabilities
    keep the class term commensurable with the box term.
    """
    logits = np.asarray(class_logits, dtype=np.float64)
    pred_boxes = np.asarray(pred_boxes, dtype=np.float64)
    if (logits.ndim != 3 or pred_boxes.shape != (*logits.shape[:2], 4)
            or len(target_sets) != len(logits)):
        raise T.DimensionError(
            f"matching needs [B,N,K+1] logits, [B,N,4] boxes and B target sets, got "
            f"{logits.shape}, {pred_boxes.shape} and {len(target_sets)} target sets")
    batch, n_slots, k_plus_1 = logits.shape
    m = max((len(t) for t in target_sets), default=0)
    if m > n_slots:
        raise CapacityError(f"{m} targets exceed {n_slots} slots")
    classes = np.zeros((batch, m), dtype=np.int64)
    boxes = np.zeros((batch, m, 4))
    real = np.zeros((batch, m), dtype=bool)
    for b, targets in enumerate(target_sets):
        classes[b, :len(targets)] = targets.classes
        boxes[b, :len(targets)] = targets.boxes
        real[b, :len(targets)] = True
    bad = np.argwhere(real & ((classes < 0) | (classes >= k_plus_1 - 1)))
    if len(bad):
        b, i = bad[0]
        raise _class_error(b, classes[b, i], k_plus_1 - 1)
    class_cost = -np.take_along_axis(T.softmax(logits), classes[:, None, :], axis=2)  # [B,N,m]
    return class_cost.transpose(0, 2, 1) + box_cost_matrix(boxes, pred_boxes, weights)


def _class_error(image: int, cls: int, k: int) -> ValueError:
    return ValueError(f"image {image}: target class {cls} is outside [0, K) for K = {k}")


def hungarian_assign(cost: np.ndarray) -> Assignment:
    """Minimum-cost injective assignment of rows to columns (m <= n).

    Rectangular Kuhn-Munkres with dual potentials and shortest augmenting
    paths, O(m^2 n), on Python lists, which beat numpy's per-call overhead
    at a step's few-by-N sizes.  Column scans run in index order with strict
    improvement, so ties resolve deterministically toward lower slots.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-d, got shape {cost.shape}")
    m, n = cost.shape
    if m > n:
        raise CapacityError(f"cost matrix {cost.shape} has more rows than columns")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")

    # Column j is matched to row p[j]; index m is the virtual free row,
    # index n the virtual start column for each augmenting search.
    rows = cost.tolist()
    slot_of_target = [0] * m
    u = [0.0] * (m + 1)
    v = [0.0] * (n + 1)
    p = [m] * (n + 1)
    way = [0] * (n + 1)
    for i in range(m):
        p[n] = i
        j0 = n
        minv = [np.inf] * n
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta, j1 = np.inf, n
            for j in range(n):
                if not used[j]:
                    reduced = rows[i0][j] - u[i0] - v[j]
                    if reduced < minv[j]:
                        minv[j] = reduced
                        way[j] = j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == m:
                break
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            slot_of_target[p[j0]] = j0
            j0 = j1
    return Assignment(np.array(slot_of_target, dtype=np.int64), n)


def match(class_logits, pred_boxes, target_sets,
          weights: LossWeights) -> list[Assignment]:
    """One batched matching cost, then a Hungarian solve of each image's own rows."""
    cost = matching_cost_matrix(class_logits, pred_boxes, target_sets, weights)
    return [hungarian_assign(cost[b, :len(t)]) for b, t in enumerate(target_sets)]


def batch_hungarian_loss(class_logits: Tensor, pred_boxes: Tensor, target_sets,
                         assignments, weights: LossWeights):
    """Set loss of every decoder layer over a batch under fixed assignments.

    ``class_logits`` is [L,B,N,K+1] and ``pred_boxes`` [L,B,N,4]; one
    TargetSet per image and one Assignment per (layer, image) pair,
    layer-major.  Every slot contributes a negative log-likelihood term:
    matched slots for their target class, unmatched slots for no-object
    with weight ``weights.eos``.  Matched slots additionally contribute the
    box loss.  Each layer's class and box terms are normalized by the number
    of real objects in the batch (floored at 1), and each is summed over its
    own layer before the layers are added in order.  Returns (scalar Tensor,
    {"class" | "l1" | "giou": length-L array}).
    """
    layers, batch, n_slots, k_plus_1 = class_logits.shape
    if len(target_sets) != batch or len(assignments) != layers * batch:
        raise AssignmentError(
            f"{layers} layers of {batch} images need {batch} target sets and "
            f"{layers * batch} assignments, got {len(target_sets)} and {len(assignments)}")
    no_object = k_plus_1 - 1
    denom = float(max(1, sum(len(t) for t in target_sets)))

    weight_mask = np.zeros(class_logits.shape)
    weight_mask[..., no_object] = weights.eos
    matched_rows = []
    matched_targets = []
    for i, assignment in enumerate(assignments):     # i = layer * batch + b
        b = i % batch
        targets = target_sets[b]
        if assignment.num_slots != n_slots or len(assignment) != len(targets):
            raise AssignmentError(
                f"assignment for image {b} does not fit {len(targets)} targets "
                f"and {n_slots} slots")
        bad = targets.classes[(targets.classes < 0) | (targets.classes >= no_object)]
        if len(bad):
            raise _class_error(b, bad[0], no_object)
        slots = assignment.slot_of_target
        weight_mask[i // batch, b, slots, no_object] = 0.0
        weight_mask[i // batch, b, slots, targets.classes] = 1.0
        matched_rows.extend(i * n_slots + slots)
        matched_targets.append(targets.boxes)

    # sum each layer's own block, then add the layers in order: as scored alone
    log_probs = T.log_softmax_lastdim(class_logits)
    class_term = T.tsum(log_probs * Tensor(weight_mask), axis=(1, 2, 3)) * (-1.0 / denom)
    total = class_term
    components = {"class": class_term.data, "l1": np.zeros(layers), "giou": np.zeros(layers)}
    if matched_rows:
        flat = T.reshape(pred_boxes, (-1, 4))
        pred = T.reshape(T.take(flat, matched_rows), (layers, -1, 4))
        target = np.concatenate(matched_targets).reshape(layers, -1, 4)
        l1_term = T.tsum(l1_tensor(pred, target), axis=(1, 2)) * (weights.l1 / denom)
        giou_term = T.tsum(1.0 - giou_tensor(pred, target), axis=(1, 2)) * (weights.giou / denom)
        components.update(l1=l1_term.data, giou=giou_term.data)
        total = total + l1_term + giou_term
    return T.tsum(total), components


def total_loss(output, target_sets, weights: LossWeights, aux: bool = True):
    """Full training loss: one match and one Hungarian loss over every layer.

    ``output`` exposes ``class_logits`` [L,B,N,K+1] and ``boxes`` [L,B,N,4]
    Tensors (a DetectionOutput), and ``target_sets`` holds one TargetSet per
    image.  One ``match`` call solves all L·B (layer, image) pairs, so each
    layer is matched on its own predictions; with ``aux`` off only the final
    layer is selected and scored.  Returns (scalar Tensor, {"class" | "l1" |
    "giou": per-layer array}), as ``batch_hungarian_loss``.
    """
    logits, boxes = output.class_logits, output.boxes
    if not aux:
        logits, boxes = T.take(logits, [-1]), T.take(boxes, [-1])
    assignments = match(logits.data.reshape(-1, *logits.shape[2:]),
                        boxes.data.reshape(-1, *boxes.shape[2:]),
                        list(target_sets) * logits.shape[0], weights)
    return batch_hungarian_loss(logits, boxes, target_sets, assignments, weights)


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

import numpy as np
import pytest

from setdet import tensor as T
from setdet.data import SyntheticConfig, generate_scene
from setdet.matching import dice_loss, focal_loss
from setdet.segmentation import (
    MaskHead,
    PanopticMap,
    SegmentInfo,
    downsample_map,
    panoptic_from_sample,
    panoptic_merge,
)
from setdet.tensor import Tensor, grad_check


class TestMaskHead:
    def make(self, rng, d=8, heads=2, n=3, side=4):
        head = MaskHead(d, heads, rng)
        embs = Tensor(rng.normal(size=(d, n))[None])
        memory = Tensor(rng.normal(size=(d, side * side))[None])
        return head, embs, memory, side

    def test_heatmaps_normalized(self):
        rng = np.random.default_rng(0)
        head, embs, memory, side = self.make(rng)
        heat = head.attention_maps(embs, memory)
        assert heat.shape == (1, 2, 3, 16)
        assert np.abs(heat.data.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_one_logit_map_per_slot_at_double_resolution(self):
        rng = np.random.default_rng(1)
        head, embs, memory, side = self.make(rng, n=5)
        out = head(embs, memory, side, side)
        assert out.logits.shape == (1, 5, 8, 8)

    def test_dominant_column_wins_heatmap(self):
        rng = np.random.default_rng(2)
        d, heads, side = 8, 1, 3
        head = MaskHead(d, heads, rng)
        memory_np = rng.normal(scale=0.05, size=(d, side * side))
        emb = rng.normal(size=(d, 1))
        target_col = 5
        q = head.q_proj.tensor.data[0] @ emb + head.q_bias.tensor.data[0]
        # construct the key column so its projection aligns with q
        k_target = np.linalg.lstsq(head.k_proj.tensor.data[0], q[:, 0] * 50,
                                   rcond=None)[0]
        memory_np[:, target_col] = k_target
        heat = head.attention_maps(Tensor(emb[None]), Tensor(memory_np[None]))
        assert int(np.argmax(heat.data[0, 0, 0])) == target_col
        # scalar recomputation of the attention row
        kk = head.k_proj.tensor.data[0] @ memory_np + head.k_bias.tensor.data[0]
        scores = (q[:, 0] @ kk) / np.sqrt(head.d_head)
        want = np.exp(scores - scores.max())
        want /= want.sum()
        np.testing.assert_allclose(heat.data[0, 0, 0], want, atol=1e-12)

    def test_gradcheck_through_mask_losses(self):
        rng = np.random.default_rng(3)
        head, embs, memory, side = self.make(rng, n=2, side=2)
        target = (rng.random((2, 4, 4)) > 0.5).astype(float)

        def loss_fn(x):
            logits = T.reshape(head(embs, memory, side, side).logits, target.shape)
            return T.tsum(dice_loss(logits, target)) + focal_loss(logits, target)

        for param in (head.q_proj, head.conv1_w, head.conv2_w):
            err = grad_check(lambda t: loss_fn(t), param.tensor, eps=1e-5)
            assert err <= 1e-4, param.name

    def test_batch_equals_each_image_alone(self):
        rng = np.random.default_rng(5)
        head = MaskHead(8, 2, rng)
        embs = rng.normal(size=(3, 8, 4))
        memory = rng.normal(size=(3, 8, 16))
        batch = head(Tensor(embs), Tensor(memory), 4, 4)
        assert batch.logits.shape == (3, 4, 8, 8)
        assert batch.heatmaps.shape == (3, 2, 4, 16)
        for b in range(3):
            alone = head(Tensor(embs[b:b + 1]), Tensor(memory[b:b + 1]), 4, 4)
            assert np.array_equal(batch.logits.data[b], alone.logits.data[0])
            assert np.array_equal(batch.heatmaps.data[b], alone.heatmaps.data[0])


def uniform_logits(masks, high=10.0, low=-10.0):
    """One-hot style logits from boolean masks."""
    return np.where(np.asarray(masks, dtype=bool), high, low)


class TestPanopticMerge:
    def test_disjoint_confident_masks(self):
        m1 = np.zeros((8, 8), dtype=bool)
        m1[:4] = True
        m2 = ~m1
        pmap = panoptic_merge(uniform_logits([m1, m2]), [0.9, 0.95], [0, 1],
                              thing_classes=3)
        assert len(pmap.segments) == 2
        assert (pmap.labels[:4] == pmap.labels[0, 0]).all()
        assert (pmap.labels[4:] == pmap.labels[7, 7]).all()
        assert pmap.labels[0, 0] != pmap.labels[7, 7]

    def test_confidence_threshold_excludes(self):
        m = np.ones((4, 4), dtype=bool)
        pmap = panoptic_merge(uniform_logits([m]), [0.80], [0], thing_classes=1,
                              conf_thresh=0.85)
        assert pmap.segments == {}
        assert (pmap.labels == 0).all()

    def test_threshold_inclusive_at_exact_value(self):
        m = np.ones((4, 4), dtype=bool)
        pmap = panoptic_merge(uniform_logits([m]), [0.85], [0], thing_classes=1)
        assert len(pmap.segments) == 1

    def test_same_stuff_class_collapses(self):
        m1 = np.zeros((8, 8), dtype=bool)
        m1[:, :4] = True
        m2 = ~m1
        pmap = panoptic_merge(uniform_logits([m1, m2]), [0.9, 0.9], [7, 7],
                              thing_classes=3)
        assert len(pmap.segments) == 1
        sid = next(iter(pmap.segments))
        assert pmap.segments[sid] == SegmentInfo(7, False)
        assert (pmap.labels == sid).all()

    def test_min_area_reassigns_pixels(self):
        big = np.ones((8, 8), dtype=bool)
        tiny = np.zeros((8, 8), dtype=bool)
        tiny[0, :2] = True
        logits = uniform_logits([big, tiny])
        logits[1][tiny] = 20.0      # tiny slot wins its two pixels
        pmap = panoptic_merge(logits, [0.9, 0.9], [0, 1], thing_classes=3,
                              min_area=4)
        assert len(pmap.segments) == 1
        assert (pmap.labels == next(iter(pmap.segments))).all()

    def test_all_below_threshold_gives_void_map(self):
        m = np.ones((4, 4), dtype=bool)
        pmap = panoptic_merge(uniform_logits([m]), [0.5], [0], thing_classes=1)
        assert (pmap.labels == 0).all() and pmap.segments == {}

    def test_segments_disjoint_and_idempotent(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            logits = rng.normal(size=(n, 10, 10)) * 3
            conf = rng.uniform(0.5, 1.0, n)
            classes = rng.integers(0, 5, n)
            pmap = panoptic_merge(logits, conf, classes, thing_classes=3)
            # disjoint by construction of a label map; check areas and ids
            for sid in pmap.segments:
                area = pmap.area(sid)
                assert area >= 4 or not pmap.segments[sid].is_thing
                assert area >= 4
            stuff = [info.class_id for info in pmap.segments.values()
                     if not info.is_thing]
            assert len(stuff) == len(set(stuff))
            if not pmap.segments:
                continue
            ids = sorted(pmap.segments)
            relogits = np.stack([np.where(pmap.labels == sid, 10.0, -10.0)
                                 for sid in ids])
            re_classes = [pmap.segments[sid].class_id for sid in ids]
            re_map = panoptic_merge(relogits, np.ones(len(ids)), re_classes,
                                    thing_classes=3)
            assert (re_map.labels != 0).all() or (pmap.labels == 0).any()
            # compare partitions segment-by-segment
            assert len(re_map.segments) == len(pmap.segments)
            for old_sid, new_sid in zip(ids, sorted(re_map.segments)):
                assert pmap.segments[old_sid].class_id \
                    == re_map.segments[new_sid].class_id
                np.testing.assert_array_equal(pmap.labels == old_sid,
                                              re_map.labels == new_sid)


    @pytest.mark.parametrize("thresh", [-0.5, 1.01, float("nan"), False, "0.85"])
    def test_conf_thresh_must_be_a_real_in_unit_interval(self, thresh):
        m = np.ones((4, 4), dtype=bool)
        with pytest.raises(ValueError, match=r"^conf_thresh must be a real in \[0, 1\]"):
            panoptic_merge(uniform_logits([m]), [0.9], [0], thing_classes=1,
                           conf_thresh=thresh)


class TestPanopticGroundTruth:
    def test_from_sample_partition(self):
        cfg = SyntheticConfig(min_objects=2, max_objects=4, stuff_classes=2)
        sample = generate_scene(cfg, np.random.default_rng(5))
        pmap = panoptic_from_sample(sample, cfg.num_classes)
        assert (pmap.labels > 0).all()      # stuff covers everything else
        thing_count = sum(info.is_thing for info in pmap.segments.values())
        assert thing_count == sum(1 for m in sample.masks if m.any())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("stuff_classes", [1, 2])
    def test_stuff_boxes_stay_stuff(self, seed, stuff_classes):
        # the stuff bands' masks ride along in sample.masks; they must not
        # repaint their own stuff segment as a thing
        cfg = SyntheticConfig(min_objects=1, max_objects=3, stuff_classes=stuff_classes,
                              include_stuff_boxes=True)
        sample = generate_scene(cfg, np.random.default_rng(seed))
        assert (sample.targets.classes >= cfg.num_classes).sum() == stuff_classes
        pmap = panoptic_from_sample(sample, cfg.num_classes)
        stuff = sorted(info.class_id for info in pmap.segments.values() if not info.is_thing)
        things = [info.class_id for info in pmap.segments.values() if info.is_thing]
        assert stuff == sorted(set(sample.stuff_map.reshape(-1).tolist()))
        assert len(stuff) == stuff_classes
        assert all(cls < cfg.num_classes for cls in things)
        assert len(things) == sum(1 for cls, m in zip(sample.targets.classes, sample.masks)
                                  if cls < cfg.num_classes and m.any())

    def test_downsample_majority(self):
        labels = np.ones((8, 8), dtype=np.int64)
        labels[:, 4:] = 2
        pmap = PanopticMap(labels, {1: SegmentInfo(0, False),
                                    2: SegmentInfo(1, False)})
        down = downsample_map(pmap, 4)
        assert down.labels.shape == (2, 2)
        assert (down.labels[:, 0] == 1).all() and (down.labels[:, 1] == 2).all()

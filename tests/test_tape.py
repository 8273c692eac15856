"""The tape's lifetime: ``backward()`` frees the graph as it walks it, and
refuses a second walk, a spent node, an output without a tape and a tensor
written in place since the forward pass."""

import tracemalloc

import numpy as np
import pytest

from setdet import tensor as T
from setdet.data import TRAIN_NAMESPACE, build_dataset
from setdet.detector import Detector, load_checkpoint, save_checkpoint
from setdet.matching import total_loss
from setdet.tensor import TapeError, Tensor
from setdet.training import AdamW, TrainConfig

from test_detector import op_name, tape_bytes, tape_nodes, tiny_model
from test_matching import per_layer_total_loss


def old_walk(root):
    """``Tensor.backward`` as it was before it freed the tape: every node
    keeps its gradient, closure and parents.  The reference the freeing
    walk's gradients must equal bit for bit."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def default_step(seed):
    """Model, output and loss of one default-TrainConfig step (B=16)."""
    cfg = TrainConfig(seed=seed)
    samples = build_dataset(cfg.data, cfg.batch_size, TRAIN_NAMESPACE, cfg.seed)
    model = Detector(cfg.model, np.random.default_rng(cfg.seed))
    out = model.forward(np.stack([s.image for s in samples]), train=True,
                        rng=np.random.default_rng([seed, 4]))
    loss, _ = total_loss(out, [s.targets for s in samples], cfg.loss)
    return model, out, loss


def tiny_step(model, seed=0):
    rng = np.random.default_rng(seed)
    out = model.forward(rng.random((2, 3, 16, 16)), train=True, rng=rng)
    return T.tsum(T.take(out.boxes, [-1])) + T.tsum(T.take(out.class_logits, [0]))


def grads(model):
    return [None if p.tensor.grad is None else p.tensor.grad.copy()
            for p in model.parameters()]


def assert_grads_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.tobytes() == w.tobytes()


class TestFreeingWalk:
    def test_default_step_keeps_only_leaf_and_root_gradients(self):
        model, _, loss = default_step(3)
        nodes = tape_nodes([loss])
        assert len(nodes) == 161 and tape_bytes(loss) > 50e6
        # every parameter enters its op as it is stored
        params = {id(p.tensor) for p in model.parameters()}
        assert not any(id(p) in params for n in nodes if op_name(n) == "reshape"
                       for p in n._parents)
        loss.backward()
        assert tape_bytes(loss) == 0
        assert loss.grad.tolist() == 1.0
        assert all(n.grad is None and n._parents == () and n._backward is T._spent
                   for n in nodes if n is not loss)
        assert all(p.tensor.grad is not None and p.tensor.grad.shape == p.tensor.shape
                   for p in model.parameters())

    def test_default_step_peaks_at_its_tape_and_frees_it(self):
        cfg = TrainConfig(seed=3)
        samples = build_dataset(cfg.data, cfg.batch_size, TRAIN_NAMESPACE, cfg.seed)
        images = np.stack([s.image for s in samples])
        model = Detector(cfg.model, np.random.default_rng(cfg.seed))
        tracemalloc.start()
        try:
            out = model.forward(images, train=True, rng=np.random.default_rng(4))
            loss, _ = total_loss(out, [s.targets for s in samples], cfg.loss)
            loss.backward()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 64.0 MB measured, of which forward and loss reach 62.0 MB; 100.6 MB
        # while backward kept every interior gradient and closure
        assert peak < 70e6
        # with out and loss still held: 3.3 MB, 2.2 MB of it parameter
        # gradients; 97.8 MB while the graph outlived its walk
        assert held < 10e6

    @pytest.mark.parametrize("seed", [7, 11])
    def test_gradients_bitwise_equal_old_walk(self, seed):
        model, _, loss = default_step(seed)
        loss.backward()
        ref_model, _, ref_loss = default_step(seed)
        old_walk(ref_loss)
        got, want = grads(model), grads(ref_model)
        assert len(want) == 103 and all(w is not None for w in want)
        assert_grads_equal(got, want)

    def test_scalar_leaf_walks(self):
        x = Tensor(2.0, requires_grad=True)
        x.backward()
        assert x.grad.tolist() == 1.0


class TestStackedLayers:
    @pytest.mark.parametrize("aux", [True, False], ids=["aux", "final-only"])
    def test_default_step_gradients_equal_per_layer_loop(self, monkeypatch, aux):
        # the reference forward keeps each layer's own tensors, as the model
        # did before its output was stacked, and scores them one by one
        def step(per_layer):
            cfg = TrainConfig(seed=5)
            samples = build_dataset(cfg.data, cfg.batch_size, TRAIN_NAMESPACE, cfg.seed)
            targets = [s.targets for s in samples]
            model = Detector(cfg.model, np.random.default_rng(cfg.seed))
            out = model.forward(np.stack([s.image for s in samples]), train=True,
                                rng=np.random.default_rng([5, 4]))
            if per_layer:
                loss, _ = per_layer_total_loss(zip(out.class_logits, out.boxes), targets,
                                               cfg.loss, aux=aux)
            else:
                loss, _ = total_loss(out, targets, cfg.loss, aux=aux)
            loss.backward()
            return loss, grads(model)

        loss, got = step(per_layer=False)
        monkeypatch.setattr(T, "stack", list)
        want_loss, want = step(per_layer=True)
        assert loss.data.tobytes() == want_loss.data.tobytes()
        assert len(want) == 103 and all(w is not None for w in want)
        assert_grads_equal(got, want)

    @pytest.mark.parametrize("aux", [True, False], ids=["aux", "final-only"])
    def test_layers_the_loss_leaves_out_run_no_backward(self, monkeypatch, aux):
        def step():
            cfg = TrainConfig(seed=5, aux_loss=aux)
            samples = build_dataset(cfg.data, cfg.batch_size, TRAIN_NAMESPACE, cfg.seed)
            model = Detector(cfg.model, np.random.default_rng(cfg.seed))
            out = model.forward(np.stack([s.image for s in samples]), train=True,
                                rng=np.random.default_rng([5, 4]))
            loss, _ = total_loss(out, [s.targets for s in samples], cfg.loss, aux=aux)
            return out, loss, model

        out, loss, model = step()
        stacks = (out.class_logits, out.boxes)
        final = {id(n) for n in tape_nodes([s._parents[-1] for s in stacks])}
        earlier = [n for n in tape_nodes([p for s in stacks for p in s._parents[:-1]])
                   if id(n) not in final]
        # the first layer's class head, three box layers and shared_norm
        names = sorted(op_name(n) for n in earlier)
        assert names.count("linear") == 4 and names.count("layer_norm") == 1
        ran = []

        def recorded(node):
            closure = node._backward

            def backward(g):
                ran.append(node)
                closure(g)
            return backward

        for node in earlier:
            node._backward = recorded(node)
        loss.backward()
        assert len(ran) == (len(earlier) if aux else 0)
        assert all(n._backward is T._spent and n.grad is None for n in earlier)
        got = grads(model)

        # the reference stack hands every parent its slice, zero or not
        def handing_stack(tensors):
            tensors = tuple(tensors)

            def backward(g):
                for t, part in zip(tensors, g):
                    T._accumulate(t, part, owned=True)

            return T._result(np.stack([t.data for t in tensors]), tensors, backward)

        monkeypatch.setattr(T, "stack", handing_stack)
        _, want_loss, ref_model = step()
        want_loss.backward()
        want = grads(ref_model)
        assert loss.data.tobytes() == want_loss.data.tobytes()
        assert len(want) == 103 and all(w is not None for w in want)
        if aux:
            assert_grads_equal(got, want)
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestRefusedWalks:
    def test_second_walk(self):
        model = tiny_model()
        loss = tiny_step(model)
        loss.backward()
        before = grads(model)
        with pytest.raises(TapeError, match="walked once"):
            loss.backward()
        assert_grads_equal(grads(model), before)

    def test_new_loss_on_spent_node(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        out = model.forward(rng.random((2, 3, 16, 16)), train=True, rng=rng)
        T.tsum(T.take(out.boxes, [-1])).backward()
        before = grads(model)
        other = tiny_model(seed=1)
        fresh = T.tsum(T.take(other.forward(rng.random((2, 3, 16, 16))).boxes, [-1]))
        with pytest.raises(TapeError, match="walked once"):
            (fresh + T.tsum(T.take(out.class_logits, [-1]))).backward()
        assert_grads_equal(grads(model), before)
        assert all(g is None for g in grads(other))

    def test_output_without_tape(self):
        model = tiny_model()
        with T.no_grad():
            loss = tiny_step(model)
        with pytest.raises(TapeError, match="no tape"):
            loss.backward()
        with pytest.raises(TapeError, match="no tape"):
            T.tsum(Tensor([1.0, 2.0])).backward()
        assert all(g is None for g in grads(model))
        assert loss.grad is None

    def test_spent_closure_refuses_a_direct_call(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(x * x)
        loss.backward()
        with pytest.raises(TapeError):
            loss._backward(np.ones(()))


class TestInPlaceWrites:
    def test_adamw_step_before_backward(self):
        model = tiny_model()
        params = model.parameters()
        loss = tiny_step(model)
        AdamW([(params, 1e-3)]).step()
        with pytest.raises(TapeError, match="written in place") as err:
            loss.backward()
        # the error holds the tensor, so a caller with the parameters names it
        assert len([p.name for p in params if p.tensor is err.value.tensor]) == 1
        assert f"shape {err.value.tensor.shape}" in str(err.value)
        assert all(g is None for g in grads(model))

    def test_load_checkpoint_before_backward(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "model.sdtr")
        save_checkpoint(tiny_model(seed=1), path)
        loss = tiny_step(model)
        load_checkpoint(model, path)
        with pytest.raises(TapeError, match="written in place") as err:
            loss.backward()
        assert any(p.tensor is err.value.tensor for p in model.parameters())
        assert all(g is None for g in grads(model))

    def test_write_after_backward_is_fine(self):
        model = tiny_model()
        params = model.parameters()
        optimizer = AdamW([(params, 1e-3)])
        for seed in range(2):
            model.zero_grad()
            tiny_step(model, seed).backward()
            optimizer.step()
        assert all(p.tensor._version == 2 for p in params)

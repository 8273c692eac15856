import threading

import numpy as np
import pytest

from setdet import tensor as T
from setdet.matching import LossWeights, TargetSet, total_loss
from setdet.tensor import DimensionError, Tensor, grad_check
from multiplies import count_matmul_multiplies
from test_detector import tiny_model


def matmul_oracle(a, b):
    """Triple-loop reference product."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_2x2_by_2x1(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        out = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])
        np.testing.assert_array_equal(out.data, matmul_oracle(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, k, n = rng.integers(1, 6, size=3)
            a = rng.uniform(-2, 2, (m, k))
            b = rng.uniform(-2, 2, (k, n))
            out = T.matmul(Tensor(a), Tensor(b))
            np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 2, 4))
        w = rng.normal(size=(5, 2))
        out = T.matmul(Tensor(w), Tensor(a))
        assert out.shape == (3, 5, 4)
        for i in range(3):
            np.testing.assert_allclose(out.data[i], w @ a[i])


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, (4, 5))
        a = T.softmax_lastdim(Tensor(x)).data
        b = T.softmax_lastdim(Tensor(x + 7.5)).data
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_closed_form(self):
        out = T.softmax_lastdim(Tensor([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-14)

    def test_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, (6, 7, 8))
        s = T.softmax_lastdim(Tensor(x)).data.sum(axis=-1)
        assert np.abs(s - 1.0).max() <= 1e-12

    def test_numpy_softmax_bitwise_matches_inline_form(self):
        # the form postprocessing, matching and the CLI each wrote out
        rng = np.random.default_rng(5)
        for shape in [(7,), (10, 4), (3, 10, 4)]:
            x = rng.normal(size=shape) * 30
            want = np.exp(x - x.max(axis=-1, keepdims=True))
            want /= want.sum(axis=-1, keepdims=True)
            assert T.softmax(x).tobytes() == want.tobytes()
            assert T.softmax_lastdim(Tensor(x)).data.tobytes() == want.tobytes()
            assert type(T.softmax(x)) is np.ndarray


class TestGradCheck:
    def test_linear(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-2, 2, (3, 4)))
        err = grad_check(lambda t: T.tsum(t), x, eps=1e-5)
        assert err <= 1e-10
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_softmax_sum_is_constant(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-2, 2, (4,)))
        err = grad_check(lambda t: T.tsum(T.softmax_lastdim(t)), x, eps=1e-5)
        assert err <= 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_raises(self):
        x = Tensor([1.0])
        with pytest.raises(T.EvaluationError):
            grad_check(lambda t: T.log(T.sub(t, 1.0)), x, eps=1e-5)


def scalarize(t):
    """Fixed pseudo-random projection to a scalar so gradients are generic."""
    rng = np.random.default_rng(99)
    r = Tensor(rng.uniform(0.5, 1.5, t.shape))
    return T.tsum(T.mul(t, r))


PRIMITIVE_CASES = [
    ("add", lambda x, y: T.add(x, y), 2),
    ("sub", lambda x, y: T.sub(x, y), 2),
    ("mul", lambda x, y: T.mul(x, y), 2),
    ("div", lambda x, y: T.div(x, T.add(T.mul(y, 0.1), 3.0)), 2),
    ("maximum", lambda x, y: T.maximum(x, y), 2),
    ("minimum", lambda x, y: T.minimum(x, y), 2),
    ("relu", lambda x: T.relu(x), 1),
    ("sigmoid", lambda x: T.sigmoid(x), 1),
    ("exp", lambda x: T.exp(x), 1),
    ("log", lambda x: T.log(T.add(T.mul(x, 0.2), 3.0)), 1),
    ("abs", lambda x: T.absolute(x), 1),
    ("neg", lambda x: T.neg(x), 1),
    ("softmax", lambda x: T.softmax_lastdim(x), 1),
    ("log_softmax", lambda x: T.log_softmax_lastdim(x), 1),
]


@pytest.mark.parametrize("name,fn,arity", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients(name, fn, arity):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(3):
        shape = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        x = Tensor(rng.uniform(-2, 2, shape))
        if arity == 2:
            other = Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
            err = grad_check(lambda t: scalarize(fn(t, other)), x, eps=1e-5)
        else:
            err = grad_check(lambda t: scalarize(fn(t)), x, eps=1e-5)
        assert err <= 1e-5, f"{name} trial {trial}: {err}"


def test_second_operand_gradient():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-2, 2, (3, 3)))
    other = Tensor(rng.uniform(-2, 2, (3, 3)))
    err = grad_check(lambda t: scalarize(T.mul(other, t)), x, eps=1e-5)
    assert err <= 1e-5


def test_matmul_gradients():
    rng = np.random.default_rng(12)
    a = Tensor(rng.uniform(-2, 2, (3, 4)))
    b = Tensor(rng.uniform(-2, 2, (4, 2)))
    assert grad_check(lambda t: scalarize(T.matmul(t, b)), a, eps=1e-5) <= 1e-5
    assert grad_check(lambda t: scalarize(T.matmul(a, t)), b, eps=1e-5) <= 1e-5


def test_structural_op_gradients():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(-2, 2, (2, 3, 4)))
    assert grad_check(lambda t: scalarize(T.transpose(t)), x, eps=1e-5) <= 1e-5
    assert grad_check(lambda t: scalarize(T.transpose(t, (2, 0, 1))), x, eps=1e-5) <= 1e-5
    assert grad_check(lambda t: scalarize(T.reshape(t, (6, 4))), x, eps=1e-5) <= 1e-5
    assert grad_check(lambda t: scalarize(T.take(t, [1, 0, 1], axis=1)), x, eps=1e-5) <= 1e-5
    assert grad_check(lambda t: scalarize(T.tmean(t, axis=2)), x, eps=1e-5) <= 1e-5
    assert grad_check(lambda t: scalarize(T.tsum(t, axis=(0, 2))), x, eps=1e-5) <= 1e-5


def test_broadcast_gradients():
    rng = np.random.default_rng(14)
    x = Tensor(rng.uniform(-2, 2, (3, 1)))
    big = Tensor(rng.uniform(-2, 2, (2, 3, 4)))
    assert grad_check(lambda t: scalarize(T.add(big, t)), x, eps=1e-5) <= 1e-5
    assert grad_check(lambda t: scalarize(T.mul(big, t)), x, eps=1e-5) <= 1e-5


def test_broadcast_rejects_third_shape():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros((3, 1))), Tensor(np.zeros((1, 3))))
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))


def test_scalar_broadcast_allowed():
    x = Tensor(np.ones((2, 2)))
    out = x * 3.0 + 1.0
    np.testing.assert_array_equal(out.data, np.full((2, 2), 4.0))


def test_diamond_graph_accumulates_exactly():
    x = Tensor([1.5], requires_grad=True)
    y = T.tsum(T.add(x, x))
    y.backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        T.add(x, x).backward()


def test_grad_populated_once_per_leaf():
    x = Tensor([2.0], requires_grad=True)
    z = T.mul(x, 3.0)
    loss = T.tsum(T.add(z, T.mul(z, z)))
    loss.backward()
    # d/dx (3x + 9x^2) = 3 + 18x = 39
    np.testing.assert_allclose(x.grad, [39.0])


class TestLayerNorm:
    def test_constant_column_zeroed(self):
        x = Tensor(np.full((3, 2), 5.0))
        g = Tensor(np.ones((3, 1)))
        b = Tensor(np.zeros((3, 1)))
        out = T.layer_norm(x, g, b)
        assert np.abs(out.data).max() < 1e-6

    def test_standardized_moments(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.uniform(-3, 3, (16, 5)))
        out = T.layer_norm(x, Tensor(np.ones((16, 1))), Tensor(np.zeros((16, 1))))
        mean = out.data.mean(axis=0)
        var = out.data.var(axis=0)
        assert np.abs(mean).max() <= 1e-9
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_two_value_column(self):
        x = Tensor(np.array([[1.0], [3.0]]))
        out = T.layer_norm(x, Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 1))))
        expected = np.array([[-1.0], [1.0]]) / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, expected, atol=1e-14)

    def test_gradients(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(-2, 2, (4, 3)))
        g = Tensor(rng.uniform(0.5, 1.5, (4, 1)))
        b = Tensor(rng.uniform(-0.5, 0.5, (4, 1)))
        assert grad_check(lambda t: scalarize(T.layer_norm(t, g, b)), x, eps=1e-5) <= 1e-5
        assert grad_check(lambda t: scalarize(T.layer_norm(x, t, b)), g, eps=1e-5) <= 1e-5
        assert grad_check(lambda t: scalarize(T.layer_norm(x, g, t)), b, eps=1e-5) <= 1e-5


def scatter_conv2d(x, w, b=None, stride=1, padding=0):
    """The earlier conv2d, whose col2im scatters through np.add.at: the
    reference the strided-add x-gradient must equal bitwise."""
    B, C, H, W = x.shape
    O, Cw, kh, kw = w.shape
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(B * Ho * Wo, C * kh * kw)
    wmat = w.data.reshape(O, C * kh * kw)
    out = cols @ wmat.T
    if b is not None:
        out += b.data
    out = out.reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2)

    def backward(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, O)
        if w.requires_grad:
            T._accumulate(w, (gmat.T @ cols).reshape(w.shape), owned=True)
        if b is not None and b.requires_grad:
            T._accumulate(b, gmat.sum(axis=0), owned=True)
        if x.requires_grad:
            gcols = gmat @ wmat
            Hp, Wp = H + 2 * padding, W + 2 * padding
            gp = np.zeros((B, C, Hp * Wp))
            oy, ox = np.meshgrid(np.arange(Ho) * stride, np.arange(Wo) * stride,
                                 indexing="ij")
            uy, ux = np.meshgrid(np.arange(kh), np.arange(kw), indexing="ij")
            flat = ((oy.reshape(-1, 1) + uy.reshape(1, -1)) * Wp
                    + (ox.reshape(-1, 1) + ux.reshape(1, -1)))
            vals = gcols.reshape(B, Ho * Wo, C, kh * kw).transpose(0, 2, 1, 3)
            np.add.at(gp, (slice(None), slice(None), flat.reshape(-1)),
                      vals.reshape(B, C, -1))
            gx = gp.reshape(B, C, Hp, Wp)
            if padding:
                gx = gx[:, :, padding:-padding, padding:-padding]
            T._accumulate(x, gx, owned=True)

    return T._result(out, (x, w) if b is None else (x, w, b), backward)


def conv_x_grad(conv, x, w, stride, padding, upstream_seed):
    """x-gradient of <conv(x, w), g> for a fixed seeded upstream g with zeros."""
    xt = Tensor(x, requires_grad=True)
    out = conv(xt, Tensor(w), None, stride=stride, padding=padding)
    g = np.random.default_rng(upstream_seed).uniform(-1, 1, out.shape)
    g[g < -0.6] = 0.0
    T.tsum(T.mul(out, Tensor(g))).backward()
    return np.ascontiguousarray(xt.grad)


class TestConv2d:
    @staticmethod
    def conv_oracle(x, w, b, stride, padding):
        """Scalar loop reference convolution."""
        B, C, H, W = x.shape
        O, _, kh, kw = w.shape
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        Ho = (H + 2 * padding - kh) // stride + 1
        Wo = (W + 2 * padding - kw) // stride + 1
        out = np.zeros((B, O, Ho, Wo))
        for bi in range(B):
            for o in range(O):
                for i in range(Ho):
                    for j in range(Wo):
                        patch = xp[bi, :, i * stride:i * stride + kh,
                                   j * stride:j * stride + kw]
                        out[bi, o, i, j] = (patch * w[o]).sum() + (b[o] if b is not None else 0.0)
        return out

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_vs_oracle(self, stride, padding):
        rng = np.random.default_rng(17)
        x = rng.uniform(-1, 1, (2, 3, 6, 5))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        b = rng.uniform(-1, 1, 4)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, self.conv_oracle(x, w, b, stride, padding),
                                   atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(18)
        for k, stride, padding in [(3, 2, 1), (1, 1, 0), (2, 3, 0), (5, 1, 2), (3, 3, 2)]:
            x = Tensor(rng.uniform(-1, 1, (1, 2, 5, 6)))
            w = Tensor(rng.uniform(-1, 1, (3, 2, k, k)))
            b = Tensor(rng.uniform(-1, 1, 3))
            fn = lambda xx, ww, bb: scalarize(T.conv2d(xx, ww, bb, stride=stride,
                                                       padding=padding))
            assert grad_check(lambda t: fn(t, w, b), x, eps=1e-5) <= 1e-5
            assert grad_check(lambda t: fn(x, t, b), w, eps=1e-5) <= 1e-5
            assert grad_check(lambda t: fn(x, w, t), b, eps=1e-5) <= 1e-5

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_x_gradient_bitwise_matches_scatter(self, k, stride, padding, batch):
        rng = np.random.default_rng([k, stride, padding, batch])
        x = rng.uniform(-1, 1, (batch, 2, 7, 9))
        w = rng.uniform(-1, 1, (4, 2, k, k))
        got = conv_x_grad(T.conv2d, x, w, stride, padding, upstream_seed=1)
        want = conv_x_grad(scatter_conv2d, x, w, stride, padding, upstream_seed=1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        if stride > k:     # some input pixels lie under no kernel tap
            assert (got == 0).any()

    def test_train_step_gradients_bitwise_match_scatter(self, monkeypatch):
        def step_grads():
            model = tiny_model(seed=4)
            rng = np.random.default_rng(22)
            targets = [TargetSet.create([0], [[0.5, 0.5, 0.4, 0.4]]),
                       TargetSet.create([1, 0], [[0.3, 0.3, 0.2, 0.3],
                                                 [0.7, 0.6, 0.3, 0.2]])]
            out = model.forward(rng.random((2, 3, 16, 16)), train=True,
                                rng=np.random.default_rng(23))
            loss, _ = total_loss(out.layers, targets, LossWeights())
            loss.backward()
            return {p.name: p.tensor.grad for p in model.parameters()}

        got = step_grads()
        monkeypatch.setattr(T, "conv2d", scatter_conv2d)
        want = step_grads()
        assert got.keys() == want.keys()
        for name in want:
            assert want[name] is not None, name
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_bias_shape_must_match_out_channels(self):
        x, w = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(DimensionError, match=r"bias b must have shape \(3,\)"):
            T.conv2d(x, w, Tensor(np.zeros(1)))

    @pytest.mark.parametrize("stride", [0, -1, 1.0, True])
    def test_stride_must_be_positive_int(self, stride):
        x, w = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(DimensionError, match="stride"):
            T.conv2d(x, w, stride=stride)

    @pytest.mark.parametrize("padding", [-1, 0.5])
    def test_padding_must_be_natural_int(self, padding):
        x, w = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(DimensionError, match="padding"):
            T.conv2d(x, w, padding=padding)


class TestUpsample:
    def test_constant_preserved(self):
        x = Tensor(np.full((1, 1, 3, 3), 2.5))
        out = T.upsample2x_bilinear(x)
        assert out.shape == (1, 1, 6, 6)
        np.testing.assert_allclose(out.data, 2.5)

    def test_interpolates_midpoints(self):
        x = Tensor(np.array([[0.0, 1.0]]))
        out = T.upsample2x_bilinear(x)
        # centers at 0.25 source steps: [0, .25, .75, 1] of the segment
        np.testing.assert_allclose(out.data[0], [0.0, 0.25, 0.75, 1.0])

    def test_gradients(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
        assert grad_check(lambda t: scalarize(T.upsample2x_bilinear(t)), x, eps=1e-5) <= 1e-5


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = T.dropout(x, 0.5, np.random.default_rng(0), train=False)
        assert out is x

    def test_train_scaling(self):
        rng = np.random.default_rng(20)
        x = Tensor(np.ones((1000,)))
        out = T.dropout(x, 0.25, rng, train=True)
        vals = np.unique(out.data)
        assert set(np.round(vals, 10)) <= {0.0, np.round(1 / 0.75, 10)}
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_gradient_through_mask(self):
        x = Tensor(np.ones(8), requires_grad=True)
        out = T.dropout(x, 0.5, np.random.default_rng(3), train=True)
        T.tsum(out).backward()
        np.testing.assert_allclose(x.grad, (out.data != 0) * 2.0)


def test_multiply_counter_counts_matmul_only():
    a = Tensor(np.ones((3, 4)))
    b = Tensor(np.ones((4, 5)))
    matmul = T.matmul
    with count_matmul_multiplies() as c:
        T.matmul(a, b)
        T.mul(a, a)
    assert c.count == 3 * 4 * 5
    with count_matmul_multiplies() as c:
        T.matmul(Tensor(np.ones((7, 3, 4))), b)
    assert c.count == 7 * 3 * 4 * 5
    with count_matmul_multiplies() as c:
        a @ b
    assert c.count == 3 * 4 * 5 and T.matmul is matmul


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.mul(x, 2.0)
    assert out._backward is None and not out.requires_grad


def test_no_grad_is_per_thread():
    # the worker holds no_grad open while the main thread records, and a
    # fresh thread records whatever the main thread's state
    x = Tensor(np.ones(3), requires_grad=True)
    inside, done = threading.Barrier(2, timeout=10), threading.Barrier(2, timeout=10)
    seen = {}

    def worker():
        with T.no_grad():
            inside.wait()
            seen["worker"] = T.mul(x, 2.0).requires_grad
            done.wait()

    thread = threading.Thread(target=worker)
    thread.start()
    inside.wait()
    seen["main"] = T.mul(x, 2.0).requires_grad
    done.wait()
    thread.join(timeout=10)
    assert not thread.is_alive()

    def fresh():
        seen["fresh"] = T.mul(x, 2.0).requires_grad

    with T.no_grad():
        thread = threading.Thread(target=fresh)
        thread.start()
        thread.join(timeout=10)
        seen["main_in_no_grad"] = T.mul(x, 2.0).requires_grad
    assert not thread.is_alive()
    assert seen == {"worker": False, "main": True, "fresh": True,
                    "main_in_no_grad": False}

import functools
import math
import threading
import time
import tracemalloc

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


class TestStack:
    def test_gradients(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.uniform(-2, 2, (2, 3)))
        other = Tensor(rng.uniform(-2, 2, (2, 3)))
        assert grad_check(lambda t: scalarize(T.stack([t, other, t])), x, eps=1e-5) <= 1e-5
        assert grad_check(lambda t: scalarize(T.stack([T.transpose(t), T.transpose(other)])),
                          x, eps=1e-5) <= 1e-5

    def test_each_parent_gets_its_own_slice(self):
        a = Tensor(np.zeros((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.stack([a, T.transpose(c)])
        assert out.shape == (2, 2, 2)
        T.tsum(out * Tensor(np.arange(8.0).reshape(2, 2, 2))).backward()
        assert a.grad.tolist() == [[0, 1], [2, 3]]
        assert c.grad.tolist() == [[4, 6], [5, 7]]

    @pytest.mark.parametrize("shapes", [[], [(2, 3), (3, 2)], [(2, 3), (2, 3), (2, 3, 1)]],
                             ids=["empty", "transposed", "extra-axis"])
    def test_needs_equal_shapes(self, shapes):
        with pytest.raises(DimensionError, match="^stack: need one or more equal shapes"):
            T.stack([Tensor(np.zeros(shape)) for shape in shapes])


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


def formula_layer_norm(x, gain, bias, eps=1e-5):
    """``T.layer_norm`` as plain expressions, one fresh array per step: the
    reference its output and gradients must equal bit for bit."""
    mu = x.data.mean(axis=-2, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = gain.data * xhat + bias.data

    def backward(g):
        if gain.requires_grad:
            T._accumulate_reduced(gain, g * xhat, fresh=True)
        if bias.requires_grad:
            T._accumulate_reduced(bias, g, fresh=False)
        if x.requires_grad:
            gx = g * gain.data
            term = gx - gx.mean(axis=-2, keepdims=True) \
                - xhat * (gx * xhat).mean(axis=-2, keepdims=True)
            T._accumulate(x, term * inv, owned=True)

    return T._result(out, (x, gain, bias), backward)


def op_run(fn, arrays, **kwargs):
    """Forward without recording, forward with recording, and the gradient of
    every argument of a generic scalar of the recorded output."""
    with T.no_grad():
        plain = fn(*map(Tensor, arrays), **kwargs).data
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves, **kwargs)
    T.tsum(out * Tensor(np.random.default_rng(0).normal(size=out.shape))).backward()
    return [plain, out.data] + [t.grad for t in leaves]


def assert_bitwise(got, want, names):
    for name, g, w in zip(names, got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(16, 64, 64), (16, 64, 10), (1, 64, 225), (5, 3)])
    def test_bitwise_equal_to_formula(self, shape):
        rng = np.random.default_rng(17)
        d = shape[-2]
        arrays = [rng.normal(size=shape), rng.uniform(0.5, 1.5, (d, 1)),
                  rng.uniform(-0.5, 0.5, (d, 1))]
        want = op_run(formula_layer_norm, arrays)
        got = op_run(T.layer_norm, arrays)
        assert_bitwise(got, want, ("no_grad", "forward", "dx", "dgain", "dbias"))

    def test_forward_and_backward_write_into_owned_arrays(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(16, 64, 64)), requires_grad=True)
        gain, bias = (Tensor(rng.normal(size=(64, 1)), requires_grad=True) for _ in range(2))
        upstream = rng.normal(size=x.shape)
        tracemalloc.start()
        try:
            out = T.layer_norm(x, gain, bias)
            held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out._backward(upstream)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # forward: xhat and the output, where the plain expressions peak at
        # four [16,64,64] arrays; backward: g * gain and one term, where
        # they peak at three
        assert forward_peak < 2.5 * x.data.nbytes
        assert backward_peak < 2.5 * x.data.nbytes

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


def window_cols(x, kh, kw, stride, padding):
    """The earlier im2col: a strided sliding-window view of the zero-padded
    input, transposed and copied into [B, Ho*Wo, C*kh*kw] columns.  The
    gather through the cached index map must equal it bitwise."""
    B, C, H, W = x.shape
    if padding:
        xp = np.zeros((B, C, H + 2 * padding, W + 2 * padding))
        xp[:, :, padding:padding + H, padding:padding + W] = x
    else:
        xp = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]                      # [B,C,Ho,Wo,kh,kw]
    Ho, Wo = win.shape[2:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(B, Ho * Wo, C * kh * kw), Ho, Wo


def window_conv2d_forward(x, w, b, stride, padding):
    """The earlier conv2d forward on arrays: window columns, one product per
    image, bias, and the [B,O,Ho,Wo] view of channels-last output."""
    O, C, kh, kw = w.shape
    cols, Ho, Wo = window_cols(x, kh, kw, stride, padding)
    out = cols @ w.reshape(O, C * kh * kw).T
    if b is not None:
        out += b
    return out.reshape(len(x), Ho, Wo, O).transpose(0, 3, 1, 2)


def scatter_conv2d(x, w, b=None, stride=1, padding=0):
    """The earlier conv2d, with window columns and a col2im that scatters
    through np.add.at: the reference the bincount x-gradient must equal
    bitwise."""
    B, C, H, W = x.shape
    O, Cw, kh, kw = w.shape
    cols, Ho, Wo = window_cols(x.data, kh, kw, stride, padding)
    cols = cols.reshape(B * Ho * Wo, C * kh * kw)
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


def layouts(x):
    """``x`` [B,C,H,W] as an NCHW-contiguous array, as an NCHW view of
    channels-last memory (the layout a ReLU hands the next conv2d), and as
    a strided view that is neither."""
    strided = np.zeros(x.shape[:3] + (2 * x.shape[3],))[..., ::2]
    strided[...] = x
    return {"nchw": np.ascontiguousarray(x),
            "channels-last": np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
            "strided": strided}


def conv_x_grad(conv, x, w, stride, padding, upstream_seed):
    """x-gradient of <conv(x, w), g> for a fixed seeded upstream g with zeros."""
    xt = Tensor(x, requires_grad=True)
    out = conv(xt, Tensor(w), None, stride=stride, padding=padding)
    g = np.random.default_rng(upstream_seed).uniform(-1, 1, out.shape)
    g[g < -0.6] = 0.0
    T.tsum(T.mul(out, Tensor(g))).backward()
    return np.ascontiguousarray(xt.grad)


# square kernels by their side; non-square ones by "khxkw"
KERNELS = [1, 2, 3, 5, pytest.param((2, 3), id="2x3"), pytest.param((3, 1), id="3x1"),
           pytest.param((1, 5), id="1x5")]


def kernel_shape(k):
    return (k, k) if isinstance(k, int) else k


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

    @pytest.mark.parametrize("shape, weight", [((4, 4, 8, 8), (8, 4, 3, 3)),
                                               ((20, 8, 4, 4), (16, 8, 3, 3))])
    def test_batch_equals_each_image_alone(self, shape, weight):
        # one product per image: an image's output does not depend on the batch
        rng = np.random.default_rng(19)
        x, w, b = rng.normal(size=shape), rng.normal(size=weight), rng.normal(size=weight[0])
        batch = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        for i in range(shape[0]):
            alone = T.conv2d(Tensor(x[i:i + 1]), Tensor(w), Tensor(b), padding=1).data
            np.testing.assert_array_equal(batch[i], alone[0])

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

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("shape, weight, stride, padding, layout", [
        ((16, 3, 64, 64), (16, 3, 3, 3), 2, 1, "nchw"),             # an image batch
        ((16, 16, 32, 32), (32, 16, 3, 3), 2, 1, "channels-last"),  # a ReLU output
        ((16, 64, 8, 8), (64, 64, 1, 1), 1, 0, "channels-last"),    # the identity map
        ((5, 2, 7, 9), (4, 2, 2, 3), 3, 2, "strided"),
    ])
    def test_split_equals_serial_bitwise(self, monkeypatch, cpus, shape, weight, stride,
                                         padding, layout):
        rng = np.random.default_rng(23)
        x = layouts(rng.uniform(-1, 1, shape))[layout]
        w, b = rng.uniform(-1, 1, weight), rng.uniform(-1, 1, weight[0])

        def run():
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
            g = np.random.default_rng(1).uniform(-1, 1, out.shape)
            T.tsum(T.mul(out, Tensor(g))).backward()
            return [np.ascontiguousarray(a).tobytes()
                    for a in (out.data, xt.grad, wt.grad, bt.grad)]

        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
        want = run()
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(T, "SPLIT_MIN_WORK", 0)
        helper = record_helper(monkeypatch)
        assert run() == want
        # the gathers and products, then the col2im
        assert helper.calls == [(shape[0] // 2, shape[0])] * 2

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("shape, weight, stride, padding, layout", [
        ((16, 3, 64, 64), (16, 3, 3, 3), 2, 1, "nchw"),             # the default backbone
        ((16, 16, 32, 32), (32, 16, 3, 3), 2, 1, "channels-last"),
        ((16, 32, 16, 16), (64, 32, 3, 3), 2, 1, "channels-last"),
        ((16, 64, 8, 8), (64, 64, 1, 1), 1, 0, "channels-last"),    # the input projection
    ])
    def test_x_gradient_at_model_shapes_matches_scatter(self, monkeypatch, cpus, shape, weight,
                                                        stride, padding, layout):
        """col2im's product per range of images, split or not, equals the
        reference's one whole-batch GEMM: BLAS must give each row the same
        result whatever the row count."""
        rng = np.random.default_rng(24)
        x = layouts(rng.uniform(-1, 1, shape))[layout]
        w = rng.uniform(-1, 1, weight)
        want = conv_x_grad(scatter_conv2d, x, w, stride, padding, upstream_seed=1)
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(T, "SPLIT_MIN_WORK", 0)
        helper = record_helper(monkeypatch)
        got = conv_x_grad(T.conv2d, x, w, stride, padding, upstream_seed=1)
        assert got.tobytes() == want.tobytes()
        assert len(helper.calls) == (2 if cpus > 1 else 0)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", KERNELS)
    def test_x_gradient_bitwise_matches_scatter(self, k, stride, padding, batch):
        kh, kw = kernel_shape(k)
        rng = np.random.default_rng([*np.atleast_1d(k), stride, padding, batch])
        x = rng.uniform(-1, 1, (batch, 2, 7, 9))
        w = rng.uniform(-1, 1, (4, 2, kh, kw))
        for layout, x in layouts(x).items():
            got = conv_x_grad(T.conv2d, x, w, stride, padding, upstream_seed=1)
            want = conv_x_grad(scatter_conv2d, x, w, stride, padding, upstream_seed=1)
            np.testing.assert_array_equal(got, want, err_msg=layout)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=layout)
            if stride > min(kh, kw):     # some input pixels lie under no kernel tap
                assert (got == 0).any()

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("channels", [1, 3, 16])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", KERNELS)
    def test_forward_bitwise_matches_window(self, k, stride, padding, channels, batch):
        kh, kw = kernel_shape(k)
        rng = np.random.default_rng([*np.atleast_1d(k), stride, padding, channels, batch])
        w, b = rng.uniform(-1, 1, (4, channels, kh, kw)), rng.uniform(-1, 1, 4)
        x = rng.uniform(-1, 1, (batch, channels, 7, 9))
        x[x < -0.8] = -0.0
        want = window_conv2d_forward(x, w, b, stride, padding)
        for layout, xl in layouts(x).items():
            with T.no_grad():
                got = T.conv2d(Tensor(xl), Tensor(w), Tensor(b), stride=stride,
                               padding=padding).data
            assert got.shape == want.shape and got.strides == want.strides, layout
            assert got.tobytes() == want.tobytes(), layout

    @pytest.mark.parametrize("channels_last", [False, True])
    def test_index_map_is_read_only_and_shared(self, channels_last):
        index, pads = T._im2col_index(7, 9, 3, 3, 3, 2, 1, channels_last)
        assert T._im2col_index(7, 9, 3, 3, 3, 2, 1, channels_last)[0] is index
        assert index.shape == (4 * 5, 3 * 3 * 3)
        np.testing.assert_array_equal(pads, np.flatnonzero(index == 3 * 7 * 9))
        for array in (index, pads):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_train_step_gradients_bitwise_match_scatter(self, monkeypatch):
        def step_grads():
            model = tiny_model(seed=4)
            rng = np.random.default_rng(22)
            targets = [TargetSet.create([0], [[0.5, 0.5, 0.4, 0.4]]),
                       TargetSet.create([1, 0], [[0.3, 0.3, 0.2, 0.3],
                                                 [0.7, 0.6, 0.3, 0.2]])]
            out = model.forward(rng.random((2, 3, 16, 16)), train=True,
                                rng=np.random.default_rng(23))
            loss, _ = total_loss(out, targets, LossWeights())
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

    @pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, 1), (2, 1, 5), (3, 2, 2),
                                       (2, 4, 7, 6), (2, 10, 8, 8), (2, 6, 15, 15)])
    def test_x_gradient_bitwise_matches_add_at(self, shape):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        g = rng.normal(size=shape[:-2] + (2 * shape[-2], 2 * shape[-1]))
        T.tsum(T.upsample2x_bilinear(x) * Tensor(g)).backward()
        want = add_at_upsample_grad(shape, g)
        assert x.grad.tobytes() == want.tobytes()


def add_at_upsample_grad(shape, g):
    """x-gradient of 2x bilinear upsampling by one np.add.at scatter per
    corner: the reference the strided backward must equal bit for bit."""
    H, W = shape[-2:]
    iy0, iy1, wy = T._linear_idx(H)
    ix0, ix1, wx = T._linear_idx(W)
    acc = np.zeros(shape).reshape(-1, H, W)
    gflat = g.reshape(-1, 2 * H, 2 * W)
    for yy, xx, ww in ((iy0, ix0, (1 - wy)[:, None] * (1 - wx)[None, :]),
                       (iy0, ix1, (1 - wy)[:, None] * wx[None, :]),
                       (iy1, ix0, wy[:, None] * (1 - wx)[None, :]),
                       (iy1, ix1, wy[:, None] * wx[None, :])):
        np.add.at(acc, (slice(None), yy[:, None], xx[None, :]), gflat * ww)
    return acc.reshape(shape)


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

    @pytest.mark.parametrize("shape,p", [((16, 64, 64), 0.1), ((16, 64, 10), 0.1),
                                         ((3, 7), 0.5)])
    def test_bitwise_equal_to_float_mask(self, shape, p):
        def float_mask(x, p, rng, train):
            keep = (rng.random(x.shape) >= p) / (1.0 - p)

            def backward(g):
                T._accumulate(x, g * keep, owned=True)

            return T._result(x.data * keep, (x,), backward)

        x = np.random.default_rng(21).normal(size=shape)
        runs = [op_run(fn, [x], p=p, rng=np.random.default_rng(5), train=True)
                for fn in (float_mask, T.dropout)]
        # each run draws its no_grad mask first, then the recorded one
        assert_bitwise(runs[1], runs[0], ("no_grad", "forward", "dx"))

    def test_tape_keeps_bool_draw(self):
        x = Tensor(np.ones((4, 50)), requires_grad=True)
        out = T.dropout(x, 0.1, np.random.default_rng(6), train=True)
        held = [c.cell_contents for c in out._backward.__closure__]
        masks = [a for a in held if isinstance(a, np.ndarray)]
        assert [m.dtype for m in masks] == [np.bool_]


def composed_linear(w, x, b, relu=False):
    """The chain ``T.linear`` replaced, one tape node per step: the
    reference its output and gradients must equal bit for bit."""
    out = T.matmul(w, x) + b
    return T.relu(out) if relu else out


# (w, x) at the default model: projections, FFN, class and box heads over
# encoder tokens and decoder slots, and a 1-image 120px request
LINEAR_SHAPES = [((64, 64), (16, 64, 64)), ((256, 64), (16, 64, 64)),
                 ((64, 256), (16, 256, 10)), ((4, 64), (16, 64, 10)),
                 ((64, 64), (1, 64, 225)), ((3, 5), (5, 1)), ((4, 3), (2, 3, 1))]


class TestLinear:
    @staticmethod
    def check_bitwise(w_shape, x_shape, relu):
        rng = np.random.default_rng(8)
        arrays = [rng.normal(size=w_shape), rng.normal(size=x_shape),
                  rng.normal(size=(w_shape[0], 1))]
        want = op_run(composed_linear, arrays, relu=relu)
        got = op_run(T.linear, arrays, relu=relu)
        assert_bitwise(got, want, ("no_grad", "forward", "dw", "dx", "db"))

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("w_shape,x_shape", LINEAR_SHAPES)
    def test_bitwise_equal_to_composed_chain(self, monkeypatch, w_shape, x_shape, relu):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)   # the whole-array path
        self.check_bitwise(w_shape, x_shape, relu)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("w_shape,x_shape", LINEAR_SHAPES)
    def test_sliced_form_bitwise_equal_to_composed_chain(self, monkeypatch, w_shape, x_shape,
                                                         relu):
        # with no bound every call whose x has 2+ slices takes the
        # per-slice form, split over both threads
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(T, "SPLIT_MIN_WORK", 0)
        self.check_bitwise(w_shape, x_shape, relu)

    def test_operand_without_gradient_gets_none(self):
        rng = np.random.default_rng(9)
        w, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 1)))
        x = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        T.tsum(T.linear(w, x, b, relu=True)).backward()
        assert w.grad is None and b.grad is None and x.grad.shape == x.shape

    def test_tape_keeps_output_and_bool_mask(self):
        rng = np.random.default_rng(10)
        w, x, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((6, 4), (2, 4, 5), (6, 1)))
        out = T.linear(w, x, b, relu=True)
        assert out._parents == (w, x, b)
        held = [c.cell_contents for c in out._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert [a.dtype for a in arrays] == [np.bool_]
        assert (out.data >= 0).all()

    @pytest.mark.parametrize("shapes", [
        ((3, 4), (2, 5, 6), (3, 1)),        # inner dims differ
        ((3, 4), (2, 4, 6), (4, 1)),        # bias rows differ from d_out
        ((3, 4), (2, 4, 6), (3,)),          # bias is not a column
        ((2, 3, 4), (2, 4, 6), (3, 1)),     # stacked weight
        ((3, 4), (4,), (3, 1)),             # x has no [d_in, N] axes
    ])
    def test_shapes_checked(self, shapes):
        w, x, b = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(DimensionError, match="^linear: need w") as exc:
            T.linear(w, x, b)
        for s in shapes:
            assert str(s) in str(exc.value)


def composed_attention(q, k, v, heads):
    """The chain ``T.attention`` replaced, one tape node per step, on the
    [..., heads, d', N] view of each operand: the reference its forward and
    gradients must equal bit for bit."""
    *lead, d, nq = q.shape
    dh = d // heads

    def split(t):
        return T.reshape(t, (*lead, heads, dh, t.shape[-1]))

    scores = T.matmul(T.transpose(split(q) * (1.0 / math.sqrt(dh))), split(k))
    alpha = T.softmax_lastdim(scores)
    return T.reshape(T.matmul(split(v), T.transpose(alpha)), q.shape)


def attention_run(fn, q_shape, nkv, seed=0, heads=1):
    """Forward without recording, forward with recording, and the q/k/v
    gradients of a generic scalar of the recorded output."""
    rng = np.random.default_rng(seed)
    *lead, d, nq = q_shape
    arrays = [rng.normal(size=q_shape), rng.normal(size=(*lead, d, nkv)),
              rng.normal(size=(*lead, d, nkv))]
    upstream = Tensor(rng.normal(size=q_shape))
    with T.no_grad():
        plain = fn(*map(Tensor, arrays), heads).data
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves, heads)
    T.tsum(out * upstream).backward()
    return [plain, out.data] + [t.grad for t in leaves]


# (batch, heads, d', Nq) and Nkv: the default train step's encoder and
# decoder attentions, a 120 px predict's encoder, and a batch of 20
ATTENTION_SHAPES = [((16, 8, 8, 64), 64), ((16, 8, 8, 10), 64), ((16, 8, 8, 10), 10),
                    ((1, 8, 8, 225), 225), ((20, 8, 8, 64), 64)]


class TestAttention:
    @pytest.mark.parametrize("q_shape,nkv", ATTENTION_SHAPES)
    def test_bitwise_equal_to_composed_path(self, q_shape, nkv):
        batch, heads, dh, nq = q_shape
        run = functools.partial(attention_run, q_shape=(batch, heads * dh, nq), nkv=nkv,
                                heads=heads)
        want, got = run(composed_attention), run(T.attention)
        for name, g, w in zip(("no_grad", "forward", "dq", "dk", "dv"), got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("q_shape,nkv,splits", [
        ((16, 8, 8, 64), 64, True),         # 8.39M multiplies forward
        ((2, 4, 4, 10), 12, False),
    ])
    def test_heads_equal_one_head_on_the_split_view(self, monkeypatch, q_shape, nkv,
                                                    splits):
        # heads=M on [B, d, N] against heads=1 on the [B, M, d', N] view: one
        # seed draws the same numbers for either shape
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        batch, heads, dh, nq = q_shape
        assert (2 * batch * heads * dh * nq * nkv >= T.SPLIT_MIN_WORK) == splits
        helper = record_helper(monkeypatch)
        got = attention_run(T.attention, (batch, heads * dh, nq), nkv, heads=heads)
        assert bool(helper.calls) == splits
        want = attention_run(T.attention, q_shape, nkv, heads=1)
        for name, g, w in zip(("no_grad", "forward", "dq", "dk", "dv"), got, want):
            assert g.tobytes() == w.tobytes() and g.size == w.size, name

    @pytest.mark.parametrize("q_shape,nkv,budget", [
        ((1, 1, 8, 200), 200, None),        # one slice larger than the budget
        ((3, 5, 4, 64), 64, None),          # 15 slices in blocks of 8
        ((2, 3, 4, 6), 5, 4 * 6 * 5 * 8),   # blocks of 4 over 6 slices
        ((1, 1, 4, 6), 5, None),            # a single slice
        ((7, 4, 6), 9, 1),                  # one slice per block, 3-d operands
    ])
    def test_block_edges_bitwise(self, monkeypatch, q_shape, nkv, budget):
        if budget is not None:
            monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", budget)
        want = attention_run(composed_attention, q_shape, nkv, seed=1)
        got = attention_run(T.attention, q_shape, nkv, seed=1)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_grad_check(self, monkeypatch):
        # two heads of 2 channels each over operands of width 4
        monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", 2 * 3 * 5 * 8)
        rng = np.random.default_rng(2)
        q, k, v = (Tensor(rng.normal(size=(2, 3, 4, n))) for n in (3, 5, 5))

        def check(which):
            def f(t):
                args = [q, k, v]
                args[which] = t
                return scalarize(T.attention(*args, 2))
            return grad_check(f, [q, k, v][which], eps=1e-6)

        for which in range(3):
            assert check(which) <= 1e-6, which

    def test_no_grad_holds_one_block(self, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)       # the serial path
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(1, 8, 8, 225))) for _ in range(3))
        full_scores = 8 * 225 * 225 * 8                     # 3.2 MB
        tracemalloc.start()
        try:
            with T.no_grad():
                out = T.attention(q, k, v, 1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one [225,225] block (405 kB), the scaled q and the output (115 kB
        # each) and numpy's buffers: about 0.7 MB, where the composed chain
        # peaked at 6.6 MB
        assert peak < full_scores / 3
        # what stays alive is the [1,8,8,225] output, not the probabilities
        assert current < 4 * out.data.nbytes
        assert out._backward is None and out._parents == ()

    def test_no_grad_holds_one_block_per_thread(self, monkeypatch):
        # the 1-CPU test's twin: at 2 CPUs the helper runs the upper 4 of
        # the 8 one-slice blocks into a block of scores of its own (6.5M
        # multiplies, below the bound, which is lifted)
        monkeypatch.setattr(T, "SPLIT_MIN_WORK", 0)
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.normal(size=(1, 8, 8, 225))) for _ in range(3))
        block = 225 * 225 * 8                               # 405 kB

        def run(cpus):
            monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                with T.no_grad():
                    out = T.attention(q, k, v, 1)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return out, current, peak

        serial, _, serial_peak = run(1)
        run(2)                              # the helper thread starts outside the count
        helper = record_helper(monkeypatch)
        out, current, peak = run(2)
        assert helper.calls == [(4, 8)]
        # at most the helper's own block and its small temporaries (the two
        # halves need not overlap in time): a second block in either thread
        # would add 405 kB more
        assert peak < serial_peak + block * 3 / 2
        assert out.data.tobytes() == serial.data.tobytes()
        assert current < 4 * out.data.nbytes
        assert out._backward is None and out._parents == ()

    def test_recording_keeps_probabilities_not_scores(self):
        rng = np.random.default_rng(4)
        q, k, v = (Tensor(rng.normal(size=(2, 2, 4, 40)), requires_grad=True)
                   for _ in range(3))
        probs = 2 * 2 * 40 * 40 * 8
        tracemalloc.start()
        try:
            out = T.attention(q, k, v, 1)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the scaled q, the output and one [2,2,40,40] array of probabilities;
        # the composed chain also kept the raw scores, another `probs` bytes
        assert current < 2 * q.data.nbytes + probs * 3 // 2
        assert out._parents == (q, k, v)

    @pytest.mark.parametrize("shapes", [
        ((2, 4, 5), (2, 4, 6), (2, 4, 7)),      # k and v differ
        ((2, 4, 5), (2, 3, 6), (2, 3, 6)),      # head widths differ
        ((3, 4, 5), (2, 4, 6), (2, 4, 6)),      # leading axes differ
        ((5,), (5,), (5,)),                     # no [d', N] axes
    ])
    def test_shapes_checked(self, shapes):
        q, k, v = (Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(DimensionError, match="^attention: need q"):
            T.attention(q, k, v, 1)

    @pytest.mark.parametrize("heads", [0, 3, 9, True, 2.0, None])
    def test_heads_checked(self, heads):
        q, k, v = (Tensor(np.zeros((2, 8, 5))) for _ in range(3))
        with pytest.raises(DimensionError, match="^attention: heads must be an int in") as exc:
            T.attention(q, k, v, heads)
        assert f"heads={heads!r}" in str(exc.value) and "width 8" in str(exc.value)

    def test_scale_is_one_over_root_head_width(self):
        # one kv column per query pair: the softmax of two scores s, 0 is
        # sigmoid(s), with s = q·k / sqrt(d / heads) read back from the output
        q = Tensor(np.full((1, 8, 1), 0.5))
        k = Tensor(np.concatenate([np.full((1, 8, 1), 1.0), np.zeros((1, 8, 1))], axis=-1))
        v = Tensor(np.concatenate([np.ones((1, 8, 1)), np.zeros((1, 8, 1))], axis=-1))
        for heads in (1, 2, 8):
            out = T.attention(q, k, v, heads).data
            s = 0.5 * (8 // heads) / math.sqrt(8 // heads)
            np.testing.assert_allclose(out, 1 / (1 + math.exp(-s)), rtol=1e-14)


def test_constant_operand_gradient_is_not_reduced(monkeypatch):
    # x + pos, x * pos, ... with a fixed [d, N] table: backward must not sum
    # the [B, d, N] gradient over the batch for the table
    calls = []
    unbroadcast = T._unbroadcast

    def spy(grad, shape):
        calls.append(shape)
        return unbroadcast(grad, shape)

    monkeypatch.setattr(T, "_unbroadcast", spy)
    rng = np.random.default_rng(15)
    pos = Tensor(rng.uniform(1, 2, (4, 5)))
    for op in (T.add, T.sub, T.mul, T.div, T.maximum, T.minimum):
        for x_first in (True, False):
            x = Tensor(rng.uniform(1, 2, (3, 4, 5)), requires_grad=True)
            calls.clear()
            T.tsum(op(x, pos) if x_first else op(pos, x)).backward()
            assert calls and all(shape == x.shape for shape in calls), op.__name__
            assert x.grad.shape == x.shape and pos.grad is None


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
    attention = T.attention
    with count_matmul_multiplies() as c:       # qᵀk and v·Pᵀ of 2 x 3 heads of 4
        T.attention(Tensor(np.ones((2, 12, 5))), Tensor(np.ones((2, 12, 7))),
                    Tensor(np.ones((2, 12, 7))), 3)
    assert c.count == 2 * 6 * 4 * 5 * 7 and T.attention is attention
    linear = T.linear
    with count_matmul_multiplies() as c:       # W·x over a batch of 2; not the bias
        T.linear(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 5))),
                 Tensor(np.ones((3, 1))), relu=True)
    assert c.count == 2 * 3 * 4 * 5 and T.linear is linear


class RecordingHelper:
    """Stands in for ``T._helper()``: records each (lo, hi) half it is
    handed and runs it on the real helper thread, returning once the half
    has started there, so the caller never runs it in the helper's place."""

    def __init__(self):
        self.real, self.calls = T._helper(), []

    def submit(self, fn, lo, hi):
        self.calls.append((lo, hi))             # atomic, from any thread
        started = threading.Event()

        def run():
            started.set()
            fn(lo, hi)

        upper = self.real.submit(run)
        assert started.wait(timeout=10)
        return upper


def record_helper(monkeypatch) -> RecordingHelper:
    helper = RecordingHelper()
    monkeypatch.setattr(T, "_helper", lambda: helper)
    return helper


class TestSpareCore:
    """``T._halves``, the dispatcher that splits an op's slices over the
    calling thread and the helper thread."""

    @staticmethod
    def halves(n, work=T.SPLIT_MIN_WORK, fail=(), ran=None):
        """The (lo, hi, in the caller) ranges ``T._halves`` runs, also into
        ``ran``; a split's lower half waits until the helper has started the
        upper one, and the halves named in ``fail`` raise instead."""
        ran, started = [] if ran is None else ran, threading.Event()

        def fn(lo, hi):
            lower, upper = lo == 0 and hi < n, lo > 0
            if upper:
                started.set()
            if lower:
                assert started.wait(timeout=10)
            if (lower and "caller" in fail) or (upper and "helper" in fail):
                raise RuntimeError(f"half {lo}-{hi} failed")
            ran.append((lo, hi, threading.current_thread() is threading.main_thread()))

        T._halves(fn, n, work)
        return sorted(ran)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 7, 8])
    def test_halves_cover_every_slice_once(self, monkeypatch, cpus, n):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        assert self.halves(n) == [(0, n // 2, True), (n // 2, n, False)]
        assert not T._SPARE_CORE.locked()

    @pytest.mark.parametrize("cpus,n,work", [
        (1, 8, T.SPLIT_MIN_WORK),           # one CPU
        (2, 1, T.SPLIT_MIN_WORK),           # one slice
        (2, 8, T.SPLIT_MIN_WORK - 1),       # too little work
    ])
    def test_serial_cases_run_in_the_caller(self, monkeypatch, cpus, n, work):
        monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
        assert self.halves(n, work) == [(0, n, True)]

    def test_taken_token_runs_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        with T._SPARE_CORE:
            assert self.halves(8) == [(0, 8, True)]

    def test_busy_helper_leaves_its_half_to_the_caller(self, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        release = threading.Event()
        blocker = T._helper().submit(release.wait, 10)
        ran = []
        try:
            T._halves(lambda lo, hi: ran.append(
                (lo, hi, threading.current_thread() is threading.main_thread())),
                8, T.SPLIT_MIN_WORK)
        finally:
            release.set()
        assert blocker.result() and ran == [(0, 4, True), (4, 8, True)]
        assert not T._SPARE_CORE.locked()

    def test_caller_error_waits_for_a_slow_helper(self, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        started, ran = threading.Event(), []

        def fn(lo, hi):
            if lo > 0:
                started.set()
                time.sleep(20 * T.JOIN_SPIN_S)      # past the caller's poll
                ran.append((lo, hi))
                return
            assert started.wait(timeout=10)
            raise RuntimeError("lower half failed")

        with pytest.raises(RuntimeError, match="lower half failed"):
            T._halves(fn, 8, T.SPLIT_MIN_WORK)
        assert ran == [(4, 8)] and not T._SPARE_CORE.locked()

    @pytest.mark.parametrize("failing", ["helper", "caller", "both"])
    def test_error_reaches_the_caller_and_frees_the_token(self, monkeypatch, failing):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        ran = []
        with pytest.raises(RuntimeError, match="half (0|4)-(4|8) failed"):
            self.halves(8, fail=("helper", "caller") if failing == "both" else (failing,),
                        ran=ran)
        assert not T._SPARE_CORE.locked()
        # both halves ended before the call returned, and the next op splits
        assert sorted(ran) == {"helper": [(0, 4, True)], "caller": [(4, 8, False)],
                               "both": []}[failing]
        assert self.halves(8) == [(0, 4, True), (4, 8, False)]


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

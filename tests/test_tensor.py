import numpy as np
import pytest

from setdet import tensor as T
from setdet.tensor import DimensionError, Tensor, grad_check


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
    assert grad_check(lambda t: scalarize(T.concat([t, t], axis=1)), x, eps=1e-5) <= 1e-5
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
        x = Tensor(rng.uniform(-1, 1, (1, 2, 5, 5)))
        w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
        b = Tensor(rng.uniform(-1, 1, 3))
        fn = lambda xx, ww, bb: scalarize(T.conv2d(xx, ww, bb, stride=2, padding=1))
        assert grad_check(lambda t: fn(t, w, b), x, eps=1e-5) <= 1e-5
        assert grad_check(lambda t: fn(x, t, b), w, eps=1e-5) <= 1e-5
        assert grad_check(lambda t: fn(x, w, t), b, eps=1e-5) <= 1e-5

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))


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
    with T.count_matmul_multiplies() as c:
        T.matmul(a, b)
        T.mul(a, a)
    assert c.count == 3 * 4 * 5
    with T.count_matmul_multiplies() as c:
        T.matmul(Tensor(np.ones((7, 3, 4))), b)
    assert c.count == 7 * 3 * 4 * 5


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        out = T.mul(x, 2.0)
    assert out._backward is None and not out.requires_grad

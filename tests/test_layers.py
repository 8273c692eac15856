import math

import numpy as np
import pytest

from setdet import tensor as T
from setdet.layers import (
    AttentionWeights,
    ConfigError,
    FeedForward,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    xavier_uniform,
)
from setdet.tensor import Tensor, grad_check
from test_detector import op_name, tape_nodes
from test_tensor import composed_attention


def attention_head(xq: Tensor, xkv: Tensor, wq, bq, wk, bk, wv, bv,
                   pos_q: Tensor | None = None,
                   pos_kv: Tensor | None = None) -> Tensor:
    """One attention head over [d, Nq] / [d, Nkv] sequences -> [d', Nq].

    Q and K see the positional encodings; V is projected from the raw
    key-value content.  Scores are scaled by 1/sqrt(d') before the
    row-wise softmax.  The reference the multi-head attention is
    checked against.
    """
    q_in = xq if pos_q is None else xq + pos_q
    k_in = xkv if pos_kv is None else xkv + pos_kv
    q = T.matmul(wq, q_in) + bq
    k = T.matmul(wk, k_in) + bk
    v = T.matmul(wv, xkv) + bv
    d_head = q.shape[-2]
    scores = T.matmul(T.transpose(q * (1.0 / math.sqrt(d_head))), k)
    alpha = T.softmax_lastdim(scores)
    return T.matmul(v, T.transpose(alpha))


def head_weights(weights: AttentionWeights, m: int):
    """Weights of head ``m``, its d' rows of each [d, d] projection, as plain
    Tensors (for the single-head op)."""
    d_head = len(weights.q_proj.tensor.data) // weights.num_heads
    rows = slice(m * d_head, (m + 1) * d_head)
    return tuple(Tensor(p.tensor.data[rows]) for p in weights.parameters()[:6])


def head_oracle(xq, xkv, wq, bq, wk, bk, wv, bv, pos_q=None, pos_kv=None):
    """Straight-line scalar recomputation of a single attention head."""
    q_in = xq + (pos_q if pos_q is not None else 0)
    k_in = xkv + (pos_kv if pos_kv is not None else 0)
    q = wq @ q_in + bq
    k = wk @ k_in + bk
    v = wv @ xkv + bv
    d_head = q.shape[0]
    out = np.zeros((d_head, q.shape[1]))
    for i in range(q.shape[1]):
        scores = np.array([q[:, i] @ k[:, j] / math.sqrt(d_head)
                           for j in range(k.shape[1])])
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        out[:, i] = sum(alpha[j] * v[:, j] for j in range(k.shape[1]))
    return out


def make_head(rng, d, d_head):
    wq = Tensor(rng.normal(size=(d_head, d)))
    wk = Tensor(rng.normal(size=(d_head, d)))
    wv = Tensor(rng.normal(size=(d_head, d)))
    bq = Tensor(rng.normal(size=(d_head, 1)))
    bk = Tensor(rng.normal(size=(d_head, 1)))
    bv = Tensor(rng.normal(size=(d_head, 1)))
    return wq, bq, wk, bk, wv, bv


class TestAttentionHead:
    def test_single_kv_column_returns_value(self):
        rng = np.random.default_rng(0)
        wq, bq, wk, bk, wv, bv = make_head(rng, 3, 2)
        xq = Tensor(rng.normal(size=(3, 4)))
        xkv = Tensor(rng.normal(size=(3, 1)))
        out = attention_head(xq, xkv, wq, bq, wk, bk, wv, bv)
        value = (wv.data @ xkv.data + bv.data)[:, 0]
        for i in range(4):
            np.testing.assert_allclose(out.data[:, i], value, atol=1e-12)

    def test_positional_encoding_never_reaches_values(self):
        # with one kv column attention is forced to alpha=1, so the output
        # equals V exactly; any positional tensors must leave it unchanged
        rng = np.random.default_rng(1)
        wq, bq, wk, bk, wv, bv = make_head(rng, 3, 2)
        xq = Tensor(rng.normal(size=(3, 2)))
        xkv = Tensor(rng.normal(size=(3, 1)))
        base = attention_head(xq, xkv, wq, bq, wk, bk, wv, bv)
        wild = attention_head(xq, xkv, wq, bq, wk, bk, wv, bv,
                              pos_q=Tensor(rng.normal(size=(3, 2)) * 10),
                              pos_kv=Tensor(rng.normal(size=(3, 1)) * 10))
        np.testing.assert_allclose(base.data, wild.data, atol=1e-12)

    def test_identical_kv_columns_split_attention(self):
        rng = np.random.default_rng(2)
        wq, bq, wk, bk, wv, bv = make_head(rng, 3, 2)
        col = rng.normal(size=(3, 1))
        xkv = Tensor(np.concatenate([col, col], axis=1))
        xq = Tensor(rng.normal(size=(3, 3)))
        out = attention_head(xq, xkv, wq, bq, wk, bk, wv, bv)
        # both columns identical -> output equals V of either column
        value = (wv.data @ xkv.data + bv.data)[:, 0]
        for i in range(3):
            np.testing.assert_allclose(out.data[:, i], value, atol=1e-12)

    def test_hand_instance_vs_oracle(self):
        rng = np.random.default_rng(3)
        wq, bq, wk, bk, wv, bv = make_head(rng, 2, 2)
        xq = Tensor(rng.normal(size=(2, 1)))
        xkv = Tensor(rng.normal(size=(2, 2)))
        pos_q = rng.normal(size=(2, 1))
        pos_kv = rng.normal(size=(2, 2))
        out = attention_head(xq, xkv, wq, bq, wk, bk, wv, bv,
                             Tensor(pos_q), Tensor(pos_kv))
        want = head_oracle(xq.data, xkv.data, wq.data, bq.data, wk.data, bk.data,
                           wv.data, bv.data, pos_q, pos_kv)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_alpha_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 6)))
        scores = T.matmul(T.transpose(x), x)
        alpha = T.softmax_lastdim(scores)
        assert np.abs(alpha.data.sum(axis=-1) - 1.0).max() <= 1e-12


class TestMultiHeadAttention:
    def test_width_not_divisible(self):
        with pytest.raises(ConfigError):
            AttentionWeights(6, 4, np.random.default_rng(0), "attn")

    def test_projections_are_per_head_draws_in_rows(self):
        # q, k and v each stack their heads' own-fan draws as rows of one
        # [d, d] weight, in that order, and the output projection comes last
        weights = AttentionWeights(8, 2, np.random.default_rng(3), "attn")
        rng = np.random.default_rng(3)
        for proj in (weights.q_proj, weights.k_proj, weights.v_proj):
            want = [xavier_uniform(rng, (4, 8), 8, 4) for _ in range(2)]
            assert proj.tensor.data.tobytes() == np.concatenate(want).tobytes()
        assert weights.out_proj.tensor.data.tobytes() == \
            xavier_uniform(rng, (8, 8), 8, 8).tobytes()
        assert [p.tensor.shape for p in weights.parameters()] == [(8, 8), (8, 1)] * 4

    def test_output_shape_matches_query(self):
        rng = np.random.default_rng(5)
        mha = MultiHeadAttention(8, 2, rng, "attn")
        xq = Tensor(rng.normal(size=(1, 8, 5)))
        xkv = Tensor(rng.normal(size=(1, 8, 9)))
        assert mha(xq, xkv).shape == (1, 8, 5)
        batched = Tensor(rng.normal(size=(3, 8, 5)))
        batched_kv = Tensor(rng.normal(size=(3, 8, 9)))
        assert mha(batched, batched_kv).shape == (3, 8, 5)

    def test_zero_projection_reduces_to_layernorm(self):
        rng = np.random.default_rng(6)
        mha = MultiHeadAttention(8, 2, rng, "attn")
        mha.weights.out_proj.tensor.data[:] = 0.0
        mha.weights.out_bias.tensor.data[:] = 0.0
        xq = Tensor(rng.normal(size=(1, 8, 5)))
        out = mha(xq, xq)
        want = T.layer_norm(xq, mha.norm.gain.tensor, mha.norm.bias.tensor)
        np.testing.assert_allclose(out.data, want.data, atol=1e-12)

    def test_composition_of_single_heads(self):
        rng = np.random.default_rng(7)
        mha = MultiHeadAttention(4, 2, rng, "attn")
        xq = Tensor(rng.normal(size=(1, 4, 3)))
        xkv = Tensor(rng.normal(size=(1, 4, 5)))
        pos_q = Tensor(rng.normal(size=(1, 4, 3)))
        pos_kv = Tensor(rng.normal(size=(1, 4, 5)))
        got = mha(xq, xkv, pos_q=pos_q, pos_kv=pos_kv)

        heads = []
        for m in range(2):
            wq, bq, wk, bk, wv, bv = head_weights(mha.weights, m)
            heads.append(attention_head(xq, xkv, wq, bq, wk, bk, wv, bv,
                                        pos_q, pos_kv))
        merged = Tensor(np.concatenate([h.data for h in heads], axis=-2))
        proj = T.matmul(mha.weights.out_proj.tensor, merged) \
            + mha.weights.out_bias.tensor
        want = T.layer_norm(xq + proj, mha.norm.gain.tensor, mha.norm.bias.tensor)
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_tape_is_four_linears_and_one_attention(self):
        rng = np.random.default_rng(16)
        mha = MultiHeadAttention(8, 2, rng, "attn")
        xq = Tensor(rng.normal(size=(3, 8, 5)), requires_grad=True)
        xkv = Tensor(rng.normal(size=(3, 8, 7)), requires_grad=True)
        out = mha(xq, xkv, pos_q=Tensor(rng.normal(size=(8, 5))),
                  pos_kv=Tensor(rng.normal(size=(8, 7))))
        names = sorted(op_name(n) for n in tape_nodes([out]))
        # the two positional adds, the residual add and the norm around them
        assert names == ["add"] * 3 + ["attention", "layer_norm"] + ["linear"] * 4

    def test_equals_composed_attention_bitwise(self, monkeypatch):
        # the fused node against the transpose/scale/matmul/softmax/matmul
        # chain it replaced: output, input and parameter gradients
        def run():
            rng = np.random.default_rng(17)
            mha = MultiHeadAttention(8, 2, rng, "attn")
            xq = Tensor(rng.normal(size=(3, 8, 5)), requires_grad=True)
            xkv = Tensor(rng.normal(size=(3, 8, 7)), requires_grad=True)
            pos_q, pos_kv = Tensor(rng.normal(size=(8, 5))), Tensor(rng.normal(size=(8, 7)))
            out = mha(xq, xkv, pos_q=pos_q, pos_kv=pos_kv)
            T.tsum(out * Tensor(rng.normal(size=out.shape))).backward()
            return [out.data, xq.grad, xkv.grad] + [p.tensor.grad for p in mha.parameters()]

        fused = run()
        monkeypatch.setattr(T, "attention", composed_attention)
        for got, want in zip(fused, run(), strict=True):
            assert got.tobytes() == want.tobytes()

    def test_kv_permutation_invariance_without_positional(self):
        rng = np.random.default_rng(8)
        mha = MultiHeadAttention(8, 4, rng, "attn")
        xq = Tensor(rng.normal(size=(1, 8, 3)))
        xkv = rng.normal(size=(1, 8, 6))
        perm = rng.permutation(6)
        out1 = mha(xq, Tensor(xkv))
        out2 = mha(xq, Tensor(xkv[..., perm]))
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        mha = MultiHeadAttention(4, 2, rng, "attn")
        xq = Tensor(rng.uniform(-1, 1, (1, 4, 3)))
        xkv = Tensor(rng.uniform(-1, 1, (1, 4, 4)))
        r = Tensor(rng.uniform(0.5, 1.5, (1, 4, 3)))

        def f(t):
            return T.tsum(T.mul(mha(t, xkv), r))

        assert grad_check(f, xq, eps=1e-5) <= 1e-5
        err = grad_check(
            lambda t: T.tsum(T.mul(mha(xq, xkv), r)), mha.weights.q_proj.tensor,
            eps=1e-5)
        assert err <= 1e-5

    def test_dropout_active_only_in_train(self):
        rng = np.random.default_rng(10)
        mha = MultiHeadAttention(8, 2, rng, "attn")
        x = Tensor(rng.normal(size=(1, 8, 4)))
        eval_out = mha(x, x, dropout=0.5, rng=np.random.default_rng(0), train=False)
        eval_out2 = mha(x, x, dropout=0.5, rng=np.random.default_rng(1), train=False)
        np.testing.assert_array_equal(eval_out.data, eval_out2.data)
        train_out = mha(x, x, dropout=0.5, rng=np.random.default_rng(0), train=True)
        assert not np.allclose(train_out.data, eval_out.data)


class TestFeedForward:
    def test_zero_second_layer_is_layernorm(self):
        rng = np.random.default_rng(11)
        ffn = FeedForward(6, 9, rng, "ffn")
        ffn.lin2.weight.tensor.data[:] = 0.0
        ffn.lin2.bias.tensor.data[:] = 0.0
        x = Tensor(rng.normal(size=(6, 4)))
        want = T.layer_norm(x, ffn.norm.gain.tensor, ffn.norm.bias.tensor)
        np.testing.assert_allclose(ffn(x).data, want.data, atol=1e-12)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        ffn = FeedForward(5, 7, rng, "ffn")
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(6)
        out = ffn(Tensor(x)).data
        out_perm = ffn(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-12)

    def test_scalar_oracle(self):
        rng = np.random.default_rng(13)
        ffn = FeedForward(2, 3, rng, "ffn")
        x = rng.normal(size=(2, 2))
        inner = ffn.lin2.weight.tensor.data @ np.maximum(
            ffn.lin1.weight.tensor.data @ x + ffn.lin1.bias.tensor.data, 0.0) \
            + ffn.lin2.bias.tensor.data
        pre = x + inner
        mu = pre.mean(axis=0, keepdims=True)
        var = pre.var(axis=0, keepdims=True)
        want = (pre - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(ffn(Tensor(x)).data, want, atol=1e-10)

    def test_width_validation(self):
        with pytest.raises(ConfigError):
            FeedForward(4, 0, np.random.default_rng(0), "ffn")

    def test_gradients(self):
        rng = np.random.default_rng(14)
        ffn = FeedForward(3, 5, rng, "ffn")
        x = Tensor(rng.uniform(-1, 1, (3, 4)))
        r = Tensor(rng.uniform(0.5, 1.5, (3, 4)))
        err = grad_check(lambda t: T.tsum(T.mul(ffn(t), r)), x, eps=1e-5)
        assert err <= 1e-5


def test_linear_applies_to_batches():
    rng = np.random.default_rng(15)
    lin = Linear(4, 6, rng, "lin")
    x = rng.normal(size=(2, 4, 3))
    out = lin(Tensor(x))
    assert out.shape == (2, 6, 3)
    for b in range(2):
        want = lin.weight.tensor.data @ x[b] + lin.bias.tensor.data
        np.testing.assert_allclose(out.data[b], want, atol=1e-13)


def test_parameter_names_are_prefixed():
    rng = np.random.default_rng(16)
    mha = MultiHeadAttention(4, 2, rng, "enc.self_attn")
    names = [p.name for p in mha.parameters()]
    assert all(n.startswith("enc.self_attn.") for n in names)
    assert len(set(names)) == len(names)

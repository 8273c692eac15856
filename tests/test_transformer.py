import numpy as np
import pytest

from setdet.layers import MultiHeadAttention
from setdet.posenc import sine_encoding_2d
from setdet.tensor import Tensor
from setdet.transformer import Decoder, Encoder, zero_queries

from multiplies import count_matmul_multiplies


def make_encoder(layers, rng, d=8, heads=2, ffn=16):
    return Encoder(layers, d, heads, ffn, rng)


class TestEncoder:
    def test_zero_layers_is_identity(self):
        rng = np.random.default_rng(0)
        enc = make_encoder(0, rng)
        src = Tensor(rng.normal(size=(1, 8, 6)))
        out = enc(src)
        assert out is src

    def test_shape_preserved(self):
        rng = np.random.default_rng(1)
        for layers in (1, 3):
            enc = make_encoder(layers, rng)
            src = Tensor(rng.normal(size=(1, 8, 5)))
            assert enc(src).shape == (1, 8, 5)
            batched = Tensor(rng.normal(size=(2, 8, 5)))
            assert enc(batched).shape == (2, 8, 5)

    def test_permutation_equivariance_without_positions(self):
        rng = np.random.default_rng(2)
        enc = make_encoder(2, rng)
        src = rng.normal(size=(1, 8, 4))
        perm = np.array([2, 0, 3, 1])
        out = enc(Tensor(src)).data[0]
        out_perm = enc(Tensor(src[..., perm])).data[0]
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-12)

    def test_positions_break_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        enc = make_encoder(1, rng)
        src = rng.normal(size=(1, 8, 4))
        pos = Tensor(sine_encoding_2d(2, 2, 8).reshape(8, 4))
        perm = np.array([2, 0, 3, 1])
        out = enc(Tensor(src), pos).data[0]
        out_perm = enc(Tensor(src[..., perm]), pos).data[0]
        assert np.abs(out[:, perm] - out_perm).max() > 1e-6


class TestDecoder:
    def make(self, rng, layers=2, d=8, n=3, hw=6):
        # a batch of one image; position tables are [d, *] and broadcast
        dec = Decoder(layers, d, 2, 16, rng)
        memory = Tensor(rng.normal(size=(1, d, hw)))
        spatial = Tensor(rng.normal(size=(d, hw)))
        qpos = Tensor(rng.normal(size=(d, n)))
        return dec, memory, spatial, qpos

    def test_outputs_per_layer(self):
        rng = np.random.default_rng(4)
        dec, memory, spatial, qpos = self.make(rng, layers=3)
        outs = dec(zero_queries(1, 8, 3), memory, spatial, qpos)
        assert len(outs) == 3
        assert all(o.shape == (1, 8, 3) for o in outs)

    def test_queries_start_at_zero(self):
        q = zero_queries(1, 8, 5)
        assert (q.data == 0).all()
        q = zero_queries(4, 8, 5)
        assert q.shape == (4, 8, 5) and (q.data == 0).all()

    def test_slot_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        dec, memory, spatial, qpos = self.make(rng, layers=2, n=4)
        perm = np.array([3, 1, 0, 2])
        outs = dec(zero_queries(1, 8, 4), memory, spatial, qpos)
        outs_perm = dec(zero_queries(1, 8, 4), memory, spatial,
                        Tensor(qpos.data[:, perm]))
        for a, b in zip(outs, outs_perm):
            np.testing.assert_allclose(a.data[..., perm], b.data, atol=1e-12)

    def test_distinct_queries_give_distinct_slots(self):
        rng = np.random.default_rng(6)
        dec, memory, spatial, qpos = self.make(rng, layers=2, n=4)
        out = dec(zero_queries(1, 8, 4), memory, spatial, qpos)[-1].data[0]
        diffs = [np.abs(out[:, i] - out[:, j]).max()
                 for i in range(4) for j in range(i + 1, 4)]
        assert min(diffs) > 1e-6

    def test_single_layer_matches_manual_composition(self):
        rng = np.random.default_rng(7)
        d, n, hw = 4, 2, 3
        dec = Decoder(1, d, 2, 8, rng)
        memory = Tensor(rng.normal(size=(1, d, hw)))
        spatial = Tensor(rng.normal(size=(d, hw)))
        qpos = Tensor(rng.normal(size=(d, n)))
        got = dec(zero_queries(1, d, n), memory, spatial, qpos)[0]

        layer = dec.layers[0]
        x = zero_queries(1, d, n)
        x = layer.self_attn(x, x, pos_q=qpos, pos_kv=qpos)
        x = layer.cross_attn(x, memory, pos_q=qpos, pos_kv=spatial)
        x = layer.ffn(x)
        want = dec.shared_norm(x)
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_skip_first_self_attention_flag(self):
        rng = np.random.default_rng(8)
        d, n, hw = 4, 2, 3
        dec = Decoder(1, d, 2, 8, rng, skip_first_self_attention=True)
        memory = Tensor(rng.normal(size=(1, d, hw)))
        spatial = Tensor(rng.normal(size=(d, hw)))
        qpos = Tensor(rng.normal(size=(d, n)))
        got = dec(zero_queries(1, d, n), memory, spatial, qpos)[0]
        layer = dec.layers[0]
        x = zero_queries(1, d, n)
        x = layer.cross_attn(x, memory, pos_q=qpos, pos_kv=spatial)
        want = dec.shared_norm(layer.ffn(x))
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_shared_norm_applied_to_every_layer(self):
        rng = np.random.default_rng(9)
        dec, memory, spatial, qpos = self.make(rng, layers=2)
        outs = dec(zero_queries(1, 8, 3), memory, spatial, qpos)
        # post-norm outputs standardize over channels: near-zero column means
        for out in outs:
            assert np.abs(out.data.mean(axis=-2)).max() < 1e-9


def encoder_multiply_count(d, hw, heads, seed=0):
    """Multiplies of one encoder self-attention sublayer (eval mode)."""
    rng = np.random.default_rng(seed)
    mha = MultiHeadAttention(d, heads, rng, "attn")
    src = Tensor(rng.normal(size=(1, d, hw)))
    pos = Tensor(rng.normal(size=(d, hw)))
    with count_matmul_multiplies() as counter:
        mha(src, src, pos_q=pos, pos_kv=pos)
    return counter.count


class TestComplexity:
    def test_encoder_attention_multiply_counts_fit_formula(self):
        settings = [(8, 16), (8, 64), (16, 16)]
        counts = [encoder_multiply_count(d, hw, heads=2) for d, hw in settings]
        for (d, hw), count in zip(settings, counts):
            assert count == 4 * d * d * hw + 2 * d * hw * hw
        design = np.array([[d * d * hw, d * hw * hw] for d, hw in settings],
                          dtype=np.float64)
        coeffs, residual, *_ = np.linalg.lstsq(design, np.array(counts, dtype=np.float64),
                                               rcond=None)
        np.testing.assert_allclose(coeffs, [4.0, 2.0], atol=1e-9)

    def test_count_independent_of_head_split(self):
        assert encoder_multiply_count(8, 16, heads=1) \
            == encoder_multiply_count(8, 16, heads=4)

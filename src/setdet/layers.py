"""Attention and feed-forward building blocks.

All sequence tensors are channels-first batches [B, d, N]; positional
tables are [d, N] and broadcast over the batch.  Attention projects
queries and keys from the inputs *plus* their positional encodings,
while values are projected from the raw key-value sequence only, so
positional information can never leak into the aggregated content.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor


class ConfigError(ValueError):
    """Inconsistent model configuration."""


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape)


class Linear:
    """y = W x + b on channels-first sequences [.., d_in, N]."""

    def __init__(self, d_in: int, d_out: int, rng, name: str):
        self.weight = Parameter(f"{name}.weight",
                                Tensor(xavier_uniform(rng, (d_out, d_in), d_in, d_out)))
        self.bias = Parameter(f"{name}.bias", Tensor(np.zeros((d_out, 1))))

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(self.weight.tensor, x) + self.bias.tensor

    def parameters(self):
        return [self.weight, self.bias]


class LayerNorm:
    """Per-column standardization over the channel axis plus affine."""

    def __init__(self, d: int, name: str, eps: float = 1e-5):
        self.gain = Parameter(f"{name}.gain", Tensor(np.ones((d, 1))))
        self.bias = Parameter(f"{name}.bias", Tensor(np.zeros((d, 1))))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain.tensor, self.bias.tensor, self.eps)

    def parameters(self):
        return [self.gain, self.bias]


class AttentionWeights:
    """Per-head q/k/v projections [M, d/M, d] and output projection [d, d]."""

    def __init__(self, d: int, num_heads: int, rng, name: str):
        if d % num_heads != 0:
            raise ConfigError(f"model width {d} not divisible by {num_heads} heads")
        d_head = d // num_heads
        shape = (num_heads, d_head, d)

        def proj(tag):
            w = np.stack([xavier_uniform(rng, (d_head, d), d, d_head)
                          for _ in range(num_heads)])
            return Parameter(f"{name}.{tag}.weight", Tensor(w))

        self.q_proj = proj("q_proj")
        self.k_proj = proj("k_proj")
        self.v_proj = proj("v_proj")
        self.q_bias = Parameter(f"{name}.q_proj.bias", Tensor(np.zeros((num_heads, d_head, 1))))
        self.k_bias = Parameter(f"{name}.k_proj.bias", Tensor(np.zeros((num_heads, d_head, 1))))
        self.v_bias = Parameter(f"{name}.v_proj.bias", Tensor(np.zeros((num_heads, d_head, 1))))
        self.out_proj = Parameter(f"{name}.out_proj.weight",
                                  Tensor(xavier_uniform(rng, (d, d), d, d)))
        self.out_bias = Parameter(f"{name}.out_proj.bias", Tensor(np.zeros((d, 1))))
        self.d = d
        self.num_heads = num_heads
        self.d_head = d_head
        assert shape == self.q_proj.tensor.shape

    def parameters(self):
        return [self.q_proj, self.q_bias, self.k_proj, self.k_bias,
                self.v_proj, self.v_bias, self.out_proj, self.out_bias]


class MultiHeadAttention:
    """M parallel heads, concatenated and projected, then
    layernorm(residual + dropout(projection))."""

    def __init__(self, d: int, num_heads: int, rng, name: str):
        self.weights = AttentionWeights(d, num_heads, rng, name)
        self.norm = LayerNorm(d, f"{name}.norm")

    def __call__(self, xq: Tensor, xkv: Tensor,
                 pos_q: Tensor | None = None, pos_kv: Tensor | None = None,
                 dropout: float = 0.0, rng=None, train: bool = False) -> Tensor:
        w = self.weights
        if xq.ndim != 3 or xkv.ndim != 3:
            raise T.DimensionError(f"attention needs [B,d,N] sequences, got "
                                   f"{xq.shape} and {xkv.shape}")
        batch, d, nq = xq.shape
        nkv = xkv.shape[-1]
        heads_shape_q = (batch, w.num_heads, w.d_head, nq)
        heads_shape_kv = (batch, w.num_heads, w.d_head, nkv)

        q_in = xq if pos_q is None else xq + pos_q
        k_in = xkv if pos_kv is None else xkv + pos_kv

        # Stacked-head weights viewed as one [d, d] projection: channel
        # m*d'+i of the product is row i of head m, so a later reshape to
        # [M, d', N] is exactly the per-head split / channel concat.
        def project(weight, bias, x, out_shape):
            w2d = T.reshape(weight.tensor, (d, d))
            b2d = T.reshape(bias.tensor, (d, 1))
            return T.reshape(T.matmul(w2d, x) + b2d, out_shape)

        q = project(w.q_proj, w.q_bias, q_in, heads_shape_q)
        k = project(w.k_proj, w.k_bias, k_in, heads_shape_kv)
        v = project(w.v_proj, w.v_bias, xkv, heads_shape_kv)
        scores = T.matmul(T.transpose(q * (1.0 / math.sqrt(w.d_head))), k)
        alpha = T.softmax_lastdim(scores)                       # [B,M,Nq,Nkv]
        heads = T.matmul(v, T.transpose(alpha))                 # [B,M,d',Nq]
        merged = T.reshape(heads, (batch, d, nq))               # channel concat
        proj = T.matmul(w.out_proj.tensor, merged) + w.out_bias.tensor
        proj = T.dropout(proj, dropout, rng, train)
        return self.norm(xq + proj)

    def parameters(self):
        return self.weights.parameters() + self.norm.parameters()


class FeedForward:
    """Two 1x1-convolution layers with a ReLU in between, wrapped as
    layernorm(residual + dropout(second layer))."""

    def __init__(self, d: int, hidden: int, rng, name: str):
        if hidden < 1:
            raise ConfigError(f"ffn width must be >= 1, got {hidden}")
        self.lin1 = Linear(d, hidden, rng, f"{name}.lin1")
        self.lin2 = Linear(hidden, d, rng, f"{name}.lin2")
        self.norm = LayerNorm(d, f"{name}.norm")

    def __call__(self, x: Tensor, dropout: float = 0.0, rng=None,
                 train: bool = False) -> Tensor:
        inner = self.lin2(T.relu(self.lin1(x)))
        inner = T.dropout(inner, dropout, rng, train)
        return self.norm(x + inner)

    def parameters(self):
        return self.lin1.parameters() + self.lin2.parameters() + self.norm.parameters()

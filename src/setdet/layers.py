"""Attention and feed-forward building blocks.

All sequence tensors are channels-first batches [B, d, N]; positional
tables are [d, N] and broadcast over the batch.  Attention projects
queries and keys from the inputs *plus* their positional encodings,
while values are projected from the raw key-value sequence only, so
positional information can never leak into the aggregated content.

Every affine map here, the attention projections and the FFN layers (and
the detector's heads through ``Linear``), is one ``T.linear`` tape node
with its bias, and with the ReLU where one follows.  An attention
projection is one [d, d] map whose rows hold the heads one after another;
``T.attention`` splits the [B, d, N] projections into heads as a view, so
no layer here reshapes.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor


class ConfigError(ValueError):
    """A setting of the wrong type or out of range, or settings that do not
    fit together.  ``ModelConfig``, ``SyntheticConfig``, ``LossWeights``,
    ``TrainConfig`` and ``MaskTrainConfig`` raise nothing else, and the
    message starts with the name of the field at fault."""


def check_int(name: str, value, low: int = 0):
    """Require a non-bool int >= ``low``, else ConfigError."""
    if type(value) is not int or value < low:
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")


def check_real(name: str, value, low=0, high=math.inf, low_open=False, high_open=True):
    """Require a non-bool int or float between ``low`` and ``high``, each end
    excluded when its ``*_open`` flag is set, else ConfigError.  NaN is never
    in range, nor is inf at an open infinite ``high``."""
    if type(value) not in (int, float) or not (
            (value > low if low_open else value >= low)
            and (value < high if high_open else value <= high)):
        if high == math.inf:
            span = f"a finite real {'>' if low_open else '>='} {low}"
        else:
            span = f"a real in {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
        raise ConfigError(f"{name} must be {span}, got {value!r}")


def check_bool(name: str, value):
    """Require a bool, else ConfigError."""
    if type(value) is not bool:
        raise ConfigError(f"{name} must be a bool, got {value!r}")


def check_unit_interval(name: str, value):
    """Require a non-bool int or float in [0, 1] (a threshold), else ConfigError."""
    check_real(name, value, high=1, high_open=False)


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape)


class Linear:
    """y = W x + b on channels-first sequences [.., d_in, N], optionally
    followed by a ReLU; one ``T.linear`` tape node either way."""

    def __init__(self, d_in: int, d_out: int, rng, name: str):
        self.weight = Parameter(f"{name}.weight",
                                Tensor(xavier_uniform(rng, (d_out, d_in), d_in, d_out)))
        self.bias = Parameter(f"{name}.bias", Tensor(np.zeros((d_out, 1))))

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.linear(self.weight.tensor, x, self.bias.tensor, relu)

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
    """q/k/v and output projections, each a [d, d] weight and a [d, 1] bias.

    Rows m*d'..(m+1)*d' of a q/k/v projection are head m's (d' = d / M),
    drawn by ``xavier_uniform`` on that head's fan (d in, d' out).
    """

    def __init__(self, d: int, num_heads: int, rng, name: str):
        if d % num_heads != 0:
            raise ConfigError(f"model width {d} not divisible by {num_heads} heads")
        d_head = d // num_heads

        def proj(tag):
            w = np.concatenate([xavier_uniform(rng, (d_head, d), d, d_head)
                                for _ in range(num_heads)])
            return Parameter(f"{name}.{tag}.weight", Tensor(w))

        def bias(tag):
            return Parameter(f"{name}.{tag}.bias", Tensor(np.zeros((d, 1))))

        self.q_proj, self.k_proj, self.v_proj = proj("q_proj"), proj("k_proj"), proj("v_proj")
        self.q_bias, self.k_bias, self.v_bias = bias("q_proj"), bias("k_proj"), bias("v_proj")
        self.out_proj = Parameter(f"{name}.out_proj.weight",
                                  Tensor(xavier_uniform(rng, (d, d), d, d)))
        self.out_bias = bias("out_proj")
        self.num_heads = num_heads

    def parameters(self):
        return [self.q_proj, self.q_bias, self.k_proj, self.k_bias,
                self.v_proj, self.v_bias, self.out_proj, self.out_bias]


class MultiHeadAttention:
    """M parallel heads, concatenated and projected, then
    layernorm(residual + dropout(projection)).

    Four ``T.linear`` nodes project q, k, v and the output, and one
    ``T.attention`` node runs the M heads between them, each over its d'
    channels of the [B, d, N] projections: softmax(qᵀk / sqrt(d')) weights
    the values.  The scores never outlive one cache-sized block of heads,
    and the probabilities are kept only while the tape records.
    """

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
        q_in = xq if pos_q is None else xq + pos_q
        k_in = xkv if pos_kv is None else xkv + pos_kv
        q = T.linear(w.q_proj.tensor, q_in, w.q_bias.tensor)
        k = T.linear(w.k_proj.tensor, k_in, w.k_bias.tensor)
        v = T.linear(w.v_proj.tensor, xkv, w.v_bias.tensor)
        heads = T.attention(q, k, v, w.num_heads)                # [B, d, Nq], heads concatenated
        proj = T.linear(w.out_proj.tensor, heads, w.out_bias.tensor)
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
        inner = self.lin2(self.lin1(x, relu=True))
        inner = T.dropout(inner, dropout, rng, train)
        return self.norm(x + inner)

    def parameters(self):
        return self.lin1.parameters() + self.lin2.parameters() + self.norm.parameters()

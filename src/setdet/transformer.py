"""Encoder-decoder over flattened image features with parallel decoding
of the N output slots.

The encoder self-attends over the [d, HW] feature sequence.  The decoder
alternates self-attention over the N slots, cross-attention into the
encoder memory, and a feed-forward block; all N slots are produced in
parallel at every layer.  Each decoder layer's output is passed through
one shared layernorm so every layer feeds the prediction heads with the
same normalization.
"""

from __future__ import annotations

import numpy as np

from .layers import FeedForward, LayerNorm, MultiHeadAttention
from .tensor import Tensor


class EncoderLayer:
    def __init__(self, d, num_heads, ffn_width, rng, name):
        self.self_attn = MultiHeadAttention(d, num_heads, rng, f"{name}.self_attn")
        self.ffn = FeedForward(d, ffn_width, rng, f"{name}.ffn")

    def __call__(self, src, pos, dropout=0.0, rng=None, train=False):
        x = self.self_attn(src, src, pos_q=pos, pos_kv=pos,
                           dropout=dropout, rng=rng, train=train)
        return self.ffn(x, dropout=dropout, rng=rng, train=train)

    def parameters(self):
        return self.self_attn.parameters() + self.ffn.parameters()


class Encoder:
    """Stack of self-attention + FFN layers; empty stacks are identity."""

    def __init__(self, num_layers, d, num_heads, ffn_width, rng, name="encoder"):
        self.layers = [EncoderLayer(d, num_heads, ffn_width, rng, f"{name}.layers.{i}")
                       for i in range(num_layers)]

    def __call__(self, src: Tensor, pos: Tensor | None = None,
                 dropout: float = 0.0, rng=None, train: bool = False) -> Tensor:
        memory = src
        for layer in self.layers:
            memory = layer(memory, pos, dropout=dropout, rng=rng, train=train)
        return memory

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


class DecoderLayer:
    def __init__(self, d, num_heads, ffn_width, rng, name):
        self.self_attn = MultiHeadAttention(d, num_heads, rng, f"{name}.self_attn")
        self.cross_attn = MultiHeadAttention(d, num_heads, rng, f"{name}.cross_attn")
        self.ffn = FeedForward(d, ffn_width, rng, f"{name}.ffn")

    def __call__(self, x, memory, spatial_pos, query_pos, skip_self=False,
                 dropout=0.0, rng=None, train=False):
        if not skip_self:
            x = self.self_attn(x, x, pos_q=query_pos, pos_kv=query_pos,
                               dropout=dropout, rng=rng, train=train)
        x = self.cross_attn(x, memory, pos_q=query_pos, pos_kv=spatial_pos,
                            dropout=dropout, rng=rng, train=train)
        return self.ffn(x, dropout=dropout, rng=rng, train=train)

    def parameters(self):
        return (self.self_attn.parameters() + self.cross_attn.parameters()
                + self.ffn.parameters())


class Decoder:
    """Parallel decoder returning every layer's post-norm output.

    The returned list feeds the (shared) prediction heads; during
    training each entry receives its own matching and loss.
    """

    def __init__(self, num_layers, d, num_heads, ffn_width, rng, name="decoder",
                 skip_first_self_attention: bool = False):
        self.layers = [DecoderLayer(d, num_heads, ffn_width, rng, f"{name}.layers.{i}")
                       for i in range(num_layers)]
        self.shared_norm = LayerNorm(d, f"{name}.shared_norm")
        self.skip_first_self_attention = skip_first_self_attention

    def __call__(self, queries_init: Tensor, memory: Tensor,
                 spatial_pos: Tensor | None, query_pos: Tensor | None,
                 dropout: float = 0.0, rng=None, train: bool = False) -> list[Tensor]:
        x = queries_init
        outputs = []
        for i, layer in enumerate(self.layers):
            skip = self.skip_first_self_attention and i == 0
            x = layer(x, memory, spatial_pos, query_pos, skip_self=skip,
                      dropout=dropout, rng=rng, train=train)
            outputs.append(self.shared_norm(x))
        return outputs

    def parameters(self):
        params = [p for layer in self.layers for p in layer.parameters()]
        return params + self.shared_norm.parameters()


def zero_queries(batch: int | None, d: int, n: int) -> Tensor:
    """Decoder input slots, initially all zero."""
    shape = (d, n) if batch is None else (batch, d, n)
    return Tensor(np.zeros(shape))

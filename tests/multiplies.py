"""Matmul multiply count for tests, worked out from operand shapes.

The paper's complexity claims (encoder cost 4d²HW + 2d(HW)², Table 1
GFLOPs) are checked by counting the scalar multiplies of matrix products.
The tape itself does not count: inside the block this module swaps
``setdet.tensor.matmul``, which every caller reaches through ``T.matmul``
or ``Tensor.__matmul__``, for a wrapper that records
``prod(broadcast batch) * m * k * n`` per product.  ``setdet.tensor.linear``
is wrapped the same way and records its one product W·x,
``prod(batch) * d_out * d_in * N``, and ``setdet.tensor.attention`` records
its two products, qᵀk and v·Pᵀ, each ``G * d' * Nq * Nkv`` for G
(batch x head) slices of d' = d / heads channels: ``prod(q.shape) * Nkv``
for q [..., d, Nq], whatever the heads.  Elementwise work (the bias, the ReLU) is not
counted.  Each product is recorded with ``list.append``, which is atomic,
so products run by worker threads inside the block are all counted.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from setdet import tensor as T


def _shape(value):
    return np.shape(getattr(value, "data", value))


@contextmanager
def count_matmul_multiplies():
    """Count the multiplies of every matmul run inside the block; the
    yielded object's ``.count`` holds the total after the block."""
    counter, products = SimpleNamespace(count=0), []
    matmul, linear, attention = T.matmul, T.linear, T.attention

    def counted(a, b):
        out = matmul(a, b)
        sa, sb = _shape(a), _shape(b)
        batch = np.broadcast_shapes(sa[:-2], sb[:-2])
        products.append(math.prod(batch) * sa[-2] * sa[-1] * sb[-1])
        return out

    def counted_linear(w, x, b, relu=False):
        out = linear(w, x, b, relu)
        sw, sx = _shape(w), _shape(x)
        products.append(math.prod(sx[:-2]) * sw[0] * sw[1] * sx[-1])
        return out

    def counted_attention(q, k, v, heads):
        out = attention(q, k, v, heads)
        products.append(2 * math.prod(_shape(q)) * _shape(k)[-1])
        return out

    T.matmul, T.linear, T.attention = counted, counted_linear, counted_attention
    try:
        yield counter
    finally:
        T.matmul, T.linear, T.attention = matmul, linear, attention
        counter.count = sum(products)

"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every quantity in the detector (activations, weights, losses) lives in a
Tensor.  A forward pass records a tape of parent links and backward
closures; calling ``backward()`` on a scalar walks the tape once in
reverse topological order and accumulates gradients additively into
every leaf that has ``requires_grad`` set.

The walk frees the tape as it goes: once a node's closure has run, the
node drops its closure, its parent links and its gradient, so a train
step peaks at its forward tape.  Only the leaves and the root keep a
gradient.  A graph can be walked once; ``backward()`` raises
``TapeError`` before it writes any gradient when the graph reaches a node
an earlier walk freed, when a tensor the tape read was written in place
since (``Tensor._version``), or when the output has no tape at all.

Broadcasting is deliberately restricted: two shapes may combine only if
they are equal, one of them is scalar, or one of them broadcasts to the
other (trailing-dim alignment).  Shape mixes that would produce a third
shape raise ``DimensionError`` instead of silently outer-broadcasting.

A node's backward closure keeps alive what it holds, so the ops on the
model's path keep only what their backward reads.  ``linear`` (product,
bias and ReLU) and ``attention`` fuse a chain of ops into one node;
``layer_norm`` and ``dropout`` write into buffers they own and keep the
normalized input and a bool draw.  Each gives the values and gradients of
the plain composed expressions bit for bit, and the tests keep those
expressions as references.

``linear``, ``attention`` and ``conv2d`` may run the upper half of their
slices (images, or blocks of attention heads) on one helper thread while
the calling thread runs the lower half (``_halves``).  Each slice makes the
same numpy calls either way, so results do not depend on the CPU count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class EvaluationError(RuntimeError):
    """Raised when a checked function produces non-finite output."""


class TapeError(RuntimeError):
    """Raised when ``backward()`` cannot walk a tape: the output has none,
    an earlier walk freed it, or ``tensor`` (when set) was written in place
    after the forward pass recorded it."""

    def __init__(self, message: str, tensor: Tensor | None = None):
        super().__init__(message)
        self.tensor = tensor


class _GradMode(threading.local):
    enabled = True          # every thread starts with recording on


_GRAD = _GradMode()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path).

    The flag is per thread: a block in one thread leaves recording in the
    others as it was.
    """
    prev = _GRAD.enabled
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = prev


# -- the spare core ---------------------------------------------------------------

def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# An op (`linear`, `attention`, `conv2d`) splits its slices over two threads
# only when the products of one call (forward, or backward) make at least
# this many multiplies.  Measured on a 2-core host with one OpenBLAS thread:
# one process per op shape and mode, serial and split alternating, 3 pairs,
# the median µs of 150 calls (forward under no_grad, backward the closure).
# Every shape of 8.39M multiplies or more won in all 3 pairs: `linear`
# forward and backward at [64,64] x [32,64,64] (8.39M, 16.8M) and backward
# at [16,64,64] (8.39M) 825 -> 710, `linear` backward at [64,256] x
# [32,256,10] (10.5M), `attention` at every shape from 2.1M up, the
# 16-channel 3x3 stem `conv2d` at 16 images (7.08M) forward 1165 -> 722 and
# backward 4933 -> 4469 (col2im 7.08M).  Below, `linear` lost: backward
# at [64,256] x [24,256,10] (7.86M) 764 -> 778 and at [64,64] x [12,64,64]
# (6.29M) 544 -> 627, forward at 3.15M and less.  The bound sits between
# the two; the nearest calls of the benchmark's train step are the
# attention forward and `linear` backward at 8.39M, 4.9% above it, which
# split, and that stem conv at 7.08M, 11.5% below, which does not.  The
# encoder attention of a 120 px predict (6.48M, 19% below) does not split.
SPLIT_MIN_WORK = 8_000_000

# The one spare-core token.  An op holds it while its upper half runs on the
# helper thread, and ``training._map_chunks`` while its chunk workers run, so
# no op splits while every core already runs a chunk, and no two ops share
# the helper.
_SPARE_CORE = threading.Lock()


@functools.cache
def _helper() -> ThreadPoolExecutor:
    """The helper thread, started by the first split and reused by all."""
    return ThreadPoolExecutor(1, thread_name_prefix="setdet-spare-core")


def _splits(n: int, work: int) -> bool:
    """Whether an op with ``n`` slices whose products make ``work``
    multiplies may split them over two threads (the token aside)."""
    return n >= 2 and work >= SPLIT_MIN_WORK and _usable_cpus() >= 2


# How long the calling thread polls for the helper's half before it sleeps
# on it: about twice the ≈40 µs a sleeping thread took to wake on the 2-core
# host of the measurements above.
JOIN_SPIN_S = 100e-6


def _halves(fn, n: int, work: int):
    """Run an op's per-slice work ``fn(lo, hi)`` over its slices [0, n).

    The lower half, ``fn(0, n // 2)``, runs in the calling thread and the
    upper half, ``fn(n // 2, n)``, on the helper thread when ``_splits(n,
    work)`` holds and the spare-core token is free; it is taken without
    waiting.  Otherwise ``fn(0, n)`` runs here.  When the helper has not
    started the upper half by the time the lower one ends, the calling
    thread runs it too.  When it has, the calling thread polls for its end
    for up to ``JOIN_SPIN_S``, releasing the GIL at each turn, then sleeps
    on it: the halves take alike, so most joins end within the poll, and a
    helper held up (its core taken by another process) costs one wake-up,
    not a core kept busy.  A half makes the numpy calls ``fn(0, n)`` makes
    for its slices, into its own slices of the op's buffers, so the results
    are the serial ones bit for bit.  The call returns once both halves
    have ended; an exception in either reaches the caller, and the token is
    free again.
    """
    if not _splits(n, work) or not _SPARE_CORE.acquire(blocking=False):
        fn(0, n)
        return
    try:
        mid = n // 2
        upper = _helper().submit(fn, mid, n)
        try:
            fn(0, mid)
        finally:
            # a helper that has not started by now (its core busy) is not
            # waited for: its half runs here
            stolen = upper.cancel()
            if not stolen:
                deadline = time.perf_counter() + JOIN_SPIN_S
                while not upper.done() and time.perf_counter() < deadline:
                    time.sleep(0)
                wait((upper,))
        if stolen:
            fn(mid, n)
        else:
            upper.result()
    finally:
        _SPARE_CORE.release()


class Tensor:
    """N-dimensional float64 array with an optional gradient record."""

    # _version counts in-place writes of ``data``; a recorded node keeps
    # its parents' versions in _versions, for backward to compare.
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_versions",
                 "_backward", "_version")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = self._versions = ()
        self._backward = None
        self._version = 0

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Backpropagate from a scalar, filling ``grad`` on every
        requires_grad leaf reachable through the tape.

        The walk frees the graph: each interior node loses its gradient,
        closure and parent links once its closure has run, and only the
        leaves and this root keep ``grad``.  A node that no gradient
        reached is freed without running its closure.  Raises
        ``TapeError``, before any gradient is written, when this tensor has
        no tape (it was computed under ``no_grad`` or from constants), when
        the graph reaches a node an earlier ``backward()`` walked, or when a
        tensor the tape read was written in place after the forward pass.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward() requires a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            raise TapeError("backward() on a tensor with no tape: it was computed "
                            "under no_grad or from constants only")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is _spent:
                raise TapeError("backward() reached a node whose tape an earlier "
                                "backward() freed; a graph can be walked once, so "
                                "run the forward pass again")
            stack.append((node, True))
            for parent, version in zip(node._parents, node._versions):
                if parent._version != version:
                    raise TapeError(
                        f"a tensor of shape {parent.shape} was written in place "
                        f"(version {version} -> {parent._version}) after the "
                        "forward pass recorded it; run the forward pass again",
                        parent)
                if parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                if node is not self:
                    node.grad = None
                node._backward = _spent
                node._parents = node._versions = ()

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_const(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_const(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)


@dataclass
class Parameter:
    """Named trainable tensor; names are unique, stable path strings."""

    name: str
    tensor: Tensor

    def __post_init__(self):
        self.tensor.requires_grad = True


def _spent(grad):
    """The closure of a node that ``backward()`` has walked and freed."""
    raise TapeError("this node's tape was freed by an earlier backward()")


def _const(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


def _result(data, parents, backward) -> Tensor:
    """Wrap an op result, recording the tape only when a parent needs it."""
    out = Tensor(data)
    if _GRAD.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._versions = tuple(p._version for p in parents)
        out._backward = backward
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray, owned: bool = False):
    """Add ``grad`` into the tensor's gradient buffer.

    ``owned`` promises the array (or the dead buffer it views) is not
    shared with any other live accumulator, letting us adopt it without
    a defensive copy.  Ops whose backward hands one region to several
    parents (equal-shape add/sub) must leave it False.
    """
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = grad if owned else np.array(grad)
    else:
        tensor.grad += grad


def _accumulate_reduced(tensor: Tensor, grad: np.ndarray, fresh: bool):
    """Unbroadcast then accumulate; a reduction always yields a fresh array.
    Nothing is reduced for an operand that needs no gradient."""
    if not tensor.requires_grad:
        return
    g = _unbroadcast(grad, tensor.shape)
    _accumulate(tensor, g, owned=fresh or g is not grad)


def _check_broadcast(sa: tuple, sb: tuple, opname: str) -> tuple:
    """Allow equal shapes, scalars, or one shape broadcasting to the other."""
    if sa == sb:
        return sa
    try:
        out = np.broadcast_shapes(sa, sb)
    except ValueError:
        raise DimensionError(f"{opname}: shapes {sa} and {sb} do not align") from None
    if out != sa and out != sb:
        raise DimensionError(
            f"{opname}: shapes {sa} and {sb} broadcast to a third shape {out}; "
            "only trailing-dim and scalar broadcasting is supported")
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(a, b, opname):
    a = a if isinstance(a, Tensor) else _const(a)
    b = b if isinstance(b, Tensor) else _const(b)
    _check_broadcast(a.shape, b.shape, opname)
    return a, b


# -- elementwise arithmetic ----------------------------------------------

def add(a, b) -> Tensor:
    a, b = _binary(a, b, "add")

    def backward(g):
        # The child's grad buffer is spent after this closure, so ONE
        # parent may adopt it in place; the other must copy.
        _accumulate_reduced(a, g, fresh=True)
        _accumulate_reduced(b, g, fresh=False)

    return _result(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _binary(a, b, "sub")

    def backward(g):
        _accumulate_reduced(a, g, fresh=True)
        if b.requires_grad:
            _accumulate_reduced(b, -g, fresh=True)

    return _result(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _binary(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            _accumulate_reduced(a, g * b.data, fresh=True)
        if b.requires_grad:
            _accumulate_reduced(b, g * a.data, fresh=True)

    return _result(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _binary(a, b, "div")

    def backward(g):
        if a.requires_grad:
            _accumulate_reduced(a, g / b.data, fresh=True)
        if b.requires_grad:
            _accumulate_reduced(b, -g * a.data / (b.data * b.data), fresh=True)

    return _result(a.data / b.data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, -g, owned=True)

    return _result(-a.data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    """Elementwise |x|; subgradient 0 at the kink."""

    def backward(g):
        _accumulate(a, g * np.sign(a.data), owned=True)

    return _result(np.abs(a.data), (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first operand."""
    a, b = _binary(a, b, "maximum")
    take_a = a.data >= b.data

    def backward(g):
        if a.requires_grad:
            _accumulate_reduced(a, g * take_a, fresh=True)
        if b.requires_grad:
            _accumulate_reduced(b, g * ~take_a, fresh=True)

    return _result(np.maximum(a.data, b.data), (a, b), backward)


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the gradient routes to the first operand."""
    a, b = _binary(a, b, "minimum")
    take_a = a.data <= b.data

    def backward(g):
        if a.requires_grad:
            _accumulate_reduced(a, g * take_a, fresh=True)
        if b.requires_grad:
            _accumulate_reduced(b, g * ~take_a, fresh=True)

    return _result(np.minimum(a.data, b.data), (a, b), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask, owned=True)

    return _result(a.data * mask, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        _accumulate(a, g * out * (1.0 - out), owned=True)

    return _result(out, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out, owned=True)

    return _result(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g / a.data, owned=True)

    return _result(np.log(a.data), (a,), backward)


# -- linear algebra --------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the trailing two axes; leading axes broadcast."""
    a = a if isinstance(a, Tensor) else _const(a)
    b = b if isinstance(b, Tensor) else _const(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be at least 2-d, "
                             f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dims differ between shapes {a.shape} and {b.shape}")
    if a.ndim > 2 and b.ndim > 2:           # a 2-d operand broadcasts to any batch
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            raise DimensionError(
                f"matmul: batch dims of {a.shape} and {b.shape} do not align") from None

    def backward(g):
        if a.requires_grad:
            _accumulate_reduced(a, g @ np.swapaxes(b.data, -1, -2), fresh=True)
        if b.requires_grad:
            _accumulate_reduced(b, np.swapaxes(a.data, -1, -2) @ g, fresh=True)

    return _result(a.data @ b.data, (a, b), backward)


def linear(w: Tensor, x: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """w @ x + b, then max(., 0) when ``relu``, as one tape node:
    w [d_out, d_in], x [..., d_in, N], b [d_out, 1].

    The bias is added into the product in place and the ReLU applied in
    place, so the tape keeps the output and, with ``relu``, a bool mask,
    not the product and the pre-activation.  Forward and backward make the
    numpy calls of matmul, add and relu in their order, so values and
    gradients are bit for bit those of the composed chain.  A call that
    may split (``_splits``) makes them for each range of slices of x's
    leading axis (``_halves``) into preallocated buffers: numpy runs one
    product per [d_in, N] slice whatever the stack, and the weight
    gradient's per-slice products fill a [..., d_out, d_in] stack that
    ``_unbroadcast`` reduces as before.  Any other call runs the composed
    expressions on whole arrays: the sliced form costs 2-3 µs more per call
    at B=1.
    """
    if w.ndim != 2 or x.ndim < 2 or x.shape[-2] != w.shape[1] \
            or b.shape != (w.shape[0], 1):
        raise DimensionError(f"linear: need w [d_out, d_in], x [..., d_in, N] and "
                             f"b [d_out, 1], got {w.shape}, {x.shape} and {b.shape}")
    slices, work = len(x.data) if x.ndim > 2 else 1, x.data.size * w.shape[0]
    if _splits(slices, work):
        out = np.empty(x.shape[:-2] + (w.shape[0], x.shape[-1]))
        mask = np.empty(out.shape, dtype=bool) if relu else None

        def forward(lo, hi):
            o = out[lo:hi]
            np.matmul(w.data, x.data[lo:hi], out=o)
            o += b.data
            if mask is not None:
                np.greater(o, 0, out=mask[lo:hi])
                o *= mask[lo:hi]

        _halves(forward, slices, work)
    else:
        out = w.data @ x.data
        out += b.data
        mask = None
        if relu:
            mask = out > 0
            out *= mask

    def backward(g):
        work = g.size * w.shape[1] * (w.requires_grad + x.requires_grad)
        if not _splits(len(g) if g.ndim > 2 else 1, work):
            if mask is not None:
                g = g * mask
            _accumulate_reduced(b, g, fresh=False)
            if w.requires_grad:
                _accumulate_reduced(w, g @ np.swapaxes(x.data, -1, -2), fresh=True)
            if x.requires_grad:
                _accumulate_reduced(x, np.swapaxes(w.data, -1, -2) @ g, fresh=True)
            return
        gm = g if mask is None else np.empty(g.shape)
        dw = np.empty(g.shape[:-2] + w.shape) if w.requires_grad else None
        dx = np.empty(x.shape) if x.requires_grad else None

        def grads(lo, hi):
            gb = g[lo:hi]
            if mask is not None:
                gb = np.multiply(gb, mask[lo:hi], out=gm[lo:hi])
            if dw is not None:
                np.matmul(gb, np.swapaxes(x.data[lo:hi], -1, -2), out=dw[lo:hi])
            if dx is not None:
                np.matmul(np.swapaxes(w.data, -1, -2), gb, out=dx[lo:hi])

        _halves(grads, len(g), work)
        _accumulate_reduced(b, gm, fresh=False)
        if dw is not None:
            _accumulate_reduced(w, dw, fresh=True)
        if dx is not None:
            _accumulate_reduced(x, dx, fresh=True)

    return _result(out, (w, x, b), backward)


# Scores of one block of (batch x head) slices fit this many bytes, so the
# softmax passes over them, forward and backward, stay in a core's L2 cache.
ATTENTION_BLOCK_BYTES = 256 * 1024


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention of ``heads`` heads, one tape node: q
    [..., d, Nq] and k, v [..., d, Nkv] -> [..., d, Nq].  Head m is the
    channels m·d'..(m+1)·d' of each operand (a view), d' = d / heads, and of
    the output, where it is v softmax(qᵀk / sqrt(d'))ᵀ.  A ``heads`` that is
    no int in [1, d] dividing d raises ``DimensionError``.

    Forward and backward walk the [G, d', N] slices, G = prod(...) · heads,
    in blocks whose [Nq, Nkv] scores fit ``ATTENTION_BLOCK_BYTES``.  Each
    block runs the products and softmax passes that the composed transpose
    / mul / matmul / softmax_lastdim / transpose / matmul chain runs over
    the whole stack, on the same views and in the same order; numpy calls
    the same per-slice product for any stack length, so values and
    gradients are bit for bit the composed chain's, also when ``_halves``
    runs the upper half of the blocks on the helper thread.  Without
    recording each thread allocates one block of scores and nothing larger;
    with it, the probabilities are kept for backward and the raw scores are
    not.
    """
    if q.ndim < 2 or k.shape != v.shape or q.shape[:-1] != k.shape[:-1]:
        raise DimensionError(f"attention: need q [..., d, Nq] and k, v [..., d, Nkv], "
                             f"got {q.shape}, {k.shape} and {v.shape}")
    lead, (d, nq), nkv = q.shape[:-2], q.shape[-2:], k.shape[-1]
    if type(heads) is not int or not 1 <= heads <= d or d % heads:
        raise DimensionError(f"attention: heads must be an int in [1, {d}] that divides "
                             f"the width {d}, got heads={heads!r}")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    qs = (q.data * scale).reshape(-1, dh, nq)
    kd, vd = k.data.reshape(-1, dh, nkv), v.data.reshape(-1, dh, nkv)
    slices = qs.shape[0]
    step = max(1, ATTENTION_BLOCK_BYTES // (8 * max(nq * nkv, 1)))
    blocks = [(lo, min(lo + step, slices)) for lo in range(0, slices, step)]
    record = _GRAD.enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    probs = np.empty((slices, nq, nkv)) if record else None
    out = np.empty((slices, dh, nq))
    work = slices * dh * nq * nkv          # multiplies of one product over all slices

    def forward(first, last):
        scratch = None if record else np.empty((min(step, slices), nq, nkv))
        for lo, hi in blocks[first:last]:
            p = probs[lo:hi] if record else scratch[:hi - lo]
            np.matmul(qs[lo:hi].swapaxes(-1, -2), kd[lo:hi], out=p)
            p -= p.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=-1, keepdims=True)
            np.matmul(vd[lo:hi], p.swapaxes(-1, -2), out=out[lo:hi])

    _halves(forward, len(blocks), 2 * work)                 # qᵀk and v·Pᵀ

    def backward(g):
        g = g.reshape(-1, dh, nq)
        dv = np.empty((slices, dh, nkv)) if v.requires_grad else None
        dk = np.empty((slices, dh, nkv)) if k.requires_grad else None
        dq_t = np.empty((slices, nq, dh)) if q.requires_grad else None

        def grads(first, last):
            for lo, hi in blocks[first:last]:
                p, gb = probs[lo:hi], g[lo:hi]
                if dv is not None:
                    np.matmul(gb, p, out=dv[lo:hi])
                if dk is None and dq_t is None:
                    continue
                dp = (vd[lo:hi].swapaxes(-1, -2) @ gb).swapaxes(-1, -2)
                ds = dp - (dp * p).sum(axis=-1, keepdims=True)
                ds *= p
                if dk is not None:
                    np.matmul(qs[lo:hi], ds, out=dk[lo:hi])
                if dq_t is not None:
                    np.matmul(ds, kd[lo:hi].swapaxes(-1, -2), out=dq_t[lo:hi])

        # g·P for v's gradient; vᵀg, then q·dS and dS·kᵀ, for k's and q's
        products = sum(a is not None for a in (dv, dk, dq_t)) \
            + (dk is not None or dq_t is not None)
        _halves(grads, len(blocks), products * work)
        if dv is not None:
            _accumulate(v, dv.reshape(v.shape), owned=True)
        if dk is not None:
            _accumulate(k, dk.reshape(k.shape), owned=True)
        if dq_t is not None:
            _accumulate(q, (dq_t.swapaxes(-1, -2) * scale).reshape(q.shape), owned=True)

    return _result(out.reshape(lead + (d, nq)), (q, k, v), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; default swaps the trailing two."""
    if axes is None:
        if a.ndim < 2:
            raise DimensionError(f"transpose: need at least 2 dims, got {a.shape}")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        # View of the consumer's (already spent) gradient buffer.
        _accumulate(a, g.transpose(inverse), owned=True)

    return _result(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.shape), owned=True)

    return _result(a.data.reshape(shape), (a,), backward)


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices along ``axis``; backward scatter-adds."""
    indices = np.asarray(indices, dtype=np.intp)

    def backward(g):
        if not a.requires_grad:
            return
        # C order, the layout of g (np.take's output): a strided source's
        # gradient then reduces downstream as it would without the take
        acc = np.zeros(a.shape)
        moved = np.moveaxis(acc, axis, 0)
        np.add.at(moved, indices, np.moveaxis(g, axis, 0))
        _accumulate(a, acc, owned=True)

    return _result(np.take(a.data, indices, axis=axis), (a,), backward)


def stack(tensors) -> Tensor:
    """Join equal-shape tensors on a new leading axis; backward hands each
    parent its own slice, unless that slice is all zero."""
    tensors = tuple(tensors)
    if not tensors or any(t.shape != tensors[0].shape for t in tensors):
        raise DimensionError(f"stack: need one or more equal shapes, got "
                             f"{[t.shape for t in tensors]}")

    def backward(g):
        for t, part in zip(tensors, g):
            if part.any():      # a layer the loss leaves out gets all zeros
                _accumulate(t, part, owned=True)    # disjoint views of a spent buffer

    return _result(np.stack([t.data for t in tensors]), tensors, backward)


# -- reductions -------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy(), owned=True)

    return _result(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[i] for i in axes]))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g / count, a.shape).copy(), owned=True)

    return _result(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


# -- normalizations ----------------------------------------------------------

def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis of a plain array (no tape)."""
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_lastdim(a: Tensor) -> Tensor:
    """Stable softmax over the last axis; each slice sums to 1."""
    out = softmax(a.data)

    def backward(g):
        inner = g - (g * out).sum(axis=-1, keepdims=True)
        inner *= out
        _accumulate(a, inner, owned=True)

    return _result(out, (a,), backward)


def log_softmax_lastdim(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def backward(g):
        soft = np.exp(out)
        _accumulate(a, g - soft * g.sum(axis=-1, keepdims=True), owned=True)

    return _result(out, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize each column over the channel axis (-2), then affine.

    ``gain`` and ``bias`` broadcast against x, normally shaped [d, 1].
    """
    if x.ndim < 2:
        raise DimensionError(f"layer_norm: need [d, N] input, got {x.shape}")
    # xhat = (x - mu) * inv and out = gain * xhat + bias, each written into
    # a buffer it owns; the products are those of the plain expressions.
    xhat = x.data - x.data.mean(axis=-2, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-2, keepdims=True) + eps)
    xhat *= inv
    np.multiply(gain.data, xhat, out=out)
    out += bias.data

    def backward(g):
        if gain.requires_grad:
            _accumulate_reduced(gain, g * xhat, fresh=True)
        if bias.requires_grad:
            _accumulate_reduced(bias, g, fresh=False)
        if x.requires_grad:
            # (gx - mean(gx) - xhat * mean(gx * xhat)) * inv, for gx = g * gain
            gx = g * gain.data
            term = np.multiply(gx, xhat)
            m2 = term.mean(axis=-2, keepdims=True)
            gx -= gx.mean(axis=-2, keepdims=True)
            gx -= np.multiply(xhat, m2, out=term)
            gx *= inv
            _accumulate(x, gx, owned=True)

    return _result(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Bernoulli mask with 1/(1-p) scaling in train mode; identity in eval."""
    if not train or p == 0.0:
        return x
    # The tape keeps the draw as bools; kept / (1 - p) is rebuilt on use.
    kept = rng.random(x.shape) >= p

    def backward(g):
        scaled = kept / (1.0 - p)
        scaled *= g
        _accumulate(x, scaled, owned=True)

    out = kept / (1.0 - p)
    out *= x.data
    return _result(out, (x,), backward)


# -- spatial ops --------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution: x [B,C,H,W], w [O,C,kh,kw], b [O].

    One ``np.take`` through the geometry's cached index map
    (``_im2col_index``) gathers every image's im2col columns straight from
    the input's memory, and the taps that fall in the zero padding are
    zeroed.  The x-gradient (col2im) is one ``np.bincount`` per image
    through the same map: it adds in index order, so each input pixel gets
    its terms in ascending (oy, ox), the order of a scatter over the
    columns in row order.  The gathers, the per-image products and the
    col2im run over ranges of images (``_halves``); the weight and bias
    gradients, each one reduction over the whole batch, run in the caller.
    col2im's product is one GEMM over the rows of its range of images, the
    whole batch's when the call does not split; a split's halves then equal
    it bit for bit only where BLAS gives each row the same result whatever
    the row count, which ``TestConv2d`` checks at the default model's shapes.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d: need 4-d input/weight, got {x.shape}, {w.shape}")
    B, C, H, W = x.shape
    O, Cw, kh, kw = w.shape
    if C != Cw:
        raise DimensionError(f"conv2d: channel mismatch between {x.shape} and {w.shape}")
    if b is not None and b.shape != (O,):
        raise DimensionError(f"conv2d: bias b must have shape ({O},), got {b.shape}")
    for name, value, low in (("stride", stride, 1), ("padding", padding, 0)):
        if type(value) is not int or value < low:
            raise DimensionError(f"conv2d: {name} must be an int >= {low}, got {value!r}")
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    if Ho <= 0 or Wo <= 0:
        raise DimensionError(f"conv2d: kernel {w.shape} too large for input {x.shape}")
    # gather straight from the input's memory: a ReLU output lies
    # channels-last and an image batch NCHW; another layout is copied
    nhwc = x.data.transpose(0, 2, 3, 1)
    channels_last = nhwc.flags.c_contiguous
    flat = nhwc.reshape(B, H * W * C) if channels_last \
        else np.ascontiguousarray(x.data).reshape(B, C * H * W)
    index, pads = _im2col_index(H, W, C, kh, kw, stride, padding, channels_last)
    identity = kh == kw == stride == 1 and not padding and channels_last
    # where the map is the identity a gathered copy would cost a fresh buffer
    cols = flat.reshape(B, H * W, C) if identity else np.empty((B, Ho * Wo, C * kh * kw))
    wmat = w.data.reshape(O, C * kh * kw)
    out = np.empty((B, Ho * Wo, O))
    work = B * Ho * Wo * O * C * kh * kw

    def forward(lo, hi):
        if not identity:
            # padding taps point one past the image: clipped to its last
            # pixel, then zeroed
            np.take(flat[lo:hi], index, axis=1, mode="clip", out=cols[lo:hi])
            cols[lo:hi].reshape(hi - lo, -1)[:, pads] = 0.0
        # one product per image, so an image's output does not depend on the batch
        np.matmul(cols[lo:hi], wmat.T, out=out[lo:hi])
        if b is not None:
            out[lo:hi] += b.data

    _halves(forward, B, work)
    out = out.reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2)

    def backward(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, O)
        if w.requires_grad:
            _accumulate(w, (gmat.T @ cols.reshape(B * Ho * Wo, -1)).reshape(w.shape),
                        owned=True)
        if b is not None and b.requires_grad:
            _accumulate(b, gmat.sum(axis=0), owned=True)
        if x.requires_grad:
            rows = Ho * Wo
            gcols = np.empty((B * rows, C * kh * kw))
            taps = index.reshape(-1)
            size = C * H * W
            gx = np.empty((B, size))

            def col2im(lo, hi):
                # one product over the images' rows: over the whole batch
                # when the call does not split, as a composed conv would
                np.matmul(gmat[lo * rows:hi * rows], wmat, out=gcols[lo * rows:hi * rows])
                for i in range(lo, hi):
                    # the bin one past the image collects the padding taps' terms
                    gx[i] = np.bincount(taps, weights=gcols[i * rows:(i + 1) * rows].ravel(),
                                        minlength=size + 1)[:size]

            _halves(col2im, B, work)
            gx = gx.reshape(B, H, W, C).transpose(0, 3, 1, 2) if channels_last \
                else gx.reshape(B, C, H, W)
            _accumulate(x, gx, owned=True)

    return _result(out, (x, w) if b is None else (x, w, b), backward)


@functools.lru_cache(maxsize=16)
def _im2col_index(H: int, W: int, C: int, kh: int, kw: int, stride: int, padding: int,
                  channels_last: bool):
    """Read-only flat positions of the im2col entries of one [C,H,W] image
    stored channels-last or NCHW, and the entries that fall in the padding.

    Row (oy, ox) of the map holds, at column (c, uy, ux), the position of
    pixel (oy*stride + uy - padding, ox*stride + ux - padding, c), or
    C*H*W, one past the image, where that pixel lies in the padding.

    The maps are cached because building them costs more than the
    gathers they serve: at B=1 and 120 px, ≈2.1 ms for the default
    model's four maps against ≈1.0 ms for its three gathers.  The default
    model uses four geometries per image side, ≈0.7 MB of maps at 64 px
    and ≈2.5 MB at 120 px; 16 entries bound the cache.
    """
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    y = (np.arange(Ho)[:, None, None, None, None] * stride
         + np.arange(kh)[None, None, None, :, None] - padding)
    x = (np.arange(Wo)[None, :, None, None, None] * stride
         + np.arange(kw)[None, None, None, None, :] - padding)
    c = np.arange(C)[None, None, :, None, None]
    index = (y * W + x) * C + c if channels_last else (c * H + y) * W + x
    inside = (0 <= y) & (y < H) & (0 <= x) & (x < W)
    index = np.where(inside, index, C * H * W).reshape(Ho * Wo, C * kh * kw)
    pads = np.flatnonzero(index == C * H * W)
    index.flags.writeable = pads.flags.writeable = False
    return index, pads


def upsample2x_bilinear(x: Tensor) -> Tensor:
    """Bilinear 2x upsampling over the trailing two axes (half-pixel centers)."""
    if x.ndim < 2:
        raise DimensionError(f"upsample2x_bilinear: need spatial input, got {x.shape}")
    H, W = x.shape[-2], x.shape[-1]
    iy0, iy1, wy = _linear_idx(H)
    ix0, ix1, wx = _linear_idx(W)
    w00 = (1 - wy)[:, None] * (1 - wx)[None, :]
    w01 = (1 - wy)[:, None] * wx[None, :]
    w10 = wy[:, None] * (1 - wx)[None, :]
    w11 = wy[:, None] * wx[None, :]
    d = x.data
    out = (d[..., iy0[:, None], ix0[None, :]] * w00
           + d[..., iy0[:, None], ix1[None, :]] * w01
           + d[..., iy1[:, None], ix0[None, :]] * w10
           + d[..., iy1[:, None], ix1[None, :]] * w11)

    def backward(g):
        if not x.requires_grad:
            return
        acc = np.zeros_like(x.data).reshape(-1, H, W)
        gflat = g.reshape(-1, 2 * H, 2 * W)
        # Runs in source order give each input pixel its terms in the
        # (corner, output row, output column) order of np.add.at, the
        # reference in the tests, so the two agree bitwise.
        rows0, rows1, cols0, cols1 = map(_scatter_runs, (iy0, iy1, ix0, ix1))
        for rows, cols, ww in ((rows0, cols0, w00), (rows0, cols1, w01),
                               (rows1, cols0, w10), (rows1, cols1, w11)):
            terms = gflat * ww
            for src_y, dst_y in rows:
                for src_x, dst_x in cols:
                    acc[:, dst_y, dst_x] += terms[:, src_y, src_x]
        _accumulate(x, acc.reshape(x.shape), owned=True)

    return _result(out, (x,), backward)


def _scatter_runs(index: np.ndarray) -> list:
    """Strided (source slice, destination slice) runs covering ``index``, a
    non-decreasing map from source to destination positions.

    A source's rank is its place among its destination's sources.  Runs
    are listed by rank and hold one rank each, so their destinations are
    distinct, and adding the runs in list order adds every destination's
    sources in ascending order."""
    rank = np.arange(len(index)) - np.searchsorted(index, index)
    runs = []
    for r in range(rank.max() + 1):
        src = np.flatnonzero(rank == r)
        dst = index[src]
        start = 0
        while start < len(src):
            end = start + 1              # one past the run's last element
            step_s = step_d = 1
            if end < len(src):
                step_s, step_d = src[end] - src[start], dst[end] - dst[start]
                while end < len(src) and src[end] - src[end - 1] == step_s \
                        and dst[end] - dst[end - 1] == step_d:
                    end += 1
            runs.append((slice(src[start], src[end - 1] + 1, step_s),
                         slice(dst[start], dst[end - 1] + 1, step_d)))
            start = end
    return runs


def _linear_idx(n: int):
    """Source indices and fractional weights for 2x half-pixel upsampling."""
    src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
    lo = np.clip(np.floor(src).astype(np.intp), 0, n - 1)
    hi = np.clip(lo + 1, 0, n - 1)
    frac = np.clip(src - np.floor(src), 0.0, 1.0)
    frac[src < 0] = 0.0
    frac[src > n - 1] = 0.0
    return lo, hi, frac


# -- verification -------------------------------------------------------------

def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare the tape gradient of a scalar function against central
    finite differences, coordinate by coordinate.

    Returns the worst relative error, with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if not np.isfinite(out.data).all():
        raise EvaluationError("function produced non-finite output at the base point")
    out.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).data.item()
        flat[i] = orig - eps
        fm = f(x).data.item()
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise EvaluationError(f"non-finite value near coordinate {i}")
        numeric = (fp - fm) / (2.0 * eps)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst

"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every quantity in the detector (activations, weights, losses) lives in a
Tensor.  A forward pass records a tape of parent links and backward
closures; calling ``backward()`` on a scalar walks the tape once in
reverse topological order and accumulates gradients additively into
every leaf that has ``requires_grad`` set.

Broadcasting is deliberately restricted: two shapes may combine only if
they are equal, one of them is scalar, or one of them broadcasts to the
other (trailing-dim alignment).  Shape mixes that would produce a third
shape raise ``DimensionError`` instead of silently outer-broadcasting.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class EvaluationError(RuntimeError):
    """Raised when a checked function produces non-finite output."""


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


class Tensor:
    """N-dimensional float64 array with an optional gradient record."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

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
        requires_grad leaf reachable through the tape."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward() requires a scalar output, got shape {self.shape}")
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
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

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


def _const(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64))


def _result(data, parents, backward) -> Tensor:
    """Wrap an op result, recording the tape only when a parent needs it."""
    out = Tensor(data)
    if _GRAD.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
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
    """Unbroadcast then accumulate; a reduction always yields a fresh array."""
    g = _unbroadcast(grad, tensor.shape)
    _accumulate(tensor, g, owned=fresh or g is not grad)


def _check_broadcast(sa: tuple, sb: tuple, opname: str) -> tuple:
    """Allow equal shapes, scalars, or one shape broadcasting to the other."""
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
        _accumulate_reduced(b, -g, fresh=True)

    return _result(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _binary(a, b, "mul")

    def backward(g):
        _accumulate_reduced(a, g * b.data, fresh=True)
        _accumulate_reduced(b, g * a.data, fresh=True)

    return _result(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _binary(a, b, "div")

    def backward(g):
        _accumulate_reduced(a, g / b.data, fresh=True)
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
        _accumulate_reduced(a, g * take_a, fresh=True)
        _accumulate_reduced(b, g * ~take_a, fresh=True)

    return _result(np.maximum(a.data, b.data), (a, b), backward)


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the gradient routes to the first operand."""
    a, b = _binary(a, b, "minimum")
    take_a = a.data <= b.data

    def backward(g):
        _accumulate_reduced(a, g * take_a, fresh=True)
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
        acc = np.zeros_like(a.data)
        moved = np.moveaxis(acc, axis, 0)
        np.add.at(moved, indices, np.moveaxis(g, axis, 0))
        _accumulate(a, acc, owned=True)

    return _result(np.take(a.data, indices, axis=axis), (a,), backward)


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
    mu = x.data.mean(axis=-2, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = gain.data * xhat + bias.data

    def backward(g):
        if gain.requires_grad:
            _accumulate_reduced(gain, g * xhat, fresh=True)
        if bias.requires_grad:
            _accumulate_reduced(bias, g, fresh=False)
        if x.requires_grad:
            gx = g * gain.data
            term = gx - gx.mean(axis=-2, keepdims=True) \
                - xhat * (gx * xhat).mean(axis=-2, keepdims=True)
            _accumulate(x, term * inv, owned=True)

    return _result(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Bernoulli mask with 1/(1-p) scaling in train mode; identity in eval."""
    if not train or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g):
        _accumulate(x, g * keep, owned=True)

    return _result(x.data * keep, (x,), backward)


# -- spatial ops --------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution: x [B,C,H,W], w [O,C,kh,kw], b [O].

    The x-gradient (col2im) adds each kernel tap's column gradient into the
    padded input with one strided slice, kh*kw adds in all, with no scatter.
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
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]                      # [B,C,Ho,Wo,kh,kw]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(B * Ho * Wo, C * kh * kw)
    wmat = w.data.reshape(O, C * kh * kw)
    out = cols @ wmat.T
    if b is not None:
        out += b.data
    out = out.reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2)

    def backward(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(B * Ho * Wo, O)
        if w.requires_grad:
            _accumulate(w, (gmat.T @ cols).reshape(w.shape), owned=True)
        if b is not None and b.requires_grad:
            _accumulate(b, gmat.sum(axis=0), owned=True)
        if x.requires_grad:
            gcols = (gmat @ wmat).reshape(B, Ho, Wo, C, kh, kw)
            gp = np.zeros((B, H + 2 * padding, W + 2 * padding, C))
            # Descending (uy, ux) adds each input pixel's terms in ascending
            # (oy, ox), the order of the np.add.at reference in the tests,
            # so the two agree bitwise.
            for uy in range(kh - 1, -1, -1):
                for ux in range(kw - 1, -1, -1):
                    gp[:, uy:uy + stride * Ho:stride,
                       ux:ux + stride * Wo:stride] += gcols[..., uy, ux]
            gx = gp.transpose(0, 3, 1, 2)[:, :, padding:padding + H, padding:padding + W]
            _accumulate(x, gx, owned=True)

    return _result(out, (x, w) if b is None else (x, w, b), backward)


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
        for yy, xx, ww in ((iy0, ix0, w00), (iy0, ix1, w01),
                           (iy1, ix0, w10), (iy1, ix1, w11)):
            np.add.at(acc, (slice(None), yy[:, None], xx[None, :]), gflat * ww)
        _accumulate(x, acc.reshape(x.shape), owned=True)

    return _result(out, (x,), backward)


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

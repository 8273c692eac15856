"""Span tracer that times setdet's layers from outside the package.

``Tracer.install`` replaces the names that setdet's callers look up at call
time (module functions, class methods, the tape ops in ``setdet.tensor``)
with timing wrappers, and ``uninstall`` puts the originals back.  No file of
setdet is edited, and nothing is wrapped unless a traced run asks for it.

A span has a name, a start, an end, a parent and the id of the root span it
belongs to (one train step, one val pass, one predict request pair, or one
set-up).  Spans stay in memory until ``dump`` writes them.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

# (span name, defining module, function name): module-level functions.  Every
# alias of the function in a loaded ``setdet`` module is wrapped, so callers
# that imported it by name (``from .boxes import iou_matrix``) are covered.
FUNCTIONS = (
    ("data.generate_scene", "setdet.data", "generate_scene"),
    ("data.grid_instances_scene", "setdet.data", "grid_instances_scene"),
    ("detector.postprocess", "setdet.detector", "postprocess"),
    ("matching.total_loss", "setdet.matching", "total_loss"),
    ("matching.match", "setdet.matching", "match"),
    ("matching.cost_matrix", "setdet.matching", "matching_cost_matrix"),
    ("matching.hungarian_assign", "setdet.matching", "hungarian_assign"),
    ("matching.batch_hungarian_loss", "setdet.matching", "batch_hungarian_loss"),
    ("boxes.giou_matrix", "setdet.boxes", "giou_matrix"),
    ("boxes.iou_matrix", "setdet.boxes", "iou_matrix"),
    ("training.clip_grad_norm", "setdet.training", "clip_grad_norm"),
    ("training.predict_batch", "setdet.training", "predict_batch"),
    ("evaluation.evaluate_detections", "setdet.evaluation", "evaluate_detections"),
    ("evaluation.average_precision", "setdet.evaluation", "average_precision"),
)


def _encoder_decoder_layer(layer):
    # q_proj is named "<encoder|decoder>.layers.<i>.self_attn.q_proj.weight"
    return "transformer." + layer.self_attn.weights.q_proj.name.split(".self_attn.")[0]


def _attention(mha):
    kind = "cross" if ".cross_attn." in mha.weights.q_proj.name else "self"
    return "layers.attention." + kind


def _head(linear):
    name = linear.weight.name
    return "detector.heads" if name.startswith(("class_head.", "box_head.")) else None


# (module, class, method, span name or a function of the instance giving
# the span name, None for no span).
METHODS = (
    ("setdet.tensor", "Tensor", "backward", "tensor.backward"),
    ("setdet.detector", "Detector", "forward", "detector.forward"),
    ("setdet.detector", "Detector", "predict", "detector.predict"),
    ("setdet.detector", "Backbone", "__call__", "detector.backbone"),
    ("setdet.transformer", "Encoder", "__call__", "transformer.encoder"),
    ("setdet.transformer", "Decoder", "__call__", "transformer.decoder"),
    ("setdet.transformer", "EncoderLayer", "__call__", _encoder_decoder_layer),
    ("setdet.transformer", "DecoderLayer", "__call__", _encoder_decoder_layer),
    ("setdet.layers", "MultiHeadAttention", "__call__", _attention),
    ("setdet.layers", "FeedForward", "__call__", "layers.ffn"),
    ("setdet.layers", "Linear", "__call__", _head),
    ("setdet.training", "AdamW", "step", "training.adamw_step"),
)

MARK = "__perfbench_wrapper__"


def tensor_ops():
    """Names of the tape ops: public functions of setdet.tensor returning a Tensor."""
    module = sys.modules["setdet.tensor"]
    return sorted(
        name for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
        and inspect.signature(fn).return_annotation in ("Tensor", "'Tensor'"))


def _matmul_multiplies(a, b):
    sa, sb = _shape(a), _shape(b)
    batch = math.prod(_broadcast(sa[:-2], sb[:-2]))
    return batch * sa[-2] * sa[-1] * sb[-1]


def _conv_multiplies(x, w, b=None, stride=1, padding=0):
    sx, (o, c, kh, kw) = _shape(x), _shape(w)
    batch = 1 if len(sx) == 3 else sx[0]
    ho = (sx[-2] + 2 * padding - kh) // stride + 1
    wo = (sx[-1] + 2 * padding - kw) // stride + 1
    return batch * ho * wo * o * c * kh * kw


def _shape(value):
    data = getattr(value, "data", value)
    return tuple(getattr(data, "shape", ()))


def _broadcast(sa, sb):
    n = max(len(sa), len(sb))
    sa = (1,) * (n - len(sa)) + tuple(sa)
    sb = (1,) * (n - len(sb)) + tuple(sb)
    return tuple(max(x, y) for x, y in zip(sa, sb))


def _needs_grad(value):
    return bool(getattr(value, "requires_grad", False))


# op -> (forward multiplies from the call's arguments, the operands whose
# gradient each cost one more product of the same size in backward)
MULTIPLIES = {
    "matmul": (_matmul_multiplies, lambda a, b: (a, b)),
    "conv2d": (_conv_multiplies, lambda x, w, b=None, stride=1, padding=0: (x, w)),
}


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, root id)
        self.totals = {}       # (root kind, span name) -> [calls, inclusive s, self s]
        self.multiplies = {}   # (root kind, op, "fwd"|"bwd") -> scalar multiplies
        self.roots = {}        # root kind -> number of root spans
        self._stack = []       # open spans: [name, start, child seconds, span index]
        self._kind = None
        self._root = -1
        self._patches = []     # (owner, attribute, original)

    # -- spans -------------------------------------------------------------
    def begin(self, kind: str):
        """Open a root span; spans are recorded only inside one.  Root spans
        are numbered in the order they open, whatever their kind."""
        self._kind, self._root = kind, sum(self.roots.values())
        self.roots[kind] = self.roots.get(kind, 0) + 1
        self.enter(kind)

    def end(self):
        self.exit()

    def enter(self, name: str):
        self._stack.append([name, perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)

    def exit(self):
        name, start, child, index = self._stack.pop()
        end = perf_counter()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        self.spans[index] = (name, start, end, parent, self._root)
        rec = self.totals.get((self._kind, name))
        if rec is None:
            rec = self.totals[(self._kind, name)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child

    def count(self, op: str, direction: str, n: int):
        key = (self._kind, op, direction)
        self.multiplies[key] = self.multiplies.get(key, 0) + n

    # -- wrappers ------------------------------------------------------------
    def _span(self, namer, fn):
        """Wrap ``fn`` in a span; ``namer`` is the span name, or a function
        of the first argument (the instance, for a method) that gives it or
        None for no span."""
        def wrapper(*args, **kwargs):
            name = namer(args[0]) if callable(namer) else namer
            if not self._stack or name is None:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return self._mark(wrapper, fn)

    def _op(self, op, fn):
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"
        forward_count, grad_operands = MULTIPLIES.get(op, (None, None))

        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            # the input projection is the detector's only 1x1 convolution
            projection = op == "conv2d" and _shape(args[1] if len(args) > 1
                                                   else kwargs["w"])[-2:] == (1, 1)
            if projection:
                self.enter("detector.input_proj")
            self.enter(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
                if projection:
                    self.exit()
            n = forward_count(*args, **kwargs) if forward_count else 0
            if n:
                self.count(op, "fwd", n)
            backward = getattr(out, "_backward", None)
            if backward is not None and not any(out is a for a in args):
                operands = grad_operands(*args, **kwargs) if grad_operands else ()
                out._backward = self._backward(op, bwd, backward, n, operands)
            return out
        return self._mark(wrapper, fn)

    def _backward(self, op, name, backward, n, operands):
        def timed(grad):
            if not self._stack:
                return backward(grad)
            self.enter(name)
            try:
                return backward(grad)
            finally:
                self.exit()
                products = sum(_needs_grad(t) for t in operands)
                if n and products:
                    self.count(op, "bwd", n * products)
        return timed

    @staticmethod
    def _mark(wrapper, original):
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        wrapper.__doc__ = original.__doc__
        wrapper.__wrapped__ = original
        setattr(wrapper, MARK, True)
        return wrapper

    # -- install -------------------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_aliases(self, original, replacement):
        for module in _setdet_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        tensor = importlib.import_module("setdet.tensor")
        for op in tensor_ops():
            fn = getattr(tensor, op)
            self._patch_aliases(fn, self._op(op, fn))
        for span, module, attr in FUNCTIONS:
            fn = getattr(importlib.import_module(module), attr)
            self._patch_aliases(fn, self._span(span, fn))
        for module, cls, method, namer in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, method, self._span(namer, vars(owner)[method]))
        # Detector._forward_core rebuilds the sine table through this name
        # whenever the feature grid differs from the configured one.
        detector = importlib.import_module("setdet.detector")
        self._patch(detector, "SpatialEncoding",
                    self._span("posenc.rebuild", detector.SpatialEncoding))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def dump(self, path):
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, root]
                for n, start, end, parent, root in filter(None, self.spans)]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "root"],
                       "names": names, "spans": rows}, fh)


def _setdet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "setdet" or name.startswith("setdet."))]


def wrapped_names():
    """Every setdet attribute or method that currently holds a tracer wrapper."""
    found = []
    for module in _setdet_modules():
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{m}"
                          for m, v in vars(value).items() if getattr(v, MARK, False)]
    return found

"""End-to-end detector: conv backbone -> 1x1 projection -> encoder-decoder
-> shared prediction heads, plus postprocessing and checkpoint io.

Class logits stay raw in the output; softmax happens in the loss and in
postprocessing, which is numerically equivalent and keeps the loss path
stable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import (ConfigError, Linear, check_bool, check_int, check_real, kaiming_uniform,
                     xavier_uniform)
from .posenc import QUERY_MODES, SPATIAL_MODES, SpatialEncoding, init_object_queries
from .tensor import DimensionError, Parameter, Tensor
from .transformer import Decoder, Encoder, zero_queries

CHECKPOINT_MAGIC = b"SDTR"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters of the toy detector."""

    d: int = 64                       # transformer width
    num_heads: int = 8
    enc_layers: int = 2
    dec_layers: int = 2
    num_queries: int = 10             # slots N; must cover the most targets per image
    num_classes: int = 3              # target classes K; no-object is index K
    ffn_width: int = 256
    dropout: float = 0.1
    backbone_channels: tuple = (16, 32, 64)
    image_side: int = 64
    spatial_encoding: str = "sine-attn"
    query_encoding: str = "attn"
    temperature: float = 10000.0
    skip_first_self_attention: bool = False

    def __post_init__(self):
        if not isinstance(self.backbone_channels, (list, tuple)):
            raise ConfigError(f"backbone_channels must be a list of ints, "
                              f"got {self.backbone_channels!r}")
        object.__setattr__(self, "backbone_channels", tuple(self.backbone_channels))
        # an empty encoder is the identity; the heads read the last decoder layer
        lows = {"d": 1, "num_heads": 1, "enc_layers": 0, "dec_layers": 1, "num_queries": 1,
                "num_classes": 1, "ffn_width": 1, "image_side": 1}
        for name, low in lows.items():
            check_int(name, getattr(self, name), low)
        for i, channels in enumerate(self.backbone_channels):
            check_int(f"backbone_channels[{i}]", channels, 1)
        check_real("temperature", self.temperature, low_open=True)
        check_bool("skip_first_self_attention", self.skip_first_self_attention)
        if self.d % self.num_heads != 0:
            raise ConfigError(f"d must be divisible by num_heads={self.num_heads}, got {self.d}")
        if self.d % 4 != 0:
            raise ConfigError(f"d must be divisible by 4 for sine encodings, got {self.d}")
        if self.spatial_encoding not in SPATIAL_MODES:
            raise ConfigError(f"spatial_encoding must be one of {SPATIAL_MODES}, "
                              f"got {self.spatial_encoding!r}")
        if self.query_encoding not in QUERY_MODES:
            raise ConfigError(f"query_encoding must be one of {QUERY_MODES}, "
                              f"got {self.query_encoding!r}")
        if self.image_side % self.stride != 0:
            raise ConfigError(f"image_side must be divisible by the backbone stride "
                              f"{self.stride}, got {self.image_side}")
        check_real("dropout", self.dropout, high=1)

    @property
    def stride(self) -> int:
        return 2 ** len(self.backbone_channels)

    @property
    def feature_side(self) -> int:
        return self.image_side // self.stride


@dataclass(frozen=True)
class DetectionOutput:
    """Slot predictions of every decoder layer, final layer last.

    ``class_logits`` is [L, B, N, K+1] and ``boxes`` [L, B, N, 4] in
    normalized (cx, cy, w, h), sigmoid-bounded: the decoder-layer axis L
    leads the batch axis B, so one loss call and one index serve every layer.
    """

    class_logits: Tensor
    boxes: Tensor

    @property
    def layers(self) -> "DetectionOutput":
        return self     # for perfbench/workloads.py's total_loss(out.layers, ...)


class NonFiniteInputError(ValueError):
    """A model input image holds NaN or infinite pixels: ``image`` is its
    index among ``batch`` images and ``count`` the count of such values."""

    def __init__(self, image: int, batch: int, count: int):
        super().__init__(f"model input image {image} of {batch} has {count} non-finite "
                         f"values (NaN or inf)")
        self.image, self.count = image, count


@dataclass
class Detection:
    """One emitted detection; no-object is never emitted."""

    class_id: int
    confidence: float
    box: np.ndarray


class Backbone:
    """Small trainable conv stack; each 3x3 conv halves the resolution."""

    def __init__(self, channels, rng, name="backbone"):
        self.convs = []
        c_in = 3
        for i, c_out in enumerate(channels):
            w = Parameter(f"{name}.conv{i}.weight",
                          Tensor(kaiming_uniform(rng, (c_out, c_in, 3, 3), c_in * 9)))
            b = Parameter(f"{name}.conv{i}.bias", Tensor(np.zeros(c_out)))
            self.convs.append((w, b))
            c_in = c_out
        self.out_channels = c_in

    def __call__(self, images: Tensor) -> Tensor:
        x = images
        for w, b in self.convs:
            x = T.relu(T.conv2d(x, w.tensor, b.tensor, stride=2, padding=1))
        return x

    def parameters(self):
        return [p for pair in self.convs for p in pair]


class Detector:
    """The full model.  Forward takes a [B,3,H,W] batch; ``predict`` takes
    one [3,H,W] image."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        cfg = config
        self.config = cfg
        self.backbone = Backbone(cfg.backbone_channels, rng)
        d = cfg.d
        c = self.backbone.out_channels
        self.input_proj_w = Parameter(
            "input_proj.weight",
            Tensor(xavier_uniform(rng, (d, c), c, d).reshape(d, c, 1, 1)))
        self.input_proj_b = Parameter("input_proj.bias", Tensor(np.zeros(d)))
        side = cfg.feature_side
        self.spatial_enc = SpatialEncoding(cfg.spatial_encoding, side, side, d,
                                           cfg.temperature, rng)
        self.object_queries = init_object_queries(cfg.num_queries, d, rng)
        self.encoder = Encoder(cfg.enc_layers, d, cfg.num_heads, cfg.ffn_width, rng)
        self.decoder = Decoder(cfg.dec_layers, d, cfg.num_heads, cfg.ffn_width, rng,
                               skip_first_self_attention=cfg.skip_first_self_attention)
        self.class_head = Linear(d, cfg.num_classes + 1, rng, "class_head")
        self.box_head = [Linear(d, d, rng, "box_head.0"),
                         Linear(d, d, rng, "box_head.1"),
                         Linear(d, 4, rng, "box_head.2")]
        self._params = self._collect_parameters()

    def _collect_parameters(self):
        params = []
        params += self.backbone.parameters()
        params += [self.input_proj_w, self.input_proj_b]
        params += self.spatial_enc.parameters()
        params += [self.object_queries]
        params += self.encoder.parameters()
        params += self.decoder.parameters()
        params += self.class_head.parameters()
        for lin in self.box_head:
            params += lin.parameters()
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate parameter names: {dupes}")
        return params

    def parameters(self) -> list[Parameter]:
        return self._params

    def zero_grad(self):
        for p in self._params:
            p.tensor.zero_grad()

    def param_groups(self) -> dict:
        """Backbone vs everything else, for the two learning rates."""
        backbone = [p for p in self._params if p.name.startswith("backbone.")]
        rest = [p for p in self._params if not p.name.startswith("backbone.")]
        return {"backbone": backbone, "transformer": rest}

    # -- forward ---------------------------------------------------------

    def backbone_forward(self, image) -> Tensor:
        """Feature maps [B, C, H/s, W/s] from a [B,3,H,W] batch in [0,1].

        A NaN or infinite pixel raises ``NonFiniteInputError`` (a
        ``ValueError``) naming the first such image: it would otherwise come
        out as NaN detections."""
        x = image if isinstance(image, Tensor) else Tensor(image)
        if x.ndim != 4:
            raise DimensionError(f"model input must be a [B,3,H,W] batch, got shape "
                                 f"{x.shape}; Detector.predict takes one [3,H,W] image")
        finite = np.isfinite(x.data)
        if not finite.all():
            bad = np.count_nonzero(~finite.reshape(len(finite), -1), axis=1)
            i = int(np.flatnonzero(bad)[0])
            raise NonFiniteInputError(i, len(bad), int(bad[i]))
        stride = self.config.stride
        for name, side in (("height", x.shape[-2]), ("width", x.shape[-1])):
            if side % stride != 0:
                raise ConfigError(
                    f"image {name} {side} not divisible by stride {stride}")
        return self.backbone(x)

    def forward(self, images, train: bool = False, rng=None) -> DetectionOutput:
        """Full pipeline from a [B,3,H,W] batch to every layer's slot predictions.

        In train mode dropout is active and ``rng`` must be supplied.
        """
        return self.forward_with_internals(images, train, rng)[0]

    def forward_with_internals(self, images, train: bool = False, rng=None):
        """Forward pass that also exposes the encoder memory [B,d,HW] and the
        final decoder embeddings [B,d,N] for the mask head.

        The shared heads run on each decoder layer's [B,d,N] state in turn,
        and one ``T.stack`` node joins their outputs on a leading layer axis."""
        cfg = self.config
        feats = self.backbone_forward(images)
        feats = T.conv2d(feats, self.input_proj_w.tensor, self.input_proj_b.tensor)
        batch, d, fh, fw = feats.shape
        src = T.reshape(feats, (batch, d, fh * fw))

        enc = self.spatial_enc
        if enc.shape[1] != fh or enc.shape[2] != fw:
            if enc.mode in ("sine-attn", "sine-input"):
                enc = SpatialEncoding(enc.mode, fh, fw, d, cfg.temperature)
            else:
                raise ConfigError(
                    f"feature grid {fh}x{fw} does not match the "
                    f"{enc.shape[1]}x{enc.shape[2]} spatial encoding table")
        pos_input = enc.at_input()
        if pos_input is not None:
            src = src + pos_input
        pos_attn = enc.at_attention()

        memory = self.encoder(src, pos_attn, dropout=cfg.dropout, rng=rng, train=train)

        if cfg.query_encoding == "attn":
            queries_init = zero_queries(batch, d, cfg.num_queries)
            query_pos = self.object_queries.tensor
        else:
            # queries enter once as the decoder input instead of at each layer
            queries_init = zero_queries(batch, d, cfg.num_queries) + self.object_queries.tensor
            query_pos = None
        layer_states = self.decoder(queries_init, memory, pos_attn, query_pos,
                                    dropout=cfg.dropout, rng=rng, train=train)

        logits, boxes = [], []
        for state in layer_states:
            logits.append(T.transpose(self.class_head(state)))         # [B, N, K+1]
            h = self.box_head[1](self.box_head[0](state, relu=True), relu=True)
            boxes.append(T.transpose(T.sigmoid(self.box_head[2](h))))  # [B, N, 4]
        return DetectionOutput(T.stack(logits), T.stack(boxes)), memory, layer_states[-1]

    def predict(self, image, use_layer: int = -1,
                override_empty: bool = True) -> list[Detection]:
        """Inference on one [3,H,W] image, a Tensor or any array-like:
        forward of a batch of one in eval mode + postprocess.  Input of
        another rank raises ``DimensionError`` naming its shape."""
        image = image.data if isinstance(image, Tensor) else np.asarray(image)
        if image.ndim != 3:
            raise DimensionError(f"Detector.predict takes one [3,H,W] image, got shape "
                                 f"{image.shape}; forward takes a [B,3,H,W] batch")
        with T.no_grad():
            out = self.forward(image[None])
        return postprocess(out, use_layer=use_layer, override_empty=override_empty)[0]


def postprocess(output: DetectionOutput, use_layer: int = -1,
                override_empty: bool = True):
    """Turn one layer's slot predictions into detections.

    Slots whose argmax is the no-object class are dropped, unless
    ``override_empty`` is set, in which case they emit their best real
    class at that class's (lower) probability.  Returns one list of
    Detection per image of the batch.
    """
    count = output.class_logits.shape[0]
    if type(use_layer) is not int or not -count <= use_layer < count:
        raise ValueError(f"use_layer {use_layer!r} is out of range for {count} decoder layers")
    probs = T.softmax(output.class_logits.data[use_layer])     # [B, N, K+1]
    no_object = probs.shape[-1] - 1
    best = probs.argmax(axis=-1)                                # [B, N]
    keep = best != no_object
    if override_empty:
        best = np.where(keep, best, probs[..., :no_object].argmax(axis=-1))
        keep[:] = True
    confidence = np.take_along_axis(probs, best[..., None], axis=-1)[..., 0]
    return [[Detection(c, p, box.copy()) for c, p, box, k in zip(cs, ps, bs, ks) if k]
            for cs, ps, bs, ks in zip(best.tolist(), confidence.tolist(),
                                      output.boxes.data[use_layer], keep.tolist())]


# -- checkpoint io ------------------------------------------------------------

class CheckpointError(ValueError):
    """Malformed checkpoint or mismatch against the configured model."""


def write_arrays(path: str, arrays: dict):
    """Write ``{name: array}`` as the one container of every state file.

    Little-endian: magic, u32 version, u32 entry count, then per entry a
    u32 name length, the UTF-8 name, u32 rank, u32 dims, f64 payload.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(arrays)))
        for name, array in arrays.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(encoded)}sI{array.ndim}I", len(encoded),
                                 encoded, array.ndim, *array.shape))
            fh.write(array.astype("<f8").tobytes())


def read_checkpoint_arrays(path: str) -> dict:
    """Name -> array of a container.  Each length is checked against the
    bytes left before use; bad input raises CheckpointError naming where."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise CheckpointError(f"{what} needs {n} bytes at byte {pos}, "
                                  f"{len(buf) - pos} left")
        pos += n
        return buf[pos - n:pos]

    def u32s(n: int, what: str) -> tuple:
        return struct.unpack(f"<{n}I", take(4 * n, what))

    if (magic := take(4, "magic")) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    version, count = u32s(2, "header")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if 12 * count > len(buf) - pos:     # no entry is shorter than 12 bytes
        raise CheckpointError(f"{count} entries cannot fit in {len(buf) - pos} bytes")
    entries = {}
    for i in range(count):
        (name_len,) = u32s(1, f"entry {i} name length")
        try:
            name = take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"entry {i}: name is not UTF-8") from None
        if name in entries:
            raise CheckpointError(f"entry {i}: duplicate name {name!r}")
        (rank,) = u32s(1, f"entry {i} rank")
        if rank > 32:                   # numpy's lowest ndim limit
            raise CheckpointError(f"entry {i}: rank {rank} exceeds 32")
        shape = u32s(rank, f"entry {i} shape")
        payload = take(8 * math.prod(shape), f"entry {i} ({name!r}) payload")
        entries[name] = np.frombuffer(payload, "<f8").astype(np.float64).reshape(shape)
    if pos != len(buf):
        raise CheckpointError(f"{len(buf) - pos} trailing bytes at byte {pos}")
    return entries


def check_arrays(arrays: dict, shapes: dict, path: str):
    """Require exactly the names of ``shapes``, each with its shape."""
    if set(arrays) != set(shapes):
        raise CheckpointError(f"{path}: names disagree (missing "
                              f"{sorted(set(shapes) - set(arrays))}, extra "
                              f"{sorted(set(arrays) - set(shapes))})")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}: file "
                                  f"{arrays[name].shape} vs expected {shape}")


def save_checkpoint(module, path: str):
    """Bit-exact dump of ``module.parameters()`` (a Detector or MaskHead)."""
    write_arrays(path, {p.name: p.tensor.data for p in module.parameters()})


def load_checkpoint(module, path: str):
    """Load a checkpoint into a module built from the same config; a failed
    load leaves the module untouched (all is checked before assigning)."""
    arrays = read_checkpoint_arrays(path)
    params = module.parameters()
    check_arrays(arrays, {p.name: p.tensor.data.shape for p in params}, path)
    for p in params:
        p.tensor.data = arrays[p.name]
        p.tensor._version += 1      # backward closures read .data when they run

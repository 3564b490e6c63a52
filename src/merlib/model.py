"""Residual blocks with a multi-scale attention map, stacked classifiers,
and the binary checkpoint format that moves them between training stages.

Each block runs three branches off the same input: a pointwise 1x1 conv,
a 3x3 conv, and a second 3x3 on top of it (an effective 5x5 receptive
field). The trunk is pointwise + wide. The attention map embeds the
concatenated branches with a bias-free 1x1 conv and averages the result
over channels; the trunk is then gated by (1 + map). By linearity the
map is the branches' channel sum weighted by the row mean of the stored
[C,C,1,1] embedding, exact for any embedding, which keeps the checkpoint
format and parameter count. With the attention weight at zero the gate is
exactly 1.0, so the block is bit-for-bit the plain residual block:
checkpoints from plain pretraining can be upgraded in place without
changing a single logit.
"""

import contextlib
import json
import math
import os
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import (CheckpointCorrupt, CheckpointSpecMismatch,
                     CheckpointVersionMismatch, ConfigError, ShapeError,
                     ValidationError)


@dataclass(frozen=True)
class BlockSpec:
    """Channel widths of one block's three branches.

    in_channels feeds all branches; point_channels and wide_channels must
    match so the trunk sum is well formed, and they are the block's output
    width. stride downsamples the pointwise and first 3x3 conv together.
    """
    in_channels: int
    point_channels: int
    mid_channels: int
    wide_channels: int
    stride: int = 1

    def __post_init__(self):
        for name in ("in_channels", "point_channels", "mid_channels",
                     "wide_channels", "stride"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"BlockSpec.{name} must be a positive integer, got {v!r}")
        if self.point_channels != self.wide_channels:
            raise ConfigError(
                f"point and wide branches must have equal widths to be summed, "
                f"got {self.point_channels} and {self.wide_channels}")

    @property
    def out_channels(self) -> int:
        return self.point_channels

    @property
    def concat_channels(self) -> int:
        """Width of the three branches stacked together."""
        return self.point_channels + self.mid_channels + self.wide_channels


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple  # (channels, height, width)
    blocks: tuple       # of BlockSpec, may be empty
    num_classes: int

    def __post_init__(self):
        shape = tuple(self.input_shape)
        object.__setattr__(self, "input_shape", shape)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(shape) != 3 or any(not isinstance(v, int) or v < 1 for v in shape):
            raise ConfigError(f"input_shape must be 3 positive ints (C,H,W), got {shape!r}")
        if not isinstance(self.num_classes, int) or self.num_classes < 2:
            raise ConfigError(f"num_classes must be an integer >= 2, got {self.num_classes!r}")
        expected, h, w = shape
        for i, b in enumerate(self.blocks):
            if not isinstance(b, BlockSpec):
                raise ConfigError(f"blocks[{i}] is not a BlockSpec")
            if b.in_channels != expected:
                raise ConfigError(f"blocks[{i}] expects {b.in_channels} input channels "
                                  f"but receives {expected}")
            # Both strided convs (1x1 pad 0, 3x3 pad 1) tile h iff s divides h - 1.
            if (h - 1) % b.stride or (w - 1) % b.stride:
                raise ConfigError(f"blocks[{i}] stride {b.stride} does not tile its "
                                  f"{h}x{w} input: (size - 1) must be a multiple of it")
            expected = b.out_channels
            h, w = (h - 1) // b.stride + 1, (w - 1) // b.stride + 1

    @property
    def feature_channels(self) -> int:
        return self.blocks[-1].out_channels if self.blocks else self.input_shape[0]

    @classmethod
    def stack(cls, input_shape, num_blocks: int, width: int, num_classes: int,
              strides=None) -> "NetworkSpec":
        """Uniform network: every block uses `width` on all three branches."""
        if strides is None:
            strides = [1] * num_blocks
        if len(strides) != num_blocks:
            raise ConfigError(f"need {num_blocks} strides, got {len(strides)}")
        cin = input_shape[0]
        blocks = []
        for s in strides:
            blocks.append(BlockSpec(cin, width, width, width, stride=s))
            cin = width
        return cls(tuple(input_shape), tuple(blocks), num_classes)


@dataclass
class BlockParams:
    """Weights of one block; attn_w is None for the plain residual variant."""
    point_w: tc.Tensor
    point_b: tc.Tensor
    mid_w: tc.Tensor
    mid_b: tc.Tensor
    wide_w: tc.Tensor
    wide_b: tc.Tensor
    attn_w: object = None


def attention_map(point: tc.Tensor, mid: tc.Tensor, wide: tc.Tensor,
                  attn_w: tc.Tensor) -> tc.Tensor:
    """Single-channel spatial map from the three branch activations.

    Defined as the channel mean of the branches' concatenation embedded by
    a bias-free 1x1 conv that keeps the width: [N,1,H,W]. The channel mean
    of a linear map is the map by the mean of its rows, v = row_mean(attn_w),
    and v splits by branch width, so the map is sum_b v_b . branch_b: one
    weighted channel sum per branch (`tc.weighted_channel_sum`), exact for
    any attn_w, with no concatenation built forward or backward.
    """
    branches = [point, mid, wide]
    c = sum(t.shape[1] for t in branches if t.data.ndim == 4)
    if attn_w.shape != (c, c, 1, 1):
        raise ShapeError(f"attention weight must be [{c},{c},1,1], "
                         f"got {attn_w.shape}")
    return tc.weighted_channel_sum(branches, tc.row_mean(attn_w))


def _block_apply(x: tc.Tensor, p: BlockParams, stride: int, want_map: bool):
    point = tc.conv2d(x, p.point_w, p.point_b, stride=stride, pad=0)
    mid = tc.relu(tc.conv2d(x, p.mid_w, p.mid_b, stride=stride, pad=1))
    wide = tc.conv2d(mid, p.wide_w, p.wide_b, stride=1, pad=1)
    trunk = tc.add(point, wide)
    if p.attn_w is None:
        out = tc.relu(trunk)
        m = None
        if want_map:
            n, _, h, w = trunk.shape
            m = tc.Tensor(np.zeros((n, 1, h, w)))
        return out, m
    m = attention_map(point, mid, wide, p.attn_w)
    out = tc.relu(tc.mul(trunk, tc.add_scalar(m, 1.0)))
    return out, (m if want_map else None)


def block_forward(x: tc.Tensor, p: BlockParams, stride: int = 1) -> tc.Tensor:
    """Run one block; attention applies iff p.attn_w is present."""
    out, _ = _block_apply(x, p, stride, want_map=False)
    return out


Readout = namedtuple("Readout", ["logits", "maps"])


class Network:
    """Stacked blocks, global average pooling, and a linear classifier."""

    def __init__(self, spec: NetworkSpec, blocks, head_w: tc.Tensor,
                 head_b: tc.Tensor, attention: bool):
        self.spec = spec
        self.blocks = list(blocks)
        self.head_w = head_w
        self.head_b = head_b
        self.attention = bool(attention)
        if len(self.blocks) != len(spec.blocks):
            raise ConfigError(f"spec has {len(spec.blocks)} blocks, got "
                              f"{len(self.blocks)} parameter sets")
        for i, bp in enumerate(self.blocks):
            has_attn = bp.attn_w is not None
            if has_attn != self.attention:
                raise ConfigError(f"block {i} attention weights "
                                  f"{'present' if has_attn else 'missing'} but the "
                                  f"network attention flag is {self.attention}")

    def _check_input(self, x: tc.Tensor):
        c, h, w = self.spec.input_shape
        if x.data.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(f"network expects input [N,{c},{h},{w}], got {x.shape}")

    def _run(self, x: tc.Tensor, want_maps: bool):
        self._check_input(x)
        maps = []
        h = x
        for bspec, bp in zip(self.spec.blocks, self.blocks):
            h, m = _block_apply(h, bp, bspec.stride, want_maps)
            if want_maps:
                maps.append(m)
        logits = tc.linear(tc.global_avg_pool(h), self.head_w, self.head_b)
        return logits, maps

    def forward(self, x: tc.Tensor) -> tc.Tensor:
        logits, _ = self._run(x, want_maps=False)
        return logits

    def parameters(self) -> dict:
        """Name -> Tensor in a fixed declaration order (checkpoint order)."""
        out = {}
        for i, bp in enumerate(self.blocks):
            out[f"block{i}.point_w"] = bp.point_w
            out[f"block{i}.point_b"] = bp.point_b
            out[f"block{i}.mid_w"] = bp.mid_w
            out[f"block{i}.mid_b"] = bp.mid_b
            out[f"block{i}.wide_w"] = bp.wide_w
            out[f"block{i}.wide_b"] = bp.wide_b
            if bp.attn_w is not None:
                out[f"block{i}.attn_w"] = bp.attn_w
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out

    def zero_grads(self):
        for p in self.parameters().values():
            p.grad = None


def attention_readout(model: Network, x: tc.Tensor) -> Readout:
    """Forward pass that also returns per-block attention maps.

    `maps` holds one [N,1,H,W] map per block, at that block's output
    resolution; plain blocks contribute identically-zero maps. The logits
    come from the same pass, so they match `model.forward` exactly.
    """
    return Readout(*model._run(x, want_maps=True))


def _zero_attention_weight(bs: BlockSpec) -> tc.Tensor:
    """The [C,C,1,1] zero embedding, C = bs.concat_channels, that makes a
    block's gate exactly 1.0: fresh attention networks and upgraded plain
    checkpoints both start from it, so the two compute the plain function."""
    c = bs.concat_channels
    return tc.Tensor(np.zeros((c, c, 1, 1)), requires_grad=True)


def build_network(spec: NetworkSpec, seed: int, attention: bool = True) -> Network:
    """Fresh network with uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)) conv and
    head weights (variance 2/fan_in, which keeps activation scale roughly
    constant through relu layers), zero biases, and zero attention weights.

    The attention weight starts at zero, so a fresh attention network
    computes the same function as a fresh plain network built from the same
    seed (no draws are spent on attention weights).
    """
    rng = np.random.default_rng(seed)

    def conv_weight(cout, cin, k):
        lim = math.sqrt(6.0 / (cin * k * k))
        return tc.Tensor(rng.uniform(-lim, lim, (cout, cin, k, k)), requires_grad=True)

    def zeros(*shape):
        return tc.Tensor(np.zeros(shape), requires_grad=True)

    blocks = []
    for bs in spec.blocks:
        blocks.append(BlockParams(
            point_w=conv_weight(bs.point_channels, bs.in_channels, 1),
            point_b=zeros(bs.point_channels),
            mid_w=conv_weight(bs.mid_channels, bs.in_channels, 3),
            mid_b=zeros(bs.mid_channels),
            wide_w=conv_weight(bs.wide_channels, bs.mid_channels, 3),
            wide_b=zeros(bs.wide_channels),
            attn_w=_zero_attention_weight(bs) if attention else None,
        ))
    d = spec.feature_channels
    lim = math.sqrt(6.0 / d)
    head_w = tc.Tensor(rng.uniform(-lim, lim, (spec.num_classes, d)), requires_grad=True)
    head_b = zeros(spec.num_classes)
    return Network(spec, blocks, head_w, head_b, attention)


@dataclass(frozen=True)
class ParamCount:
    total: int
    backbone: int   # conv branches and their biases
    attention: int  # bias-free 1x1 embedding weights
    head: int
    per_block: tuple  # (backbone, attention) pairs


def count_params(model: Network) -> ParamCount:
    """Exact parameter counts, split into backbone, attention, and head."""
    per_block = []
    backbone = attention = 0
    for bs, bp in zip(model.spec.blocks, model.blocks):
        b = (bp.point_w.size + bp.point_b.size + bp.mid_w.size + bp.mid_b.size
             + bp.wide_w.size + bp.wide_b.size)
        a = bp.attn_w.size if bp.attn_w is not None else 0
        per_block.append((b, a))
        backbone += b
        attention += a
    head = model.head_w.size + model.head_b.size
    return ParamCount(total=backbone + attention + head, backbone=backbone,
                      attention=attention, head=head, per_block=tuple(per_block))


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = b"MERNET01"
_VERSION = 1


def _spec_payload(spec: NetworkSpec, attention: bool) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "blocks": [[b.in_channels, b.point_channels, b.mid_channels,
                    b.wide_channels, b.stride] for b in spec.blocks],
        "num_classes": spec.num_classes,
        "attention": attention,
    }


def _spec_from_payload(payload: dict) -> NetworkSpec:
    try:
        blocks = tuple(BlockSpec(*map(int, row)) for row in payload["blocks"])
        return NetworkSpec(tuple(int(v) for v in payload["input_shape"]),
                           blocks, int(payload["num_classes"]))
    except (KeyError, TypeError, ValueError, ConfigError) as e:
        raise CheckpointCorrupt(f"invalid architecture description: {e}") from e


def encode_checkpoint(model: Network) -> bytes:
    """Magic, version, JSON architecture header, then raw little-endian
    float64 tensors in parameter order."""
    payload = json.dumps(_spec_payload(model.spec, model.attention),
                         sort_keys=True, separators=(",", ":")).encode()
    parts = [_MAGIC, struct.pack("<I", _VERSION),
             struct.pack("<I", len(payload)), payload]
    params = model.parameters()
    parts.append(struct.pack("<I", len(params)))
    for t in params.values():
        arr = t.data
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8", copy=False).tobytes())
    return b"".join(parts)


def write_atomic(path, data: bytes):
    """Replace the file at `path` with `data` in one step.

    The bytes go to a temporary file in the same directory, which is then
    renamed over `path`, so a write interrupted part way leaves the
    previous file (or none) in place, never a truncated one.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_checkpoint(model: Network, path):
    write_atomic(path, encode_checkpoint(model))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointCorrupt("checkpoint is truncated")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def decode_checkpoint(blob: bytes) -> Network:
    """Rebuild a network from checkpoint bytes, validating every field."""
    r = _Reader(blob)
    if r.take(8) != _MAGIC:
        raise CheckpointCorrupt("bad magic bytes; not a network checkpoint")
    version = r.u32()
    if version != _VERSION:
        raise CheckpointVersionMismatch(f"checkpoint format version {version}, "
                                        f"this build reads version {_VERSION}")
    header_len = r.u32()
    try:
        payload = json.loads(r.take(header_len).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointCorrupt(f"unreadable architecture header: {e}") from e
    if not isinstance(payload, dict):
        raise CheckpointCorrupt("architecture header is not a JSON object")
    if not isinstance(payload.get("attention"), bool):
        raise CheckpointCorrupt("architecture header is missing the attention flag")
    spec = _spec_from_payload(payload)
    attention = payload["attention"]

    # Shape skeleton from a zero init; the stored tensors must match it.
    model = build_network(spec, seed=0, attention=attention)
    params = model.parameters()
    n_tensors = r.u32()
    if n_tensors != len(params):
        raise CheckpointCorrupt(f"checkpoint stores {n_tensors} tensors, the "
                                f"architecture needs {len(params)}")
    for name, t in params.items():
        rank = r.u32()
        if rank != t.data.ndim:
            raise CheckpointCorrupt(f"{name}: stored rank {rank}, expected {t.data.ndim}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        if dims != t.data.shape:
            raise CheckpointCorrupt(f"{name}: stored shape {dims}, expected {t.data.shape}")
        raw = r.take(8 * t.data.size)
        t.data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        if not np.all(np.isfinite(t.data)):
            raise CheckpointCorrupt(f"{name}: stored values are not all finite")
    if r.pos != len(blob):
        raise CheckpointCorrupt(f"{len(blob) - r.pos} trailing bytes after the last tensor")
    return model


def load_checkpoint(path, expect_spec: NetworkSpec = None, mode: str = "exact") -> Network:
    """Load a checkpoint and check it against the architecture the caller wants.

    mode 'exact' requires the stored architecture to equal expect_spec and
    keeps the stored attention flag. mode 'upgrade' additionally requires a
    plain (attention-free) checkpoint and returns an attention network whose
    attention weights are zero, which leaves the computed function untouched.
    With expect_spec=None the architecture check is skipped (exact mode only).
    Errors about the file's contents name the file.
    """
    if mode not in ("exact", "upgrade"):
        raise ValidationError(f"load mode must be 'exact' or 'upgrade', got {mode!r}")
    if mode == "upgrade" and expect_spec is None:
        raise ValidationError("upgrade mode needs the target architecture")
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {e}") from e
    try:
        model = decode_checkpoint(blob)
        if expect_spec is not None and model.spec != expect_spec:
            raise CheckpointSpecMismatch(
                f"checkpoint architecture {model.spec} differs from requested {expect_spec}")
        if mode == "upgrade" and model.attention:
            raise CheckpointSpecMismatch(
                "upgrade expects a plain checkpoint, this one already has attention weights")
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from e
    if mode == "upgrade":
        for bs, bp in zip(model.spec.blocks, model.blocks):
            bp.attn_w = _zero_attention_weight(bs)
        model.attention = True
    return model


# ---------------------------------------------------------------------------
# whole-model gradient checking

def parameter_grad_errors(model: Network, x: tc.Tensor, labels, eps: float = 1e-5) -> dict:
    """Per-parameter max relative error of the cross-entropy gradient against
    central finite differences (`tc.grad_check` on each parameter in
    declaration order). Parameters are perturbed in place and restored, and
    every gradient is cleared afterwards."""
    def loss(_):
        return tc.softmax_cross_entropy(model.forward(x), labels)

    try:
        return {name: tc.grad_check(loss, p, eps)
                for name, p in model.parameters().items()}
    finally:
        model.zero_grads()

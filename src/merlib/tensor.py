"""Dense float64 tensors with a recorded tape for reverse-mode autodiff.

Covers exactly what a small convolutional classifier needs: conv2d,
channel concat/mean, a weighted channel sum, a weight row mean, broadcast
elementwise arithmetic, relu, pooling, a linear head, softmax
cross-entropy, and a finite-difference gradient checker. Forward
execution is eager; when a tape is active each op appends itself, and
backward replays the records in reverse order.

Every convolution, forward and both gradients, runs through one lowering
along the column axis (MEC, `_lowered`): each image of the input is copied
kw times, not kh*kw times as by im2col, straight into the lowered matrix
with its zero padding (no padded copy of the input is made or kept), and
each kernel row multiplies a row window of that matrix, kh GEMMs per image
summed into the output (`_correlate`).
"""

import math
import threading

import numpy as np

from .errors import ConfigError, NumericalError, ShapeError, ValidationError

_tls = threading.local()


def _active_tape():
    return getattr(_tls, "tape", None)


class Tensor:
    """A rank-1..4 dense float64 array, optionally tracked on the active tape.

    `data` is contiguous row-major and owned by the tensor; callers must not
    mutate it while a tape referencing the tensor is still alive (the
    optimizer updates leaves in place only between forward passes). `grad`
    is filled by `Tape.backward` for leaves and matches `data` in shape.
    `tape_id` is the index of the op that produced this tensor on its tape,
    None for leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "tape_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if not 1 <= arr.ndim <= 4:
            raise ShapeError(f"tensors are rank 1 to 4, got rank {arr.ndim}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self.tape_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class Tape:
    """Execution-ordered record of the ops from one forward pass.

    Eager evaluation appends ops in the order they ran, so every input
    tensor is produced before the op that consumes it; replaying the list
    in reverse visits each op exactly once with its output gradient
    complete. One tape per thread at a time; tapes must not be shared
    between threads.
    """

    def __init__(self):
        self._ops = []  # (output, backward_fn)

    def __enter__(self):
        if _active_tape() is not None:
            raise ValidationError("a tape is already active in this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def __len__(self):
        return len(self._ops)

    def record(self, output: Tensor, backward_fn):
        output.tape_id = len(self._ops)
        self._ops.append((output, backward_fn))

    def backward(self, loss: Tensor, params=()):
        """Accumulate d(loss)/d(tensor) into .grad for every leaf reached.

        An op's output gradient is released as soon as the op's backward
        has consumed it, so the next op's gradient reuses that memory while
        it is still in cache instead of a fresh block; outputs of recorded
        ops hold no gradient afterwards. Parameters listed in `params` that
        the loss does not depend on get a zero gradient buffer instead of
        None, so optimizers can treat the result uniformly.
        """
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss.tape_id is None or loss.tape_id >= len(self._ops) \
                or self._ops[loss.tape_id][0] is not loss:
            raise ValidationError("loss tensor was not produced on this tape")
        loss.grad = np.ones_like(loss.data)
        for output, backward_fn in reversed(self._ops):
            if output.grad is not None:
                backward_fn(output.grad)
                output.grad = None
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def _wants_grad(t: Tensor) -> bool:
    # Intermediates carry tape_id; leaves opt in with requires_grad.
    return t.requires_grad or t.tape_id is not None


def _accum(t: Tensor, g):
    # Replaces rather than mutates, so shared gradient buffers stay safe.
    t.grad = g if t.grad is None else t.grad + g


def _record(out: Tensor, inputs, backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(_wants_grad(t) for t in inputs):
        tape.record(out, backward_fn)
    return out


def _check_finite(arr, what: str):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# convolution

def _inside(first: int, count: int, stride: int, size: int) -> tuple:
    """Of the positions first + t*stride, t < count, those inside [0, size):
    (the t slice, the slice of the positions)."""
    t0 = max(0, -(first // stride))
    t1 = max(t0, min(count, (size - 1 - first) // stride + 1))
    lo = first + t0 * stride
    return slice(t0, t1), slice(lo, lo + (t1 - t0) * stride, stride)


def _lowered(x: np.ndarray, kh: int, kw: int, stride: int, ph: int, pw: int,
             oh: int, ow: int):
    """MEC's one-axis lowering (Cho & Brand, arXiv 1706.06873) of images
    x [N,C,H,W] zero-padded by ph rows and pw columns on each side: yields,
    image by image, the kh column blocks [C*kw, oh*ow] that the kernel rows
    w[:, :, di, :] multiply.

    Each row phase r < min(stride, kh) holds the kw column-shifted,
    column-strided windows of padded rows r, r + stride, ... in one
    [C*kw, rows*ow] matrix. Tap row di = q*stride + r reads its columns
    q*ow:(q+oh)*ow, a 2-D slice BLAS takes without a further copy. No padded
    copy of x is made: each window is copied straight from x into the cells
    that fall inside it, and the cells that fall in the padding, the same
    border strips for every image, are zeroed once per call. The matrices
    are reused, so an image's blocks hold until the next is yielded. With
    kw = 1, stride 1 and no padding the matrix is the image itself.
    """
    n, c, h, wd = x.shape
    if kw == 1 and stride == 1 and not (ph or pw):
        flat = x.reshape(n, c, -1)
        yield from zip(*(flat[:, :, di * ow:(di + oh) * ow] for di in range(kh)))
        return
    phases = [np.empty((c, kw, oh + (kh - 1 - r) // stride, ow))
              for r in range(min(stride, kh))]
    copies = []  # (destination cells, source rows, source columns)
    for r, m in enumerate(phases):
        rows, src_rows = _inside(r - ph, m.shape[2], stride, h)
        m[:, :, :rows.start] = m[:, :, rows.stop:] = 0.0
        for dj in range(kw):
            cols, src_cols = _inside(dj - pw, ow, stride, wd)
            m[:, dj, rows, :cols.start] = m[:, dj, rows, cols.stop:] = 0.0
            copies.append((m[:, dj, rows, cols], src_rows, src_cols))
    mats = [m.reshape(c * kw, -1) for m in phases]
    blocks = [mats[di % stride][:, di // stride * ow:(di // stride + oh) * ow]
              for di in range(kh)]
    for xi in x:
        for dst, src_rows, src_cols in copies:
            dst[...] = xi[:, src_rows, src_cols]
        yield blocks


def _correlate(x: np.ndarray, w: np.ndarray, ph: int, pw: int, stride: int = 1):
    """Cross-correlation of x [N,C,H,W] with w [O,C,kh,kw] at the given
    stride, zero-padded by ph rows and pw columns on each side; a negative
    pad crops instead.

    Image i's output is the sum over kernel rows di of w[:, :, di, :] as
    [O,C*kw] times that row's column block from `_lowered`: kh GEMMs per
    image, the first written in place and the rest added to it, over a
    lowered copy kw (not kh*kw) times the image's size. No padded copy of
    x is made. Returns the [N,O,Oh,Ow] output.
    """
    ch, cw = max(-ph, 0), max(-pw, 0)
    x = x[:, :, ch:x.shape[2] - ch, cw:x.shape[3] - cw]
    ph, pw = max(ph, 0), max(pw, 0)
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (wd + 2 * pw - kw) // stride + 1
    taps = list(w.transpose(2, 0, 1, 3).reshape(kh, cout, c * kw))
    out = np.empty((n, cout, oh * ow))
    part = np.empty((cout, oh * ow))
    for oi, blocks in zip(out, _lowered(x, kh, kw, stride, ph, pw, oh, ow)):
        np.matmul(taps[0], blocks[0], out=oi)
        for di in range(1, kh):
            np.matmul(taps[di], blocks[di], out=part)
            oi += part
    return out.reshape(n, cout, oh, ow)


def conv2d(x: Tensor, w: Tensor, b=None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) with zero padding.

    x: [N,Cin,H,W], w: [Cout,Cin,kh,kw], optional b: [Cout]. The output
    spatial extent (H + 2*pad - kh) / stride + 1 must come out as an exact
    integer; fractional extents are rejected rather than truncated.

    Every kernel, stride and pad runs through `_correlate`, and the tape
    keeps no padded copy of x, only the output. Backward: the gradient of
    kernel row di sums g[i] @ (its column block of image i)^T over the
    images in order, the blocks lowered again from x; dx is the stride-1
    correlation of g with the flipped, transposed kernel, padded by
    k-1-pad per axis (each input pixel sums the gradients of the windows
    that cover it). A strided conv first scatters g into zeros of the
    stride-1 output shape.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be [N,C,H,W], got shape {x.shape}")
    if w.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be [Cout,Cin,kh,kw], got shape {w.shape}")
    if not isinstance(stride, int) or stride < 1:
        raise ConfigError(f"stride must be a positive integer, got {stride!r}")
    if not isinstance(pad, int) or pad < 0:
        raise ConfigError(f"pad must be a non-negative integer, got {pad!r}")
    n, cin, h, wd = x.shape
    cout, wcin, kh, kw = w.shape
    if wcin != cin:
        raise ShapeError(f"weight expects {wcin} input channels, input has {cin}")
    if kh > h + 2 * pad or kw > wd + 2 * pad:
        raise ShapeError(f"kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{wd + 2 * pad}")
    if (h + 2 * pad - kh) % stride or (wd + 2 * pad - kw) % stride:
        raise ConfigError(
            f"stride {stride} does not evenly tile input {h}x{wd} with kernel "
            f"{kh}x{kw} and pad {pad}; output size must be an exact integer")
    if b is not None and b.shape != (cout,):
        raise ShapeError(f"bias must have shape ({cout},), got {b.shape}")

    y = _correlate(x.data, w.data, pad, pad, stride)
    if b is not None:
        y += b.data[:, None, None]
    out = Tensor(y)

    def backward(g):
        if b is not None and _wants_grad(b):
            _accum(b, g.sum(axis=(0, 2, 3)))
        if _wants_grad(w):
            oh, ow = g.shape[2:]
            gw = np.zeros((kh, cout, cin * kw))
            for gi, blocks in zip(g.reshape(n, cout, oh * ow),
                                  _lowered(x.data, kh, kw, stride, pad,
                                           pad, oh, ow)):
                for di in range(kh):
                    gw[di] += gi @ blocks[di].T
            _accum(w, gw.reshape(kh, cout, cin, kw).transpose(1, 2, 0, 3))
        if _wants_grad(x):
            if stride > 1:
                gs = np.zeros((n, cout, h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1))
                gs[:, :, ::stride, ::stride] = g
                g = gs
            wt = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            dx = _correlate(g, wt, kh - 1 - pad, kw - 1 - pad)
            # dx is a fresh array no other tensor holds, so x's earlier
            # gradient is added into it instead of into a third buffer.
            if x.grad is not None:
                dx += x.grad
            x.grad = dx

    inputs = [x, w] if b is None else [x, w, b]
    return _record(out, inputs, backward)


# ---------------------------------------------------------------------------
# channel ops

def _channel_stack(xs, op: str) -> tuple:
    """(xs as a list, channel offsets [0, C0, C0+C1, ...]) for [N,Ci,H,W]
    tensors that stack along the channel axis."""
    xs = list(xs)
    if not xs:
        raise ValidationError(f"{op} needs at least one tensor")
    first = xs[0]
    for t in xs:
        if t.data.ndim != 4:
            raise ShapeError(f"{op} expects rank-4 tensors, got shape {t.shape}")
        if t.shape[0] != first.shape[0] or t.shape[2:] != first.shape[2:]:
            raise ShapeError(
                f"{op} needs matching batch and spatial dims, "
                f"got {first.shape} vs {t.shape}")
    return xs, np.cumsum([0] + [t.shape[1] for t in xs])


def channel_concat(xs) -> Tensor:
    """Concatenate [N,Ci,H,W] tensors along the channel axis."""
    xs, bounds = _channel_stack(xs, "channel_concat")
    out = Tensor(np.concatenate([t.data for t in xs], axis=1))

    def backward(g):
        for t, lo, hi in zip(xs, bounds[:-1], bounds[1:]):
            if _wants_grad(t):
                _accum(t, g[:, lo:hi])

    return _record(out, xs, backward)


def weighted_channel_sum(xs, w: Tensor) -> Tensor:
    """Channel sum of [N,Ci,H,W] tensors, each channel weighted by its
    entry of w [1,C,1,1], C = sum of Ci: [N,1,H,W].

    This is the 1x1 conv by w of the tensors' channel concatenation,
    computed without building it: one batched matmul over [N,Ci,H*W] per
    tensor, summed in order. Backward: tensor i gets w_i times the output
    gradient by broadcasting, and w_i's gradient is the sum of that
    gradient times tensor i over images and pixels. A zero w gives an
    exactly zero sum and zero input gradients.
    """
    xs, bounds = _channel_stack(xs, "weighted_channel_sum")
    if w.shape != (1, bounds[-1], 1, 1):
        raise ShapeError(f"weighted_channel_sum weight must be "
                         f"[1,{bounds[-1]},1,1], got {w.shape}")
    n, _, h, wd = xs[0].shape
    ws = [w.data[0, lo:hi, 0, 0] for lo, hi in zip(bounds[:-1], bounds[1:])]
    flats = [t.data.reshape(n, t.shape[1], h * wd) for t in xs]
    y = np.matmul(ws[0], flats[0])
    for wi, flat in zip(ws[1:], flats[1:]):
        y += np.matmul(wi, flat)
    out = Tensor(y.reshape(n, 1, h, wd))

    def backward(g):
        for t, wi in zip(xs, ws):
            if _wants_grad(t):
                _accum(t, wi[:, None, None] * g)
        if _wants_grad(w):
            gcol = g.reshape(n, h * wd, 1)
            gw = [np.matmul(flat, gcol).sum(axis=0) for flat in flats]
            _accum(w, np.concatenate(gw).reshape(w.shape))

    return _record(out, [*xs, w], backward)


def _mean(x: Tensor, axes: tuple, keepdims: bool) -> Tensor:
    """Mean over `axes`; every input element gets g / count back."""
    out = Tensor(np.mean(x.data, axis=axes, keepdims=keepdims))
    count = x.size // out.size

    def backward(g):
        if _wants_grad(x):
            if not keepdims:
                g = np.expand_dims(g, axes)
            _accum(x, np.broadcast_to(g / count, x.shape))

    return _record(out, [x], backward)


def channel_mean(x: Tensor) -> Tensor:
    """Mean over the channel axis: [N,C,H,W] -> [N,1,H,W]."""
    if x.data.ndim != 4:
        raise ShapeError(f"channel_mean expects a rank-4 tensor, got shape {x.shape}")
    return _mean(x, (1,), keepdims=True)


def row_mean(x: Tensor) -> Tensor:
    """Mean over the leading axis, kept as size 1: [R,...] -> [1,...].

    Applied to a [Cout,Cin,kh,kw] conv weight it gives the one-output
    kernel whose response is the channel mean of the original's.
    """
    return _mean(x, (0,), keepdims=True)


# ---------------------------------------------------------------------------
# elementwise arithmetic

def _binary_shapes(x: Tensor, y: Tensor, op: str) -> bool:
    """Returns True when y broadcasts as a [N,1,H,W] map across x's channels."""
    if x.shape == y.shape:
        return False
    if (x.data.ndim == 4 and y.data.ndim == 4 and y.shape[1] == 1
            and y.shape[0] == x.shape[0] and y.shape[2:] == x.shape[2:]):
        return True
    raise ShapeError(f"{op}: shapes {x.shape} and {y.shape} neither match nor "
                     f"broadcast as [N,1,H,W] across channels")


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum; y may be a [N,1,H,W] map broadcast across channels."""
    broadcast = _binary_shapes(x, y, "add")
    out = Tensor(x.data + y.data)

    def backward(g):
        if _wants_grad(x):
            _accum(x, g)
        if _wants_grad(y):
            _accum(y, g.sum(axis=1, keepdims=True) if broadcast else g)

    return _record(out, [x, y], backward)


def mul(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise product; y may be a [N,1,H,W] map broadcast across channels."""
    broadcast = _binary_shapes(x, y, "mul")
    out = Tensor(x.data * y.data)

    def backward(g):
        if _wants_grad(x):
            _accum(x, g * y.data)
        if _wants_grad(y):
            gy = g * x.data
            _accum(y, gy.sum(axis=1, keepdims=True) if broadcast else gy)

    return _record(out, [x, y], backward)


def add_scalar(x: Tensor, s: float) -> Tensor:
    """x + s with a Python scalar; gradient passes through unchanged."""
    s = float(s)
    if not math.isfinite(s):
        raise NumericalError(f"add_scalar needs a finite scalar, got {s!r}")
    out = Tensor(x.data + s)

    def backward(g):
        if _wants_grad(x):
            _accum(x, g)

    return _record(out, [x], backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly zero is zero.

    Backward takes its mask from the output: out > 0 exactly where x > 0,
    so a forward pass without a tape builds no mask.
    """
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(g):
        if _wants_grad(x):
            _accum(x, g * (out.data > 0.0))

    return _record(out, [x], backward)


# ---------------------------------------------------------------------------
# reductions and the classifier head

def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean: [N,C,H,W] -> [N,C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects a rank-4 tensor, got shape {x.shape}")
    return _mean(x, (2, 3), keepdims=False)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ w.T + b with x: [N,D], w: [K,D], b: [K]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"linear expects x [N,D] and w [K,D], got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: x has {x.shape[1]} features, w expects {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias must have shape ({w.shape[0]},), got {b.shape}")
    out = Tensor(x.data @ w.data.T + b.data)

    def backward(g):
        if _wants_grad(x):
            _accum(x, g @ w.data)
        if _wants_grad(w):
            _accum(w, g.T @ x.data)
        if _wants_grad(b):
            _accum(b, g.sum(axis=0))

    return _record(out, [x, w, b], backward)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Uses the max-subtraction form, so any finite logits give a finite loss.
    `labels` is a plain integer array of shape [N] with values in [0, K).
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [N,K] logits, got shape {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"labels must lie in [0, {k}), got range "
                              f"[{labels.min()}, {labels.max()}]")
    _check_finite(logits.data, "logits")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sez)
    rows = np.arange(n)
    out = Tensor(np.array([-log_probs[rows, labels].mean()]))

    def backward(g):
        if _wants_grad(logits):
            grad = ez / sez
            grad[rows, labels] -= 1.0
            _accum(logits, (g[0] / n) * grad)

    return _record(out, [logits], backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements as a shape-(1,) tensor."""
    out = Tensor(np.array([x.data.sum()]))

    def backward(g):
        if _wants_grad(x):
            _accum(x, np.broadcast_to(g, x.shape))

    return _record(out, [x], backward)


# ---------------------------------------------------------------------------
# finite-difference checking

def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between f's taped gradient and central differences.

    f maps a Tensor to a scalar Tensor and must be deterministic. Each
    coordinate of x is perturbed in place by +/- eps and restored. The
    relative error divides by max(|analytic|, |numeric|, 1e-8).
    """
    saved_flag, saved_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    try:
        with Tape() as tape:
            out = f(x)
        if out.size != 1:
            raise ShapeError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
        _check_finite(out.data, "grad_check forward value")
        tape.backward(out)
        analytic = (np.zeros_like(x.data) if x.grad is None else x.grad).reshape(-1).copy()
        x.grad = None

        flat = x.data.reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(x).item()
            flat[i] = orig - eps
            f_minus = f(x).item()
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericalError(f"non-finite value while perturbing coordinate {i}")
            numeric[i] = (f_plus - f_minus) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        return float((np.abs(analytic - numeric) / denom).max())
    finally:
        x.requires_grad = saved_flag
        x.grad = saved_grad

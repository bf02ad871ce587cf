"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: every array is float64, layout is
row-major NCHW, and binary operations require matching shapes (or a
scalar operand). Shape changes are explicit via ``reshape`` /
``broadcast_to`` / ``permute`` so the graph stays auditable. Gradients
are recorded on an explicit :class:`GradTape`; replaying the tape in
reverse execution order is a valid topological order by construction.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "Tensor",
    "GradTape",
    "backward",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "log",
    "absolute",
    "clamp",
    "leaky_relu",
    "softplus",
    "tanh",
    "sigmoid",
    "softmax",
    "reduce_sum",
    "round_half_away",
    "std_normal_cdf",
    "reshape",
    "permute",
    "broadcast_to",
    "narrow",
    "concat",
    "conv2d",
    "conv2d_transposed",
    "masked_conv2d",
    "mask_a",
]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ValueError(f"item() requires a scalar tensor, got shape {self.shape}")

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all semantics live in the module-level functions.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class GradTape:
    """Ordered record of executed ops with their backward closures.

    Used as a context manager; ops executed while a tape is active append
    (output, closure) records when any input requires a gradient. The tape
    is cleared after :meth:`backward`.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "GradTape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        if popped is not self:
            raise RuntimeError("GradTape stack corrupted (nested exit out of order)")

    def record(self, out: Tensor, backward_fn) -> None:
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._records):
            if out.grad is not None:
                fn(out.grad)
        self._records.clear()


_TAPES: list[GradTape] = []


def _active_tape() -> GradTape | None:
    return _TAPES[-1] if _TAPES else None


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad tensor reachable from ``loss``."""
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward() called with no active GradTape")
    tape.backward(loss)


def _make_out(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


def _check_same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ValueError(f"{opname}: shape mismatch {a.shape} vs {b.shape}")


def _scalar_reduce(g: np.ndarray, t: Tensor) -> np.ndarray:
    # A 0-d operand broadcast against an array accumulates a summed grad.
    return g.sum() if t.ndim == 0 and g.ndim != 0 else g


# ---------------------------------------------------------------------------
# Elementwise suite
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "add")
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_scalar_reduce(g, a))
        if b.requires_grad:
            b.accumulate_grad(_scalar_reduce(g, b))

    return _make_out(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "sub")
    data = a.data - b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_scalar_reduce(g, a))
        if b.requires_grad:
            b.accumulate_grad(_scalar_reduce(-g, b))

    return _make_out(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mul")
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_scalar_reduce(g * b.data, a))
        if b.requires_grad:
            b.accumulate_grad(_scalar_reduce(g * a.data, b))

    return _make_out(data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def bwd(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            if a.requires_grad:
                a.accumulate_grad(_scalar_reduce(g / b.data, a))
            if b.requires_grad:
                b.accumulate_grad(_scalar_reduce(-g * a.data / (b.data * b.data), b))

    return _make_out(data, (a, b), bwd)


def neg(x: Tensor) -> Tensor:
    x = as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(-g)

    return _make_out(-x.data, (x,), bwd)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(x.data)

    def bwd(g):
        if x.requires_grad:
            with np.errstate(divide="ignore", invalid="ignore"):
                x.accumulate_grad(g / x.data)

    return _make_out(data, (x,), bwd)


def absolute(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.abs(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * np.sign(x.data))

    return _make_out(data, (x,), bwd)


def clamp(x: Tensor, lo: float | None = None, hi: float | None = None) -> Tensor:
    x = as_tensor(x)
    data = np.clip(x.data, lo, hi)
    inside = np.ones_like(x.data, dtype=bool)
    if lo is not None:
        inside &= x.data >= lo
    if hi is not None:
        inside &= x.data <= hi

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * inside)

    return _make_out(data, (x,), bwd)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    x = as_tensor(x)
    pos = x.data > 0.0
    data = np.where(pos, x.data, slope * x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * np.where(pos, 1.0, slope))

    return _make_out(data, (x,), bwd)


def softplus(x: Tensor) -> Tensor:
    x = as_tensor(x)
    # log(1 + e^x) computed without overflow for large |x|
    data = np.logaddexp(0.0, x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * _sigmoid_np(x.data))

    return _make_out(data, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - data * data))

    return _make_out(data, (x,), bwd)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    data = _sigmoid_np(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * data * (1.0 - data))

    return _make_out(data, (x,), bwd)


def softmax(x: Tensor, axis: int) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            inner = (g * data).sum(axis=axis, keepdims=True)
            x.accumulate_grad(data * (g - inner))

    return _make_out(data, (x,), bwd)


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if x.requires_grad:
            if axis is None:
                x.accumulate_grad(np.broadcast_to(g, x.shape).copy())
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                x.accumulate_grad(np.broadcast_to(ge, x.shape).copy())

    return _make_out(data, (x,), bwd)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (2.5 -> 3, -2.5 -> -3)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def std_normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF, elementwise; absolute error well under 1e-12."""
    x = as_tensor(x)
    data = ndtr(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data))

    return _make_out(data, (x,), bwd)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return _make_out(data, (x,), bwd)


def permute(x: Tensor, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = x.data.transpose(axes)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.transpose(inv))

    return _make_out(data, (x,), bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    """Explicit broadcast; gradient sums over the expanded axes."""
    x = as_tensor(x)
    shape = tuple(shape)
    data = np.broadcast_to(x.data, shape).copy()

    def bwd(g):
        if x.requires_grad:
            gg = g
            while gg.ndim > x.ndim:
                gg = gg.sum(axis=0)
            for i, (gd, xd) in enumerate(zip(gg.shape, x.shape)):
                if xd == 1 and gd != 1:
                    gg = gg.sum(axis=i, keepdims=True)
            x.accumulate_grad(gg)

    return _make_out(data, (x,), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    x = as_tensor(x)
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = x.data[idx].copy()

    def bwd(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[idx] = g
            x.accumulate_grad(full)

    return _make_out(data, (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + size)
                t.accumulate_grad(g[tuple(idx)])
            offset += size

    return _make_out(data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# Convolutions (im2col / col2im, cross-correlation semantics)
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{w + 2 * pad}")
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # [n, c, oh, ow, kh, kw]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * kh * kw, oh * ow)
    return cols, oh, ow


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    n, c, h, w = x_shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    for u in range(kh):
        for v in range(kw):
            xp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride] += cols6[:, :, u, v]
    if pad:
        return np.ascontiguousarray(xp[:, :, pad : pad + h, pad : pad + w])
    return xp


def _check_conv_args(x: Tensor, kernel: Tensor, bias, stride: int, padding: int, in_axis: int, opname: str):
    """Shape checks shared by the three convolutions; ``in_axis`` is the kernel's input-channel axis."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(f"{opname}: expected 4-d input and kernel, got {x.shape} and {kernel.shape}")
    if stride < 1 or padding < 0:
        raise ValueError(f"{opname}: stride must be >= 1 and padding >= 0")
    c_in, c_out = kernel.shape[in_axis], kernel.shape[1 - in_axis]
    if x.shape[1] != c_in:
        raise ValueError(f"{opname}: input has {x.shape[1]} channels but kernel expects {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ValueError(f"{opname}: bias shape {bias.shape} does not match {c_out} output channels")


# One im2col cross-correlation serves all three convolutions. conv2d and
# masked_conv2d run it as is (_corr_forward, _corr_backward). conv2d_transposed
# runs its sides swapped: its forward is the input gradient, col2im(k2.T @ x),
# and its input gradient the forward, k2 @ im2col(g). All three take the
# kernel gradient, sum over n of a[n] @ b[n].T, from _kernel_grad.
def _kernel_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0)


def _corr_forward(x: Tensor, k2: np.ndarray, bias, kh: int, kw: int, stride: int, pad: int):
    cols, oh, ow = _im2col(x.data, kh, kw, stride, pad)
    out = np.matmul(k2, cols)  # [n, o, oh*ow]
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    return out.reshape(x.shape[0], -1, oh, ow), cols


def _corr_backward(g, x: Tensor, kernel: Tensor, bias, k2, cols, kh, kw, stride, pad, mask=None) -> None:
    g2 = g.reshape(g.shape[0], g.shape[1], -1)
    if bias is not None and bias.requires_grad:
        bias.accumulate_grad(g2.sum(axis=(0, 2)))
    if kernel.requires_grad:
        dk = _kernel_grad(g2, cols).reshape(kernel.shape)
        kernel.accumulate_grad(dk if mask is None else dk * mask)
    if x.requires_grad:
        x.accumulate_grad(_col2im(np.matmul(k2.T, g2), x.shape, kh, kw, stride, pad, *g.shape[2:]))


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation. Kernel layout [out_ch, in_ch, kh, kw]."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    _check_conv_args(x, kernel, bias, stride, padding, 1, "conv2d")
    o, c, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    k2 = kernel.data.reshape(o, c * kh * kw)
    data, cols = _corr_forward(x, k2, bias, kh, kw, stride, padding)

    def bwd(g):
        _corr_backward(g, x, kernel, bias, k2, cols, kh, kw, stride, padding)

    return _make_out(data, (x, kernel) if bias is None else (x, kernel, bias), bwd)


def conv2d_transposed(x: Tensor, kernel: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution (gradient-of-conv2d semantics).

    Kernel layout [in_ch, out_ch, kh, kw]; output spatial size is
    (H-1)*stride - 2*padding + kh. Even kernels are allowed, which is how
    exact 2x upsampling stages are built (e.g. k=4, stride=2, padding=1).
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    _check_conv_args(x, kernel, bias, stride, padding, 0, "conv2d_transposed")
    n, ci, h, w = x.shape
    _, co, kh, kw = kernel.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (w - 1) * stride - 2 * padding + kw
    if oh <= 0 or ow <= 0:
        raise ValueError("conv2d_transposed: non-positive output size")

    k2 = kernel.data.reshape(ci, co * kh * kw)
    x2 = x.data.reshape(n, ci, h * w)
    data = _col2im(np.matmul(k2.T, x2), (n, co, oh, ow), kh, kw, stride, padding, h, w)
    if bias is not None:
        data = data + bias.data.reshape(1, co, 1, 1)

    def bwd(g):
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        gcols, _, _ = _im2col(g, kh, kw, stride, padding)  # back to [n, co*kh*kw, h*w]
        if kernel.requires_grad:
            kernel.accumulate_grad(_kernel_grad(x2, gcols).reshape(kernel.shape))
        if x.requires_grad:
            x.accumulate_grad(np.matmul(k2, gcols).reshape(x.shape))

    return _make_out(data, (x, kernel) if bias is None else (x, kernel, bias), bwd)


def mask_a(kh: int, kw: int) -> np.ndarray:
    """Mask-A kernel mask: zero at the center tap and every later raster tap."""
    m = np.ones((kh, kw), dtype=np.float64)
    center = (kh // 2) * kw + (kw // 2)
    flat = m.reshape(-1)
    flat[center:] = 0.0
    return m


def masked_conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Causal convolution: output at raster position p sees only inputs before p.

    Stride 1 with same-size padding; the kernel must be square with odd size.
    The mask zeroes the kernel before application, so the gradient w.r.t. the
    kernel is zero on masked taps.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    _check_conv_args(x, kernel, bias, 1, 0, 1, "masked_conv2d")
    o, c, kh, kw = kernel.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"masked_conv2d: kernel must be square with odd size, got {kh}x{kw}")
    mask = mask_a(kh, kw)
    k2 = (kernel.data * mask).reshape(o, c * kh * kw)
    data, cols = _corr_forward(x, k2, bias, kh, kw, 1, kh // 2)

    def bwd(g):
        _corr_backward(g, x, kernel, bias, k2, cols, kh, kw, 1, kh // 2, mask)

    return _make_out(data, (x, kernel) if bias is None else (x, kernel, bias), bwd)

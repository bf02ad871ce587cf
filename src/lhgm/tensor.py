"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

An array is float32 or float64, and layout is row-major NCHW. Every op
follows the dtype of its inputs: its output and the gradients it passes
back take that dtype, and so do the constants and masks it makes (a
scalar operand, a slope, a sign or a zero fill). So a float64 caller, the
codec among them, computes the same bits as a float64-only engine would,
and a float32 one never leaves float32. The public ops are this module's
functions whose names do not start with ``_``. Ops take Tensors. ``add``,
``sub``, ``mul`` and ``div`` are one body, ``_binary``, the one owner of
their constant, shape and gradient rules: either operand may also be a
Python or numpy scalar, which is a constant of the other operand's dtype;
a 0-d operand that needs a gradient must meet an operand of its own
shape. Any other broadcast is explicit, through ``broadcast_to``, whose
backward sums. Convolutions take a square kernel and a bias, and the
engine sets their geometry:
``conv2d`` and ``masked_conv2d`` take an odd side k and pad by k // 2, and
``conv2d_transposed`` is the one x2 upsampler, an even side k at stride 2
and padding k // 2 - 1, so H x W becomes 2H x 2W. ``masked_conv2d`` is
mask A: it gathers and multiplies only the k * k // 2 taps before each
window's centre, so no output reads an input at or after its own raster
position. Its output equals ``conv2d`` on the masked kernel up to rounding
(a shorter sum), its gradients bit for bit, with 0.0 on the masked taps.
A 1x1 convolution at stride 1 is a plain matmul on a view of its input,
and every convolution reads its input again in backward; so no op writes
an activation in place.
Gradients are recorded on an explicit :class:`GradTape`, of which at most
one is active: entering a second raises. Replaying the tape in reverse
execution order is a valid topological order by construction.

Memory contract of training: a record (an op's output, its backward
closure and the arrays the closure saved) lives from its op until
backward has run its closure, and is then dropped; the output and its
gradient survive only if the caller still holds the output. A step's
peak is therefore the forward's saved set plus the gradients in flight,
not the whole tape plus every gradient. Ops save little: ``conv2d`` and
``masked_conv2d`` keep their input, not its im2col columns (k * k times
the input for a k x k kernel), and gather the same columns again in
backward for the kernel gradient, so every gradient is unchanged bit for
bit; ``leaky_relu`` keeps a boolean mask. Ops run without a tape record
nothing.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))  # a Python float keeps float32 float32

class Tensor:
    """N-dimensional array, optionally tracked for gradients: float32 data stays float32, any other becomes float64."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
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
        if self.data.size != 1:
            raise ValueError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to the gradient; the first ``g`` is stored as a C-order copy in this tensor's dtype.

        Backward closures may therefore pass views of their output's
        gradient or read-only broadcasts: no two tensors share a buffer.
        """
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, order="C")
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all semantics live in the module-level functions.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)


class GradTape:
    """Ordered record of executed ops with their backward closures.

    Used as a context manager, one at a time: entering a tape while another
    is active raises RuntimeError. Ops executed while the tape is active
    append (output, closure) records when any input requires a gradient.
    :func:`backward` pops the records newest first and runs each closure,
    so a record is freed as soon as its closure has run. It drops the
    records that are left when a closure raises, and leaving the context
    drops any record no backward consumed.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "GradTape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a GradTape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        self._records.clear()
        _ACTIVE = None

    def record(self, out: Tensor, backward_fn) -> None:
        self._records.append((out, backward_fn))


_ACTIVE: GradTape | None = None


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad tensor reachable from ``loss`` on the active tape."""
    if _ACTIVE is None:
        raise RuntimeError("backward() called with no active GradTape")
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    records = _ACTIVE._records
    try:
        while records:
            out, fn = records.pop()
            if out.grad is not None:
                fn(out.grad)
    finally:
        records.clear()


def _make_out(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    # A one-input op's closure is recorded only when its input requires a
    # gradient, so it needs no guard; ops with several inputs check each one.
    out = Tensor(data)
    if _ACTIVE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE.record(out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Elementwise suite
# ---------------------------------------------------------------------------


def _binary(a, b, opname: str, data_fn, grad_a, grad_b) -> Tensor:
    """add, sub, mul and div: ``data_fn(x, y)`` of the operands' arrays, and ``grad_a(g, x, y)`` or
    ``grad_b(g, x, y)`` for each operand that needs a gradient; the constant and shape rules are the module's."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    scalar = a if a.ndim == 0 else b if b.ndim == 0 else None
    if a.shape != b.shape and (scalar is None or scalar.requires_grad):
        raise ValueError(f"{opname}: shape mismatch {a.shape} vs {b.shape} (a 0-d operand must be a constant)")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(grad_a(g, a.data, b.data))
        if b.requires_grad:
            b.accumulate_grad(grad_b(g, a.data, b.data))

    return _make_out(data_fn(a.data, b.data), (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


# a division by zero, or a log of 0 or less, gives inf or nan without a warning; _DIV is div's three functions
_quiet = np.errstate(divide="ignore", invalid="ignore")
_DIV = (_quiet(np.divide), _quiet(lambda g, x, y: g / y), _quiet(lambda g, x, y: -g * x / (y * y)))


def div(a, b) -> Tensor:
    return _binary(a, b, "div", *_DIV)


def log(x: Tensor) -> Tensor:
    return _make_out(_quiet(np.log)(x.data), (x,), _quiet(lambda g: x.accumulate_grad(g / x.data)))


def clamp(x: Tensor, lo: float) -> Tensor:
    """max(x, lo); the gradient passes where x >= lo."""
    data = np.maximum(x.data, lo)
    inside = x.data >= lo

    def bwd(g):
        x.accumulate_grad(g * inside)

    return _make_out(data, (x,), bwd)


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    """x where x > 0, else slope * x, for any finite slope; backward keeps the boolean mask of x > 0."""
    slope = x.data.dtype.type(slope)
    positive = x.data > 0.0

    def bwd(g):
        x.accumulate_grad(np.where(positive, g, g * slope))

    return _make_out(np.where(positive, x.data, x.data * slope), (x,), bwd)


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x) = max(x, 0) + log1p(e^-|x|); exp never sees a positive argument
    data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))

    def bwd(g):
        x.accumulate_grad(g * _sigmoid_np(x.data))

    return _make_out(data, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def bwd(g):
        x.accumulate_grad(g * (1.0 - data * data))

    return _make_out(data, (x,), bwd)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def sigmoid(x: Tensor) -> Tensor:
    data = _sigmoid_np(x.data)

    def bwd(g):
        x.accumulate_grad(g * data * (1.0 - data))

    return _make_out(data, (x,), bwd)


def softmax(x: Tensor, axis: int) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        x.accumulate_grad(data * (g - inner))

    return _make_out(data, (x,), bwd)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    data = x.data.sum(axis=axis)

    def bwd(g):
        x.accumulate_grad(np.broadcast_to(g if axis is None else np.expand_dims(g, axis), x.shape))

    return _make_out(data, (x,), bwd)


def std_normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF, elementwise: absolute error well under 1e-12 on float64 input,
    float32 precision (about 1e-7) on float32 input."""
    data = ndtr(x.data)

    def bwd(g):
        x.accumulate_grad(g * _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data))

    return _make_out(data, (x,), bwd)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def bwd(g):
        x.accumulate_grad(g.reshape(x.shape))

    return _make_out(data, (x,), bwd)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = x.data.transpose(axes)

    def bwd(g):
        x.accumulate_grad(g.transpose(inv))

    return _make_out(data, (x,), bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    """Same-rank broadcast (size-1 axes expand), a read-only view; gradient sums over the expanded axes."""
    shape = tuple(shape)
    if len(shape) != x.ndim:
        raise ValueError(f"broadcast_to: {x.shape} to {shape} changes rank; reshape first")
    data = np.broadcast_to(x.data, shape)

    def bwd(g):
        for i, (gd, xd) in enumerate(zip(g.shape, x.shape)):
            if xd == 1 and gd != 1:
                g = g.sum(axis=i, keepdims=True)
        x.accumulate_grad(g)

    return _make_out(data, (x,), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis, a view."""
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = x.data[idx]

    def bwd(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        x.accumulate_grad(full)

    return _make_out(data, (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([t.shape[axis] for t in tensors[:-1]])

    def bwd(g):
        for t, part in zip(tensors, np.split(g, cuts, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(part)

    return _make_out(data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# Convolutions (im2col / col2im, cross-correlation semantics)
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, taps: int):
    """[n, c * taps, oh * ow] columns of each window's first ``taps`` raster taps; a 1x1 kernel at stride 1 views x."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if taps == 1 and stride == 1:
        return x.reshape(n, c, h * w), oh, ow
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    cols = np.empty((n, c, taps, oh, ow), dtype=x.dtype)
    for t in range(taps):
        u, v = divmod(t, k)
        cols[:, :, t] = xp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride]
    return cols.reshape(n, c * taps, oh * ow), oh, ow


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int, oh: int, ow: int) -> np.ndarray:
    """The adjoint of _im2col; the number of taps is read from the shape of ``cols``."""
    n, c, h, w = x_shape
    taps = cols.shape[1] // c
    if taps == 1 and stride == 1:
        return cols.reshape(x_shape)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols5 = cols.reshape(n, c, taps, oh, ow)
    for t in range(taps):
        u, v = divmod(t, k)
        xp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride] += cols5[:, :, t]
    return np.ascontiguousarray(xp[:, :, pad : pad + h, pad : pad + w])  # no copy at pad 0


def _check_conv_args(x: Tensor, kernel: Tensor, bias: Tensor, in_axis: int, opname: str) -> int:
    """The checks of the three convolutions; returns the kernel side k. ``in_axis`` is the kernel's input-channel
    axis and sets k's parity: 1 (k odd) for conv2d and masked_conv2d, 0 (k even) for conv2d_transposed."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(f"{opname}: expected 4-d input and kernel, got {x.shape} and {kernel.shape}")
    k = kernel.shape[2]
    if kernel.shape[3] != k or k < 1 or k % 2 != in_axis:
        raise ValueError(f"{opname}: kernel must be square with an {('even', 'odd')[in_axis]} side, "
                         f"got {k}x{kernel.shape[3]}")
    c_in, c_out = kernel.shape[in_axis], kernel.shape[1 - in_axis]
    if x.shape[1] != c_in:
        raise ValueError(f"{opname}: input has {x.shape[1]} channels but kernel expects {c_in}")
    if bias.shape != (c_out,):
        raise ValueError(f"{opname}: bias shape {bias.shape} does not match {c_out} output channels")
    return k


# One im2col cross-correlation serves all three convolutions. conv2d and
# masked_conv2d run it as is, same-padded (_corr_forward, _corr_backward), on
# the first t = k2.shape[1] // c raster taps of each kernel channel: all k * k
# for conv2d, the causal k * k // 2 for masked_conv2d. conv2d_transposed runs its
# sides swapped: its forward is the input gradient, col2im(k2.T @ x), and its
# input gradient the forward, k2 @ im2col(g). All three take the kernel
# gradient, sum over n of a[n] @ b[n].T, from _kernel_grad.
def _kernel_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0)


def _corr_forward(x: Tensor, k2: np.ndarray, bias: Tensor, k: int, stride: int) -> np.ndarray:
    cols, oh, ow = _im2col(x.data, k, stride, k // 2, k2.shape[1] // x.shape[1])
    out = np.matmul(k2, cols)  # [n, o, oh*ow]
    out += bias.data.reshape(1, -1, 1)
    return out.reshape(x.shape[0], -1, oh, ow)


def _corr_backward(g, x: Tensor, kernel: Tensor, bias: Tensor, k2, k, stride) -> None:
    """Gathers the forward's columns again from x for the kernel gradient, rather than keeping them."""
    g2 = g.reshape(g.shape[0], g.shape[1], -1)
    if bias.requires_grad:
        bias.accumulate_grad(g2.sum(axis=(0, 2)))
    if kernel.requires_grad:
        o, c = kernel.shape[:2]
        taps = k2.shape[1] // c
        cols = _im2col(x.data, k, stride, k // 2, taps)[0]
        dk = np.zeros(kernel.shape, dtype=g.dtype)  # 0.0 on the taps k2 leaves out
        dk.reshape(o, c, k * k)[:, :, :taps] = _kernel_grad(g2, cols).reshape(o, c, -1)
        del cols  # the columns go before the input gradient is formed
        kernel.accumulate_grad(dk)
    if x.requires_grad:
        x.accumulate_grad(_col2im(np.matmul(k2.T, g2), x.shape, k, stride, k // 2, *g.shape[2:]))


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """2-d cross-correlation, same-padded. Kernel layout [out_ch, in_ch, k, k], k odd."""
    k = _check_conv_args(x, kernel, bias, 1, "conv2d")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    k2 = kernel.data.reshape(kernel.shape[0], kernel.shape[1] * k * k)
    data = _corr_forward(x, k2, bias, k, stride)

    def bwd(g):
        _corr_backward(g, x, kernel, bias, k2, k, stride)

    return _make_out(data, (x, kernel, bias), bwd)


def conv2d_transposed(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """The x2 upsampler: transposed convolution (gradient-of-conv2d semantics), H x W -> 2H x 2W.

    Kernel layout [in_ch, out_ch, k, k], k even; stride 2 and padding
    k // 2 - 1, so the output is exactly twice the input on each side.
    """
    k = _check_conv_args(x, kernel, bias, 0, "conv2d_transposed")
    n, ci, h, w = x.shape
    co, pad = kernel.shape[1], k // 2 - 1
    k2 = kernel.data.reshape(ci, co * k * k)
    x2 = x.data.reshape(n, ci, h * w)
    data = _col2im(np.matmul(k2.T, x2), (n, co, 2 * h, 2 * w), k, 2, pad, h, w)
    data += bias.data.reshape(1, co, 1, 1)

    def bwd(g):
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        gcols, _, _ = _im2col(g, k, 2, pad, k * k)  # back to [n, co*k*k, h*w]
        if kernel.requires_grad:
            kernel.accumulate_grad(_kernel_grad(x2, gcols).reshape(kernel.shape))
        if x.requires_grad:
            x.accumulate_grad(np.matmul(k2, gcols).reshape(x.shape))

    return _make_out(data, (x, kernel, bias), bwd)


def masked_conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Causal (mask-A) convolution: the output at raster position p reads only inputs before p.

    Stride 1 and same-padded, as conv2d, but only the k * k // 2 taps before
    each window's centre are gathered and multiplied, so no input at or
    after p enters output p, not even as 0 * inf or 0 * nan. The kernel's
    later taps are never read, and their gradient is 0.0.
    """
    k = _check_conv_args(x, kernel, bias, 1, "masked_conv2d")
    o, c = kernel.shape[:2]
    k2 = kernel.data.reshape(o, c, k * k)[:, :, : k * k // 2].reshape(o, -1)
    data = _corr_forward(x, k2, bias, k, 1)

    def bwd(g):
        _corr_backward(g, x, kernel, bias, k2, k, 1)

    return _make_out(data, (x, kernel, bias), bwd)

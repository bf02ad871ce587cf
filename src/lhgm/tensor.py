"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

An array is float32 or float64, and layout is row-major NCHW. Every op
follows the dtype of its inputs: its output and the gradients it passes
back take that dtype, and so do the constants and masks it makes (a
scalar operand, a slope, a sign or a zero fill). So a float64 caller, the
codec among them, computes the same bits as a float64-only engine would,
and a float32 one never leaves float32. ``std_normal_cdf`` is the one op
whose dtypes run different code: float64 is scipy's ``ndtr``, imported at
the first float64 call, and float32 is the engine's own kernel, Cephes
``ndtrf`` in numpy, within a relative 4.0e-6 of Phi over the float32 normal
range (see its docstring). So a process that computes only in float32, a
training run, never loads scipy. The public ops are this module's
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

Memory contract of training: every array a step holds exists once, and
only as long as something reads it. A tensor's gradient lives in a small
slot of its own, which ``Tensor.grad`` reads and backward closures add
into, and a tape record is an op's output slot and its backward closure,
not the output itself. Each closure holds the slots it adds into and only
the arrays its own formula reads: the convolutions and the upsampler their
input (and kernel), ``leaky_relu`` and ``clamp`` a boolean mask, ``mul``
and ``div`` the operands their gradients read, ``log`` and
``std_normal_cdf`` their input, ``softplus`` sigmoid(x), its derivative,
``softmax``, ``tanh`` and ``sigmoid`` their output, and ``add``, ``sub``,
``reduce_sum`` and the shape ops shapes only. A value that is cheap to
compute again from arrays backward keeps anyway is computed again, not
kept: ``lhgm.distributions.mixture_prob`` keeps neither bin edge's
standardized distance. So an activation that no backward reads, such as a
convolution's output that feeds ``leaky_relu``, ``softplus`` or a
residual ``add``, is freed as soon as its caller drops it, during the
forward. A record lives until backward has run its closure, and the
gradient in its slot survives only if the caller still holds the output.
A closure that has just made a gradient array hands it to the slot
(``_GradSlot.take``), which keeps it as the first gradient; views,
broadcasts and the upstream gradient itself are copied (``_GradSlot.add``),
so no two slots share a buffer. A step's peak is therefore the arrays
backward reads plus the gradients in flight. The convolutions form their
im2col columns (k * k times the input for a k x k kernel) a chunk of
samples at a time, at most about ``_COLS_BLOCK_BYTES`` per chunk unless one
sample needs more, in forward and again in backward for the kernel
gradient, and so does the upsampler with the columns of its output
gradient. The kernel gradient adds each sample's product in sample order,
so every output and gradient equals the whole-batch computation bit for
bit. Ops run without a tape record nothing, and prepare nothing for a
backward. The boundary with the optimizer is the caller's, since a leaf's
gradient lives until the caller drops it: ``lhgm.train`` casts each float32
leaf gradient to float64 on its master parameter and drops the leaf at
once, and drops the float64 gradient once Adam and the step's metrics row
have read it.
"""

from __future__ import annotations

import numpy as np

_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))  # a Python float keeps float32 float32

class _GradSlot:
    """One tensor's gradient, apart from its data: what the tape and the backward closures hold of a tensor."""

    __slots__ = ("grad", "dtype")

    def __init__(self, dtype):
        self.grad: np.ndarray | None = None
        self.dtype = dtype

    def add(self, g: np.ndarray) -> None:
        """Add ``g``; the first ``g`` is stored as a C-order copy in the slot's dtype.

        Backward closures may therefore pass views of their output's
        gradient or read-only broadcasts: no two tensors share a buffer.
        """
        if self.grad is None:
            self.grad = np.array(g, dtype=self.dtype, order="C")
        else:
            self.grad += g

    def take(self, g: np.ndarray) -> None:
        """Add ``g``, an array the caller has just made and holds nowhere else; the first ``g`` is kept, not
        copied, when it owns a writeable C-order buffer of the slot's dtype, and copied as by :meth:`add` otherwise."""
        if (self.grad is None and g.base is None and g.dtype == self.dtype
                and g.flags.c_contiguous and g.flags.writeable):
            self.grad = g
        else:
            self.add(g)

    def add_at(self, idx, g: np.ndarray, shape) -> None:
        """Add ``g`` into the part ``idx`` of a gradient of ``shape``, which starts as zeros."""
        if self.grad is None:
            self.grad = np.zeros(shape, dtype=self.dtype)
        self.grad[idx] += g


class Tensor:
    """N-dimensional array, optionally tracked for gradients: float32 data stays float32, any other becomes float64."""

    __slots__ = ("data", "requires_grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._slot = _GradSlot(self.data.dtype)

    @property
    def grad(self) -> np.ndarray | None:
        return self._slot.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._slot.grad = value

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
    append (output's gradient slot, closure) records when any input requires a gradient.
    :func:`backward` pops the records newest first and runs each closure,
    so a record is freed as soon as its closure has run. It drops the
    records that are left when a closure raises, and leaving the context
    drops any record no backward consumed.
    """

    def __init__(self):
        self._records: list[tuple[_GradSlot, object]] = []

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
        self._records.append((out._slot, backward_fn))


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
            slot, fn = records.pop()
            if slot.grad is not None:
                fn(slot.grad)
    finally:
        records.clear()


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` records its backward closure: a tape is active and an input requires a gradient."""
    return _ACTIVE is not None and any(t.requires_grad for t in inputs)


def _make_out(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    # A one-input op's closure is recorded only when its input requires a
    # gradient, so it needs no guard; ops with several inputs check each one.
    out = Tensor(data)
    if _recording(inputs):
        out.requires_grad = True
        _ACTIVE.record(out, backward_fn)
    return out


def _slot_if_needed(t: Tensor) -> _GradSlot | None:
    return t._slot if t.requires_grad else None


# ---------------------------------------------------------------------------
# Elementwise suite
# ---------------------------------------------------------------------------


def _binary(a, b, opname: str, data_fn, grad_a, grad_b, reads: tuple[str, str]) -> Tensor:
    """add, sub, mul and div: ``data_fn(x, y)`` of the operands' arrays, and ``grad_a(g, x, y)`` or
    ``grad_b(g, x, y)`` for each operand that needs a gradient; the constant and shape rules are the module's.

    ``reads`` names the operands, "x" and "y", that ``grad_a`` and ``grad_b`` read; backward keeps an
    operand only if the gradient of an operand that needs one reads it, and passes None for the others.
    """
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    scalar = a if a.ndim == 0 else b if b.ndim == 0 else None
    if a.shape != b.shape and (scalar is None or scalar.requires_grad):
        raise ValueError(f"{opname}: shape mismatch {a.shape} vs {b.shape} (a 0-d operand must be a constant)")
    slot_a, slot_b = _slot_if_needed(a), _slot_if_needed(b)
    read = (reads[0] if slot_a else "") + (reads[1] if slot_b else "")
    x = a.data if "x" in read else None
    y = b.data if "y" in read else None

    def bwd(g):
        if slot_a:
            slot_a.add(grad_a(g, x, y))
        if slot_b:
            slot_b.add(grad_b(g, x, y))

    return _make_out(data_fn(a.data, b.data), (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, x, y: g, lambda g, x, y: g, ("", ""))


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, x, y: g, lambda g, x, y: -g, ("", ""))


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x, ("y", "x"))


# a division by zero, or a log of 0 or less, gives inf or nan without a warning; _DIV is div's three functions
_quiet = np.errstate(divide="ignore", invalid="ignore")
_DIV = (_quiet(np.divide), _quiet(lambda g, x, y: g / y), _quiet(lambda g, x, y: -g * x / (y * y)))


def div(a, b) -> Tensor:
    return _binary(a, b, "div", *_DIV, ("y", "xy"))


def log(x: Tensor) -> Tensor:
    slot, xd = x._slot, x.data
    return _make_out(_quiet(np.log)(xd), (x,), _quiet(lambda g: slot.take(g / xd)))


def clamp(x: Tensor, lo: float) -> Tensor:
    """max(x, lo); the gradient passes where x >= lo."""
    slot = x._slot
    data = np.maximum(x.data, lo)
    inside = x.data >= lo

    def bwd(g):
        slot.take(g * inside)

    return _make_out(data, (x,), bwd)


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    """x where x > 0, else slope * x, for any finite slope; backward keeps the boolean mask of x > 0."""
    slot = x._slot
    slope = x.data.dtype.type(slope)
    positive = x.data > 0.0

    def bwd(g):
        slot.take(np.where(positive, g, g * slope))

    return _make_out(np.where(positive, x.data, x.data * slope), (x,), bwd)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x); backward keeps sigmoid(x), its derivative, and not x, which may be a view of a larger array."""
    slot, xd = x._slot, x.data
    # log(1 + e^x) = max(x, 0) + log1p(e^-|x|); exp never sees a positive argument
    data = np.abs(xd, out=np.empty_like(xd))
    np.negative(data, out=data)
    np.exp(data, out=data)
    np.log1p(data, out=data)
    np.add(np.maximum(xd, 0.0), data, out=data)
    sig = _sigmoid_np(xd) if _recording((x,)) else None

    def bwd(g):
        slot.take(g * sig)

    return _make_out(data, (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    slot = x._slot
    data = np.tanh(x.data)

    def bwd(g):
        slot.take(g * (1.0 - data * data))

    return _make_out(data, (x,), bwd)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """0.5 * (tanh(0.5 * x) + 1.0), in one buffer."""
    s = np.multiply(0.5, x, out=np.empty_like(x))  # out= keeps a 0-d x an array
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(x: Tensor) -> Tensor:
    slot = x._slot
    data = _sigmoid_np(x.data)

    def bwd(g):
        slot.take(g * data * (1.0 - data))

    return _make_out(data, (x,), bwd)


def softmax(x: Tensor, axis: int) -> Tensor:
    slot = x._slot
    data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        slot.take(data * (g - inner))

    return _make_out(data, (x,), bwd)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    slot, shape = x._slot, x.shape
    data = x.data.sum(axis=axis)

    def bwd(g):
        slot.add(np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape))

    return _make_out(data, (x,), bwd)


def _ndtr64(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Phi in float64: ``scipy.special.ndtr``, imported at the first call, so a process that never asks for a
    float64 Phi never loads scipy."""
    from scipy.special import ndtr

    return ndtr(x, out=out)


# Cephes ndtrf (Moshier's single-precision form of Cody, Math. Comp. 23, 1969), with z = |x| / sqrt(2):
# erf(z) = z * T(z^2) below z = 1, and erfc(z) = exp(-z^2) / z * P(1/z^2) for 1 <= z < 2, R(1/z^2) above.
# Phi = 1/2 + x / (2 sqrt 2) * T below z = 1, and erfc / 2 on the lower tail, so T carries the factor
# 1 / (2 sqrt 2) and P and R the (exact) 1/2.
_NDTR32_T = tuple(np.float32(c / (2.0 * np.sqrt(2.0))) for c in (
    7.853861353153693e-5, -8.010193625184903e-4, 5.188327685732524e-3, -2.685381193529856e-2,
    1.128358514861418e-1, -3.761262582423300e-1, 1.128379165726710e0))
_NDTR32_P = tuple(np.float32(0.5 * c) for c in (
    2.326819970068386e-2, -1.387039388740657e-1, 3.687424674597105e-1, -5.824733027278666e-1,
    6.210004621745983e-1, -4.944515323274145e-1, 3.404879937665872e-1, -2.741127028184656e-1,
    5.638259427386472e-1))
_NDTR32_R = tuple(np.float32(0.5 * c) for c in (
    -1.047766399936249e1, 1.297719955372516e1, -7.495518717768503e0, 2.921019019210786e0,
    -1.015265279202700e0, 4.218463358204948e-1, -2.820767439740514e-1, 5.641895067754075e-1))


def _horner(coefs, y: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefs``, highest degree first, at ``y``, in one new array of y's dtype."""
    out = y * coefs[0]
    for c in coefs[1:-1]:
        out += c
        out *= y
    out += coefs[-1]
    return out


# Elements per chunk of _ndtr32: a chunk's temporaries, about 25 bytes per element, stay in cache. On the
# training step's inputs 16384 ran at 11-15 ns per element, 8192 and 32768 at 13-17 ns.
_NDTR32_CHUNK = 1 << 14


def _ndtr32(x: np.ndarray) -> np.ndarray:
    """Phi in float32 from input to output (the Cephes ndtrf algorithm above), a chunk of elements at a time."""
    xf = x.reshape(-1)
    out = np.empty(xf.shape, np.float32)
    with np.errstate(over="ignore"):  # |x| beyond 1.8e19 squares to inf, whose Phi is 0 or 1
        for i in range(0, xf.size, _NDTR32_CHUNK):
            _ndtr32_chunk(xf[i : i + _NDTR32_CHUNK], out[i : i + _NDTR32_CHUNK])
    return out.reshape(x.shape)


def _ndtr32_chunk(x: np.ndarray, out: np.ndarray) -> None:
    """Phi(x) into ``out``, which first holds z^2 = x * x / 2 (one rounding); each branch runs on its own elements.

    The lower tail is evaluated directly: Phi(x) for x <= -sqrt(2) is exp(-z^2) / z * P or R, not 1 minus a
    number near 1, so tail bins keep their relative precision until exp(-z^2) leaves the normal range near
    x = -13.2. Above the mean the tail gives 1 - Phi(-x). NaN takes the tail branch and stays NaN.
    """
    np.multiply(x, x, out=out)
    out *= np.float32(0.5)
    inner = out < 1.0
    near = np.flatnonzero(inner)
    far = np.flatnonzero(np.logical_not(inner, out=inner))
    v = _horner(_NDTR32_T, out[near])
    v *= x[near]
    v += np.float32(0.5)
    b = out[far]
    out[near] = v
    y = np.divide(np.float32(1.0), b)
    tail = _horner(_NDTR32_R, y)
    mid = np.flatnonzero(b < 4.0)
    tail[mid] = _horner(_NDTR32_P, y[mid])
    tail *= np.sqrt(y, out=y)
    np.negative(b, out=b)
    tail *= np.exp(b, out=b)
    np.subtract(np.float32(1.0), tail, out=tail, where=x[far] > 0.0)
    out[far] = tail


def std_normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF, elementwise, computed in the input's dtype.

    float64 is ``scipy.special.ndtr``, bit for bit, with absolute error well
    under 1e-12. float32 is ``_ndtr32`` (Cephes ndtrf), which never leaves
    float32. Measured against Phi at 50 digits on [-14, 14]: relative error
    at most 4.0e-6 wherever Phi >= 1.2e-38 (the float32 normal range), the
    largest in the far lower tail, where exp(-x^2 / 2) amplifies the rounding
    of x^2; at most 4.9e-7 for |x| <= 4; and below 1.2e-38 an absolute error
    under 5e-44, about 31 units of the smallest subnormal. Phi(x) + Phi(-x)
    is 1 within 2 float32 ulp.
    """
    slot, xd = x._slot, x.data
    data = _ndtr32(xd) if xd.dtype == np.float32 else _ndtr64(xd)

    def bwd(g):
        slot.take(g * _INV_SQRT_2PI * np.exp(-0.5 * xd * xd))

    return _make_out(data, (x,), bwd)


# ---------------------------------------------------------------------------
# Shape ops
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    slot, in_shape = x._slot, x.shape
    data = x.data.reshape(tuple(shape))

    def bwd(g):
        slot.add(g.reshape(in_shape))

    return _make_out(data, (x,), bwd)


def permute(x: Tensor, axes) -> Tensor:
    slot = x._slot
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = x.data.transpose(axes)

    def bwd(g):
        slot.add(g.transpose(inv))

    return _make_out(data, (x,), bwd)


def broadcast_to(x: Tensor, shape) -> Tensor:
    """Same-rank broadcast (size-1 axes expand), a read-only view; gradient sums over the expanded axes."""
    slot, in_shape = x._slot, x.shape
    shape = tuple(shape)
    if len(shape) != x.ndim:
        raise ValueError(f"broadcast_to: {x.shape} to {shape} changes rank; reshape first")
    data = np.broadcast_to(x.data, shape)

    def bwd(g):
        for i, (gd, xd) in enumerate(zip(g.shape, in_shape)):
            if xd == 1 and gd != 1:
                g = g.sum(axis=i, keepdims=True)
        slot.add(g)

    return _make_out(data, (x,), bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis, a view; backward adds into that slice of the input's gradient."""
    slot, in_shape = x._slot, x.shape
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = x.data[idx]

    def bwd(g):
        slot.add_at(idx, g, in_shape)

    return _make_out(data, (x,), bwd)


def concat(tensors, axis: int) -> Tensor:
    slots = [_slot_if_needed(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([t.shape[axis] for t in tensors[:-1]])

    def bwd(g):
        for slot, part in zip(slots, np.split(g, cuts, axis=axis)):
            if slot:
                slot.add(part)

    return _make_out(data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# Convolutions (im2col / col2im, cross-correlation semantics)
# ---------------------------------------------------------------------------

# Bytes of scratch a chunked op forms at once, a chunk of samples at a time,
# as many samples as fit and at least one: a convolution's im2col columns, or
# the temporaries of mixture_prob's backward.
_COLS_BLOCK_BYTES = 1 << 20


def _sample_chunks(n: int, sample_bytes: int) -> list[slice]:
    """Consecutive slices of n samples, each with at most _COLS_BLOCK_BYTES / ``sample_bytes`` samples (at least one)."""
    step = max(1, _COLS_BLOCK_BYTES // max(1, sample_bytes))
    return [slice(s, min(n, s + step)) for s in range(0, n, step)]


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, taps: int) -> np.ndarray:
    """[n, c * taps, oh * ow] columns of each window's first ``taps`` raster taps; a 1x1 kernel at stride 1 views x."""
    n, c, h, w = x.shape
    if taps == 1 and stride == 1:
        return x.reshape(n, c, h * w)
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    cols = np.empty((n, c, taps, oh, ow), dtype=x.dtype)
    for t in range(taps):
        u, v = divmod(t, k)
        cols[:, :, t] = xp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride]
    return cols.reshape(n, c * taps, oh * ow)


def _col2im(cols: np.ndarray, out: np.ndarray, k: int, stride: int, pad: int, oh: int, ow: int) -> None:
    """The adjoint of _im2col, written into ``out`` [n, c, h, w]; the number of taps is read from ``cols``."""
    n, c, h, w = out.shape
    taps = cols.shape[1] // c
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols5 = cols.reshape(n, c, taps, oh, ow)
    for t in range(taps):
        u, v = divmod(t, k)
        xp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride] += cols5[:, :, t]
    out[...] = xp[:, :, pad : pad + h, pad : pad + w]


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
# input gradient the forward, k2 @ im2col(g). Each forms its columns in sample
# chunks, and all three add the kernel gradient, the sum over n of a[n] @ b[n].T,
# with _add_kernel_grad.
def _add_kernel_grad(dk: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """dk += a[i] @ b[i].T, reshaped to dk's shape, for each sample i in order: the bits of
    np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0) when dk starts as zeros. dk may be a strided view."""
    for ai, bi in zip(a, b):
        dk += np.matmul(ai, bi.T).reshape(dk.shape)


def _corr_forward(x: np.ndarray, k2: np.ndarray, bias: np.ndarray, k: int, stride: int) -> np.ndarray:
    n, c, h, w = x.shape
    rows, taps, pad = k2.shape[1], k2.shape[1] // c, k // 2
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    out = np.empty((n, k2.shape[0], oh * ow), dtype=x.dtype)
    for s in _sample_chunks(n, rows * oh * ow * x.itemsize):
        np.matmul(k2, _im2col(x[s], k, stride, pad, taps), out=out[s])
    out += bias.reshape(1, -1, 1)
    return out.reshape(n, -1, oh, ow)


def _corr_backward(g, x: np.ndarray, slots, kernel_shape, k2, k, stride) -> None:
    """Gathers the forward's columns again from x, a chunk of samples at a time, for the kernel gradient."""
    x_slot, kernel_slot, bias_slot = slots
    n, o = g.shape[:2]
    g2 = g.reshape(n, o, -1)
    if bias_slot:
        bias_slot.take(g2.sum(axis=(0, 2)))
    c, taps, pad = x.shape[1], k2.shape[1] // x.shape[1], k // 2
    chunks = _sample_chunks(n, k2.shape[1] * g2.shape[2] * x.itemsize)
    if kernel_slot:
        dk = np.zeros(kernel_shape, dtype=g.dtype)  # 0.0 on the taps k2 leaves out
        for s in chunks:
            _add_kernel_grad(dk.reshape(o, c, k * k)[:, :, :taps], g2[s], _im2col(x[s], k, stride, pad, taps))
        kernel_slot.take(dk)
    if x_slot:
        dx = np.empty(x.shape, dtype=g.dtype)
        for s in chunks:
            if taps == 1 and stride == 1:  # the adjoint of _im2col's view: the product is dx itself
                np.matmul(k2.T, g2[s], out=dx[s].reshape(-1, c, g2.shape[2]))
            else:
                _col2im(np.matmul(k2.T, g2[s]), dx[s], k, stride, pad, *g.shape[2:])
        x_slot.take(dx)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """2-d cross-correlation, same-padded. Kernel layout [out_ch, in_ch, k, k], k odd."""
    k = _check_conv_args(x, kernel, bias, 1, "conv2d")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    xd, kernel_shape, slots = x.data, kernel.shape, tuple(map(_slot_if_needed, (x, kernel, bias)))
    k2 = kernel.data.reshape(kernel.shape[0], kernel.shape[1] * k * k)
    data = _corr_forward(xd, k2, bias.data, k, stride)

    def bwd(g):
        _corr_backward(g, xd, slots, kernel_shape, k2, k, stride)

    return _make_out(data, (x, kernel, bias), bwd)


def conv2d_transposed(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """The x2 upsampler: transposed convolution (gradient-of-conv2d semantics), H x W -> 2H x 2W.

    Kernel layout [in_ch, out_ch, k, k], k even; stride 2 and padding
    k // 2 - 1, so the output is exactly twice the input on each side.
    """
    k = _check_conv_args(x, kernel, bias, 0, "conv2d_transposed")
    n, ci, h, w = x.shape
    co, pad, kernel_shape = kernel.shape[1], k // 2 - 1, kernel.shape
    x_slot, kernel_slot, bias_slot = map(_slot_if_needed, (x, kernel, bias))
    k2 = kernel.data.reshape(ci, co * k * k)
    x2 = x.data.reshape(n, ci, h * w)
    chunks = _sample_chunks(n, co * k * k * h * w * x.data.itemsize)
    data = np.empty((n, co, 2 * h, 2 * w), dtype=x.data.dtype)
    for s in chunks:
        _col2im(np.matmul(k2.T, x2[s]), data[s], k, 2, pad, h, w)
    data += bias.data.reshape(1, co, 1, 1)

    def bwd(g):
        if bias_slot:
            bias_slot.take(g.sum(axis=(0, 2, 3)))
        dk = np.zeros(kernel_shape, dtype=g.dtype) if kernel_slot else None
        dx = np.empty((n, ci, h, w), dtype=g.dtype) if x_slot else None
        for s in chunks:
            gcols = _im2col(g[s], k, 2, pad, k * k)  # back to [samples, co*k*k, h*w]
            if kernel_slot:
                _add_kernel_grad(dk, x2[s], gcols)
            if x_slot:
                np.matmul(k2, gcols, out=dx.reshape(x2.shape)[s])
        if kernel_slot:
            kernel_slot.take(dk)
        if x_slot:
            x_slot.take(dx)

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
    xd, kernel_shape, slots = x.data, kernel.shape, tuple(map(_slot_if_needed, (x, kernel, bias)))
    k2 = kernel.data.reshape(o, c, k * k)[:, :, : k * k // 2].reshape(o, -1)
    data = _corr_forward(xd, k2, bias.data, k, 1)

    def bwd(g):
        _corr_backward(g, xd, slots, kernel_shape, k2, k, 1)

    return _make_out(data, (x, kernel, bias), bwd)

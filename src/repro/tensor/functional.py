"""Differentiable neural-network operations built on :class:`~repro.tensor.Tensor`.

Contains the convolution / pooling kernels (im2col based) and the
numerically stable softmax-family primitives used by the losses. Each
primitive registers a closed-form backward closure; composite functions
(cross entropy, KL divergence) are assembled from primitives so their
gradients follow automatically.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.tensor.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    pair = tuple(value)
    if len(pair) != 2:
        raise ValueError(f"expected an int or a pair, got {value!r}")
    return pair


def apply_inplace(ufunc: np.ufunc, out: np.ndarray, operand) -> np.ndarray:
    """``ufunc(out, operand)``, written into ``out`` where that is exact.

    ``out`` must be a scratch array the caller owns and ``operand`` must
    broadcast to its shape. The result is written in place only when
    numpy's promotion keeps ``out.dtype``; otherwise a fresh array of the
    promoted dtype is returned. Either way the values are bitwise those
    of the out-of-place expression.
    """
    if np.result_type(out, operand) == out.dtype:
        return ufunc(out, operand, out=out)
    return ufunc(out, operand)


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size: input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> np.ndarray:
    """Unfold NCHW input into convolution columns.

    Returns an array of shape ``(N, C * KH * KW, OH * OW)`` where column
    ``o`` holds the receptive field of output position ``o``. The input
    is padded once into a zeroed buffer; a read-only strided view then
    lays out every window, and one copy makes the columns.
    """
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = x.shape
    if ph or pw:
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph : ph + h, pw : pw + w] = x
        x = padded
    oh = (x.shape[2] - kh) // sh + 1
    ow = (x.shape[3] - kw) // sw + 1
    sn, sc, sy, sx = x.strides
    windows = as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sy, sx, sy * sh, sx * sw),
        writeable=False,
    )
    # An explicit copy: a reshape alone may return a view aliasing ``x``.
    return windows.copy().reshape(n, c * kh * kw, oh * ow)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    n, c, h, w = input_shape
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            j_end = j + sw * ow
            x[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph or pw:
        x = x[:, :, ph : hp - ph, pw : wp - pw]
    return x


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-filter bias of shape ``(C_out,)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(
            f"input has {c_in} channels but weight expects {c_in_w}"
        )
    oh = conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_output_size(w, kw, stride[1], padding[1])

    cols = im2col(x.data, (kh, kw), stride, padding)  # (N, C*KH*KW, OH*OW)
    w2 = weight.data.reshape(c_out, -1)  # (F, C*KH*KW)
    # Broadcast matmul, not einsum: same contraction, but matmul skips
    # einsum's dispatch overhead (~3x on this shape), which is what
    # batched serving (repro.serve) amortizes across coalesced requests.
    out = np.matmul(w2, cols)
    if bias is not None:
        out = apply_inplace(np.add, out, bias.data.reshape(1, -1, 1))
    out = out.reshape(n, c_out, oh, ow)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad2 = grad.reshape(n, c_out, oh * ow)
        grad_w = np.einsum("nfo,nko->fk", grad2, cols, optimize=True)
        grad_x = (
            _conv_input_grad(w2, grad2, x.shape, (kh, kw), stride, padding, (oh, ow))
            if x.requires_grad
            else None
        )
        results = [(x, grad_x), (weight, grad_w.reshape(weight.shape))]
        if bias is not None:
            results.append((bias, grad2.sum(axis=(0, 2))))
        return tuple(results)

    return Tensor._make(out, parents, backward, "conv2d")


#: Samples per block of the tap-wise scatter are chosen so that one
#: block of tap products stays about this size, i.e. in cache while
#: all kh×kw taps read it.
_SCATTER_BLOCK_BYTES = 1 << 20


def _conv_input_grad(w2, grad2, input_shape, kernel, stride, padding, out_size):
    """``col2im`` of the column gradient, bit for bit, one tap at a time.

    The column gradient is the same contraction as before (so the same
    GEMM and the same bits), only produced channel-last as
    ``(N, OH, OW, C, KH, KW)``. Tap ``(i, j)`` is then added into a
    zeroed, padded, channel-last buffer in ``col2im``'s order, a block of
    samples at a time so the products are read from cache. A GEMM per
    tap would be faster still, but BLAS rounds a sub-GEMM differently
    from the full one, so its bits would depend on the shapes.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh, ow = out_size
    products = np.einsum("fk,nfo->nok", w2, grad2, optimize=True).reshape(n, oh, ow, c, kh, kw)
    padded = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=products.dtype)
    block = max(1, _SCATTER_BLOCK_BYTES // max(1, products[0].nbytes))
    for start in range(0, n, block):
        dst, src = padded[start : start + block], products[start : start + block]
        for i in range(kh):
            for j in range(kw):
                dst[:, i : i + sh * oh : sh, j : j + sw * ow : sw] += src[..., i, j]
    return np.ascontiguousarray(padded[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2))


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling over NCHW input.

    The kh×kw strided slices of the input are folded into one output
    buffer with ``np.maximum``; the backward reuses the same slices, so
    no column matrix is built in either direction.
    """
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    oh = conv_output_size(h, kh, sh, 0)
    ow = conv_output_size(w, kw, sw, 0)

    taps = [(i, j) for i in range(kh) for j in range(kw)]
    windows = [x.data[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] for i, j in taps]
    out = windows[0].copy()
    for window in windows[1:]:
        np.maximum(out, window, out=out)

    def backward(grad):
        # Tap by tap in im2col's (i, j) order, each output's gradient goes
        # to the first window element that equals the max (argmax's rule;
        # a NaN window's max is NaN and its first NaN wins). Each tap adds
        # exactly what col2im adds for it, so overlapping windows sum in
        # col2im's order.
        grad = grad.astype(x.data.dtype, copy=False)
        grad_x = np.zeros(x.shape, dtype=x.data.dtype)
        nan_windows = np.isnan(out).any()
        taken = np.zeros(out.shape, dtype=bool)
        for (i, j), window in zip(taps, windows):
            hit = window == out
            if nan_windows:
                hit |= np.isnan(window)
            hit &= ~taken
            taken |= hit
            grad_x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += np.where(hit, grad, 0.0)
        return ((x, grad_x),)

    return Tensor._make(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling over NCHW input."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride[0], 0)
    ow = conv_output_size(w, kw, stride[1], 0)
    area = kh * kw

    flat = x.data.reshape(n * c, 1, h, w)
    cols = im2col(flat, kernel, stride, (0, 0))
    out = cols.mean(axis=1).reshape(n, c, oh, ow)

    def backward(grad):
        grad_flat = grad.reshape(n * c, 1, oh * ow) / area
        grad_cols = np.broadcast_to(grad_flat, (n * c, area, oh * ow)).copy()
        grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, (0, 0))
        return ((x, grad_x.reshape(x.shape)),)

    return Tensor._make(out, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight shape ``(out, in)``."""
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    log_z = np.log(exp.sum(axis=axis, keepdims=True))
    result = shifted - log_z
    softmax_vals = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        return ((x, grad - softmax_vals * grad.sum(axis=axis, keepdims=True)),)

    return Tensor._make(result, (x,), backward, "log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with closed-form Jacobian-vector backward."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    result = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        inner = (grad * result).sum(axis=axis, keepdims=True)
        return ((x, result * (grad - inner)),)

    return Tensor._make(result, (x,), backward, "softmax")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, M) and integer ``labels`` (N,)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits "
            f"shape {logits.shape}"
        )
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(labels.shape[0]), labels.astype(np.int64)]
    return -picked.mean()


def kl_divergence(teacher_logits: Tensor, student_logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Batch-mean ``KL(softmax(teacher/T) || softmax(student/T))``.

    This is the standard knowledge-distillation divergence (Hinton et
    al.). Gradients flow into ``student_logits`` only: the teacher is
    detached, matching the paper's refining phase where the
    full-precision teacher is frozen.

    Note on eq. (10): the paper writes ``sum_k Y_k log(Y^fc_k / Y_k)``,
    which is *minus* a KL divergence — minimising it as printed would
    push the student away from the teacher. We implement the standard
    (intended) direction and record the discrepancy in EXPERIMENTS.md.
    """
    teacher = teacher_logits.detach()
    t_probs = softmax(teacher * (1.0 / temperature), axis=1)
    s_log_probs = log_softmax(student_logits * (1.0 / temperature), axis=1)
    t_log_probs = log_softmax(teacher * (1.0 / temperature), axis=1)
    per_sample = (t_probs * (t_log_probs - s_log_probs)).sum(axis=1)
    return per_sample.mean() * (temperature * temperature)


def accuracy(logits: Union[Tensor, np.ndarray], labels: np.ndarray) -> float:
    """Top-1 classification accuracy in ``[0, 1]``."""
    values = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = values.argmax(axis=1)
    return float((predictions == np.asarray(labels)).mean())


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng if rng is not None else np.random.default_rng()
    mask = ((rng.random(x.shape) >= p) / (1.0 - p)).astype(x.dtype, copy=False)

    def backward(grad):
        return ((x, grad * mask),)

    return Tensor._make(x.data * mask, (x,), backward, "dropout")

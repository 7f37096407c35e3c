"""The differentiable :class:`Tensor` type and its core operations.

The design is a compact reverse-mode autodiff engine:

* every operation produces a new :class:`Tensor` whose ``_parents`` point
  at its inputs and whose ``_backward`` closure scatters the output
  gradient back to those inputs;
* :meth:`Tensor.backward` topologically sorts the graph and runs the
  closures in reverse order, accumulating into ``Tensor.grad``;
* broadcasting is handled uniformly by :func:`unbroadcast`, which sums a
  gradient down to the shape of the input it belongs to.

Gradient correctness for every op is verified against central finite
differences in ``tests/test_tensor_autograd.py``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Scalar = Union[int, float]
ArrayLike = Union[np.ndarray, Scalar, Sequence]

_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether new operations are recorded in the autograd graph."""
    return getattr(_state, "grad_enabled", True)


def records_graph(*parents: "Tensor") -> bool:
    """Whether an op over ``parents`` is recorded in the autograd graph.

    Kernels use this to skip work only a backward pass needs (argmax
    indices, column matrices, intermediate Tensor nodes).
    """
    return is_grad_enabled() and any(p.requires_grad for p in parents)


def _set_grad_enabled(mode: bool) -> None:
    _state.grad_enabled = mode


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    previous = is_grad_enabled()
    _set_grad_enabled(False)
    try:
        yield
    finally:
        _set_grad_enabled(previous)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting.

    Broadcasting either prepends dimensions or stretches size-1 axes; the
    adjoint of both is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array data; anything ``np.asarray`` accepts. Floating point data
        keeps its dtype, so every op computes in its inputs' dtype;
        integer and boolean data becomes float64, the training default.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")
    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        array = np.asarray(data)
        if array.dtype.kind in "iub":
            array = array.astype(np.float64)
        self.data: np.ndarray = array
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_part = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_part})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a one-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    @staticmethod
    def _item_error():
        raise ValueError("item() requires a tensor with exactly one element")

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Create the output tensor of an op, wiring the graph if enabled."""
        parents = tuple(parents)
        needs_grad = records_graph(*parents)
        out = Tensor(data, requires_grad=needs_grad)
        if needs_grad:
            out._parents = parents
            out._backward = backward
            out._op = op
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor. Defaults
            to 1 for scalar tensors (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only "
                    "defined for scalar tensors; got shape "
                    f"{self.data.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        order = self._topological_order()
        gradients = {id(self): grad}
        self._accumulate(grad)
        for node in order:
            node_grad = gradients.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            parent_grads = _run_backward(node, node_grad)
            for parent, parent_grad in parent_grads:
                if parent_grad is None:
                    continue
                parent._accumulate(parent_grad)
                if parent._backward is not None:
                    key = id(parent)
                    if key in gradients:
                        gradients[key] = gradients[key] + parent_grad
                    else:
                        gradients[key] = parent_grad

    def _topological_order(self) -> list:
        """Return graph nodes reachable from ``self`` in reverse topological order."""
        order: list = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, value: ArrayLike) -> "Tensor":
        """``value`` as the other operand of a binary op on this tensor.

        Python scalars are weakly typed, as in NumPy's own promotion:
        they take this tensor's dtype instead of widening it, so
        ``x * 0.5`` stays float32 for float32 ``x``. Arrays and NumPy
        scalars keep their dtype and promote as NumPy does.
        """
        if isinstance(value, Tensor):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, np.generic):
            return Tensor(np.asarray(value, dtype=self.data.dtype))
        return Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (
                (a, unbroadcast(grad, a.shape)),
                (b, unbroadcast(grad, b.shape)),
            )

        return Tensor._make(a.data + b.data, (a, b), backward, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (
                (a, unbroadcast(grad, a.shape)),
                (b, unbroadcast(-grad, b.shape)),
            )

        return Tensor._make(a.data - b.data, (a, b), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (
                (a, unbroadcast(grad * b.data, a.shape)),
                (b, unbroadcast(grad * a.data, b.shape)),
            )

        return Tensor._make(a.data * b.data, (a, b), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (
                (a, unbroadcast(grad / b.data, a.shape)),
                (b, unbroadcast(-grad * a.data / (b.data * b.data), b.shape)),
            )

        return Tensor._make(a.data / b.data, (a, b), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad):
            return ((a, -grad),)

        return Tensor._make(-a.data, (a,), backward, "neg")

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self

        def backward(grad):
            return ((a, grad * exponent * np.power(a.data, exponent - 1)),)

        return Tensor._make(np.power(a.data, exponent), (a,), backward, "pow")

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        result = np.exp(a.data)

        def backward(grad):
            return ((a, grad * result),)

        return Tensor._make(result, (a,), backward, "exp")

    def log(self) -> "Tensor":
        a = self

        def backward(grad):
            return ((a, grad / a.data),)

        return Tensor._make(np.log(a.data), (a,), backward, "log")

    def sqrt(self) -> "Tensor":
        a = self
        result = np.sqrt(a.data)

        def backward(grad):
            return ((a, grad * 0.5 / result),)

        return Tensor._make(result, (a,), backward, "sqrt")

    def abs(self) -> "Tensor":
        a = self

        def backward(grad):
            return ((a, grad * np.sign(a.data)),)

        return Tensor._make(np.abs(a.data), (a,), backward, "abs")

    def tanh(self) -> "Tensor":
        a = self
        result = np.tanh(a.data)

        def backward(grad):
            return ((a, grad * (1.0 - result * result)),)

        return Tensor._make(result, (a,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        a = self
        result = 1.0 / (1.0 + np.exp(-a.data))

        def backward(grad):
            return ((a, grad * result * (1.0 - result)),)

        return Tensor._make(result, (a,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def backward(grad):
            return ((a, grad * mask),)

        return Tensor._make(a.data * mask, (a,), backward, "relu")

    def clip(self, low: Scalar, high: Scalar) -> "Tensor":
        """Differentiable clamp; gradient is 1 strictly inside ``[low, high]``."""
        a = self
        mask = (a.data > low) & (a.data < high)

        def backward(grad):
            return ((a, grad * mask),)

        return Tensor._make(np.clip(a.data, low, high), (a,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        result = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            expanded = _expand_reduced(grad, a.shape, axis, keepdims)
            return ((a, expanded),)

        return Tensor._make(result, (a,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        result = a.data.mean(axis=axis, keepdims=keepdims)
        count = a.data.size if axis is None else _axis_size(a.shape, axis)

        def backward(grad):
            expanded = _expand_reduced(grad, a.shape, axis, keepdims) / count
            return ((a, expanded),)

        return Tensor._make(result, (a,), backward, "mean")

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        result = a.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            expanded_result = _expand_reduced(
                np.asarray(result), a.shape, axis, keepdims, broadcast_only=True
            )
            mask = a.data == expanded_result
            # Split gradient equally among ties, matching subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True).astype(grad.dtype)
            expanded_grad = _expand_reduced(grad, a.shape, axis, keepdims)
            return ((a, expanded_grad * mask / counts),)

        return Tensor._make(result, (a,), backward, "max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return (-self).max(axis=axis, keepdims=keepdims).__neg__()

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance (divides by N), matching batch-norm statistics."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.shape

        def backward(grad):
            return ((a, grad.reshape(original)),)

        return Tensor._make(a.data.reshape(shape), (a,), backward, "reshape")

    def flatten(self, start_axis: int = 1) -> "Tensor":
        """Flatten all axes from ``start_axis`` onward (batch-preserving by default)."""
        lead = self.shape[:start_axis]
        return self.reshape(lead + (-1,))

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        a = self
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad):
            return ((a, grad.transpose(inverse)),)

        return Tensor._make(a.data.transpose(axes), (a,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        a = self

        def backward(grad):
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            return ((a, full),)

        return Tensor._make(a.data[index], (a,), backward, "getitem")

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) axes of an NCHW tensor."""
        if padding == 0:
            return self
        a = self
        pad_width = [(0, 0)] * (a.ndim - 2) + [(padding, padding), (padding, padding)]

        def backward(grad):
            slices = tuple(
                slice(None) if before == 0 else slice(before, -after or None)
                for before, after in pad_width
            )
            return ((a, grad[slices]),)

        return Tensor._make(np.pad(a.data, pad_width), (a,), backward, "pad2d")

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError(
                f"matmul supports 2-D tensors only; got {a.shape} @ {b.shape}"
            )

        def backward(grad):
            return (
                (a, grad @ b.data.T),
                (b, a.data.T @ grad),
            )

        return Tensor._make(a.data @ b.data, (a, b), backward, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Graph utilities used by the importance-score machinery
    # ------------------------------------------------------------------
    def retain_graph_identity(self) -> "Tensor":
        """Identity op; useful as an explicit gradient tap point."""
        a = self

        def backward(grad):
            return ((a, grad),)

        return Tensor._make(a.data.copy(), (a,), backward, "identity")


def _run_backward(node: Tensor, grad: np.ndarray):
    """Invoke a node's backward closure, normalising its return format."""
    result = node._backward(grad)
    return result if result is not None else ()


def _axis_size(shape: Tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    return int(np.prod([shape[a] for a in axis]))


def _expand_reduced(
    grad: np.ndarray,
    shape: Tuple[int, ...],
    axis,
    keepdims: bool,
    broadcast_only: bool = False,
) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction ``shape``."""
    grad = np.asarray(grad)
    if axis is None:
        return np.broadcast_to(grad, shape).copy() if not broadcast_only else np.broadcast_to(grad, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            grad = np.expand_dims(grad, a)
    expanded = np.broadcast_to(grad, shape)
    return expanded if broadcast_only else expanded.copy()


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=np.float64), requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concatenate needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad):
        pieces = np.split(grad, boundaries, axis=axis)
        return tuple((t, piece) for t, piece in zip(tensors, pieces))

    return Tensor._make(data, tensors, backward, "concatenate")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("stack needs at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(
            (t, piece.reshape(t.shape)) for t, piece in zip(tensors, pieces)
        )

    return Tensor._make(data, tensors, backward, "stack")

"""Reverse-mode automatic differentiation engine on top of numpy.

This subpackage replaces PyTorch's autograd for the reproduction: it
provides a :class:`Tensor` type that records a computation graph and can
back-propagate gradients through all operations used by the paper's
models (dense and convolutional layers, batch normalisation, pooling,
activations and losses).

Public API
----------
Tensor
    The differentiable array type.
no_grad / is_grad_enabled
    Context manager and query for disabling graph construction.
tensor / zeros / ones / arange
    Convenience constructors.
"""

from repro.tensor.tensor import (
    Tensor,
    arange,
    concatenate,
    is_grad_enabled,
    no_grad,
    ones,
    stack,
    tensor,
    zeros,
)
from repro.tensor import functional

__all__ = [
    "Tensor",
    "arange",
    "concatenate",
    "functional",
    "is_grad_enabled",
    "no_grad",
    "ones",
    "stack",
    "tensor",
    "zeros",
]

"""Standard layers: convolution, linear, batch norm, pooling, activations.

Layers follow PyTorch conventions for weight shapes — ``Conv2d`` weights
are ``(out_channels, in_channels, kh, kw)``, ``Linear`` weights are
``(out_features, in_features)`` — so per-filter quantization in
:mod:`repro.quant` indexes axis 0 in both cases.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, records_graph


def _default_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with weight shape ``(out, in)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = _default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.uniform_bias((out_features, in_features), rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.effective_weight(), self.bias)

    def effective_weight(self) -> Tensor:
        """Weight used in forward; quantized subclasses override this."""
        return self.weight

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2-D convolution over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = _default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        weight_shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng))
        self.bias = Parameter(init.uniform_bias(weight_shape, rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x, self.effective_weight(), self.bias, stride=self.stride, padding=self.padding
        )

    def effective_weight(self) -> Tensor:
        """Weight used in forward; quantized subclasses override this."""
        return self.weight

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class _BatchNormBase(Module):
    """Shared batch-norm logic; subclasses define the reduction axes."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self.register_buffer("num_batches_tracked", np.zeros(1))

    def _axes(self, x: Tensor):
        raise NotImplementedError

    def _param_shape(self, x: Tensor):
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        axes = self._axes(x)
        shape = self._param_shape(x)
        if not self.training and not records_graph(x, self.weight, self.bias):
            return Tensor(self._normalize_inference(x.data, shape))
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            self._update_running_stats(mean.data.reshape(-1), var.data.reshape(-1))
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        inv_std = (var + self.eps) ** -0.5
        normalized = (x - mean) * inv_std
        return normalized * self.weight.reshape(shape) + self.bias.reshape(shape)

    def _update_running_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's statistics into the running EMA."""
        m = self.momentum
        self._set_buffer("running_mean", (1 - m) * self.running_mean + m * mean)
        self._set_buffer("running_var", (1 - m) * self.running_var + m * var)
        self._set_buffer("num_batches_tracked", self.num_batches_tracked + 1)

    def _normalize_inference(self, x: np.ndarray, shape) -> np.ndarray:
        """The eval formula above without Tensor nodes: the same four
        full-size ops in the same order, in place on one fresh buffer.
        ``x`` is never written (the search evaluator caches activations).
        """
        inv_std = np.power(self.running_var.reshape(shape) + np.asarray(self.eps), -0.5)
        out = np.subtract(x, self.running_mean.reshape(shape))
        out = F.apply_inplace(np.multiply, out, inv_std)
        out = F.apply_inplace(np.multiply, out, self.weight.data.reshape(shape))
        return F.apply_inplace(np.add, out, self.bias.data.reshape(shape))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm2d(_BatchNormBase):
    """Batch normalisation over NCHW input (per-channel statistics)."""

    def _axes(self, x: Tensor):
        return (0, 2, 3)

    def _param_shape(self, x: Tensor):
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNormBase):
    """Batch normalisation over NC input (per-feature statistics)."""

    def _axes(self, x: Tensor):
        return (0,)

    def _param_shape(self, x: Tensor):
        return (1, self.num_features)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class MaxPool2d(Module):
    """Max pooling; stride defaults to the kernel size."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Module):
    """Average pooling; stride defaults to the kernel size."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing ``(N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"


class Flatten(Module):
    """Flatten all non-batch axes."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten()

    def __repr__(self) -> str:
        return "Flatten()"


class Identity(Module):
    """Pass-through layer (useful as a placeholder in residual blocks)."""

    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = _default_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"

"""Neural-network layer library (the ``torch.nn`` replacement).

Provides the module system (:class:`Module`, :class:`Parameter`,
:class:`Sequential`), the layers needed by the paper's models
(convolution, linear, batch norm, pooling, activations) and the loss
functions of the training / refining phases.
"""

from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.losses import (
    CrossEntropyLoss,
    DistillationLoss,
)
from repro.nn import init

__all__ = [
    "AvgPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "Conv2d",
    "CrossEntropyLoss",
    "DistillationLoss",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Parameter",
    "ReLU",
    "Sequential",
    "init",
]

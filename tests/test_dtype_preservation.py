"""Every Tensor op and nn layer computes in its input's dtype.

float32 data stays float32 and float64 stays float64, in the forward
values and in every gradient the backward pass hands on. Python scalars
are weakly typed, as in NumPy: ``x * 0.5`` keeps ``x``'s dtype. This is
what lets a float32 artifact serve in float32 while training keeps its
float64 defaults.

Gradients are checked node by node: each backward closure in the
recorded graph is called with a gradient of its output's dtype, and
every gradient it returns must keep that dtype. Checking only the
leaves' ``.grad`` would not do, since accumulation casts to the leaf's
dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.quant.qmodules import QConv2d, QLinear
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, concatenate, no_grad, stack

# Every op, layer and dtype is a parametrized case, so none is left to
# chance; hypothesis varies the data.
EXAMPLES = settings(max_examples=5, deadline=None)
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])
SEEDS = st.integers(0, 2**32 - 1)


def leaf(rng, shape, dtype):
    """A grad-requiring leaf with values in [0.5, 2): safe for log,
    sqrt and division."""
    return Tensor(rng.uniform(0.5, 2.0, shape).astype(dtype), requires_grad=True)


def assert_keeps_dtype(out, dtype, leaves=()):
    """``out``, every gradient in its graph, and the leaves' ``.grad``
    all have ``dtype``."""
    assert out.dtype == dtype, f"forward gave {out.dtype}"
    for node in out._topological_order():
        if node._backward is None:
            continue
        for _parent, grad in node._backward(np.ones_like(node.data)) or ():
            if grad is not None:
                assert np.asarray(grad).dtype == dtype, f"{node._op} backward"
    out.backward(np.ones_like(out.data))
    for tensor in leaves:
        assert tensor.grad is not None and tensor.grad.dtype == dtype


def operand(kind, rng, shape, dtype):
    """The other operand of a binary op, as a Tensor, array or scalar."""
    if kind == "tensor":
        return leaf(rng, shape, dtype)
    if kind == "array":
        return rng.uniform(0.5, 2.0, shape).astype(dtype)
    if kind == "float":
        return float(rng.uniform(0.5, 2.0))
    return int(rng.integers(1, 4))


BINARY = {
    "add": lambda a, b: a + b,
    "radd": lambda a, b: b + a,
    "sub": lambda a, b: a - b,
    "rsub": lambda a, b: b - a,
    "mul": lambda a, b: a * b,
    "rmul": lambda a, b: b * a,
    "div": lambda a, b: a / b,
    "rdiv": lambda a, b: b / a,
}

UNARY = {
    "neg": lambda x: -x,
    "pow": lambda x: x ** 3,
    "pow_half": lambda x: x ** -0.5,
    "exp": lambda x: x.exp(),
    "log": lambda x: x.log(),
    "sqrt": lambda x: x.sqrt(),
    "abs": lambda x: x.abs(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "relu": lambda x: x.relu(),
    "clip": lambda x: x.clip(0.75, 1.5),
    "sum": lambda x: x.sum(),
    "sum_axis": lambda x: x.sum(axis=1, keepdims=True),
    "mean": lambda x: x.mean(),
    "mean_axes": lambda x: x.mean(axis=(0, 2)),
    "max": lambda x: x.max(axis=1),
    "max_all": lambda x: x.max(),
    "min": lambda x: x.min(axis=0, keepdims=True),
    "var": lambda x: x.var(axis=(0, 2, 3)),
    "reshape": lambda x: x.reshape(x.shape[0], -1),
    "flatten": lambda x: x.flatten(),
    "transpose": lambda x: x.transpose((1, 0, 3, 2)),
    "T": lambda x: x.T,
    "getitem": lambda x: x[:, 1:, ::2],
    "pad2d": lambda x: x.pad2d(1),
    "identity": lambda x: x.retain_graph_identity(),
    "concatenate": lambda x: concatenate([x, x * 2.0], axis=1),
    "stack": lambda x: stack([x, x], axis=0),
    "conv2d": lambda x: F.conv2d(x, x[:2] * 0.5, x[0, :2, 0, 0], stride=1, padding=1),
    "max_pool2d": lambda x: F.max_pool2d(x, 2),
    "avg_pool2d": lambda x: F.avg_pool2d(x, 2),
    "global_avg_pool2d": lambda x: F.global_avg_pool2d(x),
    "log_softmax": lambda x: F.log_softmax(x.flatten()),
    "softmax": lambda x: F.softmax(x.flatten()),
    "cross_entropy": lambda x: F.cross_entropy(x.flatten(), np.array([0, 1])),
    "nll_loss": lambda x: F.nll_loss(F.log_softmax(x.flatten()), np.array([1, 0])),
    "kl_divergence": lambda x: F.kl_divergence(x.flatten() * 0.5, x.flatten(), 2.0),
    "dropout": lambda x: F.dropout(x, 0.5, True, np.random.default_rng(0)),
}


class TestTensorOps:
    @DTYPES
    @pytest.mark.parametrize("kind", ["tensor", "array", "float", "int"])
    @pytest.mark.parametrize("op", sorted(BINARY))
    @EXAMPLES
    @given(seed=SEEDS)
    def test_binary_ops(self, op, kind, dtype, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (2, 3), dtype)
        b = operand(kind, rng, (2, 3), dtype)
        leaves = (a, b) if isinstance(b, Tensor) else (a,)
        assert_keeps_dtype(BINARY[op](a, b), dtype, leaves)

    @DTYPES
    @pytest.mark.parametrize("op", sorted(UNARY))
    @EXAMPLES
    @given(seed=SEEDS)
    def test_unary_reduction_shape_and_nn_ops(self, op, dtype, seed):
        x = leaf(np.random.default_rng(seed), (2, 3, 4, 4), dtype)
        assert_keeps_dtype(UNARY[op](x), dtype, (x,))

    @DTYPES
    @pytest.mark.parametrize("kind", ["tensor", "array"])
    @EXAMPLES
    @given(seed=SEEDS)
    def test_matmul_and_linear(self, kind, dtype, seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (2, 3), dtype)
        w = operand(kind, rng, (3, 4), dtype)
        assert_keeps_dtype(x @ w, dtype, (x,))
        weight, bias = leaf(rng, (4, 3), dtype), leaf(rng, (4,), dtype)
        assert_keeps_dtype(F.linear(leaf(rng, (2, 3), dtype), weight, bias), dtype, (weight, bias))

    def test_numpy_scalars_promote_as_numpy_does(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert (x * 2.0).dtype == np.float32
        assert (x * np.float32(2.0)).dtype == np.float32
        assert (x * np.float64(2.0)).dtype == np.float64
        assert (x + np.ones(3)).dtype == np.float64


def layer_cases(rng):
    """(layer, input shape) for every nn layer and the quantized ones."""
    return {
        "linear": (nn.Linear(6, 4, rng=rng), (3, 6)),
        "conv2d": (nn.Conv2d(3, 4, 3, stride=1, padding=1, rng=rng), (2, 3, 5, 5)),
        "batchnorm1d": (nn.BatchNorm1d(6), (4, 6)),
        "batchnorm2d": (nn.BatchNorm2d(3), (2, 3, 4, 4)),
        "relu": (nn.ReLU(), (2, 3, 4, 4)),
        "maxpool2d": (nn.MaxPool2d(2), (2, 3, 4, 4)),
        "avgpool2d": (nn.AvgPool2d(2), (2, 3, 4, 4)),
        "globalavgpool2d": (nn.GlobalAvgPool2d(), (2, 3, 4, 4)),
        "flatten": (nn.Flatten(), (2, 3, 4, 4)),
        "identity": (nn.Identity(), (2, 6)),
        "dropout": (nn.Dropout(0.5, rng=rng), (2, 6)),
        "sequential": (
            nn.Sequential(nn.Conv2d(3, 4, 3, rng=rng), nn.BatchNorm2d(4), nn.ReLU(),
                          nn.Flatten(), nn.Linear(16, 2, rng=rng)),
            (2, 3, 4, 4),
        ),
        "qconv2d": (QConv2d(3, 4, 3, padding=1, max_bits=4, act_bits=3, rng=rng), (2, 3, 4, 4)),
        "qlinear": (QLinear(6, 4, max_bits=4, act_bits=2, rng=rng), (3, 6)),
    }


LAYERS = sorted(layer_cases(np.random.default_rng(0)))


class TestLayers:
    @DTYPES
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("name", LAYERS)
    @EXAMPLES
    @given(seed=SEEDS)
    def test_layer_keeps_dtype(self, name, training, dtype, seed):
        rng = np.random.default_rng(seed)
        layer, shape = layer_cases(rng)[name]
        layer.astype(dtype)
        if not training:  # calibrate first, so eval-mode activation ranges exist
            with no_grad():
                layer(Tensor(rng.uniform(0.5, 2.0, shape).astype(dtype)))
        layer.train(training)
        x = leaf(rng, shape, dtype)
        assert_keeps_dtype(layer(x), dtype, [x, *layer.parameters()])
        with no_grad():
            assert layer(x).dtype == dtype  # eval's graph-free fast paths too
        for state_name, value in layer.state_dict().items():
            assert value.dtype == dtype, state_name

    @DTYPES
    @pytest.mark.parametrize("name", ["ce", "mse", "kl", "distill"])
    @EXAMPLES
    @given(seed=SEEDS)
    def test_losses_keep_dtype(self, name, dtype, seed):
        rng = np.random.default_rng(seed)
        student, teacher = leaf(rng, (3, 4), dtype), leaf(rng, (3, 4), dtype)
        labels = np.array([0, 3, 1])
        loss = {
            "ce": lambda: nn.CrossEntropyLoss()(student, labels),
            "mse": lambda: nn.MSELoss()(student, teacher),
            "kl": lambda: nn.KLDivLoss(2.0)(teacher, student),
            "distill": lambda: nn.DistillationLoss(0.3, 2.0)(student, labels, teacher),
        }[name]()
        assert_keeps_dtype(loss, dtype, (student,))


class TestModuleDtype:
    def test_parameters_and_buffers_keep_the_floating_dtype_given(self):
        module = nn.Module()
        module.weight = nn.Parameter(np.ones(3, dtype=np.float32))
        module.count = nn.Parameter(np.arange(3))
        module.register_buffer("stat", np.zeros(2, dtype=np.float32))
        module.register_buffer("flags", np.array([True, False]))
        assert module.weight.dtype == np.float32
        assert module.count.dtype == np.float64
        assert module.stat.dtype == np.float32
        assert module.flags.dtype == np.float64

    def test_updating_a_buffer_keeps_its_dtype(self):
        bn = nn.BatchNorm1d(3).astype(np.float32)
        bn._set_buffer("running_mean", np.ones(3))  # float64 value
        assert bn.running_mean.dtype == np.float32
        assert dict(bn.named_buffers())["running_mean"] is bn.running_mean

    def test_astype_casts_parameters_and_buffers(self):
        model = nn.Sequential(nn.Linear(3, 2, rng=np.random.default_rng(0)), nn.BatchNorm1d(2))
        original = model.state_dict()
        assert model.astype(np.float32) is model
        for name, value in model.state_dict().items():
            assert value.dtype == np.float32
            np.testing.assert_array_equal(value, original[name].astype(np.float32))
        assert model[1].running_var is dict(model.named_buffers())["1.running_var"]

    def test_training_defaults_stay_float64(self):
        # Layers are built in float64; only an explicit cast changes that,
        # so float32 data still trains in float64.
        layer = nn.Conv2d(2, 2, 3, rng=np.random.default_rng(0))
        assert all(p.dtype == np.float64 for p in layer.parameters())
        out = layer(Tensor(np.ones((1, 2, 3, 3), dtype=np.float32)))
        assert out.dtype == np.float64

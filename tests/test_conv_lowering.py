"""Bitwise oracles for the conv lowering.

The forward kernels must produce exactly the bits of the straightforward
formulations kept here as test-only oracles:

* ``im2col`` — a kh×kw loop of slice copies after ``np.pad``;
* ``max_pool2d`` — the column-matrix max;
* batch-norm inference without a graph — the Tensor-op formula;
* the integer rescale epilogue — the out-of-place expression with a
  per-call ``filter_scales`` loop.

The backward kernels must likewise produce the bits of the column
formulation: the conv gradients of both einsums followed by ``col2im``,
and the max-pool gradient scattered to each window's ``argmax``.

The whole served VGG preset is also run with every oracle patched in,
and pinned to a golden digest recorded on one host; a small VGG and a
ResNet-20 are refined for one epoch with the backward oracles patched in.
"""

import hashlib
import inspect
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.quant.integer as quant_integer
import repro.tensor.functional as functional
from repro.nn.layers import BatchNorm1d, BatchNorm2d, _BatchNormBase
from repro.quant.integer import compile_integer_layer, integer_forward
from repro.quant.qmodules import QConv2d, QLinear
from repro.quant.uniform import quantization_levels
from repro.tensor.functional import conv_output_size, im2col, max_pool2d
from repro.tensor.tensor import Tensor, no_grad
from tests.conftest import oracle_reestimate_batchnorm_stats, state_bytes

EXAMPLES = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def oracle_im2col(x, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :, :] = x[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols.reshape(n, c * kh * kw, oh * ow)


def oracle_max_pool(x, kernel, stride):
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel[0], stride[0], 0)
    ow = conv_output_size(w, kernel[1], stride[1], 0)
    cols = oracle_im2col(x.reshape(n * c, 1, h, w), kernel, stride, (0, 0))
    return cols.max(axis=1).reshape(n, c, oh, ow)


def oracle_max_pool_grad(x, kernel, stride, grad):
    """Scatter each output's gradient to its window's first maximum."""
    n, c, h, w = x.shape
    cols = oracle_im2col(x.reshape(n * c, 1, h, w), kernel, stride, (0, 0))
    grad_cols = np.zeros_like(cols)
    np.put_along_axis(
        grad_cols, cols.argmax(axis=1)[:, None, :], grad.reshape(n * c, 1, -1), axis=1
    )
    return functional.col2im(grad_cols, (n * c, 1, h, w), kernel, stride, (0, 0)).reshape(x.shape)


def oracle_conv2d(x, weight, bias=None, stride=1, padding=0):
    stride, padding = functional._pair(stride), functional._pair(padding)
    n, _c, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    cols = oracle_im2col(x.data, (kh, kw), stride, padding)
    out = np.matmul(weight.data.reshape(c_out, -1), cols)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1)
    oh = conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_output_size(w, kw, stride[1], padding[1])
    return Tensor(out.reshape(n, c_out, oh, ow))


def oracle_conv2d_grads(x, weight, grad, stride=1, padding=0):
    """``(grad_x, grad_w, grad_b)`` from both einsums and ``col2im``."""
    stride, padding = functional._pair(stride), functional._pair(padding)
    n, c_out = grad.shape[:2]
    kernel = weight.shape[2:]
    cols = oracle_im2col(x, kernel, stride, padding)
    grad2 = grad.reshape(n, c_out, -1)
    grad_w = np.einsum("nfo,nko->fk", grad2, cols, optimize=True)
    grad_cols = np.einsum("fk,nfo->nko", weight.reshape(c_out, -1), grad2, optimize=True)
    grad_x = functional.col2im(grad_cols, x.shape, kernel, stride, padding)
    return grad_x, grad_w.reshape(weight.shape), grad2.sum(axis=(0, 2))


def oracle_batch_norm(bn, x):
    """The eval formula, one Tensor op at a time."""
    shape = bn._param_shape(x)
    mean = Tensor(bn.running_mean.reshape(shape))
    var = Tensor(bn.running_var.reshape(shape))
    inv_std = (var + bn.eps) ** -0.5
    normalized = (x - mean) * inv_std
    return normalized * bn.weight.reshape(shape) + bn.bias.reshape(shape)


def oracle_filter_scales(spec):
    scales = np.zeros(spec.num_filters)
    span = spec.weight_upper - spec.weight_lower
    for f, bits in enumerate(spec.bits_per_filter):
        if bits > 0:
            scales[f] = span / (quantization_levels(int(bits)) - 1)
    return scales


def oracle_integer_linear(spec, operand, s_a, integer_input):
    acc = operand @ spec.flat_codes(floating=not integer_input).T
    code_sum = operand.sum(axis=1, keepdims=True)
    scales = oracle_filter_scales(spec).reshape(1, -1)
    return scales * s_a * acc + spec.weight_lower * s_a * code_sum


def oracle_integer_conv(spec, operand, s_a, integer_input):
    n, _c, h, w = operand.shape
    k = spec.codes.shape[2]
    cols = oracle_im2col(operand, (k, k), (spec.stride,) * 2, (spec.padding,) * 2)
    acc = np.matmul(spec.flat_codes(floating=not integer_input), cols)
    code_sum = cols.sum(axis=1)
    scales = oracle_filter_scales(spec).reshape(1, -1, 1)
    out = scales * s_a * acc + spec.weight_lower * s_a * code_sum[:, None, :]
    oh = conv_output_size(h, k, spec.stride, spec.padding)
    ow = conv_output_size(w, k, spec.stride, spec.padding)
    return out.reshape(n, spec.num_filters, oh, ow)


def patch_oracles(monkeypatch):
    """Route every forward kernel through its oracle."""
    monkeypatch.setattr(functional, "im2col", oracle_im2col)
    monkeypatch.setattr(functional, "conv2d", oracle_conv2d)
    monkeypatch.setattr(
        functional,
        "max_pool2d",
        lambda x, kernel, stride=None: Tensor(
            oracle_max_pool(x.data, functional._pair(kernel), functional._pair(stride or kernel))
        ),
    )
    monkeypatch.setattr(
        _BatchNormBase,
        "_normalize_inference",
        lambda bn, x, shape: oracle_batch_norm(bn, Tensor(x)).data,
    )
    monkeypatch.setattr(quant_integer, "_integer_conv", oracle_integer_conv)
    monkeypatch.setattr(quant_integer, "_integer_linear", oracle_integer_linear)


def assert_bitwise(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_input(shape, dtype, layout, seed):
    """Values with exact zeros of both signs, in the requested memory layout."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    values = values * (values > rng.uniform(-1.0, 1.0))  # ReLU-like: yields -0.0
    values = values.astype(dtype) if np.dtype(dtype).kind == "f" else np.round(values * 4).astype(dtype)
    n, c, h, w = shape
    if layout == "strided":
        big = np.ones((n, c, 2 * h, w + 3), dtype=dtype)
        big[:, :, ::2, 1 : w + 1] = values
        return big[:, :, ::2, 1 : w + 1]
    if layout == "transposed":
        return np.ascontiguousarray(values.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    return values


@st.composite
def windowed_input(draw, padded=True, dtypes=(np.float32, np.float64)):
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    ph = draw(st.integers(0, 2)) if padded else 0
    pw = draw(st.integers(0, 2)) if padded else 0
    kernel = (draw(st.integers(1, h + 2 * ph)), draw(st.integers(1, w + 2 * pw)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    x = make_input(
        (n, c, h, w),
        draw(st.sampled_from(dtypes)),
        draw(st.sampled_from(["contiguous", "strided", "transposed"])),
        draw(st.integers(0, 2**32 - 1)),
    )
    return x, kernel, stride, (ph, pw)


# ----------------------------------------------------------------------
# kernels against their oracles
# ----------------------------------------------------------------------
class TestIm2col:
    @EXAMPLES
    @given(windowed_input(dtypes=(np.float32, np.float64, np.int64)))
    def test_matches_loop_oracle(self, case):
        x, kernel, stride, padding = case
        before = x.copy()
        cols = im2col(x, kernel, stride, padding)
        assert_bitwise(cols, oracle_im2col(x, kernel, stride, padding))
        assert cols.flags.c_contiguous and cols.flags.writeable
        np.testing.assert_array_equal(x, before)

    def test_columns_never_alias_the_input(self):
        # A 1x1 stride-1 window view is reshapeable in place; the
        # columns must still be a private copy.
        x = np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4)
        cols = im2col(x, (1, 1), (1, 1), (0, 0))
        assert not np.shares_memory(cols, x)


class TestMaxPool:
    @EXAMPLES
    @given(windowed_input(padded=False))
    def test_matches_column_oracle(self, case):
        x, kernel, stride, _ = case
        with no_grad():
            got = max_pool2d(Tensor(x), kernel, stride).data
        expected = oracle_max_pool(x, kernel, stride)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
        if got.shape[2] * got.shape[3] > 1:
            # With one window per channel numpy's contiguous max-reduce
            # may pick the other sign of an all-zero window; otherwise
            # even the zero signs agree.
            assert got.tobytes() == expected.tobytes()

    @EXAMPLES
    @given(windowed_input(padded=False))
    def test_grad_path_matches_column_oracle(self, case):
        x, kernel, stride, _ = case
        x = Tensor(x, requires_grad=True)
        out = max_pool2d(x, kernel, stride)
        expected = oracle_max_pool(x.data, kernel, stride)
        assert np.array_equal(out.data, expected)
        if out.shape[2] * out.shape[3] > 1:
            assert_bitwise(out.data, expected)
        grad = np.random.default_rng(0).standard_normal(out.shape).astype(x.data.dtype)
        out.backward(grad)
        assert_bitwise(x.grad, oracle_max_pool_grad(x.data, kernel, stride, grad))

    @EXAMPLES
    @given(windowed_input(padded=False), st.integers(0, 2**32 - 1))
    def test_grad_path_routes_nan_windows_like_argmax(self, case, seed):
        x, kernel, stride, _ = case
        x[np.random.default_rng(seed).random(x.shape) < 0.2] = np.nan
        x = Tensor(x, requires_grad=True)
        out = max_pool2d(x, kernel, stride)
        assert np.array_equal(out.data, oracle_max_pool(x.data, kernel, stride), equal_nan=True)
        grad = np.random.default_rng(seed).standard_normal(out.shape).astype(x.data.dtype)
        out.backward(grad)
        assert_bitwise(x.grad, oracle_max_pool_grad(x.data, kernel, stride, grad))


@st.composite
def conv_case(draw):
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    # Up to 40 filters: BLAS rounds sub-GEMMs of the wider ones
    # differently, which a GEMM per tap would show.
    f = draw(st.integers(1, 40))
    k, s, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, k - 2 * p), 9))
    w = draw(st.integers(max(1, k - 2 * p), 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    x = make_input((n, c, h, w), dtype, draw(st.sampled_from(["contiguous", "strided"])), seed)
    weight = make_input((f, c, k, k), dtype, "contiguous", seed + 1)
    bias = make_input((1, 1, 1, f), dtype, "contiguous", seed + 2).reshape(f)
    return x, weight, bias if draw(st.booleans()) else None, s, p, draw(st.booleans())


class TestConvBackward:
    @EXAMPLES
    @given(conv_case())
    def test_grads_match_einsum_col2im_oracle(self, case):
        x_data, w_data, b_data, stride, padding, x_needs_grad = case
        x = Tensor(x_data, requires_grad=x_needs_grad)
        weight = Tensor(w_data, requires_grad=True)
        bias = None if b_data is None else Tensor(b_data, requires_grad=True)
        out = functional.conv2d(x, weight, bias, stride, padding)
        grad = make_input(out.shape, out.dtype, "contiguous", 99)
        out.backward(grad)
        grad_x, grad_w, grad_b = oracle_conv2d_grads(x_data, w_data, grad, stride, padding)
        if x_needs_grad:
            assert_bitwise(x.grad, grad_x)
        else:
            assert x.grad is None
        assert_bitwise(weight.grad, grad_w)
        if bias is not None:
            assert_bitwise(bias.grad, grad_b)

    def test_input_grad_is_c_contiguous_nchw(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 5)), requires_grad=True)
        weight = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        out = functional.conv2d(x, weight, None, 2, 1)
        (x_node, grad_x), _ = out._backward(np.ones(out.shape))
        assert x_node is x and grad_x.shape == x.shape and grad_x.flags.c_contiguous


class TestBatchNormInference:
    @EXAMPLES
    @given(
        st.sampled_from([BatchNorm1d, BatchNorm2d]),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([1e-5, 1e-3]),
        st.integers(0, 2**32 - 1),
    )
    def test_fast_path_matches_graph_path_and_formula(
        self, cls, x_dtype, param_dtype, eps, seed
    ):
        rng = np.random.default_rng(seed)
        channels = int(rng.integers(1, 6))
        bn = cls(channels, eps=eps)
        bn.weight.data = rng.standard_normal(channels).astype(param_dtype)
        bn.bias.data = rng.standard_normal(channels).astype(param_dtype)
        bn._set_buffer("running_mean", rng.standard_normal(channels).astype(param_dtype))
        bn._set_buffer("running_var", rng.uniform(0.1, 3.0, channels).astype(param_dtype))
        bn.eval()
        shape = (3, channels) if cls is BatchNorm1d else (3, channels, 4, 5)
        x = Tensor(rng.standard_normal(shape).astype(x_dtype))
        before = x.data.copy()

        with no_grad():
            fast = bn(x)
        graph = bn(x)  # weight requires grad: the Tensor-node path
        assert graph._parents and not fast._parents
        assert_bitwise(fast.data, graph.data)
        with no_grad():
            assert_bitwise(fast.data, oracle_batch_norm(bn, x).data)
        np.testing.assert_array_equal(x.data, before)  # the input is never written


class TestIntegerEpilogue:
    @EXAMPLES
    @given(
        st.sampled_from(["conv", "linear"]),
        st.sampled_from([None, 3, 4]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_out_of_place_formula(self, kind, act_bits, with_bias, seed):
        rng = np.random.default_rng(seed)
        if kind == "conv":
            layer = QConv2d(3, 5, 3, padding=int(rng.integers(0, 2)), max_bits=4,
                            act_bits=act_bits, bias=with_bias, rng=rng)
            x = np.abs(rng.standard_normal((2, 3, 6, 6)))
        else:
            layer = QLinear(6, 5, max_bits=4, act_bits=act_bits, bias=with_bias, rng=rng)
            x = np.abs(rng.standard_normal((4, 6)))
        layer.set_bits(rng.integers(0, 5, size=5))  # 0 prunes a filter
        if act_bits is not None:
            layer.calibrating = True
            with no_grad():
                layer(Tensor(x))
            layer.calibrating = False
        layer.eval()
        spec = compile_integer_layer(layer, "layer")
        got = integer_forward(spec, x)
        oracle = oracle_integer_conv if kind == "conv" else oracle_integer_linear
        saved = getattr(quant_integer, f"_integer_{kind}")
        setattr(quant_integer, f"_integer_{kind}", oracle)
        try:
            expected = integer_forward(spec.lease_copy(), x)
        finally:
            setattr(quant_integer, f"_integer_{kind}", saved)
        assert_bitwise(got, expected)

    def test_filter_scales_are_computed_once_and_read_only(self):
        layer = QLinear(4, 3, max_bits=4, rng=np.random.default_rng(0))
        layer.set_bits(np.array([2, 0, 4]))
        spec = compile_integer_layer(layer, "fc")
        scales = spec.filter_scales()
        assert spec.filter_scales() is scales
        assert spec.lease_copy().filter_scales() is scales
        np.testing.assert_array_equal(scales, oracle_filter_scales(spec))
        with pytest.raises(ValueError):
            scales[0] = 1.0


# ----------------------------------------------------------------------
# the bindings external span tracers wrap
# ----------------------------------------------------------------------
class TestTraceSurface:
    """A tracer driven from outside the program wraps these module
    globals by name; renaming one, or calling a kernel through a private
    reference instead, would break it or hide the kernel's time."""

    def test_kernels_keep_their_names_and_signatures(self):
        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert params(functional.conv2d) == ["x", "weight", "bias", "stride", "padding"]
        assert params(functional.im2col) == ["x", "kernel", "stride", "padding"]
        assert params(functional.col2im) == ["cols", "input_shape", "kernel", "stride", "padding"]
        assert quant_integer.im2col is functional.im2col

    def test_convs_call_im2col_through_module_globals(self, monkeypatch, rng):
        calls = []

        def counting(label, original):
            def wrapper(*args, **kwargs):
                calls.append(label)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(quant_integer, "im2col", counting("integer", functional.im2col))
        monkeypatch.setattr(functional, "im2col", counting("float", functional.im2col))
        layer = QConv2d(3, 4, 3, padding=1, max_bits=4, rng=rng)
        layer.eval()
        x = rng.standard_normal((2, 3, 5, 5))
        integer_forward(compile_integer_layer(layer, "conv"), x)
        with no_grad():
            functional.conv2d(Tensor(x), layer.weight, layer.bias, padding=1)
        assert calls == ["integer", "float"]


# ----------------------------------------------------------------------
# one refine epoch against the backward oracles
# ----------------------------------------------------------------------
KERNEL_CONV2D, KERNEL_MAX_POOL2D = functional.conv2d, functional.max_pool2d


def patch_backward_oracles(monkeypatch, calls):
    """Keep the forward kernels and route the conv and max-pool gradients
    through their oracles; ``calls`` records each oracle backward."""

    def conv2d(x, weight, bias=None, stride=1, padding=0):
        with no_grad():
            out = KERNEL_CONV2D(x, weight, bias, stride, padding).data
        parents = (x, weight) if bias is None else (x, weight, bias)

        def backward(grad):
            calls.append("conv2d")
            grads = oracle_conv2d_grads(x.data, weight.data, grad, stride, padding)
            return tuple(zip(parents, grads))

        return Tensor._make(out, parents, backward, "conv2d")

    def max_pool2d(x, kernel, stride=None):
        kernel = functional._pair(kernel)
        stride = kernel if stride is None else functional._pair(stride)
        with no_grad():
            out = KERNEL_MAX_POOL2D(x, kernel, stride).data

        def backward(grad):
            calls.append("max_pool2d")
            return ((x, oracle_max_pool_grad(x.data, kernel, stride, grad)),)

        return Tensor._make(out, (x,), backward, "max_pool2d")

    monkeypatch.setattr(functional, "conv2d", conv2d)
    monkeypatch.setattr(functional, "max_pool2d", max_pool2d)


def refine_one_epoch(teacher, dataset, reestimate):
    """Quantize a clone of ``teacher``, re-estimate its BN statistics and
    refine it for one epoch; returns its state and loss history."""
    from repro.core.config import CQConfig
    from repro.core.distill import refine_quantized_model
    from repro.data import ArrayDataset
    from repro.quant import quantize_model, quantized_layers
    from repro.utils import clone_module

    student = clone_module(teacher)
    quantize_model(student, max_bits=4)
    rng = np.random.default_rng(6)
    for layer in quantized_layers(student).values():
        layer.set_bits(rng.integers(1, 5, size=layer.num_filters))
    reestimate(student, [dataset.train_images[:50]], passes=10)
    config = CQConfig(act_bits=None, refine_epochs=1, refine_batch_size=25)
    train = ArrayDataset(dataset.train_images, dataset.train_labels)
    history = refine_quantized_model(student, teacher, train, None, config)
    return state_bytes(student), [(m.loss, m.accuracy) for m in history.train]


@pytest.mark.parametrize("arch", ["vgg", "resnet"])
def test_refine_epoch_matches_backward_oracles(arch, tiny_dataset, monkeypatch):
    from repro.models.resnet import ResNet20
    from repro.models.vgg import VGGSmall
    from repro.quant.bn import reestimate_batchnorm_stats

    rng = np.random.default_rng(0)
    if arch == "vgg":
        teacher = VGGSmall(num_classes=4, image_size=8, width=4, rng=rng)
    else:
        teacher = ResNet20(num_classes=4, base_width=4, rng=rng)
    got = refine_one_epoch(teacher, tiny_dataset, reestimate_batchnorm_stats)
    calls = []
    patch_backward_oracles(monkeypatch, calls)
    expected = refine_one_epoch(teacher, tiny_dataset, oracle_reestimate_batchnorm_stats)
    assert "conv2d" in calls and ("max_pool2d" in calls) == (arch == "vgg")
    assert got == expected


# ----------------------------------------------------------------------
# the served VGG preset
# ----------------------------------------------------------------------
#: sha256 of the served outputs (100 test images, batches of 32), recorded
#: on the host below. Other BLAS builds or CPUs may round differently.
GOLDEN_HOST = {
    "numpy": "2.4.6",
    "blas": "0.3.31.188.0",
    "simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
    "machine": "x86_64",
}
GOLDEN_DIGESTS = {
    "float": "ad0d8f920b22508d181ddb9db6763f8a09507b801f10c9ce34f4aa9a667df028",
    "integer": "8cea4e5ee89d8e61a99ed03d81e6f0caf3c8c594cafeaea7b483d6ec9c553581",
}


def host_fingerprint():
    config = np.show_config(mode="dicts")
    return {
        "numpy": np.__version__,
        "blas": config["Build Dependencies"]["blas"].get("version"),
        "simd": sorted(config["SIMD Extensions"]["found"]),
        "machine": platform.machine(),
    }


@pytest.fixture(scope="module")
def served_preset():
    from repro.experiments.presets import get_dataset
    from repro.serve import ArtifactCache
    from repro.serve.replay import build_uniform_artifact

    preset = dict(model="vgg-small", dataset="synth10", scale="tiny", seed=0)
    artifact = ArtifactCache().load_bytes(build_uniform_artifact(bits=2, **preset).data)
    images = get_dataset("synth10", scale="tiny", seed=0).test_images
    return artifact, images


def served_outputs(model, images):
    with no_grad():
        return np.concatenate(
            [model(Tensor(images[i : i + 32])).data for i in range(0, len(images), 32)]
        )


@pytest.mark.parametrize("backend", ["float", "integer"])
class TestServedPreset:
    def model(self, artifact, backend):
        return artifact.model() if backend == "float" else artifact.integer_model().clone()

    def test_matches_oracle_kernels(self, served_preset, backend, monkeypatch):
        artifact, images = served_preset
        got = served_outputs(self.model(artifact, backend), images)
        patch_oracles(monkeypatch)
        assert_bitwise(got, served_outputs(self.model(artifact, backend), images))

    def test_golden_digest(self, served_preset, backend):
        if host_fingerprint() != GOLDEN_HOST:
            pytest.skip(f"golden digests were recorded on {GOLDEN_HOST}")
        artifact, images = served_preset
        outputs = served_outputs(self.model(artifact, backend), images)
        assert outputs.shape == (100, 10) and outputs.dtype == np.float64
        assert hashlib.sha256(outputs.tobytes()).hexdigest() == GOLDEN_DIGESTS[backend]

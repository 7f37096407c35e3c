"""The compiled serving plan against the Module it was compiled from.

Random MLP, VGG and ResNet serving artifacts — random per-filter bits
(0 = pruned), random eval batch-norm statistics to fold, and optional
activation quantization — are served through their compiled plans:

* the float32 plan agrees with the float32 Module within
  ``reassociation_atol`` (weight-only artifacts: with activation
  quantization a one-ulp difference can move a float32 activation
  across a rounding boundary, which no reassociation bound covers);
* the integer plan agrees with a float64 build of the float model
  within the artifact's derived rescale bound (``verify_integer_parity``).
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.presets import build_preset_model
from repro.nn.layers import _BatchNormBase
from repro.quant.qmodules import calibrate_activations, quantize_model, quantized_layers
from repro.serve import ArtifactManifest, ServingPlan, compile_artifact, verify_integer_parity
from repro.serve.artifact import build_serving_model
from repro.tensor.tensor import Tensor, no_grad
from tests.conftest import reassociation_atol

ARCHITECTURES = ("mlp", "vgg-small", "resnet20-x1")
IMAGE_SIZE = 8


@functools.lru_cache(maxsize=None)
def random_artifact(architecture, act_bits, seed):
    rng = np.random.default_rng(seed)
    model = build_preset_model(
        architecture, num_classes=4, image_size=IMAGE_SIZE, scale="tiny", seed=seed
    )
    for module in model.modules():
        if isinstance(module, _BatchNormBase):
            features = module.num_features
            module.weight.data[...] = rng.uniform(0.5, 1.5, features)
            module.bias.data[...] = rng.uniform(-0.5, 0.5, features)
            module._set_buffer("running_mean", rng.uniform(-0.5, 0.5, features))
            module._set_buffer("running_var", rng.uniform(0.5, 2.0, features))
    quantize_model(model, max_bits=4, act_bits=act_bits)
    for layer in quantized_layers(model).values():
        layer.set_bits(rng.integers(0, 5, size=layer.num_filters))
    if act_bits is not None:
        calibrate_activations(
            model, [rng.standard_normal((16, 3, IMAGE_SIZE, IMAGE_SIZE))]
        )
    model.eval()
    manifest = ArtifactManifest(
        model=architecture,
        dataset="synth10",
        scale="tiny",
        seed=seed,
        num_classes=4,
        image_size=IMAGE_SIZE,
        max_bits=4,
        act_bits=act_bits,
    )
    return compile_artifact(model, manifest)


@settings(max_examples=30, deadline=None)
@given(
    architecture=st.sampled_from(ARCHITECTURES),
    act_bits=st.sampled_from([None, 2, 8]),
    seed=st.integers(0, 2),
    batch=st.integers(1, 5),
)
def test_plan_matches_module(architecture, act_bits, seed, batch):
    artifact = random_artifact(architecture, act_bits, seed)
    inputs = np.random.default_rng(batch).standard_normal(
        (batch, 3, IMAGE_SIZE, IMAGE_SIZE)
    )
    if act_bits is None:
        plan = artifact.clone_model_for("float")
        assert isinstance(plan, ServingPlan) and plan.input_dtype == np.float32
        x = Tensor(inputs.astype(np.float32))
        with no_grad():
            got = plan(x).data
            expected = artifact.model()(x).data
        assert got.dtype == np.float32
        atol = reassociation_atol(artifact.model(), expected)
        np.testing.assert_allclose(got, expected, rtol=0, atol=atol)
    integer = artifact.clone_model_for("integer")
    assert integer.serving_backend == "integer"
    verify_integer_parity(
        integer, build_serving_model(artifact, dtype=np.float64), inputs
    )

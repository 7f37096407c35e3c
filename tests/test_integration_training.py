"""Slow integration tests: conv nets actually train, quantize and recover."""

import pytest

from repro.core import CQConfig, ClassBasedQuantizer
from repro.data import ArrayDataset, DataLoader
from repro.data.synthetic import make_synth_cifar
from repro.models import build_model
from repro.optim import SGD, MultiStepLR
from repro.train import Trainer, evaluate_model

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def conv_dataset():
    return make_synth_cifar(
        num_classes=5, image_size=16, train_per_class=30, val_per_class=10,
        test_per_class=10, seed=11,
    )


def train(model, dataset, epochs=12, lr=0.02):
    loader = DataLoader(
        ArrayDataset(dataset.train_images, dataset.train_labels),
        batch_size=50, shuffle=True, seed=0,
    )
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9, weight_decay=1e-4)
    scheduler = MultiStepLR(optimizer, milestones=[epochs // 2, (3 * epochs) // 4])
    Trainer(model, optimizer, scheduler=scheduler).fit(loader, epochs=epochs)
    test_loader = DataLoader(
        ArrayDataset(dataset.test_images, dataset.test_labels), batch_size=50
    )
    return evaluate_model(model, test_loader).accuracy


@pytest.mark.slow
class TestConvTraining:
    def test_vgg_small_learns(self, conv_dataset):
        model = build_model("vgg-small", num_classes=5, image_size=16, seed=0, width=6)
        accuracy = train(model, conv_dataset)
        assert accuracy > 0.6  # 5 classes, chance = 0.2

    def test_resnet20_learns(self, conv_dataset):
        model = build_model("resnet20-x1", num_classes=5, seed=0, base_width=4)
        accuracy = train(model, conv_dataset)
        assert accuracy > 0.6

    def test_vgg_cq_pipeline_recovers(self, conv_dataset):
        model = build_model("vgg-small", num_classes=5, image_size=16, seed=0, width=6)
        fp_accuracy = train(model, conv_dataset)
        config = CQConfig(
            target_avg_bits=3.0, max_bits=5, act_bits=3,
            samples_per_class=8, refine_epochs=12, refine_lr=0.01,
            refine_batch_size=50, seed=0,
        )
        result = ClassBasedQuantizer(config).quantize(model, conv_dataset)
        assert result.average_bits <= 3.0 + 1e-9
        # KD refinement recovers a large part of the quantization drop on
        # this small training set (150 images); exact margins are noisy.
        assert result.accuracy_after_refine >= result.accuracy_before_refine
        assert result.accuracy_after_refine >= fp_accuracy - 0.4

    def test_resnet_cq_pipeline_budget(self, conv_dataset):
        model = build_model("resnet20-x1", num_classes=5, seed=0, base_width=4)
        train(model, conv_dataset, epochs=10)
        config = CQConfig(
            target_avg_bits=2.0, max_bits=4, act_bits=None,
            samples_per_class=8, refine_epochs=4, refine_lr=0.01,
            refine_batch_size=50, seed=0,
        )
        result = ClassBasedQuantizer(config).quantize(model, conv_dataset)
        assert result.average_bits <= 2.0 + 1e-9
        # every block conv got a bit assignment
        assert len(result.bit_map) == 20  # 18 block convs + 2 downsamples

    def test_apn_precision_ladder(self, conv_dataset):
        """APN accuracy should be non-decreasing in precision (allowing
        small noise), the defining property of any-precision training."""
        from repro.baselines import train_apn

        model = build_model("vgg-small", num_classes=5, image_size=16, seed=0, width=6)
        train(model, conv_dataset, epochs=10)
        apn = train_apn(model, conv_dataset, bit_widths=[2, 4], epochs=4, lr=0.01,
                        batch_size=50)
        assert apn.accuracy_by_bits[4] >= apn.accuracy_by_bits[2] - 0.1

    def test_wrapnet_trains_through_overflow(self, conv_dataset):
        from repro.baselines import WrapNetConfig, train_wrapnet

        model = build_model("vgg-small", num_classes=5, image_size=16, seed=0, width=6)
        train(model, conv_dataset, epochs=10)
        result = train_wrapnet(
            model, conv_dataset,
            WrapNetConfig(weight_bits=2, act_bits=4, acc_bits=12),
            epochs=4, lr=0.01, batch_size=50,
        )
        assert result.accuracy > 0.3  # functional, above chance

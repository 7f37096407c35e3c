"""Integer deployment: export a CQ model and run it with integer MACs.

Fake quantization simulates a deployment; this example performs one.
It quantizes a model with CQ, exports the integer codes (the artifact a
device would store), runs inference where every quantized layer's MAC
loop is pure integer arithmetic, and verifies the result matches the
fake-quantized network — plus reports the accumulator width the integer
execution actually needed, the quantity WrapNet [11] optimises.

Run:
    python examples/integer_deployment.py
"""

import numpy as np

from repro import CQConfig, ClassBasedQuantizer, build_model, make_synth_cifar
from repro.data import ArrayDataset, DataLoader
from repro.optim import SGD, MultiStepLR
from repro.quant import (
    export_quantized_weights,
    integer_mode,
    max_acc_bits,
    read_bitstream,
    verify_integer_equivalence,
    write_bitstream,
)
from repro.tensor import Tensor
from repro.tensor.tensor import no_grad
from repro.train import Trainer, evaluate_model


def main() -> None:
    # 1. Pre-train and quantize with CQ --------------------------------
    dataset = make_synth_cifar(num_classes=10, image_size=16, train_per_class=40, seed=0)
    model = build_model("vgg-small", num_classes=10, image_size=16, seed=0)
    loader = DataLoader(
        ArrayDataset(dataset.train_images, dataset.train_labels),
        batch_size=50,
        shuffle=True,
        seed=0,
    )
    optimizer = SGD(model.parameters(), lr=0.02, momentum=0.9, weight_decay=5e-4)
    trainer = Trainer(model, optimizer, scheduler=MultiStepLR(optimizer, milestones=[10, 14]))
    trainer.fit(loader, epochs=16)

    config = CQConfig(
        target_avg_bits=3.0,
        max_bits=4,
        act_bits=4,
        samples_per_class=10,
        refine_epochs=6,
        refine_lr=0.005,
        refine_batch_size=50,
    )
    result = ClassBasedQuantizer(config).quantize(model, dataset)
    quantized = result.model
    print(f"CQ accuracy (fake-quant): {result.accuracy_after_refine:.3f}")

    # 2. Export: the integer artifact a device would store --------------
    export = export_quantized_weights(quantized)
    print(
        f"exported payload: {export.quantized_payload_bits / 8 / 1024:.2f} KiB "
        f"(x{export.compression_ratio():.1f} vs FP32)"
    )
    # ...and the storage claim made physical: write the actual bitstream.
    bitstream_path = "quantized_model.cqw"
    written = write_bitstream(export, bitstream_path)
    restored = read_bitstream(bitstream_path)
    assert all(
        (restored.layers[name].reconstruct() == export.layers[name].reconstruct()).all()
        for name in export.layers
    )
    print(f"bitstream on disk: {written / 1024:.2f} KiB ({bitstream_path}), round-trip exact")

    # 3. Bit-exactness: integer MACs == fake-quant forward --------------
    sample = dataset.test_images[:64]
    equivalent, diff = verify_integer_equivalence(quantized, sample)
    print(f"integer == fake-quant: {equivalent} (max |diff| = {diff:.2e})")

    # 4. Full test-set inference with integer MACs ----------------------
    test_loader = DataLoader(
        ArrayDataset(dataset.test_images, dataset.test_labels), batch_size=100
    )
    quantized.eval()
    with integer_mode(quantized) as specs:
        correct = 0
        total = 0
        with no_grad():
            for images, labels in test_loader:
                logits = quantized(Tensor(images))
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                total += len(labels)
        print(f"integer-execution accuracy: {correct / total:.3f}")
        print(
            "widest accumulator needed: "
            f"{max_acc_bits(specs)} bits "
            "(cf. WrapNet's low-precision accumulators)"
        )

    # 5. Back in fake-quant mode, nothing changed ------------------------
    fake_accuracy = evaluate_model(quantized, test_loader).accuracy
    print(f"fake-quant accuracy after the round-trip: {fake_accuracy:.3f}")


if __name__ == "__main__":
    main()

"""A complete neural network running inference on the simulated TSP.

Trains a small CNN on the synthetic shape task (host, numpy), then deploys
it: every convolution and dense layer is quantized to int8 (the paper's
layer-based symmetric strategy), compiled into MXM stream programs, and
executed on the cycle-accurate simulator — every multiply-accumulate of
the network happens on the chip model.

    python examples/cnn_on_tsp.py
"""

import numpy as np

from repro.config import small_test_chip
from repro.nn import TspCnnRunner, make_shapes, make_small_cnn, train


def main() -> None:
    data = make_shapes(
        n_train=240, n_test=30, image_size=12, n_classes=3, noise=0.08,
        seed=3,
    )
    model = make_small_cnn(3, channels=4, image_size=12, seed=3)
    result = train(model, data, epochs=8, lr=0.1, seed=3)
    print(f"host training: fp32 test accuracy "
          f"{result.test_accuracy:.1%} on the shape task")

    config = small_test_chip()
    runner = TspCnnRunner(model, config, calibration=data.x_train[:32])
    sample, labels = data.x_test[:12], data.y_test[:12]
    on_chip = runner.forward(sample)
    host_logits = model.forward(sample)

    agreement = (
        on_chip.logits.argmax(1) == host_logits.argmax(1)
    ).mean()
    print(f"\ndeployed on the TSP ({config.n_lanes}-lane test chip):")
    for name, cycles in on_chip.layer_cycles.items():
        print(f"  {name:<12} {cycles:>6} simulated cycles")
    print(f"  total        {on_chip.total_cycles:>6} cycles across "
          f"{on_chip.programs_run} matrix layers")
    print(f"\nprediction agreement vs host fp32: {agreement:.0%}")
    rel = np.abs(on_chip.logits - host_logits).mean() / np.abs(
        host_logits
    ).mean()
    print(f"relative logit error from the int8 edges: {rel:.1%} "
          "(the paper's layer-based strategy keeps inter-layer math wide)")
    print(f"on-chip accuracy: {runner.accuracy(sample, labels):.0%} "
          f"(host: {(host_logits.argmax(1) == labels).mean():.0%})")


if __name__ == "__main__":
    main()

"""The ResNet conv pattern on the MXM: MatMul -> Requantize -> ReLU.

Compiles the paper's Section IV pipeline — weights installed into a
320x320 MXM plane, int8 activations streamed through, int32 results
requantized to int8 by the VXM and passed through ReLU, chained without
memory round-trips — then runs it cycle-accurately and verifies against
numpy.  Also demonstrates K-tiling: a K=512 reduction accumulated across
two weight installs in the MXM accumulators.

    python examples/matmul_mxm.py
"""

import numpy as np

from repro.arch import DType
from repro.compiler import StreamProgramBuilder, execute
from repro.config import groq_tsp_v1


def conv_pattern(config) -> None:
    print("=== Read -> MatMul -> Requantize -> ReLU -> Write ===")
    g = StreamProgramBuilder(config)
    rng = np.random.default_rng(1)
    k, m, n = 320, 256, 16  # one 320x320 plane, 256 output features
    weights = rng.integers(-10, 10, (k, m)).astype(np.int8)
    activations = rng.integers(-10, 10, (n, k)).astype(np.int8)

    x = g.constant_tensor("activations", activations)
    acc = g.matmul(weights, x, name="conv_weights")  # int32 accumulators
    scale = 0.5 / max(1, int(np.abs(weights).sum(axis=0).max()) // 16)
    q = g.convert(acc, DType.INT8, scale=scale)  # VXM requantization
    y = g.relu(q)  # chained activation
    g.write_back(y, name="y")
    compiled = g.compile()

    result = execute(compiled, replay=False)
    oracle = activations.astype(np.int64) @ weights.astype(np.int64)
    expected = np.maximum(
        np.clip(np.rint(oracle * scale), -128, 127), 0
    ).astype(np.int8)
    assert np.array_equal(result["y"], expected)
    print(f"  {n} activation vectors through a {k}x{m} tile: "
          f"{result.run.cycles} cycles, results exact")
    print(f"  instructions: {compiled.stats.instructions}, "
          f"MXM results chained straight into the VXM — no intermediate "
          "writes")


def k_tiled(config) -> None:
    print("=== K-tiled matmul: K=512 accumulated over 2 installs ===")
    g = StreamProgramBuilder(config)
    rng = np.random.default_rng(2)
    k, m, n = 512, 64, 4
    weights = rng.integers(-6, 6, (k, m)).astype(np.int8)
    acts = rng.integers(-6, 6, (n, k)).astype(np.int8)
    tiles = [
        g.constant_tensor("x_lo", acts[:, :320]),
        g.constant_tensor("x_hi", acts[:, 320:]),
    ]
    r = g.matmul(weights, tiles, name="big_weights")
    g.write_back(r, name="r")
    result = execute(g.compile(), replay=False)
    expected = (acts.astype(np.int64) @ weights.astype(np.int64)).astype(
        np.int32
    )
    assert np.array_equal(result["r"], expected)
    print(f"  partial sums held in the plane's accumulators across the "
          f"installs (ACC accumulate=True, emit on the last pass): "
          f"{result.run.cycles} cycles, int32 results exact")


def main() -> None:
    config = groq_tsp_v1()
    conv_pattern(config)
    k_tiled(config)


if __name__ == "__main__":
    main()

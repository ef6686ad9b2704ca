"""Golden-vector regression programs.

Three representative small workloads — a K-tiled matmul with requantize
epilogue, a 3-tap depthwise convolution built from SXM lane shifts, and a
transformer attention-projection block (parallel Q/K matmuls fused
elementwise) — each with bit-exact outputs frozen in
``tests/goldens/*.npz``.  The goldens pin the
end-to-end numerics of the compiler + simulator: any change that alters a
single output byte fails ``tests/test_goldens.py``.

Regenerate deliberately (after an intended numerics change) with::

    PYTHONPATH=src python tests/golden_programs.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.arch import DType
from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def _int8(shape, lo=-20, hi=20, offset=0):
    count = int(np.prod(shape))
    span = hi - lo
    return ((np.arange(count) * 7 + offset) % span + lo).astype(
        np.int8
    ).reshape(shape)


def build_matmul() -> StreamProgramBuilder:
    """K-tiled int8 matmul with a requantize + ReLU epilogue."""
    config = small_test_chip()
    lanes = config.n_lanes
    b = StreamProgramBuilder(config)
    a0 = b.constant_tensor("a0", _int8((4, lanes), lo=-6, hi=7))
    a1 = b.constant_tensor("a1", _int8((4, lanes), lo=-6, hi=7, offset=3))
    w = _int8((2 * lanes, 32), lo=-6, hi=7, offset=11)
    acc = b.matmul(w, [a0, a1], name="w")
    q = b.convert(acc, DType.INT8, scale=0.01)
    b.write_back(b.relu(q), "y")
    return b


def build_conv3() -> StreamProgramBuilder:
    """3-tap depthwise convolution along lanes via SXM shifts.

    ``y[l] = w0*x[l] + w1*x[l+1] + w2*x[l+2]`` with per-tap weight
    vectors — the horizontal arm of a small stencil, companion to the
    ``temporal_shift`` vertical arm.
    """
    config = small_test_chip()
    lanes = config.n_lanes
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((4, lanes), lo=-5, hi=6))
    taps = [
        b.constant_tensor(f"w{t}", np.full((4, lanes), v, dtype=np.int8))
        for t, v in enumerate((2, -1, 3))
    ]
    acc = b.mul(x, taps[0])
    for t in (1, 2):
        acc = b.add(acc, b.mul(b.shift(x, t), taps[t]))
    b.write_back(acc, "y")
    return b


def build_attention_proj() -> StreamProgramBuilder:
    """Transformer projection block: parallel Q/K matmuls + combine.

    A chained matmul (activations produced by an earlier matmul) is outside
    the scheduler's placement window, so the block stages two parallel
    projections of the same input — the Q/K half of an attention layer —
    requantizes each, and fuses them elementwise.
    """
    config = small_test_chip()
    lanes = config.n_lanes
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", _int8((3, lanes), lo=-4, hi=5))
    wq = _int8((lanes, 32), lo=-4, hi=5, offset=5)
    wk = _int8((lanes, 32), lo=-4, hi=5, offset=9)
    q = b.convert(b.matmul(wq, x, name="wq"), DType.INT8, scale=0.02)
    k = b.convert(b.matmul(wk, x, name="wk"), DType.INT8, scale=0.01)
    b.write_back(b.relu(b.add(q, k)), "y")
    return b


GOLDEN_PROGRAMS = {
    "matmul": build_matmul,
    "conv3": build_conv3,
    "attention_proj": build_attention_proj,
}


def compute_outputs(name: str) -> dict[str, np.ndarray]:
    """Run one golden program on the simulator."""
    builder = GOLDEN_PROGRAMS[name]()
    return execute(builder.compile(), replay=False).outputs


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.npz")


def regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in GOLDEN_PROGRAMS:
        outputs = compute_outputs(name)
        np.savez(golden_path(name), **outputs)
        print(f"wrote {golden_path(name)}: "
              + ", ".join(f"{k}{v.shape}" for k, v in outputs.items()))


if __name__ == "__main__":
    regenerate()

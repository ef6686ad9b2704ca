"""Figure 11: compile a pooling pipeline and render its schedule grid.

The paper's Figure 11 shows the instruction schedule of a 3x3 max pool:
MEM reads feeding the SXM's transpose and rotate units, VXM max
reductions, and writes committing results — all overlapped.  This example
compiles the same op mix with the stream compiler, runs it on the
simulator, and prints the schedule exactly as the trace recorded it.

    python examples/maxpool_schedule.py
"""

import numpy as np

from repro.compiler import StreamProgramBuilder, execute
from repro.config import small_test_chip
from repro.sim import TspChip, render_schedule


def main() -> None:
    config = small_test_chip()  # 64 lanes: the schedule stays readable
    rng = np.random.default_rng(4)
    image = rng.integers(-90, 90, (16, 64)).astype(np.int8)

    g = StreamProgramBuilder(config)
    rows = g.constant_tensor("rows", image)

    # make columns addressable: the 16x16 stream transpose
    columns = g.transpose16(rows)
    g.write_back(columns, name="columns")

    # stencil rotations for the 3x3 window
    row0 = g.constant_tensor("row0", image[0:1])
    stencil = g.rotate(row0, n=3)
    g.write_back(stencil, name="stencil")

    # the max-reduction core: out = max(x, x<<1, x<<2) per lane
    window = g.constant_tensor("window", image[1:2])
    s1 = g.shift(window, 1)
    s2 = g.shift(window, 2)
    m1 = g.maximum(g.copy(window), g.copy(s1))
    pooled = g.maximum(m1, g.copy(s2))
    g.write_back(pooled, name="pooled")

    compiled = g.compile()
    chip = TspChip(config, trace=True)
    result = execute(compiled, chip=chip, replay=False)

    print("Figure 11 — instruction schedule for the pooling pipeline")
    print(f"({compiled.stats.instructions} instructions, "
          f"{result.run.cycles} cycles; solid runs are streaming operands, "
          "as in the paper's figure)\n")
    print(render_schedule(chip.trace, max_width=110))

    # verify the pooling core against a host oracle
    x = image[1]
    shifted1 = np.zeros_like(x)
    shifted1[:-1] = x[1:]
    shifted2 = np.zeros_like(x)
    shifted2[:-2] = x[2:]
    oracle = np.maximum(x, np.maximum(shifted1, shifted2))
    assert np.array_equal(result["pooled"][0], oracle)
    print("\n1x3 max window verified against the host oracle")

    full_2d_maxpool(config)


def full_2d_maxpool(config) -> None:
    """The real thing: a complete 3x3 stride-2 max pool on chip.

    Vertical windows come from *temporal shifts* (the stream combined with
    1- and 2-row-delayed copies of itself), horizontal windows from SXM
    lane shifts, reductions on the VXM — the image never round-trips
    through memory between the arms.
    """
    from repro.nn.layers import MaxPool2D

    rng = np.random.default_rng(11)
    image = rng.integers(-90, 90, (10, 64)).astype(np.int8)

    g = StreamProgramBuilder(config)
    xh = g.constant_tensor("image", image)
    vmax = g.maximum(
        g.maximum(g.copy(xh), g.temporal_shift(xh, 1)),
        g.temporal_shift(xh, 2),
    )
    s1 = g.shift(vmax, 1)
    s2 = g.shift(vmax, 2)
    windowed = g.maximum(g.maximum(g.copy(vmax), g.copy(s1)), g.copy(s2))
    g.write_back(windowed, name="windows")
    result = execute(g.compile(), replay=False)

    pooled = result["windows"][2::2, 0:-2:2]
    reference = MaxPool2D(kernel=3, stride=2).forward(
        image.astype(np.float64)[None, None]
    )[0, 0]
    h, w = reference.shape
    assert np.array_equal(pooled[:h, :w].astype(np.float64), reference)
    print(f"\nfull 3x3/s2 max pool of a {image.shape[0]}x{image.shape[1]} "
          f"image computed on chip in {result.run.cycles} cycles — "
          "matches the reference pooling layer exactly")


if __name__ == "__main__":
    main()

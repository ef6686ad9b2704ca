"""Quickstart: the paper's Listing 1 — a streaming vector add, Z = X + Y.

Builds the dataflow program through the ``groq.api``-style frontend,
compiles it into a time-and-space instruction schedule for the full
320-lane TSP, executes it on the cycle-accurate simulator, and checks the
result.  Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.compiler import StreamProgramBuilder, execute
from repro.config import groq_tsp_v1


def main() -> None:
    config = groq_tsp_v1()
    print(f"chip: {config.n_lanes} lanes, {config.n_mem_slices} MEM slices, "
          f"{config.n_icus} instruction queues")

    # -- build (paper Listing 1) ---------------------------------------
    g = StreamProgramBuilder(config)
    rng = np.random.default_rng(0)
    x_data = rng.integers(-100, 100, (8, 320)).astype(np.int8)
    y_data = rng.integers(-100, 100, (8, 320)).astype(np.int8)
    x = g.constant_tensor("x", x_data)
    y = g.constant_tensor("y", y_data)
    z = g.add(x, y)  # Read S1,X / Read S2,Y / Add S1,S2,S3 / Write S3,Z
    g.write_back(z, name="z")

    # -- compile ---------------------------------------------------------
    compiled = g.compile()
    print(f"compiled: {compiled.stats.instructions} instructions over "
          f"{compiled.stats.makespan} cycles "
          f"({compiled.stats.nops_inserted} NOPs pad the schedule)")
    print()
    print(compiled.program.listing()[:1200])

    # -- execute on the cycle-accurate simulator -------------------------
    result = execute(compiled, replay=False)
    expected = np.clip(
        x_data.astype(np.int64) + y_data.astype(np.int64), -128, 127
    ).astype(np.int8)
    assert np.array_equal(result["z"], expected)
    print(f"simulated {result.run.cycles} cycles, "
          f"{result.run.instructions} instructions dispatched")
    print(f"Z = X + Y verified on all {x_data.size} elements")
    print(f"at {config.clock_ghz} GHz this program takes "
          f"{result.run.seconds(config.clock_ghz) * 1e9:.0f} ns, "
          "identical on every run — the TSP is deterministic")


if __name__ == "__main__":
    main()

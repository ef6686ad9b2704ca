"""Emit ``BENCH_scaleout.json`` — executed vs analytic pipeline scale-out.

The scale-out story has two layers in this repo, one record
(:class:`repro.nn.ScaleOut`) for both:

* **analytic** — :func:`repro.nn.scaleout.scale_out`: the paper-style
  first-order model (Section V.C) over :class:`~repro.nn.resnet.LayerSpec`
  descriptions, here derived from the runner's own lowered layers
  (:func:`layer_specs`); cycles are predicted, links are a fixed-latency
  term.
* **executed** — :func:`repro.nn.scaleout.execute_pipeline`: a
  contiguous partition priced by the compiler's closed form
  (:func:`repro.nn.scaleout.plan_runner_partition`) actually *run* on a
  :meth:`~repro.sim.MultiChipSystem.ring` of simulated chips, activations
  forwarded between stages by compiler-scheduled C2C ``Send``/``Receive``
  pairs, per-stage cycles read back from :class:`~repro.sim.chip.RunResult`.

This bench is the one scale-out command: it runs a paced CNN workload
(four matrix layers on 8x8 images, a batch of 6, seed 0) through both at
1, 2, and 4 chips, prints each executed stage, and reports
throughput/latency per chip count side by side.  Every number lives in
the deterministic chip-cycle domain and the file names no host, so two
runs write the same bytes — CI diffs the output against the committed
artifact — and the run (about a second) gates on:

* zero executed-vs-oracle logit mismatches at every chip count
  (the tentpole bit-exactness claim, dense oracle vs pipelined int8
  forwarding),
* executed 2-chip efficiency >= 0.75, and
* executed 4-chip throughput >= 1.5x executed single-chip throughput.

Artifact schema (``tsp-scaleout-bench/2``)::

    {
      "schema": "tsp-scaleout-bench/2",
      "workload": {"model": ..., "image_size": ..., "batch": ...,
                   "seed": ...},
      "single_chip": {"cycles_per_input": ..., "throughput_ips": ...},
      "chips": [
        {"n_chips": n,
         "executed": {"throughput_ips": ..., "latency_us": ...,
                      "bottleneck_cycles": ..., "transfer_cycles": ...,
                      "stages": [{"chip": c, "layer_names": [...],
                                  "cycles": ..., "egress_vectors": ...,
                                  "transfer_cycles": ...}],
                      "speedup": ..., "efficiency": ...},
         "analytic": {... the same record, without speedup/efficiency},
         "mismatches": 0},
        ...
      ],
      "speedup_4chip": ...,
      "mismatches": 0
    }
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

sys.path.insert(
    0, __file__.rsplit("/", 2)[0] + "/src"
)  # runnable standalone from a checkout

from repro.config import small_test_chip  # noqa: E402
from repro.nn import (  # noqa: E402
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    ScaleOut,
    Sequential,
    execute_pipeline,
    make_shapes,
    plan_runner_partition,
    scale_out,
)
from repro.nn.resnet import LayerKind, LayerSpec  # noqa: E402
from repro.nn.tsp_inference import CompiledLayer, TspCnnRunner  # noqa: E402


def bench_model(seed: int = 0) -> Sequential:
    """Four matrix layers — enough pipeline depth for a 4-chip ring."""
    rng = np.random.default_rng(seed)
    return Sequential([
        Conv2D(1, 4, kernel=3, rng=rng),
        ReLU(),
        Conv2D(4, 4, kernel=3, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(4, 8, kernel=3, rng=rng),
        ReLU(),
        Flatten(),
        Dense(8 * 4 * 4, 3, rng=rng),
    ])


def layer_specs(runner: TspCnnRunner) -> list[LayerSpec]:
    """The runner's matrix layers, described for the analytic estimator:
    ``K / kernel²`` input channels, ``M`` outputs, and one input's rows
    (``rows_per_input``) as the square output size."""
    specs = []
    for layer in runner.layers:
        if not isinstance(layer, CompiledLayer):
            continue
        k, m = layer.weight_q.shape
        conv = layer.conv
        kernel, stride = (conv.kernel, conv.stride) if conv else (1, 1)
        size = math.isqrt(layer.rows_per_input)
        specs.append(LayerSpec(
            layer.name, LayerKind.CONV if conv else LayerKind.FC,
            k // kernel**2, m, kernel, stride, size * stride, size,
        ))
    return specs


#: inputs per run, and the seed of the data and the weights
BATCH = 6
SEED = 0


def record_row(record: ScaleOut) -> dict:
    """One scale-out record as an artifact row."""
    return {
        "throughput_ips": record.throughput_ips,
        "latency_us": record.latency_us,
        "bottleneck_cycles": record.bottleneck_cycles,
        "transfer_cycles": record.transfer_cycles,
        "stages": [asdict(stage) for stage in record.stages],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-o", "--output", default="BENCH_scaleout.json")
    args = parser.parse_args(argv)

    config = small_test_chip()
    data = make_shapes(n_train=64, n_test=BATCH,
                       image_size=8, n_classes=3, seed=SEED)
    runner = TspCnnRunner(
        bench_model(SEED), config, data.x_train[:32],
        max_vectors_per_program=32,
    )
    x = data.x_test[:BATCH]
    oracle = runner.forward(x)
    single_cycles = -(-oracle.total_cycles // BATCH)
    single_ips = config.clock_ghz * 1e9 / single_cycles
    specs = layer_specs(runner)

    chips_rows = []
    total_mismatches = 0
    for n_chips in (1, 2, 4):
        result = execute_pipeline(
            runner, x, plan_runner_partition(runner, n_chips)
        )
        executed = result.executed
        mismatches = int(
            np.sum(~np.all(result.logits == oracle.logits, axis=-1))
        )
        total_mismatches += mismatches
        analytic = scale_out(specs, config, n_chips)
        chips_rows.append({
            "n_chips": n_chips,
            "executed": {
                **record_row(executed),
                "speedup": executed.speedup_vs(single_ips),
                "efficiency": executed.efficiency(single_ips),
            },
            "analytic": record_row(analytic),
            "mismatches": mismatches,
        })
        print(
            f"chips={n_chips}: executed "
            f"{executed.throughput_ips:,.0f} ips "
            f"({executed.bottleneck_cycles} cyc bottleneck, "
            f"{executed.transfer_cycles} transfer cyc), analytic "
            f"{analytic.throughput_ips:,.0f} ips, "
            f"mismatches={mismatches}"
        )
        for stage in executed.stages:
            print(
                f"  chip {stage.chip}: {'+'.join(stage.layer_names):<16} "
                f"{stage.cycles:>8} cycles"
                + (f"   -> {stage.egress_vectors} vectors "
                   f"({stage.transfer_cycles} transfer cycles)"
                   if stage.egress_vectors else "")
            )

    executed_at = {row["n_chips"]: row["executed"] for row in chips_rows}
    speedup4 = executed_at[4]["speedup"]
    efficiency2 = executed_at[2]["efficiency"]
    artifact = {
        "schema": "tsp-scaleout-bench/2",
        "workload": {
            "model": "conv4 CNN (3 conv + fc, four matrix layers)",
            "image_size": 8,
            "batch": BATCH,
            "seed": SEED,
        },
        "single_chip": {
            "cycles_per_input": single_cycles,
            "throughput_ips": single_ips,
        },
        "chips": chips_rows,
        "speedup_4chip": speedup4,
        "mismatches": total_mismatches,
    }
    with open(args.output, "w") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    failures = []
    if total_mismatches:
        failures.append(
            f"{total_mismatches} executed logits diverged from the "
            "single-chip oracle"
        )
    if efficiency2 < 0.75:
        failures.append(
            f"2-chip executed efficiency {efficiency2:.2f} < 0.75 gate"
        )
    if speedup4 < 1.5:
        failures.append(
            f"4-chip executed speedup {speedup4:.2f}x < 1.5x gate"
        )
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

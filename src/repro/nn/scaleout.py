"""Multi-chip pipeline-parallel scale-out (an extension of Section II's
C2C design).

The paper provisions 3.84 Tb/s of deterministic chip-to-chip bandwidth "to
support high-radix interconnection networks of TSPs for large-scale
systems" but publishes no multi-chip results; this module covers the
natural deployment — pipeline parallelism, one contiguous group of layers
per chip, activations forwarded over C2C — twice over, into one record
(:class:`ScaleOut`, a list of :class:`PipelineStage`):

* **Analytic** (:func:`scale_out`): the closed-form deterministic cycle
  model over :mod:`repro.nn.perfmodel` layer estimates.  Because every
  stage is deterministic, pipeline throughput is exactly the slowest
  stage's rate and latency is exactly the sum of stages plus link hops:
  no queueing model is needed, which is itself the paper's point.
* **Executed** (:func:`execute_pipeline`): the same partition, actually
  run.  Each stage's matmul programs execute on its own chip of a
  :meth:`repro.sim.MultiChipSystem.ring`, and every stage boundary runs
  the compiler's transfer for it
  (:meth:`repro.compiler.PartitionPlan.transfer`: compiler-scheduled C2C
  ``Send``/``Receive`` programs and their plan) — the per-stage cycles
  are the programs' own, not modeled, and the logits are bit-identical
  to the single-chip oracle (quantize-before-ship commutes with the
  consumer's layout glue; see
  :meth:`~repro.nn.tsp_inference.TspCnnRunner.quantize_boundary`).

Both partition through :meth:`repro.compiler.PartitionPlan.plan`; this
module plans nothing about a boundary, it only runs what the compiler
planned.  An executed partition is priced by the compiler's closed form
(:func:`plan_runner_partition`).  ``benchmarks/bench_scaleout.py``
reports both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.partition import PartitionPlan, pack_payload, unpack_payload
from ..config import ArchConfig
from ..errors import ConfigError
from ..obs import rtrace
from ..sim.c2c import DEFAULT_LINK_LATENCY
from ..sim.multichip import MultiChipSystem
from .perfmodel import estimate_network
from .resnet import LayerSpec
from .tsp_inference import ChunkRunStats, CompiledLayer, TspCnnRunner


@dataclass(frozen=True)
class PipelineStage:
    """One chip's share of a pipeline.

    ``cycles`` are the stage's compute cycles and ``transfer_cycles``
    its C2C forwarding to the next chip, both over the record's
    ``n_inputs``; ``egress_vectors`` are the vectors it forwards (0 on
    the last stage, which feeds the host).
    """

    chip: int
    layer_names: list[str]
    cycles: int
    egress_vectors: int
    transfer_cycles: int


@dataclass(frozen=True)
class ScaleOut:
    """A pipeline deployment across N chips, analytic or executed.

    Cycle figures cover a batch of ``n_inputs`` inputs; throughput and
    latency normalize per input, so a modeled and a measured record
    compare directly.
    """

    stages: list[PipelineStage]
    config: ArchConfig
    n_inputs: int = 1

    @property
    def n_chips(self) -> int:
        return len(self.stages)

    @property
    def bottleneck_cycles(self) -> int:
        """Slowest stage's cycles, per input."""
        return max(
            -(-stage.cycles // self.n_inputs) for stage in self.stages
        )

    @property
    def transfer_cycles(self) -> int:
        """C2C forwarding cycles across the batch."""
        return sum(stage.transfer_cycles for stage in self.stages)

    @property
    def throughput_ips(self) -> float:
        """Pipelined: one input per bottleneck-stage interval."""
        return self.config.clock_ghz * 1e9 / self.bottleneck_cycles

    @property
    def latency_us(self) -> float:
        """End-to-end per input: all stages plus link transfers."""
        total = sum(s.cycles for s in self.stages) + self.transfer_cycles
        return (total / self.n_inputs) / (self.config.clock_ghz * 1e3)

    def speedup_vs(self, single_chip_ips: float) -> float:
        return self.throughput_ips / single_chip_ips

    def efficiency(self, single_chip_ips: float) -> float:
        return self.speedup_vs(single_chip_ips) / self.n_chips


def scale_out(
    specs: list[LayerSpec], config: ArchConfig, n_chips: int
) -> ScaleOut:
    """Plan a pipeline-parallel deployment of a network over N chips.

    Stage boundaries are billed one vector per cycle plus the link's
    fixed latency.
    """
    if n_chips < 1:
        raise ValueError("need at least one chip")
    layers = estimate_network(specs, config).layers
    plan = PartitionPlan.plan(
        [layer.name for layer in layers],
        [layer.cycles for layer in layers],
        n_chips, config, DEFAULT_LINK_LATENCY,
    )
    spec_by_name = {spec.name: spec for spec in specs}
    stages: list[PipelineStage] = []
    for stage in plan.stages:
        # the last stage feeds the host, not another chip
        last = stage.chip == n_chips - 1
        out_elems = spec_by_name[stage.names[-1]].output_elements
        egress = 0 if last else -(-out_elems // config.n_lanes)
        stages.append(
            PipelineStage(
                chip=stage.chip,
                layer_names=list(stage.names),
                cycles=sum(layers[i].cycles for i in stage.items),
                egress_vectors=egress,
                transfer_cycles=0 if last else egress + plan.link_latency,
            )
        )
    return ScaleOut(stages=stages, config=config)


# ----------------------------------------------------------------------
# Executed pipeline parallelism


def plan_runner_partition(
    runner: TspCnnRunner, n_chips: int
) -> PartitionPlan:
    """Partition a lowered runner's matrix layers over ``n_chips``.

    Stage boundaries fall immediately before a matrix layer; the host
    glue between two matrix layers (pooling, flatten, dequant+ReLU)
    belongs to the *producer's* stage, so what crosses the C2C boundary
    is always the compact activation tensor, quantized into the
    consumer's int8 input domain.  Each layer is priced at one input's
    rows as the chip runs them
    (:meth:`~repro.nn.tsp_inference.TspCnnRunner.predicted_cycles`, the
    closed form that also picks its rows a vector).
    """
    matrices = [
        layer for layer in runner.layers
        if isinstance(layer, CompiledLayer)
    ]
    return PartitionPlan.plan(
        [layer.name for layer in matrices],
        [runner.predicted_cycles(layer, layer.rows_per_input)
         for layer in matrices],
        n_chips,
        runner.config,
        DEFAULT_LINK_LATENCY,
    )


def _stage_segments(
    runner: TspCnnRunner, plan: PartitionPlan
) -> list[tuple[int, int]]:
    """Map the plan's matrix-layer stages to ``runner.layers`` ranges."""
    matrix_positions = [
        i for i, layer in enumerate(runner.layers)
        if isinstance(layer, CompiledLayer)
    ]
    starts = [
        0 if index == 0 else matrix_positions[stage.items[0]]
        for index, stage in enumerate(plan.stages)
    ]
    bounds = starts + [len(runner.layers)]
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass
class PipelineRunResult:
    """Everything one executed pipeline inference produced."""

    logits: np.ndarray
    plan: PartitionPlan
    executed: ScaleOut


def execute_pipeline(
    runner: TspCnnRunner,
    x: np.ndarray,
    plan: PartitionPlan,
    *,
    system=None,
    cache=None,
    stats: ChunkRunStats | None = None,
    blacklist=None,
) -> PipelineRunResult:
    """Run one batch through the executed pipeline ``plan`` describes
    (:func:`plan_runner_partition`; its chip count is the pipeline's).

    Stage ``i``'s layers execute on ``system.chips[i]``; at each stage
    boundary the producer quantizes its compact activation tensor into
    the consumer's int8 domain, packs it into lane-wide byte vectors,
    and runs the compiler's transfer for the boundary
    (:meth:`~repro.compiler.PartitionPlan.transfer`, one cache lookup):
    the payload is staged on the producer, the transfer's plan lands it
    in the consumer's MEM and charges every chip with the timed
    ``Read -> Send -> Receive`` programs' run (where a chip's state
    record refuses the plan — an error model on a route link, a set
    instrument — the whole system simulates them in lockstep instead),
    and the consumer computes on exactly the bytes that landed in *its*
    MEM, so the logits stay bit-identical to the single-chip oracle.  A
    warm batch on a healthy ring simulates nothing.  Payloads larger
    than a MEM slice are chunked.
    One chip is a one-stage plan: the same loop, with no boundary.

    ``system`` defaults to a fresh :meth:`MultiChipSystem.ring`; pass a
    pooled one to reuse chips across batches (the serve path).  ``cache``
    is a :class:`repro.serve.ProgramCache`: matmul chunk programs share
    the single-chip cache entries, and transfer programs are cached under
    keys that incorporate the partition fingerprint.

    ``blacklist`` (a :class:`repro.resil.Blacklist`) serves degraded:
    matmul programs recompile around dead MEM slices / MXM planes (via
    the blacklist-aware cache key), and each transfer stages off
    blacklisted slices and re-routes a dead ring cable's hop the long way
    around — all bit-identical to the healthy run, because
    quantize-before-ship and store-and-forward never transform the
    payload.
    """
    config = runner.config
    n_chips = plan.n_chips
    if system is None:
        # a one-stage plan ships nothing, so a lone chip's self-ring
        # carries no traffic
        system = MultiChipSystem.ring(
            config, n_chips, loopback=True, latency=plan.link_latency
        )
    if len(system.chips) < n_chips:
        raise ConfigError(
            f"system has {len(system.chips)} chips, plan needs {n_chips}"
        )

    segments = _stage_segments(runner, plan)
    lanes = config.n_lanes
    words_cap = 1 << config.mem_addr_bits
    stages: list[PipelineStage] = []
    current = x
    for index, (start, stop) in enumerate(segments):
        chip = system.chips[index]
        # a per-stage span: this stage's execute spans (recorded by the
        # chunk executor via the ambient context) and its outbound
        # transfer spans nest under it rather than directly under the batch
        with rtrace.span("stage", nest=True) as stage_span:
            cycles = 0
            for position in range(start, stop):
                layer = runner.layers[position]
                current, layer_cycles = runner.apply_layer(
                    layer,
                    current,
                    chip=chip,
                    cache=cache,
                    stats=stats,
                    blacklist=blacklist,
                )
                cycles += layer_cycles
            egress_vectors = 0
            transfer_cycles = 0
            if index < n_chips - 1:
                consumer = runner.layers[segments[index + 1][0]]
                quantized = runner.quantize_boundary(consumer, current)
                words = pack_payload(quantized, lanes)
                egress_vectors = words.shape[0]
                landed = []
                for offset in range(0, words.shape[0], words_cap):
                    chunk = words[offset : offset + words_cap]
                    with rtrace.span("transfer") as hop:
                        transfer = plan.transfer(
                            system, index, chunk.shape[0],
                            blacklist=blacklist, cache=cache,
                        )
                        received, runs = transfer.run(system, chunk)
                        hop_cycles = runs[0].cycles  # lockstep: one count
                        if hop:
                            hop.anchor(
                                chip, hop_cycles, config.clock_ghz,
                                runs[index].trace,
                                hop=f"{index}->{index + 1}",
                                route=list(transfer.route),
                                vectors=int(chunk.shape[0]),
                            )
                    transfer_cycles += hop_cycles
                    landed.append(received)
                current = unpack_payload(
                    np.vstack(landed), quantized.shape, np.int8
                )
            if stage_span:
                stage_span.anchor(
                    chip, cycles, config.clock_ghz, stage=index,
                    layers=list(plan.stages[index].names),
                )
        stages.append(
            PipelineStage(
                chip=index,
                layer_names=list(plan.stages[index].names),
                cycles=cycles,
                egress_vectors=egress_vectors,
                transfer_cycles=transfer_cycles,
            )
        )
    executed = ScaleOut(stages=stages, config=config, n_inputs=x.shape[0])
    if stats is not None:
        stats.cycles += executed.transfer_cycles
    return PipelineRunResult(logits=current, plan=plan, executed=executed)

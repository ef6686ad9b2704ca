"""Multi-chip pipeline-parallel scale-out (an extension of Section II's
C2C design).

The paper provisions 3.84 Tb/s of deterministic chip-to-chip bandwidth "to
support high-radix interconnection networks of TSPs for large-scale
systems" but publishes no multi-chip results; this module covers the
natural deployment — pipeline parallelism, one contiguous group of layers
per chip, activations forwarded over C2C — twice over:

* **Analytic** (:func:`scale_out`): the closed-form deterministic cycle
  model over :mod:`repro.nn.perfmodel` layer estimates.  Because every
  stage is deterministic, pipeline throughput is exactly the slowest
  stage's rate and latency is exactly the sum of stages plus link hops:
  no queueing model is needed, which is itself the paper's point.
* **Executed** (:func:`execute_pipeline`): the same partition, actually
  run.  Each stage's matmul programs execute on its own chip of a
  :meth:`repro.sim.MultiChipSystem.ring`, and stage boundaries ship the
  int8 activations through compiler-scheduled C2C ``Send``/``Receive``
  programs (:func:`repro.resil.degrade.build_ring_transfer`) — the
  returned per-stage cycles are measured, not modeled, and the logits
  are bit-identical to the single-chip oracle (quantize-before-ship
  commutes with the consumer's layout glue; see
  :meth:`~repro.nn.tsp_inference.TspCnnRunner.quantize_boundary`).

``python -m repro.nn.scaleout`` runs a self-contained executed-vs-oracle
demo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import Hemisphere
from ..compiler.partition import (
    PartitionPlan,
    pack_payload,
    partition_contiguous,
    unpack_payload,
)
from ..config import ArchConfig
from ..errors import ConfigError
from ..obs import rtrace
from ..sim.c2c import DEFAULT_LINK_LATENCY
from .perfmodel import LayerEstimate, estimate_network
from .resnet import LayerSpec
from .tsp_inference import ChunkRunStats, CompiledLayer, TspCnnRunner

#: how a stage boundary's payload is staged and paced.  The staging
#: *slice* is an argument (a blacklist moves it); nothing moves these.
STAGE_BASE_ADDRESS = 0
TRANSFER_INTERVAL = 1  # cycles between the sends of a direct hop
TRANSFER_MAX_CYCLES = 2_000_000


@dataclass
class StagePlan:
    """One chip's share of the pipeline."""

    chip: int
    layer_names: list[str]
    cycles: int
    egress_vectors: int  # activation vectors forwarded to the next chip


@dataclass
class ScaleOutEstimate:
    """Pipeline-parallel deployment across N chips."""

    stages: list[StagePlan]
    config: ArchConfig
    link_latency: int

    @property
    def n_chips(self) -> int:
        return len(self.stages)

    @property
    def bottleneck_cycles(self) -> int:
        return max(stage.cycles for stage in self.stages)

    @property
    def transfer_cycles(self) -> int:
        """Inter-stage forwarding: one vector per cycle per link hop.

        Only hops between *non-empty* consecutive stages are billed: an
        empty stage computes nothing, receives nothing, and forwards
        nothing, so a partition padded with idle chips (as the planner
        produced before it learned to raise) must not inflate latency
        with phantom link traversals.
        """
        active = [stage for stage in self.stages if stage.layer_names]
        return sum(
            stage.egress_vectors + self.link_latency
            for stage in active[:-1]
        )

    @property
    def throughput_ips(self) -> float:
        """Pipelined: one image per bottleneck-stage interval."""
        return self.config.clock_ghz * 1e9 / self.bottleneck_cycles

    @property
    def latency_us(self) -> float:
        """End-to-end: all stages plus link transfers."""
        total = sum(s.cycles for s in self.stages) + self.transfer_cycles
        return total / (self.config.clock_ghz * 1e3)

    def speedup_vs(self, single_chip_ips: float) -> float:
        return self.throughput_ips / single_chip_ips

    def efficiency(self, single_chip_ips: float) -> float:
        return self.speedup_vs(single_chip_ips) / self.n_chips


def _partition_balanced(
    layers: list[LayerEstimate], n_chips: int
) -> list[list[LayerEstimate]]:
    """Greedy contiguous partition targeting equal per-stage cycles.

    Delegates to :func:`repro.compiler.partition.partition_contiguous`:
    every chip gets at least one layer, and asking for more chips than
    layers raises :class:`~repro.errors.ConfigError` instead of silently
    emitting empty stages.
    """
    groups = partition_contiguous(
        [layer.cycles for layer in layers], n_chips
    )
    return [[layers[i] for i in group] for group in groups]


def scale_out(
    specs: list[LayerSpec],
    config: ArchConfig,
    n_chips: int,
    link_latency: int = DEFAULT_LINK_LATENCY,
    optimized: bool = True,
) -> ScaleOutEstimate:
    """Plan a pipeline-parallel deployment of a network over N chips."""
    if n_chips < 1:
        raise ValueError("need at least one chip")
    network = estimate_network(specs, config, optimized=optimized)
    spec_by_name = {spec.name: spec for spec in specs}
    partitions = _partition_balanced(network.layers, n_chips)

    stages: list[StagePlan] = []
    for chip, part in enumerate(partitions):
        last = part[-1]
        out_elems = spec_by_name[last.name].output_elements
        egress = -(-out_elems // config.n_lanes)
        stages.append(
            StagePlan(
                chip=chip,
                layer_names=[l.name for l in part],
                cycles=sum(l.cycles for l in part),
                # the last stage feeds the host, not another chip
                egress_vectors=egress if chip < n_chips - 1 else 0,
            )
        )
    return ScaleOutEstimate(
        stages=stages, config=config, link_latency=link_latency
    )


# ----------------------------------------------------------------------
# Executed pipeline parallelism


def _matrix_cost(layer: CompiledLayer, lanes: int) -> float:
    """Per-input cycle proxy: streamed rows x K-tiles + weight install."""
    k = layer.weight_q.shape[0]
    k_tiles = -(-k // lanes)
    return float(layer.rows_per_input * k_tiles + k)


def plan_runner_partition(
    runner: TspCnnRunner,
    n_chips: int,
    link_latency: int = DEFAULT_LINK_LATENCY,
) -> PartitionPlan:
    """Partition a lowered runner's matrix layers over ``n_chips``.

    Stage boundaries fall immediately before a matrix layer; the host
    glue between two matrix layers (pooling, flatten, dequant+ReLU)
    belongs to the *producer's* stage, so what crosses the C2C boundary
    is always the compact activation tensor, quantized into the
    consumer's int8 input domain.
    """
    matrices = [
        layer for layer in runner.layers
        if isinstance(layer, CompiledLayer)
    ]
    return PartitionPlan.plan(
        [layer.name for layer in matrices],
        [_matrix_cost(layer, runner.config.n_lanes) for layer in matrices],
        n_chips,
        runner.config,
        link_latency,
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
class ExecutedStage:
    """One chip's measured share of an executed pipeline run."""

    chip: int
    layer_names: list[str]
    #: executed chip cycles of this stage's matmul programs (whole batch)
    cycles: int
    #: C2C payload vectors actually shipped to the next chip
    egress_vectors: int
    #: measured lockstep cycles of the forwarding runs out of this stage
    transfer_cycles: int


@dataclass
class ExecutedScaleOut:
    """Executed pipeline deployment: measured cycles, not modeled ones.

    The executed counterpart of :class:`ScaleOutEstimate` — per-stage
    ``cycles`` come from :class:`~repro.sim.chip.RunResult`, transfer
    cycles from the lockstep C2C runs.  All cycle figures cover a batch
    of ``n_inputs`` inputs; the throughput/latency properties normalize
    per input so the two models are directly comparable.
    """

    stages: list[ExecutedStage]
    config: ArchConfig
    link_latency: int
    n_inputs: int

    @property
    def n_chips(self) -> int:
        return len(self.stages)

    @property
    def bottleneck_cycles(self) -> int:
        """Slowest stage's executed cycles, per input."""
        return max(
            -(-stage.cycles // self.n_inputs) for stage in self.stages
        )

    @property
    def transfer_cycles(self) -> int:
        """Measured C2C forwarding cycles across the batch."""
        return sum(stage.transfer_cycles for stage in self.stages)

    @property
    def throughput_ips(self) -> float:
        """Pipelined: one input per bottleneck-stage interval."""
        return self.config.clock_ghz * 1e9 / self.bottleneck_cycles

    @property
    def latency_us(self) -> float:
        """End-to-end per input: all stages plus measured transfers."""
        total = sum(s.cycles for s in self.stages) + self.transfer_cycles
        return (total / self.n_inputs) / (self.config.clock_ghz * 1e3)

    def speedup_vs(self, single_chip_ips: float) -> float:
        return self.throughput_ips / single_chip_ips

    def efficiency(self, single_chip_ips: float) -> float:
        return self.speedup_vs(single_chip_ips) / self.n_chips


@dataclass
class PipelineRunResult:
    """Everything one executed pipeline inference produced."""

    logits: np.ndarray
    plan: PartitionPlan | None
    executed: ExecutedScaleOut
    stage_stats: list[ChunkRunStats] = field(default_factory=list)


def _pick_stage_slice(config: ArchConfig, stage_slice: int, blacklist):
    """First staging slice index healthy in *both* hemispheres.

    The pipeline stages activations in WEST MEM on direct hops, but a
    re-routed (westward) ring hop stages in EAST — so under a blacklist
    the staging index must be healthy on both sides, on every chip (the
    blacklist is chip-agnostic, like the compiler's).
    """
    if blacklist is None or not blacklist.mem_slices:
        return stage_slice
    n = config.mem_slices_per_hemisphere
    for index in range(stage_slice, n):
        if (Hemisphere.WEST, index) not in blacklist.mem_slices and (
            Hemisphere.EAST, index
        ) not in blacklist.mem_slices:
            return index
    raise ConfigError(
        "no healthy MEM slice left to stage pipeline transfers in"
    )


def _ring_transfer_for(
    system, route, n_words, *, fingerprint, cache, stage_slice
):
    """Build (or fetch) the timed store-and-forward plan for one route.

    The plan's dispatch schedule is a pure function of (route, word
    count, staging layout, per-cable arrival latencies) — the key folds
    all of them in, so replacing a cable's error model (different retry
    slack) recompiles rather than replaying a stale schedule.  The
    payload itself is *not* part of the plan: the caller re-loads it
    into the route head's staging slice before every run.
    """
    from ..resil.degrade import STORE_AND_FORWARD_INTERVAL, build_ring_transfer

    lanes = system.chips[0].config.n_lanes

    def factory():
        return build_ring_transfer(
            system, route,
            np.zeros((n_words, lanes), dtype=np.uint8),
            stage_slice=stage_slice, base_address=STAGE_BASE_ADDRESS,
            interval=(
                TRANSFER_INTERVAL if len(route) == 2
                else STORE_AND_FORWARD_INTERVAL
            ),
        )

    if cache is None or not hasattr(cache, "get_or_build"):
        return factory()
    n_chips = len(system.chips)
    eastward = route[1] == (route[0] + 1) % n_chips
    out_hemisphere = Hemisphere.EAST if eastward else Hemisphere.WEST
    latencies = "/".join(
        str(system.chips[a].c2c_unit(out_hemisphere).links[0].arrival_latency)
        for a in route[:-1]
    )
    key = (
        f"xfer:{fingerprint}:{'-'.join(map(str, route))}:{n_words}:"
        f"{latencies}:{stage_slice}"
    )
    return cache.get_or_build(key, factory)


def execute_pipeline(
    runner: TspCnnRunner,
    x: np.ndarray,
    n_chips: int,
    *,
    system=None,
    cache=None,
    stats: ChunkRunStats | None = None,
    plan: PartitionPlan | None = None,
    stage_slice: int = 0,
    blacklist=None,
) -> PipelineRunResult:
    """Run one batch through an executed N-chip pipeline.

    Stage ``i``'s layers execute on ``system.chips[i]``; at each stage
    boundary the producer quantizes its compact activation tensor into
    the consumer's int8 domain, packs it into lane-wide byte vectors,
    stages it in its WEST MEM slice, and the whole system runs the
    compiler-scheduled ``Read -> Send -> Receive`` transfer in lockstep —
    the consumer then computes on exactly the bytes that landed in *its*
    MEM, so the transport is honest and the logits stay bit-identical to
    the single-chip oracle.  Payloads larger than the staging slice are
    chunked.

    ``system`` defaults to a fresh :meth:`MultiChipSystem.ring`; pass a
    pooled one to reuse chips across batches (the serve path).  ``cache``
    is a :class:`repro.serve.ProgramCache`: matmul chunk programs share
    the single-chip cache entries, and transfer programs are cached under
    keys that incorporate the partition fingerprint.

    ``blacklist`` (a :class:`repro.resil.Blacklist`) serves degraded:
    matmul programs recompile around dead MEM slices / MXM planes (via
    the blacklist-aware cache key), staging moves off blacklisted
    slices, and a dead ring cable re-routes the affected hop the long
    way around through :func:`repro.resil.plan_ring_route` — all
    bit-identical to the healthy run, because quantize-before-ship and
    store-and-forward never transform the payload.
    """
    from ..resil.degrade import plan_ring_route
    from ..sim.chip import TspChip
    from ..sim.multichip import MultiChipSystem

    config = runner.config
    if n_chips == 1:
        chip = system.chips[0] if system is not None else TspChip(config)
        current = x
        cycles = 0
        names: list[str] = []
        for layer in runner.layers:
            current, layer_cycles = runner.apply_layer(
                layer, current, chip=chip, cache=cache, stats=stats,
                blacklist=blacklist,
            )
            cycles += layer_cycles
            if isinstance(layer, CompiledLayer):
                names.append(layer.name)
        executed = ExecutedScaleOut(
            stages=[ExecutedStage(0, names, cycles, 0, 0)],
            config=config,
            link_latency=DEFAULT_LINK_LATENCY,
            n_inputs=x.shape[0],
        )
        return PipelineRunResult(
            logits=current, plan=plan, executed=executed,
            stage_stats=[stats] if stats is not None else [],
        )

    if plan is None:
        plan = plan_runner_partition(runner, n_chips)
    if plan.n_chips != n_chips:
        raise ConfigError(
            f"partition plan covers {plan.n_chips} chips, asked to "
            f"execute on {n_chips}"
        )
    if system is None:
        system = MultiChipSystem.ring(
            config, n_chips, latency=plan.link_latency
        )
    if len(system.chips) < n_chips:
        raise ConfigError(
            f"system has {len(system.chips)} chips, plan needs {n_chips}"
        )

    segments = _stage_segments(runner, plan)
    lanes = config.n_lanes
    stage_slice = _pick_stage_slice(config, stage_slice, blacklist)
    dead_cables = (
        frozenset(blacklist.ring_cables)
        if blacklist is not None and blacklist.ring_cables
        else frozenset()
    )
    ring_n = len(system.chips)
    words_cap = (1 << config.mem_addr_bits) - STAGE_BASE_ADDRESS
    stage_stats = [ChunkRunStats() for _ in range(n_chips)]
    stages: list[ExecutedStage] = []
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
                    stats=stage_stats[index],
                    prequantized=(index > 0 and position == start),
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
                # a dead ring cable re-routes this hop the long way around
                route = (
                    plan_ring_route(ring_n, index, index + 1, dead_cables)
                    if dead_cables else [index, index + 1]
                )
                landed = []
                for offset in range(0, words.shape[0], words_cap):
                    chunk = words[offset : offset + words_cap]
                    with rtrace.span("transfer") as hop:
                        ring_plan = _ring_transfer_for(
                            system, route, chunk.shape[0],
                            fingerprint=plan.fingerprint, cache=cache,
                            stage_slice=stage_slice,
                        )
                        # the plan is payload-free: stage this chunk at
                        # the route head before every lockstep run
                        system.chips[route[0]].load_memory(
                            ring_plan.dst_hemisphere, stage_slice,
                            STAGE_BASE_ADDRESS, chunk,
                        )
                        runs = system.run(
                            ring_plan.programs,
                            max_cycles=TRANSFER_MAX_CYCLES,
                        )
                        hop_cycles = runs[0].cycles  # lockstep: one count
                        landed_words = system.chips[route[-1]].read_memory(
                            ring_plan.dst_hemisphere, stage_slice,
                            STAGE_BASE_ADDRESS, chunk.shape[0],
                        )
                        if hop:
                            hop.anchor(
                                chip, hop_cycles, config.clock_ghz,
                                runs[index].trace,
                                hop=f"{index}->{index + 1}",
                                route=list(route),
                                vectors=int(chunk.shape[0]),
                            )
                    transfer_cycles += hop_cycles
                    landed.append(
                        np.asarray(landed_words, dtype=np.uint8)
                    )
                received = np.vstack(landed)
                current = unpack_payload(received, quantized.shape, np.int8)
            if stage_span:
                stage_span.anchor(
                    chip, cycles, config.clock_ghz, stage=index,
                    layers=list(plan.stages[index].names),
                )
        stages.append(
            ExecutedStage(
                chip=index,
                layer_names=list(plan.stages[index].names),
                cycles=cycles,
                egress_vectors=egress_vectors,
                transfer_cycles=transfer_cycles,
            )
        )
    if stats is not None:
        for per_stage in stage_stats:
            stats.merge(per_stage)
        stats.cycles += sum(stage.transfer_cycles for stage in stages)
    executed = ExecutedScaleOut(
        stages=stages,
        config=config,
        link_latency=plan.link_latency,
        n_inputs=x.shape[0],
    )
    return PipelineRunResult(
        logits=current, plan=plan, executed=executed,
        stage_stats=stage_stats,
    )


# ----------------------------------------------------------------------
# `python -m repro.nn.scaleout` — executed-vs-oracle demo


def main(argv: list[str] | None = None) -> int:
    """Partition a small CNN over a ring and check it against the oracle."""
    import argparse

    from ..config import small_test_chip
    from .dataset import make_shapes
    from .layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
    from .model import Sequential
    from .training import make_small_cnn, train

    parser = argparse.ArgumentParser(
        description="executed multi-chip pipeline demo"
    )
    parser.add_argument("--chips", type=int, default=2)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = small_test_chip()
    data = make_shapes(
        n_train=96, n_test=16, image_size=8, n_classes=3, seed=args.seed
    )
    if args.chips <= 3:
        model = make_small_cnn(3, channels=4, image_size=8, seed=args.seed)
    else:
        # four matrix layers, enough pipeline depth for a 4-chip ring
        rng = np.random.default_rng(args.seed)
        model = Sequential([
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
    train(model, data, epochs=2, lr=0.1, seed=args.seed)
    runner = TspCnnRunner(
        model, config, data.x_train[:32], max_vectors_per_program=32
    )
    x = data.x_test[: args.batch]

    oracle = runner.forward(x)
    result = execute_pipeline(runner, x, args.chips)
    executed = result.executed
    exact = bool(np.array_equal(oracle.logits, result.logits))

    print(f"pipeline over {args.chips} chips, batch {args.batch}:")
    for stage in executed.stages:
        print(
            f"  chip {stage.chip}: {'+'.join(stage.layer_names):<16} "
            f"{stage.cycles:>8} cycles"
            + (
                f"   -> {stage.egress_vectors} vectors "
                f"({stage.transfer_cycles} transfer cycles)"
                if stage.chip < executed.n_chips - 1
                else ""
            )
        )
    print(
        f"  bottleneck {executed.bottleneck_cycles} cycles/input vs "
        f"single-chip {-(-oracle.total_cycles // x.shape[0])}"
    )
    print(f"  bit-exact vs single-chip oracle: {exact}")
    return 0 if exact else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())

"""``python -m repro.report`` — regenerate the paper-vs-measured summary.

A dependency-free way to reproduce the headline numbers without pytest:
prints one report per experiment family (bandwidth budget, compute
density, weight load, barrier, ResNet operating points, optimization
ablation, comparisons, roofline, power trace, determinism) using the same
library calls the benchmark suite makes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .arch.area import AreaModel
from .baselines import GOYA, GpuModel, Roofline, TPU_V3, V100
from .bench import ExperimentReport, ascii_series
from .config import groq_tsp_v1, small_test_chip
from .nn import (
    estimate_network,
    resnet_layers,
    weight_install_summary,
)


@dataclass
class MeasuredTelemetry:
    """Counter-registry readout of one profiled on-chip workload.

    The measured rows in the experiment reports read from this — the
    telemetry registry of real simulated runs — rather than each report
    recomputing its own ad-hoc tallies from ``RunResult`` fields.
    """

    config: object  # the simulated chip's ArchConfig (test scale)
    collectors: list
    layer_cycles: dict[str, int]

    @property
    def cycles(self) -> int:
        return sum(c.cycles for c in self.collectors)

    def total(self, domain: str, counter: str) -> int:
        return sum(
            sum(c.domain_windows(domain, counter).values())
            for c in self.collectors
        )

    def per_cycle(self, domain: str, counter: str) -> float:
        return self.total(domain, counter) / max(1, self.cycles)

    @property
    def sram_bytes_per_cycle(self) -> float:
        """SRAM traffic per cycle: MEM reads + writes + instruction fetch."""
        return (
            self.total("mem", "read_bytes")
            + self.total("mem", "write_bytes")
            + self.total("icu", "ifetch_bytes")
        ) / max(1, self.cycles)

    @property
    def stream_bytes_per_cycle(self) -> float:
        return self.per_cycle("srf", "hop_bytes")


def measure_on_chip() -> MeasuredTelemetry:
    """Run a small CNN's on-chip inference with telemetry attached.

    The same deployment path as E17 (``TspCnnRunner``), at test-chip
    scale, profiled through :class:`repro.obs.AutoTelemetry`: one
    collector per compiled layer program, whose counter registry the
    measured report rows read from.
    """
    from .nn import TspCnnRunner, make_shapes, make_small_cnn
    from .obs import AutoTelemetry

    config = small_test_chip()
    data = make_shapes(
        n_train=32, n_test=4, image_size=12, n_classes=3, seed=3
    )
    model = make_small_cnn(3, channels=4, image_size=12, seed=3)
    runner = TspCnnRunner(model, config, calibration=data.x_train[:16])
    auto = AutoTelemetry(window_cycles=128)
    with auto:
        result = runner.forward(data.x_test[:2])
    return MeasuredTelemetry(
        config=config,
        collectors=auto.collectors,
        layer_cycles=dict(result.layer_cycles),
    )


def bandwidth_report(
    config, measured: MeasuredTelemetry | None = None
) -> ExperimentReport:
    report = ExperimentReport("E11", "Bandwidth budget (Eq. 1, Eq. 2)")
    report.add("Eq.1 stream registers", 20.0,
               config.paper_tib_per_s(config.stream_bytes_per_cycle),
               "paper-TiB/s")
    report.add("Eq.2 SRAM", 55.0,
               config.paper_tib_per_s(config.sram_bytes_per_cycle),
               "paper-TiB/s")
    report.add("instruction fetch", 2.25,
               config.paper_tib_per_s(config.ifetch_bytes_per_cycle),
               "paper-TiB/s")
    report.add("on-chip SRAM", 220, config.mem_total_bytes / 2**20, "MiB")
    report.add("C2C off-chip", 3.84, config.c2c_tbps, "Tb/s")
    if measured is not None:
        small = measured.config
        report.add(
            "measured SRAM traffic (CNN, test chip)",
            f"<= {small.sram_bytes_per_cycle}",
            round(measured.sram_bytes_per_cycle, 1), "B/cycle",
            note="telemetry registry: mem + ifetch",
        )
        # chip-wide hop bytes may exceed the Eq.1 export figure: every
        # SRF position hops concurrently, Eq.1 counts the slice-facing
        # read/write ports only
        report.add(
            "measured stream hops (CNN, test chip)", "—",
            round(measured.stream_bytes_per_cycle, 1), "B/cycle",
            note="telemetry registry: srf",
        )
    return report


def density_report(
    config, measured: MeasuredTelemetry | None = None
) -> ExperimentReport:
    area = AreaModel(config)
    report = ExperimentReport("E16", "Compute density (conclusion)")
    report.add("peak @ 1 GHz", 820, round(config.peak_teraops(1.0), 1),
               "TeraOps/s")
    report.add("density", "> 1", round(config.teraops_per_mm2(1.0), 2),
               "TeraOps/s/mm^2")
    report.add("TSP ops/s/transistor", 30_000,
               round(area.tsp_ops_per_transistor()))
    report.add("V100 ops/s/transistor", 6_200,
               round(area.comparator_ops_per_transistor(
                   V100.peak_teraops, V100.transistors)))
    if measured is not None:
        report.add(
            "measured MACC ops/cycle (CNN, test chip)", "—",
            round(measured.per_cycle("mxm", "macc_ops"), 1),
            note="telemetry registry: mxm",
        )
    return report


def weight_load_report(config) -> ExperimentReport:
    summary = weight_install_summary(config)
    report = ExperimentReport("E09", "Weight load (Section V-b)")
    report.add("weights", 409_600, summary["weights"])
    report.add("cycles incl. transit", "< 40", summary["with_transit"])
    return report


def resnet_report(
    config, measured: MeasuredTelemetry | None = None
) -> tuple[ExperimentReport, object]:
    paper = {50: 20_400, 101: 14_300, 152: 10_700}
    report = ExperimentReport("E06/E07", "ResNet family, batch 1 @ 900 MHz")
    resnet50 = None
    for depth, paper_ips in paper.items():
        estimate = estimate_network(resnet_layers(depth), config)
        if depth == 50:
            resnet50 = estimate
            report.add("ResNet50 latency", 49.0,
                       round(estimate.latency_us, 1), "us")
        report.add(f"ResNet{depth} throughput", paper_ips,
                   round(estimate.ips), "IPS")
    naive = estimate_network(resnet_layers(50), config, optimized=False)
    report.add("optimization saving (E12)", 5_500,
               naive.total_cycles - resnet50.total_cycles, "cycles")
    if measured is not None:
        # the simulated CNN companion (E17 path): registry-counted MACCs
        # ground the family's analytic cycle model in a measured run
        report.add(
            "CNN-on-chip cycles (measured, test chip)", "—",
            measured.cycles,
            note=", ".join(
                f"{k} {v}" for k, v in measured.layer_cycles.items()
            ),
        )
        report.add(
            "CNN-on-chip MACCs (measured, test chip)", "—",
            measured.total("mxm", "macc_ops"),
            note="telemetry registry: mxm",
        )
    return report, resnet50


def comparison_report(config, resnet50) -> ExperimentReport:
    gpu = GpuModel()
    layers = resnet_layers(50)
    report = ExperimentReport("E08", "vs published accelerators")
    report.add("vs TPU v3 large batch", 2.5,
               round(resnet50.ips / TPU_V3.resnet50_ips, 2), "x")
    report.add("latency vs Goya batch-1", "~5",
               round(GOYA.batch1_latency_us / resnet50.latency_us, 2), "x")
    report.add("vs GPU-class batch 128", "~4",
               round(resnet50.ips / gpu.throughput_ips(layers, 128), 2),
               "x")
    return report


def determinism_report(config) -> ExperimentReport:
    from .compiler import StreamProgramBuilder, execute

    small = small_test_chip()
    rng = np.random.default_rng(0)
    g = StreamProgramBuilder(small)
    x = g.constant_tensor("x", rng.integers(-9, 9, (4, 64)).astype(np.int8))
    g.write_back(g.relu(x), name="y")
    compiled = g.compile()
    cycles = {execute(compiled, replay=False).run.cycles for _ in range(3)}
    report = ExperimentReport("E15", "Determinism (Section IV-F)")
    report.add("distinct cycle counts over 3 runs", 1, len(cycles))
    report.add("cycles", "—", cycles.pop())
    return report


def transformer_report(config) -> ExperimentReport:
    from .nn import (
        TransformerConfig,
        estimate_decode,
        estimate_transformer,
        transformer_macs,
    )

    t_config = TransformerConfig()
    prefill = estimate_transformer(t_config, config)
    decode = estimate_decode(t_config, config, context_len=1024)
    ops = 2 * transformer_macs(t_config)
    sustained = ops / (prefill.prefill_latency_us / 1e6) / 1e12
    report = ExperimentReport("E20", "Transformer decoder (extension)")
    report.add("prefill rate (seq 256)", "—",
               round(prefill.tokens_per_second), "tokens/s")
    report.add("prefill sustained", "compute-bound",
               f"{sustained / config.peak_teraops():.0%} of peak")
    report.add("decode rate (ctx 1024)", "—",
               round(decode.tokens_per_second), "tokens/s")
    report.add("decode sustained", "memory-bound",
               f"{decode.sustained_teraops() / config.peak_teraops():.1%} "
               "of peak")
    return report


def scaleout_report(config) -> ExperimentReport:
    from .nn import resnet_layers, scale_out

    layers = resnet_layers(50)
    single = estimate_network(layers, config)
    report = ExperimentReport("E19", "Pipeline scale-out (extension)")
    for n in (2, 4, 8):
        plan = scale_out(layers, config, n)
        report.add(f"{n}-chip ResNet50", "—",
                   round(plan.throughput_ips), "IPS",
                   note=f"{plan.efficiency(single.ips):.0%} efficiency")
    return report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python -m repro.report (takes no arguments; the "
              "conformance sweep is python -m repro.verify)", file=sys.stderr)
        return 2
    config = groq_tsp_v1()
    print("Groq TSP reproduction — paper-vs-measured summary\n")

    measured = measure_on_chip()
    report, resnet50 = resnet_report(config, measured)
    sections = [
        bandwidth_report(config, measured),
        density_report(config, measured),
        weight_load_report(config),
        report,
        comparison_report(config, resnet50),
        determinism_report(config),
        scaleout_report(config),
        transformer_report(config),
    ]
    for section in sections:
        print(section.render())
        print()

    roofline = Roofline(config, clock_ghz=1.0)
    roof = roofline.series(list(np.logspace(-0.5, 4, 40)))
    marks = [
        (p.intensity, p.achieved_teraops, "o")
        for p in (
            roofline.matmul_point(320, 320, n) for n in (1, 49, 3136)
        )
    ]
    print(ascii_series(roof, logx=True, marks=marks,
                       title="Figure 9: roofline (o = measured points)"))
    print()

    estimate = estimate_network(resnet_layers(50), config)
    series = [(i, p) for i, (_n, p) in enumerate(estimate.power_trace())]
    print(ascii_series(series, width=72,
                       title="Figure 10: ResNet50 per-layer power (W)"))
    print("\nSee EXPERIMENTS.md for the full record and "
          "`pytest benchmarks/ --benchmark-only` for all experiments.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

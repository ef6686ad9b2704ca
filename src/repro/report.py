"""``python -m repro.report`` — regenerate the paper-vs-measured summary.

One function per experiment section.  Each takes the chip it reports on
and returns the section's :class:`~repro.bench.ExperimentReport` (its
figure, when it has one, included) together with the values its
benchmark asserts on.  The CLI prints every section of :data:`SECTIONS`;
each benchmark under ``benchmarks/`` times its section's function,
appends the same ``render()`` to ``bench_reports.txt`` and asserts on the
values — so a section's rows exist in one place, and the two outputs
agree to the byte.
"""

from __future__ import annotations

import sys

import numpy as np

from .arch import DType
from .arch.area import AreaModel
from .baselines import ALL_COMPARATORS, GOYA, GpuModel, Roofline, TPU_V3, V100
from .bench import ExperimentReport, ascii_series
from .config import groq_tsp_v1, small_test_chip
from .nn import (
    TransformerConfig,
    estimate_decode,
    estimate_network,
    estimate_transformer,
    resnet_layers,
    scale_out,
    total_macs,
    transformer_layers,
    transformer_macs,
    weight_install_summary,
)

#: the matmuls the roofline plots: (name, K, M, N)
ROOFLINE_WORKLOADS = (
    ("MatMul 320x320, N=1", 320, 320, 1),
    ("MatMul 320x320, N=49", 320, 320, 49),
    ("MatMul 320x320, N=196", 320, 320, 196),
    ("MatMul 320x320, N=3136", 320, 320, 3136),
    ("MatMul 320x320, N=100K", 320, 320, 100_000),
    ("Conv-ish 256x256, N=196", 2304, 256, 196),
    ("FC 2048x1000, N=1", 2048, 1000, 1),
)


def roofline_section(config) -> tuple[ExperimentReport, dict]:
    """E03: the roof at 1 GHz and the performance model's matmul points."""
    roofline = Roofline(config, clock_ghz=1.0)
    points = [
        roofline.matmul_point(k, m, n, name)
        for name, k, m, n in ROOFLINE_WORKLOADS
    ]
    report = ExperimentReport("E03", "Figure 9 — roofline at 1 GHz")
    report.add("arithmetic peak", 820.0, roofline.peak_teraops, "TeraOps/s")
    report.add(
        "MXM operand stream bandwidth", 10.0,
        config.paper_tib_per_s(roofline.mxm_operand_bytes_per_cycle),
        "paper-TiB/s", note="Section V-b",
    )
    report.add(
        "ridge intensity", "—", round(roofline.ridge_intensity(), 1),
        "ops/byte",
    )
    for point in points:
        report.add(f"{point.name} [{point.bound}-bound]", "<= roof",
                   round(point.achieved_teraops, 1), "TeraOps/s")
    report.figure = ascii_series(
        roofline.series(list(np.logspace(-0.5, 4, 48))),
        logx=True,
        title="Fig 9: attainable TeraOps/s vs operational intensity "
        "(o = measured)",
        marks=[(p.intensity, p.achieved_teraops, "o") for p in points],
    )
    return report, {
        "roofline": roofline,
        "points": {point.name: point for point in points},
    }


def power_section(config) -> tuple[ExperimentReport, dict]:
    """E04: ResNet50's per-layer power — conv spikes, pool valleys."""
    estimate = estimate_network(resnet_layers(50), config)
    layers = estimate.layers
    conv_power = [l.power_w for l in layers if l.kind in ("conv", "fc")]
    pool_power = [
        l.power_w for l in layers if l.kind in ("maxpool", "avgpool")
    ]
    spikes = [l for l in layers if l.active_planes == 4 and l.kind == "conv"]
    report = ExperimentReport("E04", "Figure 10 — ResNet50 per-layer power")
    report.add(
        "power spikes = 4 simultaneous conv2d", "yes",
        "yes" if spikes else "no",
        note=f"{len(spikes)} layers run 4 planes",
    )
    report.add("peak layer power", "~chip TDP class", round(max(conv_power)),
               "W")
    report.add("min conv-layer power", "—", round(min(conv_power)), "W")
    report.add("pool-layer power", "valleys", round(max(pool_power)), "W")
    report.add("average power over inference", "—",
               round(estimate.average_power_w), "W")
    report.figure = ascii_series(
        [(i, p) for i, (_n, p) in enumerate(estimate.power_trace())],
        width=76,
        title="Fig 10: power (W) by layer index — conv spikes, pool valleys",
    )
    return report, {
        "spike_powers": [l.power_w for l in spikes],
        "conv_power": conv_power,
        "pool_power": pool_power,
        "average_power_w": estimate.average_power_w,
    }


def resnet_section(config) -> tuple[ExperimentReport, dict]:
    """E06/E07: ResNet50/101/152 at batch 1, from one performance model."""
    estimates = {
        depth: estimate_network(resnet_layers(depth), config)
        for depth in (50, 101, 152)
    }
    report = ExperimentReport(
        "E06/E07", "ResNet50/101/152 batch-1 inference (900 MHz)"
    )
    for depth, paper_ips in ((50, 20_400), (101, 14_300), (152, 10_700)):
        estimate = estimates[depth]
        report.add(f"ResNet{depth} throughput", paper_ips,
                   round(estimate.ips), "IPS")
        if depth == 50:
            report.add("ResNet50 latency", 49.0,
                       round(estimate.latency_us, 1), "us")
        report.add(f"ResNet{depth} cycles/image", "—", estimate.total_cycles,
                   "cycles")
    report.add("ResNet101/ResNet50 IPS ratio", round(14_300 / 20_400, 3),
               round(estimates[101].ips / estimates[50].ips, 3),
               note="structural, calibration-free")
    report.add("ResNet152/ResNet50 IPS ratio", round(10_700 / 20_400, 3),
               round(estimates[152].ips / estimates[50].ips, 3))
    report.add("GMACs per ResNet50 image", "~4",
               round(total_macs(resnet_layers(50)) / 1e9, 2))
    return report, {"estimates": estimates}


def comparison_section(config) -> tuple[ExperimentReport, dict]:
    """E08: ResNet50 against the published accelerators and a GPU model."""
    layers = resnet_layers(50)
    tsp = estimate_network(layers, config)
    gpu = GpuModel()
    sweep = {
        batch: gpu.throughput_ips(layers, batch)
        for batch in (1, 2, 4, 8, 16, 32, 64, 128, 256)
    }
    values = {
        "vs_tpu": tsp.ips / TPU_V3.resnet50_ips,
        "vs_goya": GOYA.batch1_latency_us / tsp.latency_us,
        "vs_gpu_128": tsp.ips / sweep[128],
        "tsp_ips": tsp.ips,
        "gpu_sweep": sweep,
    }
    report = ExperimentReport(
        "E08", "ResNet50 inference: TSP vs published accelerators"
    )
    report.add("TSP batch-1 throughput", 20_400, round(tsp.ips), "IPS")
    report.add("speedup vs TPU v3 (large batch)", 2.5,
               round(values["vs_tpu"], 2), "x")
    report.add("latency advantage vs Goya (batch 1)", 5.0,
               round(values["vs_goya"], 2), "x", note="240 us vs measured")
    report.add("speedup vs GPU-class baseline (batch 128)", 4.0,
               round(values["vs_gpu_128"], 2), "x")
    report.add("speedup vs GPU-class baseline (batch 1)", ">>4",
               round(tsp.ips / sweep[1], 1), "x")
    for spec in ALL_COMPARATORS:
        if spec.resnet50_ips:
            report.add(
                f"{spec.name} published IPS (batch {spec.resnet50_batch})",
                spec.resnet50_ips, spec.resnet50_ips, "IPS",
                note="published figure",
            )
    # the batch-1 crossover: GPU throughput climbs with batch but never
    # reaches the TSP's batch-1 line
    report.figure = ascii_series(
        [(b, ips / 1000) for b, ips in sweep.items()],
        logx=True,
        width=56,
        height=12,
        title="GPU-class IPS (K) vs batch — X marks the TSP at batch 1",
        marks=[(1.0, tsp.ips / 1000, "X")],
    )
    return report, values


def weight_load_section(config) -> tuple[ExperimentReport, dict]:
    """E09: 409,600 weights into the four MXM planes in < 40 cycles."""
    summary = weight_install_summary(config)
    report = ExperimentReport(
        "E09", "Weight load: all four MXM planes (Section V-b)"
    )
    report.add("weights installed", 409_600, summary["weights"])
    report.add("install cycles (stream-fed)", "—", summary["install_cycles"],
               "cycles", note="16 streams x 320 lanes per plane, 4 planes")
    report.add("with SRAM + network transit", "< 40", summary["with_transit"],
               "cycles")
    report.add(
        "operand bandwidth into MXMs", 10.0,
        config.paper_tib_per_s(config.streams_per_direction * config.n_lanes),
        "paper-TiB/s",
    )
    return report, summary


def bandwidth_section(config) -> tuple[ExperimentReport, dict]:
    """E11: Equations 1 and 2, instruction fetch and the off-chip budget."""
    budget = {
        "stream": config.stream_bytes_per_cycle,
        "sram": config.sram_bytes_per_cycle,
        "sram_hem": config.sram_bytes_per_cycle_per_hemisphere,
        "ifetch": config.ifetch_bytes_per_cycle,
    }
    tib = config.paper_tib_per_s
    report = ExperimentReport("E11", "Bandwidth budget (Eq. 1, Eq. 2)")
    report.add("Eq.1 stream registers", 20.0, tib(budget["stream"]),
               "paper-TiB/s", note=f'{budget["stream"]} B/cycle')
    report.add("Eq.2 SRAM total", 55.0, tib(budget["sram"]), "paper-TiB/s",
               note=f'{budget["sram"]} B/cycle')
    report.add("SRAM per hemisphere", 27.5, tib(budget["sram_hem"]),
               "paper-TiB/s")
    report.add("peak instruction fetch", 2.25, tib(budget["ifetch"]),
               "paper-TiB/s",
               note=f'{budget["ifetch"]} B/cycle = 144 IQs x 16 B')
    report.add("SRAM left for streams after ifetch", "~52.75",
               round(tib(budget["sram"] - budget["ifetch"]), 2),
               "paper-TiB/s", note="covers the 20 needed by Eq.1")
    report.add("on-chip SRAM", 220, config.mem_total_bytes / 2**20, "MiB")
    report.add("C2C off-chip", 3.84, config.c2c_tbps, "Tb/s")
    return report, budget


def alloc_section(config) -> tuple[ExperimentReport, dict]:
    """E12: the memory-allocation optimization, ablated (Section IV-C)."""
    layers = resnet_layers(50)
    naive = estimate_network(layers, config, optimized=False)
    optimized = estimate_network(layers, config, optimized=True)
    values = {
        "saved": naive.total_cycles - optimized.total_cycles,
        "optimized_ips": optimized.ips,
        "bubbles_naive": sum(l.bubble_cycles for l in naive.layers),
        "bubbles_optimized": sum(l.bubble_cycles for l in optimized.layers),
    }
    report = ExperimentReport(
        "E12", "Memory-allocation optimization ablation (Section IV-C)"
    )
    report.add("cycles saved", 5_500, values["saved"], "cycles")
    report.add("un-optimized cycles/image", "—", naive.total_cycles)
    report.add("optimized cycles/image", "—", optimized.total_cycles)
    report.add("un-optimized throughput", "—", round(naive.ips), "IPS")
    report.add("optimized throughput", 20_400, round(optimized.ips), "IPS")
    report.add("pipeline bubbles exposed (naive)", "—",
               values["bubbles_naive"], "cycles")
    report.add("pipeline bubbles exposed (optimized)", "—",
               values["bubbles_optimized"], "cycles")
    return report, values


def determinism_section(config) -> tuple[ExperimentReport, dict]:
    """E15: five simulations of one compiled matmul + requantize + ReLU
    program (``replay=False``: each walks its cycles), against the GPU
    model's cache/arbitration jitter."""
    from .compiler import StreamProgramBuilder, execute

    rng = np.random.default_rng(3)
    w = rng.integers(-7, 7, (64, 64)).astype(np.int8)
    x = rng.integers(-7, 7, (4, 64)).astype(np.int8)
    g = StreamProgramBuilder(config)
    acc = g.matmul(w, g.constant_tensor("x", x))
    g.write_back(g.relu(g.convert(acc, DType.INT8, scale=0.02)), name="y")
    compiled = g.compile()
    runs, outputs = [], set()
    for _ in range(5):
        result = execute(compiled, replay=False)
        runs.append(result.run)
        outputs.add(result["y"].tobytes())
    cycles = [run.cycles for run in runs]
    samples = GpuModel(seed=9).latency_samples(resnet_layers(50), batch=1,
                                               runs=50)
    gpu_cov = float(samples.std() / samples.mean())
    report = ExperimentReport("E15", "Run-to-run determinism (Section IV-F)")
    report.add("TSP latency variance across runs", 0, int(np.std(cycles)),
               "cycles")
    report.add("TSP distinct cycle counts (5 runs)", 1, len(set(cycles)))
    report.add("TSP cycles per run", "—", cycles[0], "cycles")
    report.add("TSP bit-identical outputs", "yes",
               "yes" if len(outputs) == 1 else "NO")
    report.add("GPU-baseline latency CoV (50 runs)", "> 0",
               round(gpu_cov, 4), note="cache/arbitration jitter model")
    return report, {
        "runs": runs, "distinct_outputs": len(outputs), "gpu_cov": gpu_cov,
    }


def density_section(config) -> tuple[ExperimentReport, dict]:
    """E16: compute density and ops per transistor (conclusion)."""
    area = AreaModel(config)
    values = {
        "peak": config.peak_teraops(1.0),
        "density": config.teraops_per_mm2(1.0),
        "tsp_eff": area.tsp_ops_per_transistor(),
        "v100_eff": area.comparator_ops_per_transistor(
            V100.peak_teraops, V100.transistors
        ),
        "icu_under_3_percent": area.icu_area_under_3_percent(),
    }
    report = ExperimentReport(
        "E16", "Compute density and ops/transistor (conclusion)"
    )
    report.add("peak compute @ 1 GHz", 820, round(values["peak"], 1),
               "TeraOps/s")
    report.add("die area", 725, config.die_area_mm2, "mm^2",
               note="25 x 29 mm")
    report.add("computational density", "> 1", round(values["density"], 2),
               "TeraOps/s/mm^2")
    report.add("TSP ops/s/transistor", 30_000, round(values["tsp_eff"]),
               note="26.8B transistors")
    report.add("V100 ops/s/transistor", 6_200, round(values["v100_eff"]),
               note="130 TFLOPS / 21.1B")
    report.add("TSP advantage", 4.8,
               round(values["tsp_eff"] / values["v100_eff"], 2), "x")
    report.add("ICU area share", "< 3%", f"{area.icu_fraction:.1%}")
    return report, values


def scaleout_section(config) -> tuple[ExperimentReport, dict]:
    """E19 (extension): pipeline-parallel ResNet50 over C2C."""
    layers = resnet_layers(50)
    single = estimate_network(layers, config)
    plans = {n: scale_out(layers, config, n) for n in (1, 2, 4, 8)}
    report = ExperimentReport(
        "E19", "Pipeline-parallel ResNet50 across TSP chips (extension)"
    )
    report.add("single-chip baseline", 20_400, round(single.ips), "IPS")
    for n, plan in plans.items():
        report.add(
            f"{n}-chip throughput", "—", round(plan.throughput_ips), "IPS",
            note=f"speedup {plan.speedup_vs(single.ips):.2f}x, "
            f"efficiency {plan.efficiency(single.ips):.0%}, "
            f"latency {plan.latency_us:.1f} us",
        )
    report.add(
        "latency growth at 8 chips", "link hops only",
        f"{plans[8].latency_us - single.latency_us:.1f} us",
        note="deterministic pipelining adds no queueing",
    )
    report.figure = ascii_series(
        [(n, plan.throughput_ips / 1000) for n, plan in plans.items()],
        width=40, height=10,
        title="throughput (K IPS) vs chips",
    )
    return report, {"single": single, "plans": plans}


def transformer_section(config) -> tuple[ExperimentReport, dict]:
    """E20 (extension): a 12-layer decoder's prefill and decode."""
    t_config = TransformerConfig()
    prefill = estimate_transformer(t_config, config)
    decode = estimate_decode(t_config, config, context_len=1024)
    gpu_latency = GpuModel().inference_latency_us(
        transformer_layers(t_config), batch=1, jitter=False
    )
    macs = transformer_macs(t_config)
    sustained = 2 * macs / (prefill.prefill_latency_us / 1e6) / 1e12
    peak = config.peak_teraops()
    report = ExperimentReport(
        "E20", "Transformer decoder prefill (extension; Section I workload)"
    )
    report.add("model", "—",
               f"{t_config.n_layers}L d={t_config.d_model} "
               f"ff={t_config.d_ff} seq={t_config.seq_len}")
    report.add("prefill GMACs", "—", round(macs / 1e9, 1))
    report.add("prefill latency", "deterministic",
               round(prefill.prefill_latency_us), "us")
    report.add("prefill rate", "—", round(prefill.tokens_per_second),
               "tokens/s")
    report.add("sustained throughput", "compute-bound", round(sustained),
               "TeraOps/s", note=f"{sustained / peak:.0%} of peak")
    report.add("decode rate (ctx 1024)", "—",
               round(decode.tokens_per_second), "tokens/s")
    report.add("decode sustained", "memory-bound",
               f"{decode.sustained_teraops() / peak:.1%} of peak")
    report.add("GPU-class batch-1 latency", "—", round(gpu_latency), "us")
    report.add("TSP advantage at batch 1", "—",
               round(gpu_latency / prefill.prefill_latency_us, 2), "x")
    sweep = [
        (s, estimate_transformer(
            TransformerConfig(seq_len=s), config
        ).prefill_latency_us)
        for s in (64, 128, 256, 512, 1024)
    ]
    report.figure = ascii_series(
        sweep, width=48, height=12, logx=True,
        title="prefill latency (us) vs sequence length — quadratic "
        "attention term emerges",
    )
    return report, {
        "prefill_latency_us": prefill.prefill_latency_us,
        "gpu_latency_us": gpu_latency,
        "sweep_latencies": [latency for _s, latency in sweep],
    }


def telemetry_section(config) -> tuple[ExperimentReport, dict]:
    """A small CNN's on-chip inference (``TspCnnRunner``), profiled
    through :class:`repro.obs.AutoTelemetry`: one collector per compiled
    layer program, and every row read from their counter registry."""
    from .nn import TspCnnRunner, make_shapes, make_small_cnn
    from .obs import AutoTelemetry

    data = make_shapes(
        n_train=32, n_test=4, image_size=12, n_classes=3, seed=3
    )
    model = make_small_cnn(3, channels=4, image_size=12, seed=3)
    runner = TspCnnRunner(model, config, calibration=data.x_train[:16])
    auto = AutoTelemetry(window_cycles=128)
    with auto:
        result = runner.forward(data.x_test[:2])
    collectors = auto.collectors
    cycles = sum(c.cycles for c in collectors)

    def total(domain: str, counter: str) -> int:
        return sum(
            sum(c.domain_windows(domain, counter).values())
            for c in collectors
        )

    sram = (total("mem", "read_bytes") + total("mem", "write_bytes")
            + total("icu", "ifetch_bytes"))
    report = ExperimentReport(
        "telemetry", "A small CNN on the test chip, read from telemetry"
    )
    report.add("CNN-on-chip cycles (measured, test chip)", "—", cycles,
               note=", ".join(f"{k} {v}"
                              for k, v in result.layer_cycles.items()))
    report.add("CNN-on-chip MACCs (measured, test chip)", "—",
               total("mxm", "macc_ops"), note="telemetry registry: mxm")
    report.add("measured MACC ops/cycle (CNN, test chip)", "—",
               round(total("mxm", "macc_ops") / max(1, cycles), 1),
               note="telemetry registry: mxm")
    report.add("measured SRAM traffic (CNN, test chip)",
               f"<= {config.sram_bytes_per_cycle}",
               round(sram / max(1, cycles), 1), "B/cycle",
               note="telemetry registry: mem + ifetch")
    # chip-wide hop bytes may exceed the Eq.1 export figure: every SRF
    # position hops concurrently, Eq.1 counts the slice-facing ports only
    report.add("measured stream hops (CNN, test chip)", "—",
               round(total("srf", "hop_bytes") / max(1, cycles), 1),
               "B/cycle", note="telemetry registry: srf")
    return report, {"cycles": cycles}


#: every section the CLI prints, in order, with the chip it reports on
SECTIONS = (
    (roofline_section, groq_tsp_v1),
    (power_section, groq_tsp_v1),
    (resnet_section, groq_tsp_v1),
    (comparison_section, groq_tsp_v1),
    (weight_load_section, groq_tsp_v1),
    (bandwidth_section, groq_tsp_v1),
    (alloc_section, groq_tsp_v1),
    (determinism_section, small_test_chip),
    (density_section, groq_tsp_v1),
    (scaleout_section, groq_tsp_v1),
    (transformer_section, groq_tsp_v1),
    (telemetry_section, small_test_chip),
)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python -m repro.report (takes no arguments; the "
              "conformance sweep is python -m repro.verify)", file=sys.stderr)
        return 2
    print("Groq TSP reproduction — paper-vs-measured summary\n")
    for section, chip in SECTIONS:
        report, _values = section(chip())
        print(report.render())
        print()
    print("See EXPERIMENTS.md for the full record and "
          "`pytest benchmarks/ --benchmark-only` for all experiments.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

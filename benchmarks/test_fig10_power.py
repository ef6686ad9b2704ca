"""E04 — Figure 10: power usage for ResNet50 layers.

The paper's Figure 10 plots per-layer power as the program executes: spikes
where four simultaneous conv2d operations saturate the MXMs, valleys on
data-movement and element-wise layers.  We integrate the per-op energy
model over the deterministic layer schedule and reproduce exactly that
shape (:func:`repro.report.power_section`).
"""

from repro.report import power_section


def test_fig10_power_trace(report_sink, full_config, benchmark):
    report, values = benchmark(power_section, full_config)
    report_sink.append(report.render())

    # shape assertions: spikes sit well above the valleys
    spikes = values["spike_powers"]
    assert spikes, "no saturated-conv layers found"
    assert sum(spikes) / len(spikes) > 1.5 * max(values["pool_power"])
    assert max(values["conv_power"]) > values["average_power_w"]

"""Differential-oracle tests: clean programs conform, seeded faults diverge.

The negative tests are the point: a verification layer that has never seen
a failure proves nothing.  Each seeds a single-event upset through
``sim.faults.FaultInjector`` (ECC is off by default, so the flip persists)
and asserts the oracle catches it *and* produces a usable repro — output
name, first divergent element, commit cycle, ancestor subgraph, seed.
"""

import numpy as np
import pytest

from repro.arch import DType
from repro.arch.geometry import Direction
from repro.compiler import StreamProgramBuilder
from repro.errors import DivergenceError, SimulationError
from repro.sim.faults import FaultInjector
from repro.verify import assert_conformance, run_differential


def _zeros_add(config):
    """``sum = x + y`` with all-zero constants: any flipped bit shows."""
    lanes = config.n_lanes
    b = StreamProgramBuilder(config)
    x = b.constant_tensor("x", np.zeros((2, lanes), dtype=np.int8))
    y = b.constant_tensor("y", np.zeros((2, lanes), dtype=np.int8))
    b.write_back(b.add(x, y), "sum")
    return b


class TestCleanPrograms:
    def test_conforms_bit_exactly(self, config):
        result = assert_conformance(_zeros_add(config))
        assert result.ok
        assert result.report is None
        np.testing.assert_array_equal(
            result.outputs["sum"], result.reference["sum"]
        )

    def test_unbound_input_rejected(self, config):
        b = StreamProgramBuilder(config)
        x = b.input_tensor("x", (2, 16), DType.INT8)
        b.write_back(b.copy(x), "out")
        with pytest.raises(SimulationError, match="not bound"):
            run_differential(b)


class TestSeededFaults:
    def test_sram_upset_detected_with_repro(self, config):
        """A stored-bit flip in a constant diverges, with a full repro."""
        b = _zeros_add(config)
        compiled = b.compile()
        word = compiled.memory_image[0]

        def corrupt(chip):
            FaultInjector(chip).inject_sram_fault(
                word.hemisphere, word.slice_index, word.address, bit=0
            )

        result = run_differential(
            b, compiled=compiled, after_load=corrupt, seed=99
        )
        assert not result.ok
        report = result.report
        assert report.seed == 99
        d = report.divergences[0]
        assert d.name == "sum"
        assert d.lane == 0  # bit 0 lands in lane 0
        assert d.actual != d.expected
        assert d.write_cycle is not None, (
            "divergent row should be traced back to its committing Write"
        )
        assert report.subgraph, "ancestor op subgraph should be listed"
        text = report.render()
        assert "repro seed: 99" in text
        assert "op subgraph" in text

    def test_inflight_stream_upset_detected(self, config):
        """A datapath flip one hop downstream of a predicted drive."""
        b = _zeros_add(config)
        compiled = b.compile()
        # pick a timing promise from the schedule intent and corrupt the
        # value one cycle / one hop after it is driven
        direction, stream, position, t = compiled.intent.drives[0]
        step = 1 if direction is Direction.EASTWARD else -1

        def corrupt(chip):
            FaultInjector(chip).inject_stream_fault_at(
                t + 1, direction, stream, position + step, bit=0
            )

        result = run_differential(b, compiled=compiled, after_load=corrupt)
        assert not result.ok
        d = result.report.divergences[0]
        assert d.name == "sum"
        assert d.lane == 0
        assert d.actual != d.expected

    def test_assert_conformance_raises_rendered_report(self, config):
        b = _zeros_add(config)
        compiled = b.compile()
        word = compiled.memory_image[0]

        def corrupt(chip):
            FaultInjector(chip).inject_sram_fault(
                word.hemisphere, word.slice_index, word.address, bit=2
            )

        with pytest.raises(DivergenceError) as err:
            assert_conformance(b, compiled=compiled, after_load=corrupt, seed=7)
        msg = str(err.value)
        assert "repro seed: 7" in msg
        assert "op subgraph" in msg
        assert "sum[" in msg

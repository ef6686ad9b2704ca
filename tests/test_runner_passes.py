"""Runner marshalling and the IFetch insertion pass."""

import numpy as np
import pytest

from repro.compiler import (
    StreamProgramBuilder,
    execute,
    insert_ifetch,
    load_compiled,
    pack_tensor,
    unpack_tensor,
)
from repro.arch import DType
from repro.errors import CompileError, SimulationError
from repro.sim import TspChip


class TestPacking:
    @pytest.mark.parametrize(
        "dtype", [DType.INT8, DType.INT16, DType.INT32, DType.FP32]
    )
    def test_pack_unpack_roundtrip(self, dtype, rng):
        if dtype in (DType.FP16, DType.FP32):
            data = rng.standard_normal((3, 40)).astype(dtype.numpy_dtype)
        else:
            info = np.iinfo(dtype.numpy_dtype)
            data = rng.integers(info.min, int(info.max) + 1, (3, 40)).astype(
                dtype.numpy_dtype
            )
        planes = pack_tensor(data, dtype, 64)
        assert planes.shape == (dtype.n_bytes, 3, 64)
        back = unpack_tensor(planes, dtype, 40)
        assert np.array_equal(back, data)

    def test_pack_rejects_overlong_vectors(self):
        with pytest.raises(CompileError):
            pack_tensor(np.zeros((1, 65), np.int8), DType.INT8, 64)

    def test_padding_is_zero(self):
        planes = pack_tensor(np.ones((1, 10), np.int8), DType.INT8, 64)
        assert planes[0, 0, 10:].sum() == 0


class TestRunner:
    def test_missing_input_rejected(self, config):
        g = StreamProgramBuilder(config)
        a = g.input_tensor("a", (1, 64))
        g.write_back(g.relu(a), name="y")
        compiled = g.compile()
        with pytest.raises(SimulationError, match="not bound"):
            execute(compiled)

    def test_unknown_input_rejected(self, config, rng):
        g = StreamProgramBuilder(config)
        a = g.input_tensor("a", (1, 64))
        g.write_back(g.relu(a), name="y")
        compiled = g.compile()
        with pytest.raises(SimulationError, match="unknown"):
            execute(
                compiled,
                inputs={
                    "a": rng.integers(0, 5, (1, 64)).astype(np.int8),
                    "b": rng.integers(0, 5, (1, 64)).astype(np.int8),
                },
            )

    def test_wrong_input_shape_rejected(self, config, rng):
        g = StreamProgramBuilder(config)
        a = g.input_tensor("a", (2, 64))
        g.write_back(g.relu(a), name="y")
        compiled = g.compile()
        with pytest.raises(SimulationError):
            execute(
                compiled,
                inputs={"a": rng.integers(0, 5, (5, 64)).astype(np.int8)},
            )

    def test_execute_on_existing_chip(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(-9, 9, (1, 64)).astype(np.int8)
        )
        g.write_back(g.relu(x), name="y")
        compiled = g.compile()
        chip = TspChip(config)
        result = execute(compiled, chip=chip)
        assert "y" in result.outputs

    def test_a_throwaway_chip_hands_its_sram_back(self, config, monkeypatch):
        """``execute`` without a chip makes one nobody else will see — and
        which only the cycle collector would free: it is scrubbed on the
        way out.  A caller's chip is the caller's."""
        scrubbed = []
        scrub = TspChip.scrub
        monkeypatch.setattr(
            TspChip, "scrub", lambda chip: (scrubbed.append(chip), scrub(chip))
        )
        g = StreamProgramBuilder(config)
        x = g.constant_tensor("x", np.full((1, 64), -3, np.int8))
        g.write_back(g.relu(x), name="y")
        compiled = g.compile()
        assert (execute(compiled)["y"] == 0).all()
        (throwaway,) = scrubbed
        assert all(unit._storage is None for unit in throwaway.mem_units())
        chip = TspChip(config)
        execute(compiled, chip=chip)
        assert scrubbed == [throwaway]
        assert any(unit._storage is not None for unit in chip.mem_units())

    def test_result_getitem(self, config, rng):
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(-9, 9, (1, 64)).astype(np.int8)
        )
        g.write_back(g.relu(x), name="y")
        result = execute(g.compile())
        assert np.array_equal(result["y"], result.outputs["y"])

    def test_rerun_same_program_is_deterministic(self, config, rng):
        """Section IV-F determinism, through the whole toolchain."""
        g = StreamProgramBuilder(config)
        x = g.constant_tensor(
            "x", rng.integers(-9, 9, (4, 64)).astype(np.int8)
        )
        g.write_back(g.relu(x), name="y")
        compiled = g.compile()
        runs = [execute(compiled) for _ in range(3)]
        assert len({r.run.cycles for r in runs}) == 1
        assert all(
            np.array_equal(runs[0]["y"], r["y"]) for r in runs[1:]
        )


class TestIfetchPass:
    def build_compiled(self, config, n=24):
        g = StreamProgramBuilder(config)
        rng = np.random.default_rng(0)
        x = g.constant_tensor(
            "x", rng.integers(-9, 9, (n, 64)).astype(np.int8)
        )
        y = g.constant_tensor(
            "y", rng.integers(-9, 9, (n, 64)).astype(np.int8)
        )
        g.write_back(g.relu(g.add(x, y)), name="z")
        return g.compile()

    def build_bursty_program(self, chip, bursts=3, reads_per_burst=16):
        """Bursts of reads separated by idle time — the realistic shape a
        queue must be kept fed through."""
        from repro.arch import Direction, Hemisphere
        from repro.isa import IcuId, Nop, Program, Read

        program = Program()
        icu = IcuId(chip.floorplan.mem_slice(Hemisphere.WEST, 0))
        for burst in range(bursts):
            for i in range(reads_per_burst):
                program.add(
                    icu,
                    Read(
                        address=2 * i,
                        stream=0,
                        direction=Direction.EASTWARD,
                    ),
                )
            if burst < bursts - 1:
                program.add(icu, Nop(30))
        return program

    def test_pass_makes_strict_mode_pass(self, config):
        tight = config.with_overrides(iq_capacity_bytes=192)
        chip = TspChip(tight, strict_ifetch=True)
        program = self.build_bursty_program(chip)
        fed = insert_ifetch(program, tight)
        fetches = [
            i
            for icu in fed.icus
            for i in fed.queue(icu)
            if i.mnemonic == "Ifetch"
        ]
        assert fetches  # the pass actually had to insert some
        chip.run(fed)

    def test_pass_preserves_timing(self, config):
        """Ifetches replace idle cycles, so cycle counts are unchanged."""
        tight = config.with_overrides(iq_capacity_bytes=192)
        chip_a = TspChip(tight)
        program = self.build_bursty_program(chip_a)
        base = chip_a.run(program)
        fed = insert_ifetch(program, tight)
        chip_b = TspChip(tight, strict_ifetch=True)
        strict = chip_b.run(fed)
        assert base.cycles == strict.cycles

    def test_pass_on_compiled_program(self, config):
        """The pass keeps compiled programs correct when they fit."""
        compiled = self.build_compiled(config)
        fed = insert_ifetch(compiled.program, config)
        chip = TspChip(config, strict_ifetch=True)
        load_compiled(chip, compiled)
        chip.run(fed)

    def test_infeasible_burst_is_reported(self, config):
        """A back-to-back burst larger than the IQ with no idle time is
        genuinely unfeedable — the pass says so instead of mis-scheduling."""
        tiny = config.with_overrides(iq_capacity_bytes=64)
        chip = TspChip(tiny)
        program = self.build_bursty_program(chip, bursts=1, reads_per_burst=40)
        with pytest.raises(CompileError):
            insert_ifetch(program, tiny)

    def test_no_op_when_everything_fits(self, config):
        compiled = self.build_compiled(config, n=2)
        fed = insert_ifetch(compiled.program, config)
        fetches = [
            i
            for icu in fed.icus
            for i in fed.queue(icu)
            if i.mnemonic == "Ifetch"
        ]
        assert not fetches

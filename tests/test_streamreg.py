"""Stream register file: one-hop-per-cycle flow, contention, ECC transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Direction, Floorplan
from repro.errors import SimulationError, StreamContentionError
from repro.sim.streamreg import StreamRegisterFile


@pytest.fixture()
def srf(config):
    return StreamRegisterFile(config, Floorplan(config))


def vec(config, fill=7):
    return np.full(config.n_lanes, fill, dtype=np.uint8)


class TestPropagation:
    def test_eastward_moves_one_hop_per_cycle(self, config, srf):
        srf.drive(Direction.EASTWARD, 0, 5, vec(config))
        for k in range(1, 4):
            srf.step()
            assert srf.is_valid(Direction.EASTWARD, 0, 5 + k)
            assert not srf.is_valid(Direction.EASTWARD, 0, 5 + k - 1)
            assert np.all(srf.read(Direction.EASTWARD, 0, 5 + k) == 7)

    def test_westward_moves_toward_zero(self, config, srf):
        srf.drive(Direction.WESTWARD, 3, 5, vec(config, 9))
        srf.step()
        assert srf.is_valid(Direction.WESTWARD, 3, 4)
        assert not srf.is_valid(Direction.WESTWARD, 3, 5)

    def test_value_falls_off_the_edge(self, config, srf):
        """Section V-c: streams flow until they fall off the edge."""
        last = Floorplan(config).n_positions - 1
        srf.drive(Direction.EASTWARD, 0, last, vec(config))
        srf.step()
        assert not any(
            srf.is_valid(Direction.EASTWARD, 0, p) for p in range(last + 1)
        )

    def test_directions_are_independent(self, config, srf):
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 1))
        srf.drive(Direction.WESTWARD, 0, 5, vec(config, 2))
        srf.step()
        assert np.all(srf.read(Direction.EASTWARD, 0, 6) == 1)
        assert np.all(srf.read(Direction.WESTWARD, 0, 4) == 2)

    def test_streams_are_independent(self, config, srf):
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 1))
        srf.drive(Direction.EASTWARD, 1, 5, vec(config, 2))
        srf.step()
        assert np.all(srf.read(Direction.EASTWARD, 0, 6) == 1)
        assert np.all(srf.read(Direction.EASTWARD, 1, 6) == 2)

    @given(
        start=st.integers(0, 10),
        hops=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_transit_delay_is_exactly_hops(self, start, hops):
        """The timing-model property: position advances exactly 1/cycle."""
        from repro.config import small_test_chip

        config = small_test_chip()
        srf = StreamRegisterFile(config, Floorplan(config))
        srf.drive(Direction.EASTWARD, 2, start, vec(config, 42))
        for _ in range(hops):
            srf.step()
        target = start + hops
        if target < Floorplan(config).n_positions:
            assert srf.is_valid(Direction.EASTWARD, 2, target)
            assert np.all(srf.read(Direction.EASTWARD, 2, target) == 42)


class TestOverwriteAndContention:
    def test_producer_overwrites_passing_value(self, config, srf):
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 1))
        srf.step()  # now at 6
        srf.drive(Direction.EASTWARD, 0, 6, vec(config, 2))
        assert np.all(srf.read(Direction.EASTWARD, 0, 6) == 2)

    def test_double_drive_same_cycle_faults(self, config, srf):
        """No arbiters: two producers on one register is a compile bug."""
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 1))
        with pytest.raises(StreamContentionError):
            srf.drive(Direction.EASTWARD, 0, 5, vec(config, 2))

    def test_drive_allowed_again_next_cycle(self, config, srf):
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 1))
        srf.step()
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 2))

    def test_bad_vector_shape_rejected(self, config, srf):
        with pytest.raises(SimulationError):
            srf.drive(Direction.EASTWARD, 0, 5, np.zeros(3, np.uint8))

    def test_bad_stream_rejected(self, config, srf):
        with pytest.raises(SimulationError):
            srf.drive(Direction.EASTWARD, 99, 5, vec(config))

    def test_off_chip_position_rejected(self, config, srf):
        with pytest.raises(SimulationError):
            srf.read(Direction.EASTWARD, 0, 10_000)


class TestEccTransport:
    def test_checks_ride_with_the_value(self, config):
        srf = StreamRegisterFile(config, Floorplan(config))
        srf.enable_ecc(True)
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 3))
        srf.step()
        # corrupt in flight, then consume: the consumer corrects
        srf.inject_stream_fault(Direction.EASTWARD, 0, 6, bit=0)
        value = srf.read_checked(Direction.EASTWARD, 0, 6)
        assert np.all(value == 3)
        assert srf.corrections == 1

    def test_read_checked_without_ecc_is_passthrough(self, config, srf):
        srf.drive(Direction.EASTWARD, 0, 5, vec(config, 3))
        assert np.all(srf.read_checked(Direction.EASTWARD, 0, 5) == 3)
        assert srf.corrections == 0

    def test_hop_accounting_for_power(self, config, srf):
        srf.drive(Direction.EASTWARD, 0, 5, vec(config))
        srf.step()
        assert srf.hop_bytes_total == config.n_lanes

    def test_full_chip_traversal_bills_interior_hops_only(self, config):
        """Regression: the edge hop is not a hop — the value falls off.

        A vector driven at position 0 eastward crosses ``n_positions - 1``
        register boundaries before leaving the chip; the old accounting
        charged it one extra hop at the edge it never completed.
        """
        srf = StreamRegisterFile(config, Floorplan(config))
        n_pos = Floorplan(config).n_positions
        srf.drive(Direction.EASTWARD, 0, 0, vec(config))
        for _ in range(n_pos + 2):  # run past the edge
            srf.step()
        assert srf.hop_bytes_total == (n_pos - 1) * config.n_lanes

    def test_edge_drive_bills_nothing(self, config, srf):
        last = Floorplan(config).n_positions - 1
        srf.drive(Direction.EASTWARD, 0, last, vec(config))
        srf.drive(Direction.WESTWARD, 1, 0, vec(config))
        srf.step()
        assert srf.hop_bytes_total == 0


class TestFlush:
    """``flush()`` must be observably identical to stepping every value
    off the chip, one hop at a time."""

    def _populate(self, config, srf, seed):
        rng = np.random.default_rng(seed)
        n_pos = Floorplan(config).n_positions
        for direction in (Direction.EASTWARD, Direction.WESTWARD):
            for _ in range(4):
                stream = int(rng.integers(config.streams_per_direction))
                position = int(rng.integers(n_pos))
                try:
                    srf.drive(
                        direction,
                        stream,
                        position,
                        vec(config, int(rng.integers(1, 200))),
                    )
                except StreamContentionError:
                    pass
        srf.step()  # commit the drives so the flush starts from clean state

    def _snapshot(self, config, srf):
        n_pos = Floorplan(config).n_positions
        state = []
        for direction in (Direction.EASTWARD, Direction.WESTWARD):
            for stream in range(config.streams_per_direction):
                for position in range(n_pos):
                    if srf.is_valid(direction, stream, position):
                        state.append(
                            (
                                direction,
                                stream,
                                position,
                                srf.read(direction, stream, position).tobytes(),
                            )
                        )
        return state

    @given(k=st.integers(0, 40), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_flush_equals_stepping_everything_off(self, k, seed):
        """From any ring rotation ``k``: same empty file, same bytes."""
        from repro.config import small_test_chip

        config = small_test_chip()
        floorplan = Floorplan(config)
        flushed = StreamRegisterFile(config, floorplan)
        single = StreamRegisterFile(config, floorplan)
        for srf in (flushed, single):
            for _ in range(k):
                srf.step()
            self._populate(config, srf, seed)

        flushed.flush()
        for _ in range(floorplan.n_positions):
            single.step()

        assert self._snapshot(config, flushed) == []
        assert self._snapshot(config, single) == []
        assert flushed.hop_bytes_total == single.hop_bytes_total
        # and the flushed file carries on like the stepped one
        for srf in (flushed, single):
            srf.drive(Direction.WESTWARD, 1, 5, vec(config, 9))
            srf.step()
        assert self._snapshot(config, flushed) == self._snapshot(config, single)

    def test_flush_clears_everything(self, config, srf):
        n_pos = Floorplan(config).n_positions
        srf.drive(Direction.EASTWARD, 0, 3, vec(config))
        srf.flush()
        assert self._snapshot(config, srf) == []
        # 3 → edge is n_pos - 1 - 3 completed hops
        assert srf.hop_bytes_total == (n_pos - 1 - 3) * config.n_lanes

    def test_flush_on_empty_file_is_free(self, config, srf):
        srf.flush()
        assert srf.hop_bytes_total == 0

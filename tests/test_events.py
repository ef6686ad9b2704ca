"""Event queue ordering and phase discipline."""

import pytest

from repro.sim.events import EventQueue, Phase


class TestEventQueue:
    def test_phases_run_in_order(self):
        q = EventQueue()
        log = []
        q.schedule(0, Phase.CAPTURE, lambda c: log.append("capture"))
        q.schedule(0, Phase.DRIVE, lambda c: log.append("drive"))
        q.run_phase(0, Phase.DRIVE)
        q.run_phase(0, Phase.CAPTURE)
        assert log == ["drive", "capture"]

    def test_insertion_order_preserved_within_phase(self):
        q = EventQueue()
        log = []
        for i in range(5):
            q.schedule(3, Phase.DRIVE, lambda c, i=i: log.append(i))
        q.run_phase(3, Phase.DRIVE)
        assert log == [0, 1, 2, 3, 4]

    def test_future_events_not_run(self):
        q = EventQueue()
        log = []
        q.schedule(5, Phase.DRIVE, lambda c: log.append("later"))
        assert q.run_phase(0, Phase.DRIVE) == 0
        assert log == []
        assert q.pending == 1

    def test_events_scheduled_during_phase_run_same_phase(self):
        q = EventQueue()
        log = []

        def first(cycle):
            log.append("first")
            q.schedule(cycle, Phase.CAPTURE, lambda c: log.append("nested"))

        q.schedule(0, Phase.CAPTURE, first)
        q.run_phase(0, Phase.CAPTURE)
        assert log == ["first", "nested"]

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1, Phase.DRIVE, lambda c: None)

    def test_same_cycle_order_is_insertion_order_per_phase(self):
        """Interleaved DRIVE/CAPTURE registrations keep, within each
        phase, the order they were made in."""
        q = EventQueue()
        log = []
        for i in range(6):
            phase = Phase.CAPTURE if i % 2 else Phase.DRIVE
            q.schedule(7, phase, lambda c, i=i: log.append(i))
        assert q.run_phase(7, Phase.DRIVE) == 3
        assert q.run_phase(7, Phase.CAPTURE) == 3
        assert log == [0, 2, 4, 1, 3, 5]
        assert q.pending == 0

    def test_out_of_order_cycles_run_at_their_own_cycle(self):
        q = EventQueue()
        log = []
        for cycle in (9, 2, 5):
            q.schedule(cycle, Phase.DRIVE, lambda c: log.append(c))
        for cycle in range(10):
            q.run_phase(cycle, Phase.DRIVE)
        assert log == [2, 5, 9]

    def test_event_for_the_current_cycle_after_its_phase_ran_is_stale(self):
        """A DRIVE registered during CAPTURE of the same cycle has missed
        its phase: it never runs and stays pending (so the run it belongs
        to cannot finish quietly)."""
        q = EventQueue()
        log = []

        def late(cycle):
            q.schedule(cycle, Phase.DRIVE, lambda c: log.append("late"))

        q.schedule(3, Phase.CAPTURE, late)
        assert q.run_phase(3, Phase.DRIVE) == 0
        assert q.run_phase(3, Phase.CAPTURE) == 1
        assert q.pending == 1
        assert q.run_phase(4, Phase.DRIVE) == 0
        assert log == [] and q.pending == 1

    def test_stale_entry_does_not_block_later_events(self):
        q = EventQueue()
        q.schedule(9, Phase.CAPTURE, lambda c: None)
        q.schedule(4, Phase.DRIVE, lambda c: None)
        # cycle 4 passes unserved: its event is stale from here on
        assert q.run_phase(9, Phase.CAPTURE) == 1
        assert q.pending == 1

    def test_clear_drops_everything(self):
        q = EventQueue()
        q.schedule(1, Phase.DRIVE, lambda c: None)
        q.schedule(8, Phase.CAPTURE, lambda c: None)
        q.clear()
        assert q.pending == 0
        assert q.run_phase(1, Phase.DRIVE) == 0
        assert q.run_phase(8, Phase.CAPTURE) == 0

    def test_bucket_tables_empty_when_the_store_drains(self):
        # a chip reused for many runs must not grow its event store
        q = EventQueue()
        for _run in range(3):
            for cycle in range(50):
                q.schedule(cycle, Phase.DRIVE, lambda c: None)
                q.schedule(cycle, Phase.CAPTURE, lambda c: None)
            for cycle in range(50):
                q.run_phase(cycle, Phase.DRIVE)
                q.run_phase(cycle, Phase.CAPTURE)
            assert q.pending == 0 and q._buckets == ({}, {})

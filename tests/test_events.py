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
        its phase: it never runs, stays pending, and pins the skip
        horizon to single steps instead of being jumped over."""
        q = EventQueue()
        log = []

        def late(cycle):
            q.schedule(cycle, Phase.DRIVE, lambda c: log.append("late"))

        q.schedule(3, Phase.CAPTURE, late)
        assert q.run_phase(3, Phase.DRIVE) == 0
        assert q.run_phase(3, Phase.CAPTURE) == 1
        assert q.pending == 1
        assert q.next_active_cycle(3) == 4
        assert q.run_phase(4, Phase.DRIVE) == 0
        assert log == [] and q.pending == 1
        assert q.next_active_cycle(10) == 11

    def test_next_active_cycle_over_stale_and_future_entries(self):
        q = EventQueue()
        assert q.next_active_cycle(0) is None
        q.schedule(9, Phase.CAPTURE, lambda c: None)
        q.schedule(4, Phase.DRIVE, lambda c: None)
        assert q.next_active_cycle(0) == 4
        assert q.next_active_cycle(4) == 5  # cycle 4's event is now stale
        # a stale entry does not block later events from running
        assert q.run_phase(9, Phase.CAPTURE) == 1
        assert q.pending == 1
        assert q.next_active_cycle(9) == 10

    def test_next_active_cycle_forgets_cycles_that_ran(self):
        q = EventQueue()
        for cycle in (2, 6):
            q.schedule(cycle, Phase.DRIVE, lambda c: None)
            q.schedule(cycle, Phase.CAPTURE, lambda c: None)
        q.run_phase(2, Phase.DRIVE)
        assert q.next_active_cycle(1) == 2  # CAPTURE at 2 still due
        q.run_phase(2, Phase.CAPTURE)
        assert q.next_active_cycle(2) == 6
        q.run_phase(6, Phase.DRIVE)
        q.run_phase(6, Phase.CAPTURE)
        assert q.pending == 0 and q.next_active_cycle(6) is None

    def test_clear_drops_everything(self):
        q = EventQueue()
        q.schedule(1, Phase.DRIVE, lambda c: None)
        q.schedule(8, Phase.CAPTURE, lambda c: None)
        q.clear()
        assert q.pending == 0
        assert q.next_active_cycle(0) is None
        assert q.run_phase(1, Phase.DRIVE) == 0

    def test_cycle_heap_empties_when_the_store_drains(self):
        # nobody asks ``next_active_cycle`` on a dense run, so the heap of
        # bucket cycles must not rely on it to shrink
        q = EventQueue()
        for _run in range(3):
            for cycle in range(50):
                q.schedule(cycle, Phase.DRIVE, lambda c: None)
                q.schedule(cycle, Phase.CAPTURE, lambda c: None)
            for cycle in range(50):
                q.run_phase(cycle, Phase.DRIVE)
                q.run_phase(cycle, Phase.CAPTURE)
            assert q.pending == 0 and q._cycles == []

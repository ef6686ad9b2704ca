"""Deterministic event store for the cycle simulator.

The simulator is event-assisted: instruction dispatch happens in the main
cycle loop, but an instruction's side effects (operand captures, result
drives, multi-cycle installs) are scheduled as events.  Events at the same
cycle execute in insertion order — there is no tie-breaking randomness, so
two runs of the same program are bit-identical (the paper's determinism
property, which test_determinism verifies).

Two phases exist per cycle:

* ``DRIVE`` events run first and place produced values onto stream
  registers (visible to that cycle's readers);
* ``CAPTURE`` events run after instruction dispatch and read operand values
  off stream registers (then typically do work and schedule future DRIVEs).

Every event names its exact cycle and phase, so the store is one
``cycle -> [callbacks]`` bucket table per phase: scheduling is a list
append, running a phase is one dict pop, and a cycle with nothing due
costs a failed lookup.
"""

from __future__ import annotations

import enum
from typing import Callable


class Phase(enum.IntEnum):
    """Intra-cycle ordering of event kinds."""

    DRIVE = 0
    CAPTURE = 1


class EventQueue:
    """Per-cycle DRIVE/CAPTURE buckets of callbacks, insertion-ordered."""

    def __init__(self) -> None:
        #: one ``cycle -> [action, ...]`` table per :class:`Phase`
        self._buckets: tuple[dict[int, list], dict[int, list]] = ({}, {})
        #: events scheduled and not yet run
        self.pending = 0

    def __len__(self) -> int:
        """Events scheduled and not yet run: an armed queue is truthy."""
        return self.pending

    def schedule(
        self, cycle: int, phase: Phase, action: Callable[[int], None]
    ) -> None:
        """Register ``action(cycle)`` to run at the given cycle and phase."""
        if cycle < 0:
            raise ValueError(f"cannot schedule at negative cycle {cycle}")
        table = self._buckets[phase]
        bucket = table.get(cycle)
        if bucket is None:
            table[cycle] = [action]
        else:
            bucket.append(action)
        self.pending += 1

    def run_phase(self, cycle: int, phase: Phase) -> int:
        """Execute all events for (cycle, phase); returns the count run.

        An event that schedules more work for the same (cycle, phase)
        opens a fresh bucket, drained before this returns — after every
        event registered earlier, exactly the insertion order.
        """
        table = self._buckets[phase]
        bucket = table.pop(cycle, None)
        if bucket is None:
            return 0
        run = 0
        while bucket is not None:
            self.pending -= len(bucket)
            for action in bucket:
                action(cycle)
            run += len(bucket)
            bucket = table.pop(cycle, None)
        return run

    def clear(self) -> None:
        """Drop every pending event (a new run restarts cycle numbering)."""
        for table in self._buckets:
            table.clear()
        self.pending = 0

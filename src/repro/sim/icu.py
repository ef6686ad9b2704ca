"""Instruction-queue simulation: dispatch, NOP timing, barriers, IFetch.

Every functional slice has an ICU tile; the chip has 144 independent
instruction queues whose program order the compiler controls explicitly
(Section II).  This module implements:

* cycle-precise dispatch with ``NOP n`` occupying exactly n cycles;
* ``Repeat n, d`` re-executing the previous instruction;
* the ``Sync``/``Notify`` chip-wide barrier with the paper's 35-cycle
  release latency;
* the ``Ifetch`` instruction-supply model — each queue has a finite buffer
  that drains by encoded instruction size and refills 640 bytes per fetch.
  In strict mode a queue that runs dry raises :class:`IqUnderflowError`,
  enforcing the paper's "IQs never go empty" requirement.

Nothing here polls.  Every queue knows the cycle of its next action (its
``wake``: the end of the current instruction's occupancy, or a parked
``Sync``'s release), and a :class:`QueueSet` keeps the queues of one run
indexed by it, so a cycle costs one :meth:`IcuQueue.step` per queue that
actually acts — the compiler-known schedule the paper describes, honoured
by the host loop too.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterator

from ..errors import IqUnderflowError, SimulationError
from ..isa.base import Instruction
from ..isa.encoding import encoded_length
from ..isa.icu import Config, Ifetch, Nop, Notify, Repeat, Sync
from ..isa.program import IcuId, Program
from .events import Phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chip import TspChip


#: the post-reset barrier's ``Notify`` and ``Sync`` (``warmup_barrier``):
#: dispatched like any instruction, but no part of the program text — a
#: dispatch of one of these objects is the barrier's
RESET_SEQUENCE = (Notify(), Sync())


class BarrierController:
    """Chip-wide Sync/Notify barrier (Section III-A2).

    A ``Notify`` issued at cycle ``t`` releases every parked ``Sync`` at
    ``t + barrier_latency`` (35 cycles on the full chip: broadcast plus
    retire).  Multiple barriers are supported: each release is an epoch, and
    a Sync parks until the first epoch that releases at or after its park
    cycle.
    """

    def __init__(self, latency: int) -> None:
        self.latency = latency
        self._releases: list[int] = []

    def notify(self, cycle: int) -> int:
        release = cycle + self.latency
        self._releases.append(release)
        return release

    def release_for(self, park_cycle: int) -> int | None:
        """Earliest release cycle satisfying a Sync parked at ``park_cycle``."""
        candidates = [r for r in self._releases if r >= park_cycle]
        return min(candidates) if candidates else None


class IcuQueue:
    """One independent instruction queue and its dispatcher.

    ``wake`` is the cycle of the queue's next action — dispatching its
    next instruction, or retiring a released ``Sync`` — and ``None`` when
    it has none of its own: it retired everything, or it is parked with no
    ``Notify`` in flight (a later Notify is a dispatch on another queue,
    which re-files this one; see :meth:`QueueSet.release_parked`).  Before
    ``wake``, :meth:`step` is a guaranteed no-op — the contract that lets
    the owning :class:`QueueSet` step only the queues that are due.
    """

    def __init__(
        self,
        owner: "QueueSet",
        icu: IcuId,
        instructions: list[Instruction],
        index: int,
    ) -> None:
        chip = owner.chip
        self.owner = owner
        self.chip = chip
        self.icu = icu
        self.index = index
        self._name = str(icu)
        #: the functional slice this queue feeds, bound once per run
        self.unit = chip.unit_for(icu)
        self.instructions = instructions
        self.pc = 0
        self.busy_until = 0
        self.wake: int | None = 0 if instructions else None
        self.park_cycle: int | None = None
        #: index of the last unit instruction (a ``Repeat`` re-issues it)
        self._previous: int | None = None
        #: each instruction's occupancy when the chip keeps dispatches
        #: (:meth:`~repro.sim.chip.TspChip.make_queues`), else None
        self.occupancy: list[int] | None = None

        # instruction-supply model: structural sizes, totalled once
        self._sizes = [encoded_length(i) for i in instructions]
        total_text = sum(self._sizes)
        capacity = chip.config.iq_capacity_bytes
        self.buffer_bytes = min(total_text, capacity)
        self.unfetched_bytes = total_text - self.buffer_bytes

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Retired every instruction — a parked Sync has not retired."""
        return self.pc >= len(self.instructions) and self.park_cycle is None

    @property
    def parked(self) -> bool:
        return self.park_cycle is not None

    def prepend(self, instructions: list[Instruction]) -> None:
        """Put reset-sequence instructions ahead of the program text.

        They dispatch like any instruction but were never part of the
        fetched text, so the supply model's totals stay the program's.
        """
        self.instructions[0:0] = instructions
        self._sizes[0:0] = [encoded_length(i) for i in instructions]
        self.wake = 0

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Act at ``cycle``: retire a released Sync, then dispatch."""
        wake = self.wake
        if wake is None or cycle < wake:
            return  # retired, parked, or still occupied
        chip = self.chip
        if self.park_cycle is not None:
            self.park_cycle = None
            if self.pc >= len(self.instructions):
                self.wake = None  # the Sync was the final instruction
                return

        pc = self.pc
        instruction = self.instructions[pc]
        self._consume_text(self._sizes[pc], cycle)
        self.pc += 1
        chip.record_dispatch(self.icu, self._name, instruction, cycle,
                             self.occupancy and self.occupancy[pc])
        handler = _ICU_HANDLERS.get(type(instruction))
        if handler is None:
            # a slice-specific instruction: hand to the functional unit
            self.unit.execute(self.icu, instruction, cycle)
            self._previous = pc
            self.busy_until = cycle + 1
        else:
            handler(self, instruction, cycle)
        if self.park_cycle is None:  # a Sync files its own wake
            if self.pc < len(self.instructions):
                # each queue issues at most once per cycle (NOP 0 included)
                self.wake = max(self.busy_until, cycle + 1)
            else:
                self.wake = None

    # ------------------------------------------------------------------
    def _consume_text(self, size: int, cycle: int) -> None:
        if self.buffer_bytes < size:
            if self.chip.strict_ifetch:
                raise IqUnderflowError(
                    f"{self.icu} ran dry at cycle {cycle}: buffer "
                    f"{self.buffer_bytes} B < instruction {size} B "
                    f"({self.unfetched_bytes} B never fetched)",
                    cycle=cycle,
                    unit=self._name,
                )
            # lax mode: assume omniscient prefetch topped the queue up
            self.buffer_bytes = size
        self.buffer_bytes -= size

    # ------------------------------------------------------------------
    # ICU-common instructions (every slice's queue executes these itself)
    # ------------------------------------------------------------------
    def _exec_nop(self, instruction: Nop, cycle: int) -> None:
        self.busy_until = cycle + instruction.count

    def _exec_sync(self, instruction: Sync, cycle: int) -> None:
        self.park_cycle = cycle
        self.busy_until = cycle + 1
        release = self.chip.barrier.release_for(cycle)
        self.wake = None if release is None else max(release, cycle + 1)

    def _exec_notify(self, instruction: Notify, cycle: int) -> None:
        release = self.chip.barrier.notify(cycle)
        self.busy_until = cycle + 1
        self.owner.release_parked(release, cycle, self.index)

    def _exec_config(self, instruction: Config, cycle: int) -> None:
        self.chip.set_superlane_power(
            instruction.superlane, instruction.power_on
        )
        self.busy_until = cycle + 1

    def _exec_ifetch(self, instruction: Ifetch, cycle: int) -> None:
        """Refill the queue with up to 640 bytes of program text.

        The fetch takes only what fits when it lands: bytes beyond the IQ
        capacity stay unfetched (the compiler paces fetches accordingly).
        """
        arrival = cycle + self.chip.timing.functional_delay("Ifetch")

        def _arrive(_c: int) -> None:
            take = min(
                self.chip.config.ifetch_bytes,
                self.unfetched_bytes,
                self.chip.config.iq_capacity_bytes - self.buffer_bytes,
            )
            take = max(take, 0)
            self.unfetched_bytes -= take
            self.buffer_bytes += take
            self.chip.activity.sram_read_bytes += take

        self.chip.events.schedule(arrival, Phase.DRIVE, _arrive)
        self.busy_until = cycle + 1

    def _exec_repeat(self, instruction: Repeat, cycle: int) -> None:
        """Re-execute the previous instruction n times, d cycles apart."""
        if self._previous is None:
            raise SimulationError(
                f"{self.icu}: Repeat with no previous instruction",
                cycle=cycle,
                unit=self._name,
            )
        previous = self.instructions[self._previous]
        occupancy = self.occupancy and self.occupancy[self._previous]
        unit = self.unit
        for k in range(instruction.n):
            when = cycle + k * instruction.d
            # dispatch through the event queue so iteration timing is exact
            self.chip.events.schedule(
                when,
                Phase.CAPTURE,
                lambda c, ins=previous: unit.execute(self.icu, ins, c),
            )
            self.chip.record_dispatch(
                self.icu, self._name, previous, when, occupancy
            )
        self.busy_until = cycle + (instruction.n - 1) * instruction.d + 1


#: instruction type -> the queue's own handler; anything absent belongs to
#: the queue's functional unit
_ICU_HANDLERS = {
    Nop: IcuQueue._exec_nop,
    Sync: IcuQueue._exec_sync,
    Notify: IcuQueue._exec_notify,
    Ifetch: IcuQueue._exec_ifetch,
    Config: IcuQueue._exec_config,
    Repeat: IcuQueue._exec_repeat,
}


class QueueSet:
    """The instruction queues of one run, indexed by wake cycle.

    Each queue is in exactly one place: the ``(wake, index)`` heap of
    queues with a known next action, the list parked on a ``Sync`` that no
    ``Notify`` has released yet, or retired — counted out of ``live``,
    with its trailing occupancy folded into ``drain``.  A cycle steps the
    due heap entries in queue order, the chip's fixed dispatch order.
    """

    def __init__(
        self, chip: "TspChip", program: Program, warmup_barrier: bool = False
    ) -> None:
        self.chip = chip
        self.queues = [
            IcuQueue(self, icu, list(program.queue(icu)), index)
            for index, icu in enumerate(program.icus)
        ]
        if warmup_barrier and self.queues:
            # the paper's compulsory post-reset barrier: every queue parks
            # on Sync; the notifier queue issues Notify first, then parks
            # too, so all queues resume at the same release cycle and the
            # compiled schedule keeps its relative timing
            notify, sync = RESET_SEQUENCE
            for queue in self.queues[1:]:
                queue.prepend([sync])
            self.queues[0].prepend([notify, sync])
        #: queues that have not retired
        self.live = 0
        #: cycle at which the last retired queue's occupancy (a trailing
        #: NOP is timed behaviour) has elapsed
        self.drain = 0
        self._due: list[tuple[int, int]] = []
        self._parked: list[IcuQueue] = []
        for queue in self.queues:
            if queue.wake is not None:
                self.live += 1
                self._due.append((queue.wake, queue.index))

    def __len__(self) -> int:
        return len(self.queues)

    def __iter__(self) -> Iterator[IcuQueue]:
        return iter(self.queues)

    def __getitem__(self, index: int) -> IcuQueue:
        return self.queues[index]

    # ------------------------------------------------------------------
    def dispatch(self, cycle: int) -> None:
        """Step every queue whose wake has come, in queue order."""
        due = self._due
        queues = self.queues
        while due and due[0][0] <= cycle:
            queue = queues[heappop(due)[1]]
            queue.step(cycle)
            wake = queue.wake
            if wake is not None:
                heappush(due, (wake, queue.index))
            elif queue.park_cycle is not None:
                self._parked.append(queue)
            else:
                self.live -= 1
                if queue.busy_until > self.drain:
                    self.drain = queue.busy_until

    def release_parked(self, release: int, cycle: int, notifier: int) -> None:
        """A Notify issued at ``cycle`` releases at ``release``: re-file
        every queue that was parked with nothing to wait for.

        A queue the sweep has already passed this cycle cannot act before
        the next one; a later queue still can (a zero-latency barrier).
        """
        for queue in self._parked:
            first = cycle if queue.index > notifier else cycle + 1
            queue.wake = max(release, first)
            heappush(self._due, (queue.wake, queue.index))
        self._parked.clear()

    # ------------------------------------------------------------------
    @property
    def deadlocked(self) -> bool:
        """Every unretired queue is parked and no Notify is in flight."""
        return self.live > 0 and len(self._parked) == self.live

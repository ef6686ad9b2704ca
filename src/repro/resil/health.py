"""Chip health monitoring: CSR polling, wearout trends, and the watchdog.

Section II-D's fleet-health story: every automatically corrected soft
error is logged to a CSR, and accumulating corrections are an early
wearout signal used to identify marginal chips before they fail.  A
:class:`HealthMonitor` polls that CSR model together with the C2C link
fault counters (:class:`repro.sim.c2c.C2cLink`) into per-chip
:class:`HealthReport` snapshots and tracks the correction *trend* across
polls.

The :class:`Watchdog` is the liveness half: armed on a chip
(:meth:`repro.sim.chip.TspChip.arm_watchdog`), it aborts a run whose
deadline passes with work still unfinished — hung ICU queues, a barrier
release that never comes from a peer chip, a serving deadline missed.
The check runs from the deadline cycle on, so the fault names that exact
cycle, and a healthy run that finishes before the deadline is untouched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..arch.geometry import Hemisphere
from ..errors import SimulationError
from ..sim.chip import TspChip
from .degrade import Blacklist

#: default CSR correction count at which a chip is flagged marginal
#: (mirrors FaultInjector.wearout_flag)
WEAROUT_THRESHOLD = 10


@dataclass(frozen=True)
class Watchdog:
    """A deadline monitor for :meth:`TspChip.arm_watchdog`.

    ``deadline`` is a cycle number of the *current run*; if the program
    has not finished when it is reached, the run aborts with a
    :class:`~repro.errors.WatchdogError` naming the hung queues, the
    chip, and the cycle.
    """

    deadline: int
    label: str = "deadline"


@dataclass(frozen=True)
class LinkHealth:
    """Fault-counter snapshot of one C2C link endpoint."""

    unit: str
    link: int
    connected: bool
    deskewed: bool
    epoch: int
    sent: int
    received: int
    corrected: int
    retries: int
    uncorrectable: int
    dropped: int

    @property
    def failed(self) -> bool:
        return self.uncorrectable > 0 or self.dropped > 0

    @property
    def marginal(self) -> bool:
        return self.corrected > 0 or self.retries > 0


@dataclass(frozen=True)
class HealthReport:
    """One chip's health at one poll.

    ``verdict`` is ``"healthy"``, ``"marginal"`` (corrections accumulated
    — the early-wearout signal — or links needed FEC/retries), or
    ``"failed"`` (uncorrectable or lost transfers observed).
    """

    chip_id: int | str | None
    cycle: int
    ecc_corrections: int
    correction_delta: int
    wearout: bool
    links: tuple[LinkHealth, ...] = ()
    verdict: str = "healthy"

    def render(self) -> str:
        lines = [
            f"chip {self.chip_id if self.chip_id is not None else '?'} "
            f"@ cycle {self.cycle}: {self.verdict} "
            f"(ecc corrections {self.ecc_corrections}, "
            f"+{self.correction_delta} since last poll"
            f"{', WEAROUT' if self.wearout else ''})"
        ]
        for lh in self.links:
            lines.append(
                f"  {lh.unit}.link{lh.link}: sent {lh.sent} "
                f"recv {lh.received} corrected {lh.corrected} "
                f"retries {lh.retries} uncorrectable {lh.uncorrectable} "
                f"dropped {lh.dropped}"
                f"{' deskewed' if lh.deskewed else ''}"
            )
        return "\n".join(lines)


class HealthMonitor:
    """Polls chips into :class:`HealthReport` s and tracks wearout trends.

    The monitor is passive: it reads counters the simulator maintains
    anyway (the SRF correction CSR and the per-link fault counters), so
    an attached-but-idle monitor adds zero per-cycle cost to a run.

    Memory is bounded: both the per-chip poll history and the report log
    keep only the most recent ``history_cap`` entries — a serving worker
    polls between every batch, so a long-lived monitor must cost
    O(history_cap), not O(polls).  :meth:`trend` therefore measures the
    wearout slope over the retained window.
    """

    def __init__(
        self,
        wearout_threshold: int = WEAROUT_THRESHOLD,
        history_cap: int = 256,
    ) -> None:
        self.wearout_threshold = wearout_threshold
        self.history_cap = history_cap
        #: poll history per chip: recent (cycle, csr corrections) pairs
        self._history: dict[int, deque[tuple[int, int]]] = {}
        self.reports: deque[HealthReport] = deque(maxlen=history_cap)

    # ------------------------------------------------------------------
    def poll(self, chip: TspChip, cycle: int | None = None) -> HealthReport:
        """Snapshot one chip's CSRs and link counters."""
        if cycle is None:
            cycle = chip.now
        corrections = chip.srf.corrections
        history = self._history.setdefault(
            id(chip), deque(maxlen=self.history_cap)
        )
        previous = history[-1][1] if history else 0
        history.append((cycle, corrections))

        links = []
        for hemisphere in (Hemisphere.WEST, Hemisphere.EAST):
            unit = chip.c2c_unit(hemisphere)
            for link in unit.links:
                if link.peer is None and not link.sent_vectors:
                    continue  # unwired and silent: not worth reporting
                links.append(
                    LinkHealth(
                        unit=unit.name,
                        link=link.index,
                        connected=link.peer is not None,
                        deskewed=link.deskewed,
                        epoch=link.deskew_epoch,
                        sent=link.sent_vectors,
                        received=link.received_vectors,
                        corrected=link.corrected,
                        retries=link.retries,
                        uncorrectable=link.uncorrectable,
                        dropped=link.dropped,
                    )
                )

        wearout = corrections >= self.wearout_threshold
        if any(lh.failed for lh in links):
            verdict = "failed"
        elif wearout or any(lh.marginal for lh in links):
            verdict = "marginal"
        else:
            verdict = "healthy"
        report = HealthReport(
            chip_id=chip.chip_id,
            cycle=cycle,
            ecc_corrections=corrections,
            correction_delta=corrections - previous,
            wearout=wearout,
            links=tuple(links),
            verdict=verdict,
        )
        self.reports.append(report)
        return report

    def poll_system(self, system, cycle: int | None = None) -> list[HealthReport]:
        """Poll every chip of a :class:`~repro.sim.MultiChipSystem`."""
        return [self.poll(chip, cycle) for chip in system.chips]

    # ------------------------------------------------------------------
    def trend(self, chip: TspChip) -> float:
        """Mean CSR corrections accumulated per poll — the wearout slope.

        A rising value on a chip in steady-state traffic is the paper's
        early-wearout indicator: the same workload needing progressively
        more corrections marks a marginal part.
        """
        history = self._history.get(id(chip), [])
        if len(history) < 2:
            return 0.0
        first, last = history[0][1], history[-1][1]
        return (last - first) / (len(history) - 1)


# host-level probes: the serving repair policy's measurements
def probe_memory(*chips, skip: Blacklist | None = None) -> None:
    """Host-level SRAM sweep: write+read one word in every MEM slice.

    The repair policy's probe: cheap (no compile, no simulation run) yet
    it touches every slice of every one of ``chips``, so a dead slice
    raises :class:`~repro.errors.MemoryFaultError` with the slice's unit
    context.  Slices on ``skip`` are not probed (known-dead hardware a
    degraded blacklist already routes around).
    """
    skip_slices = skip.mem_slices if skip is not None else frozenset()
    for chip in chips:
        for hemisphere in Hemisphere:
            for index in range(chip.config.mem_slices_per_hemisphere):
                if (hemisphere, index) in skip_slices:
                    continue
                unit = chip.mem_unit(hemisphere, index)
                word = unit.host_read(0)
                unit.host_write(0, word)


def blacklist_recovered(chips, blacklist: Blacklist) -> bool:
    """True when every blacklisted resource probes healthy again.

    The degraded worker's periodic re-check.  Only MEM slices are
    probeable from the host; a blacklist carrying MXM planes or ring
    cables is conservatively treated as still faulty (those need a full
    compiled probe, which quarantine-and-repair covers).
    """
    if blacklist.mxm_planes or blacklist.ring_cables:
        return False
    for chip in chips:
        for hemisphere, index in blacklist.mem_slices:
            unit = chip.mem_unit(hemisphere, index)
            if unit.dead:
                return False
            try:
                unit.host_read(0)
            except SimulationError:
                return False
    return True

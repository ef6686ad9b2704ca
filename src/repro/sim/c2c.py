"""C2C simulation: deterministic chip-to-chip vector transport.

Each hemisphere's C2C module owns half the chip's links.  ``Send`` samples a
320-byte vector off a stream and ships it down a link; the vector arrives at
the peer after the link's fixed latency, where a ``Receive`` emplaces it
into a MEM slice (the lightweight DMA path of Section II item 6).  Links
are plesiochronous: in strict mode a link must be ``Deskew``-ed before
carrying traffic, otherwise transport would not be aligned to the core
clock and determinism would be lost.

Resilience model (Section II-D applied to the fabric): a link may carry a
:class:`LinkErrorModel` describing a *deterministic* error process — a
seeded bit-error rate, burst errors, deskew drift, or a dead link.  Every
shipped vector then rides with SECDED check bits per 16-byte superlane
word (the same code MEM uses, :mod:`repro.sim.ecc`), and the sender
pre-schedules retransmission copies spaced one link flight apart.  The
receiver consumes the first FEC-clean copy whose arrival has elapsed, so
recovery never involves arbitration or reactive timing: retries consume
schedule slack the compiler reserved up front (:attr:`C2cLink.
arrival_latency`), and a ``Receive`` placed after that slack observes
bit-identical data and timing whether zero or ``max_retries``
retransmissions were needed.  Corruption is a pure function of ``(seed,
link, sequence, attempt)`` — never of cycles — so any two runs see
byte-identical faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..arch.geometry import Hemisphere, SliceAddress, SliceKind
from ..errors import C2cLinkError, SimulationError
from ..isa.base import Instruction
from ..isa.c2c import Deskew, Receive, Send
from ..isa.program import IcuId
from . import ecc
from .events import Phase
from .unit import FunctionalUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chip import TspChip

#: Fixed one-way link latency, in core-clock cycles.  The paper does not
#: publish it; SerDes + deskew buffers on a 30 Gb/s x4 link are a few tens
#: of nanoseconds, so we model 24 cycles at ~1 GHz.
DEFAULT_LINK_LATENCY = 24


@dataclass(frozen=True)
class LinkErrorModel:
    """A deterministic error process for one C2C link egress.

    Attach to the *sending* endpoint (``C2cUnit.set_error_model``); every
    vector it ships is then corrupted as a pure function of ``(seed,
    link index, sequence number, attempt)``.  No term depends on
    wall-clock cycles, so any two runs with the same seed observe
    byte-identical faults.

    * ``ber`` — independent per-bit flip probability per transfer attempt.
    * ``burst`` — ``(first_seq, n_vectors)``: those sequence numbers take
      an uncorrectable double-bit hit on their first attempt, forcing the
      retransmission path.
    * ``deskew_drift_every`` — the link loses deskew calibration after
      every N sends (strict-mode traffic must re-``Deskew``).
    * ``dead_after`` — from this sequence number on, the link is dark:
      vectors are lost in transit and the scheduled ``Receive`` faults.
    * ``max_retries`` — retransmission copies the sender pre-schedules;
      the compiler must reserve ``max_retries`` extra link flights of
      slack (see :attr:`C2cLink.arrival_latency`).
    """

    seed: int = 0
    ber: float = 0.0
    burst: tuple[int, int] | None = None
    deskew_drift_every: int | None = None
    dead_after: int | None = None
    max_retries: int = 1

    def is_dead(self, seq: int) -> bool:
        return self.dead_after is not None and seq >= self.dead_after

    def in_burst(self, seq: int) -> bool:
        return (
            self.burst is not None
            and self.burst[0] <= seq < self.burst[0] + self.burst[1]
        )

    def flip_bits(
        self, link_index: int, seq: int, attempt: int, n_bits: int
    ) -> np.ndarray:
        """Sorted bit positions corrupted on this transfer attempt."""
        if attempt == 0 and self.in_burst(seq):
            # a burst hit: two flips in the same 128-bit word —
            # detectable by SECDED but uncorrectable, forcing a retry
            return np.array([0, 1], dtype=np.int64)
        if self.ber <= 0.0:
            return np.empty(0, dtype=np.int64)
        rng = np.random.default_rng(
            [self.seed, link_index, seq, attempt]
        )
        n = int(rng.binomial(n_bits, self.ber))
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(rng.choice(n_bits, size=n, replace=False))


@dataclass
class Flight:
    """One vector in transit: the primary copy plus any pre-scheduled
    retransmission copies, each as ``(arrival_cycle, payload)``.

    A ``None`` payload marks a copy lost to a dead link.  ``checks`` are
    the FEC check bits computed at capture (``None`` when the sending
    link carries no error model, whose transport is exact).
    """

    seq: int
    epoch: int
    attempts: list[tuple[int, np.ndarray | None]]
    checks: np.ndarray | None = None


class C2cLink:
    """One x4 link endpoint: wiring and error process here; the chip sets
    the rest, the CSR counters health polls too (``sim.chip.STATE``)."""

    def __init__(self, index: int, hemisphere: Hemisphere) -> None:
        self.index = index
        self.hemisphere = hemisphere
        self.peer: tuple["C2cUnit", int] | None = None
        self.latency = DEFAULT_LINK_LATENCY
        self.error_model: LinkErrorModel | None = None

    @property
    def retry_latency(self) -> int:
        """A retransmission is one more full link flight."""
        return self.latency

    @property
    def arrival_latency(self) -> int:
        """Capture-to-consumable latency a schedule must reserve.

        Without an error model this is the plain link latency.  With one,
        it additionally covers every pre-scheduled retransmission, so a
        ``Receive`` placed at ``capture + arrival_latency`` (or later)
        succeeds whenever *any* copy decodes — the pre-reserved slack that
        keeps recovery off the arbitration path.
        """
        if self.error_model is None:
            return self.latency
        return self.latency + self.error_model.max_retries * self.retry_latency


class C2cUnit(FunctionalUnit):
    """One hemisphere's chip-to-chip module."""

    def __init__(self, chip: "TspChip", address: SliceAddress) -> None:
        super().__init__(chip, address)
        n_links = chip.config.c2c_links // chip.config.hemispheres
        self.links = [
            C2cLink(i, address.hemisphere) for i in range(n_links)
        ]

    # ------------------------------------------------------------------
    def connect(
        self, link: int, peer_unit: "C2cUnit", peer_link: int,
        latency: int = DEFAULT_LINK_LATENCY,
    ) -> None:
        """Wire a link to a peer endpoint (possibly on another chip)."""
        self.links[link].peer = (peer_unit, peer_link)
        self.links[link].latency = latency
        peer_unit.links[peer_link].peer = (self, link)
        peer_unit.links[peer_link].latency = latency

    def loopback(self, link: int, latency: int = DEFAULT_LINK_LATENCY) -> None:
        """Wire a link to itself — useful for single-chip tests."""
        self.connect(link, self, link, latency)

    def set_error_model(
        self, link: int, model: LinkErrorModel | None
    ) -> None:
        """Attach (or clear) the error process on this egress."""
        self._link(link).error_model = model

    # ------------------------------------------------------------------
    def execute(self, icu: IcuId, instruction: Instruction, cycle: int) -> None:
        if isinstance(instruction, Deskew):
            self._exec_deskew(instruction, cycle)
        elif isinstance(instruction, Send):
            self._exec_send(instruction, cycle)
        elif isinstance(instruction, Receive):
            self._exec_receive(instruction, cycle)
        else:
            super().execute(icu, instruction, cycle)

    def _link(self, index: int) -> C2cLink:
        if not 0 <= index < len(self.links):
            raise SimulationError(
                f"{self.address}: link {index} does not exist "
                f"(hemisphere owns {len(self.links)})",
                unit=self.name,
            )
        return self.links[index]

    # ------------------------------------------------------------------
    def _exec_deskew(self, instruction: Deskew, cycle: int) -> None:
        link = self._link(instruction.link)

        def _done(_c: int) -> None:
            link.deskewed = True
            link.deskew_epoch += 1

        self.chip.events.schedule(
            cycle + self.dfunc(instruction), Phase.DRIVE, _done
        )

    def _exec_send(self, instruction: Send, cycle: int) -> None:
        link = self._link(instruction.link)
        if link.peer is None:
            raise SimulationError(
                f"{self.address}: link {instruction.link} is not connected",
                cycle=cycle,
                unit=self.name,
            )
        if self.chip.strict_c2c and not link.deskewed:
            raise SimulationError(
                f"{self.address}: link {instruction.link} used before Deskew",
                cycle=cycle,
                unit=self.name,
            )
        peer_unit, peer_index = link.peer

        def _ship(vector: np.ndarray) -> None:
            t_capture = cycle + self.dskew(instruction)
            flight = self._make_flight(link, vector, t_capture)
            link.tx_seq += 1
            model = link.error_model
            if (
                model is not None
                and model.deskew_drift_every is not None
                and link.tx_seq % model.deskew_drift_every == 0
            ):
                # plesiochronous drift: calibration is lost until the
                # schedule issues another Deskew
                link.deskewed = False
            peer_unit._link(peer_index).rx_queue.append(flight)
            link.sent_vectors += 1

        self.capture_at(
            cycle + self.dskew(instruction),
            instruction.direction,
            instruction.stream,
            _ship,
        )

    def _make_flight(
        self, link: C2cLink, vector: np.ndarray, t_capture: int
    ) -> Flight:
        """Build the in-transit record for one captured vector.

        With no error model this is a single exact copy.  With one, the
        copy is corrupted by the seeded process and retransmission copies
        are materialized one link flight apart until a copy decodes (or
        ``max_retries`` is exhausted) — all decided here, at capture, so
        transport stays a pure schedule-time function.
        """
        model = link.error_model
        seq = link.tx_seq
        if model is None:
            return Flight(
                seq, link.deskew_epoch,
                [(t_capture + link.latency, vector.copy())],
            )
        n_superlanes = self.chip.config.n_superlanes
        words = vector.reshape(n_superlanes, -1)
        checks = ecc.encode_checks(words)
        if model.is_dead(seq):
            link.dropped += 1
            if self.chip.obs is not None:
                self.chip.obs.on_link_event(
                    self.name, link.index, t_capture, "dropped"
                )
            return Flight(
                seq, link.deskew_epoch,
                [(t_capture + link.latency, None)], checks,
            )
        attempts: list[tuple[int, np.ndarray | None]] = []
        for attempt in range(model.max_retries + 1):
            arrival = t_capture + link.latency + attempt * link.retry_latency
            payload = vector.copy()
            for bit in model.flip_bits(
                link.index, seq, attempt, payload.size * 8
            ):
                payload[bit // 8] ^= np.uint8(1 << (bit % 8))
            attempts.append((arrival, payload))
            result = ecc.verify_and_correct(
                payload.reshape(n_superlanes, -1), checks,
                raise_on_double=False,
            )
            if result.detected_uncorrectable == 0:
                break  # this copy will decode; later copies are moot
        return Flight(seq, link.deskew_epoch, attempts, checks)

    # ------------------------------------------------------------------
    def _exec_receive(self, instruction: Receive, cycle: int) -> None:
        link = self._link(instruction.link)
        when = cycle + self.dfunc(instruction)

        def _emplace(_c: int) -> None:
            if not link.rx_queue:
                raise C2cLinkError(
                    f"{self.address}: Receive on link {instruction.link} "
                    f"at cycle {_c} with nothing in flight",
                    cycle=_c,
                    unit=self.name,
                )
            flight = link.rx_queue[0]
            first_arrival = flight.attempts[0][0]
            if first_arrival > _c:
                raise SimulationError(
                    f"{self.address}: Receive at cycle {_c} but the vector "
                    f"arrives only at {first_arrival} — schedule after link "
                    f"latency",
                    cycle=_c,
                    unit=self.name,
                )
            link.rx_queue.popleft()
            if self.chip.strict_c2c and flight.epoch != link.deskew_epoch:
                raise C2cLinkError(
                    f"{self.address}: deskew epoch mismatch on link "
                    f"{instruction.link} — vector seq {flight.seq} sent at "
                    f"epoch {flight.epoch}, receiver at epoch "
                    f"{link.deskew_epoch}; realign both endpoints with "
                    f"Deskew",
                    cycle=_c,
                    unit=self.name,
                )
            vector = self._decode(link, flight, _c)
            link.received_vectors += 1
            hemisphere = self.address.hemisphere
            mem = self.chip.mem_unit(hemisphere, instruction.mem_slice)
            mem.host_write(instruction.address, vector[None, :])

        self.chip.events.schedule(when, Phase.CAPTURE, _emplace)

    def _decode(
        self, link: C2cLink, flight: Flight, now: int
    ) -> np.ndarray:
        """Consume the first FEC-clean copy of a flight.

        Copies are examined in transmission order; a copy that fails FEC
        counts as a consumed retransmission.  Faults here are final: a
        dead link, a copy that would only arrive after ``now`` (the
        schedule under-reserved retry slack), or every copy failing FEC.
        """
        if flight.checks is None:
            return flight.attempts[0][1]
        n_superlanes = self.chip.config.n_superlanes
        for attempt, (arrival, payload) in enumerate(flight.attempts):
            if payload is None:
                raise C2cLinkError(
                    f"{self.address}: link {link.index} is dead — vector "
                    f"seq {flight.seq} lost in transit",
                    cycle=now,
                    unit=self.name,
                )
            if arrival > now:
                raise C2cLinkError(
                    f"{self.address}: link {link.index} retransmission "
                    f"{attempt} of seq {flight.seq} arrives only at "
                    f"{arrival} — schedule Receive after arrival_latency "
                    f"to reserve retry slack",
                    cycle=now,
                    unit=self.name,
                )
            result = ecc.verify_and_correct(
                payload.reshape(n_superlanes, -1), flight.checks,
                raise_on_double=False,
            )
            if result.detected_uncorrectable == 0:
                if attempt:
                    link.retries += attempt
                    if self.chip.obs is not None:
                        self.chip.obs.on_link_event(
                            self.name, link.index, now, "retry", attempt
                        )
                if result.corrections:
                    link.corrected += result.corrections
                    if self.chip.obs is not None:
                        self.chip.obs.on_link_event(
                            self.name, link.index, now, "corrected",
                            result.corrections,
                        )
                return result.corrected_words.reshape(-1)
        link.uncorrectable += 1
        if self.chip.obs is not None:
            self.chip.obs.on_link_event(
                self.name, link.index, now, "uncorrectable"
            )
        raise C2cLinkError(
            f"{self.address}: uncorrectable error on link {link.index} — "
            f"vector seq {flight.seq} failed FEC on all "
            f"{len(flight.attempts)} copies",
            cycle=now,
            unit=self.name,
        )

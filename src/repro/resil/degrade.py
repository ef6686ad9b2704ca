"""Degraded-mode recompilation: route around dead hardware.

The TSP's determinism makes graceful degradation a *compiler* feature,
not a runtime one: there is no arbiter to mask a dead SRAM tile or a
dark C2C cable, so resilience means re-planning the schedule against a
:class:`Blacklist` of failed resources and proving the result still
computes the same bits.

Three degradation axes are supported:

* **Dead MEM slice** — the allocator never offers it as a placement
  candidate (:class:`repro.compiler.allocator.MemoryAllocator`); feeds,
  operands and results fall onto the next-nearest healthy slices.
* **Dead MXM plane** — the scheduler offers matmuls only the surviving
  planes (:meth:`repro.compiler.scheduler.Scheduler._plane_offers`),
  trading throughput (fewer planes to spread rows over) for correctness.
* **Dead C2C cable** — ring traffic is re-routed the long way around
  (:func:`plan_ring_route`), and :func:`build_ring_transfer` emits the
  fully timed store-and-forward programs for the surviving path.

:func:`assert_avoids` is the independent check that a recompiled program
really keeps off the blacklist — it scans the placed memory image and
every ICU the program dispatches to, so a scheduler regression cannot
silently re-use dead hardware.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import Direction, Hemisphere, SliceKind
from ..compiler.partition import TimedProgram
from ..errors import C2cLinkError, CompileError, ConfigError, MemoryFaultError
from ..isa.c2c import Deskew, Receive, Send
from ..isa.mem import Read
from ..isa.program import IcuId, Program


@dataclass(frozen=True)
class Blacklist:
    """Failed resources a degraded-mode compile must route around.

    * ``mem_slices`` — ``(hemisphere, slice_index)`` pairs of dead SRAM
      tiles.
    * ``mxm_planes`` — ``(hemisphere, plane)`` pairs of dead 160x160
      MXM planes.
    * ``ring_cables`` — indices ``i`` of dead ring cables, where cable
      ``i`` is the bidirectional East(i) <-> West(i+1) hop of
      :meth:`repro.sim.MultiChipSystem.ring`.
    """

    mem_slices: frozenset = frozenset()
    mxm_planes: frozenset = frozenset()
    ring_cables: frozenset = frozenset()

    def __bool__(self) -> bool:
        return bool(self.mem_slices or self.mxm_planes or self.ring_cables)

    def __or__(self, other: "Blacklist") -> "Blacklist":
        return Blacklist(
            self.mem_slices | other.mem_slices,
            self.mxm_planes | other.mxm_planes,
            self.ring_cables | other.ring_cables,
        )

    def describe(self) -> str:
        parts = []
        for hemisphere, s in sorted(
            self.mem_slices, key=lambda p: (p[0].value, p[1])
        ):
            parts.append(f"MEM_{hemisphere.value}{s}")
        for hemisphere, plane in sorted(
            self.mxm_planes, key=lambda p: (p[0].value, p[1])
        ):
            parts.append(f"MXM_{hemisphere.value}.plane{plane}")
        for cable in sorted(self.ring_cables):
            parts.append(f"ring-cable{cable}")
        return ", ".join(parts) if parts else "(empty)"


_MEM_UNIT = re.compile(r"MEM_([WE])(\d+)")
_C2C_UNIT = re.compile(r"C2C_([WE])")


def blacklist_from_fault(
    error: BaseException,
    *,
    chip_index: int = 0,
    n_chips: int = 1,
) -> Blacklist | None:
    """Localize a hardware fault into a :class:`Blacklist`, if possible.

    Reads the chip/cycle/unit context :class:`~repro.errors.TspError`
    carries: a :class:`~repro.errors.MemoryFaultError` naming a
    ``MEM_W3``-style unit blacklists that slice; a
    :class:`~repro.errors.C2cLinkError` naming a ``C2C_E``/``C2C_W``
    endpoint on a ring of ``n_chips >= 3`` blacklists the cable behind it
    (``chip_index`` is the faulting chip's ring position; cable ``i`` is
    the East(i) <-> West(i+1) hop).  A 2-chip ring has no alternate arc
    to re-route over, so its link faults — like watchdog fires and
    unattributable errors — return ``None``: not localizable, handle as
    transient.
    """
    unit = getattr(error, "unit", None)
    if unit is None:
        return None
    unit = str(unit)
    if isinstance(error, MemoryFaultError):
        m = _MEM_UNIT.fullmatch(unit)
        if m:
            hemisphere = (
                Hemisphere.WEST if m.group(1) == "W" else Hemisphere.EAST
            )
            return Blacklist(
                mem_slices=frozenset({(hemisphere, int(m.group(2)))})
            )
    if isinstance(error, C2cLinkError) and n_chips >= 3:
        m = _C2C_UNIT.fullmatch(unit)
        if m:
            cable = (
                chip_index
                if m.group(1) == "E"
                else (chip_index - 1) % n_chips
            )
            return Blacklist(ring_cables=frozenset({cable}))
    return None


def compile_degraded(builder, blacklist: Blacklist):
    """Recompile a builder's program against a blacklist.

    ``builder`` is a :class:`repro.compiler.api.StreamProgramBuilder`;
    the returned :class:`~repro.compiler.api.CompiledProgram` is
    verified by :func:`assert_avoids` before it is handed back, so a
    compile that silently touched dead hardware raises here rather than
    producing wrong bits on a real degraded part.
    """
    compiled = builder.compile(blacklist=blacklist)
    assert_avoids(compiled, blacklist)
    return compiled


def assert_avoids(compiled, blacklist: Blacklist) -> None:
    """Prove a compiled program never touches blacklisted hardware.

    Checks both halves of the artifact: every placed word of the memory
    image (weights, constants, inputs, outputs) and every ICU the
    program dispatches instructions to.  MEM instructions can only be
    dispatched by the slice's own ICU and MXM work only by the plane's
    two queues, so the ICU scan covers all compute and data movement.
    """
    for word in compiled.memory_image:
        if (word.hemisphere, word.slice_index) in blacklist.mem_slices:
            raise CompileError(
                f"degraded-mode violation: memory image places a word at "
                f"blacklisted MEM_{word.hemisphere.value}{word.slice_index} "
                f"address {word.address}"
            )
    for spec in list(compiled.inputs.values()) + list(
        compiled.outputs.values()
    ):
        placements = (
            spec.layout.parallel
            if spec.layout.is_parallel
            else spec.layout.planes
        )
        for p in placements:
            if (p.hemisphere, p.slice_index) in blacklist.mem_slices:
                raise CompileError(
                    f"degraded-mode violation: tensor {spec.name} is laid "
                    f"out on blacklisted "
                    f"MEM_{p.hemisphere.value}{p.slice_index}"
                )
    for icu in compiled.program.icus:
        address = icu.address
        if address.kind is SliceKind.MEM:
            key = (address.hemisphere, address.index)
            if key in blacklist.mem_slices:
                raise CompileError(
                    f"degraded-mode violation: program dispatches to the "
                    f"ICU of blacklisted {address}"
                )
        elif address.kind is SliceKind.MXM:
            plane = icu.unit // 2
            if (address.hemisphere, plane) in blacklist.mxm_planes:
                raise CompileError(
                    f"degraded-mode violation: program dispatches to "
                    f"blacklisted {address} plane {plane}"
                )


# ----------------------------------------------------------------------
# Ring re-routing


def plan_ring_route(
    n_chips: int,
    src: int,
    dst: int,
    dead_cables: frozenset | set = frozenset(),
) -> list[int]:
    """Shortest healthy chip path around a ring with dead cables.

    Cable ``i`` is the bidirectional East(i) <-> West(i+1 mod n) hop; a
    dead cable kills both directions.  Returns the chip indices from
    ``src`` to ``dst`` inclusive, preferring the shorter arc, falling
    back to the longer one, and raising :class:`C2cLinkError` when the
    dead set disconnects the pair.
    """
    if not 0 <= src < n_chips or not 0 <= dst < n_chips:
        raise C2cLinkError(
            f"route endpoints {src}->{dst} outside ring of {n_chips}"
        )
    if src == dst:
        return [src]
    clockwise = [
        (src + k) % n_chips for k in range((dst - src) % n_chips + 1)
    ]
    counter = [
        (src - k) % n_chips for k in range((src - dst) % n_chips + 1)
    ]

    def healthy(path: list[int]) -> bool:
        for a, b in zip(path, path[1:]):
            cable = a if b == (a + 1) % n_chips else b
            if cable in dead_cables:
                return False
        return True

    candidates = [p for p in (clockwise, counter) if healthy(p)]
    if not candidates:
        raise C2cLinkError(
            f"no healthy ring route from chip {src} to chip {dst} — dead "
            f"cables {sorted(dead_cables)} disconnect them"
        )
    return min(candidates, key=len)


#: cycles between a detour's sends: each relay re-reads what it received
STORE_AND_FORWARD_INTERVAL = 4


@dataclass
class RingTransferPlan:
    """A timed store-and-forward transfer along a ring route."""

    route: list[int]
    programs: list[Program]
    #: where the payload lands on the destination chip
    dst_hemisphere: Hemisphere | None
    stage_slice: int
    base_address: int
    n_words: int
    #: emplace cycle of the last vector on the destination chip
    last_emplace: int
    timed: list[TimedProgram] = field(repr=False, default_factory=list)


def build_ring_transfer(
    system,
    route: list[int],
    payload: np.ndarray,
    stage_slice: int = 0,
    base_address: int = 0,
    interval: int = STORE_AND_FORWARD_INTERVAL,
) -> RingTransferPlan:
    """Fully timed multi-hop vector transfer along ``route``.

    The payload (``(n_words, n_lanes)`` uint8) is staged on the source
    chip; each hop Reads it back out of the staging slice, Sends it down
    the next cable, and the receiving chip's Receive emplaces it into
    *its* staging slice — classic deterministic store-and-forward, with
    every dispatch cycle computed here at plan time.  Receives are
    placed after :attr:`~repro.sim.c2c.C2cLink.arrival_latency`, so the
    plan already reserves the retransmission slack of any error model
    attached to the cables.

    Because a shortest ring route never reverses direction, data always
    lands in the hemisphere it will next depart *away* from (an eastward
    hop stages in WEST MEM, which feeds the EASTWARD stream path), so
    one staging convention serves every chip on the route.
    """
    n_chips = len(system.chips)
    chip0 = system.chips[0]
    floorplan = chip0.floorplan
    timing = chip0.timing
    payload = np.atleast_2d(np.asarray(payload, dtype=np.uint8))
    n_words = payload.shape[0]
    if not all(0 <= chip < n_chips for chip in route):
        raise ConfigError(
            f"route {route} leaves a {n_chips}-chip system"
        )
    if n_words < 1:
        raise ConfigError("a transfer needs at least one vector")
    words_per_slice = 1 << chip0.config.mem_addr_bits
    if base_address + n_words > words_per_slice:
        raise ConfigError(
            f"{n_words} staged vectors at address {base_address} overflow "
            f"the {words_per_slice}-word MEM slice; chunk the payload"
        )

    timed = [TimedProgram() for _ in range(n_chips)]
    if len(route) == 1:
        system.chips[route[0]].load_memory(
            Hemisphere.WEST, stage_slice, base_address, payload
        )
        return RingTransferPlan(
            route, [t.build() for t in timed], Hemisphere.WEST,
            stage_slice, base_address, n_words, 0, timed,
        )

    eastward = route[1] == (route[0] + 1) % n_chips
    direction = Direction.EASTWARD if eastward else Direction.WESTWARD
    # data flowing east departs from WEST-hemisphere MEM and vice versa
    stage_hemisphere = Hemisphere.WEST if eastward else Hemisphere.EAST
    out_hemisphere = Hemisphere.EAST if eastward else Hemisphere.WEST
    in_hemisphere = stage_hemisphere

    system.chips[route[0]].load_memory(
        stage_hemisphere, stage_slice, base_address, payload
    )

    mem_address = floorplan.mem_slice(stage_hemisphere, stage_slice)
    c2c_out = floorplan.c2c(out_hemisphere)
    hops = floorplan.delta(mem_address, c2c_out)
    probe_read = Read(address=0, stream=0, direction=direction)
    probe_send = Send(link=0, stream=0, direction=direction)
    probe_recv = Receive(link=0, mem_slice=0, address=0)
    d_read = probe_read.dfunc(timing)
    d_send_skew = probe_send.dskew(timing)
    d_recv = probe_recv.dfunc(timing)

    ready = 0  # cycle the staged payload (vector 0) is readable on route[0]
    last_emplace = 0
    for a, b in zip(route, route[1:]):
        if b != (route[1] - route[0] + a) % n_chips and n_chips > 2:
            # defensive: plan_ring_route never produces a reversing path
            raise C2cLinkError(
                f"ring route {route} reverses direction at chip {a}"
            )
        link = system.chips[a].c2c_unit(out_hemisphere).links[0]
        if link.peer is None:
            raise C2cLinkError(
                f"chip {a} {out_hemisphere.value}-link 0 is not wired — "
                f"route {route} crosses a missing cable"
            )
        mem_icu = IcuId(mem_address)
        send_icu = IcuId(c2c_out, 0)
        recv_icu = IcuId(floorplan.c2c(in_hemisphere), 0)
        t_capture0 = ready + d_read + hops
        # calibrate the egress once, well before the first capture
        timed[a].at(send_icu, ready, Deskew(link=0))
        for i in range(n_words):
            t_read = ready + i * interval
            t_capture = t_read + d_read + hops
            t_emplace = t_capture + link.arrival_latency
            timed[a].at(
                mem_icu, t_read,
                Read(address=base_address + i, stream=0, direction=direction),
            )
            timed[a].at(
                send_icu, t_capture - d_send_skew,
                Send(link=0, stream=0, direction=direction),
            )
            timed[b].at(
                recv_icu, t_emplace - d_recv,
                Receive(
                    link=0, mem_slice=stage_slice,
                    address=base_address + i,
                ),
            )
            last_emplace = t_emplace
        # next hop may read vector 0 the cycle after it is emplaced
        ready = t_capture0 + link.arrival_latency + 1

    return RingTransferPlan(
        route, [t.build() for t in timed], in_hemisphere,
        stage_slice, base_address, n_words, last_emplace, timed,
    )


def read_transferred(system, plan: RingTransferPlan) -> np.ndarray:
    """Read a completed transfer's payload back off the destination chip."""
    dst = system.chips[plan.route[-1]]
    return dst.read_memory(
        plan.dst_hemisphere, plan.stage_slice, plan.base_address,
        plan.n_words,
    )

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
* **Dead C2C cable** — :func:`blacklist_from_fault` names the cable, and
  the compiler's transfer planner
  (:meth:`repro.compiler.PartitionPlan.transfer`) re-routes the ring
  traffic the long way around, with fully timed store-and-forward
  programs for the surviving path.

:func:`assert_avoids` is the independent check that a recompiled program
really keeps off the blacklist — it scans the placed memory image and
every ICU the program dispatches to, so a scheduler regression cannot
silently re-use dead hardware.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..arch.geometry import Hemisphere, SliceKind
from ..errors import C2cLinkError, CompileError, MemoryFaultError


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

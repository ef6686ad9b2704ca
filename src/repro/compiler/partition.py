"""Pipeline partitioning, and the host-side pieces of C2C forwarding.

The paper provisions 3.84 Tb/s of deterministic chip-to-chip bandwidth so
"large-scale systems" stay schedulable by a single compiler: Send and
Receive are ordinary scheduled instructions, the links have fixed latency,
and retransmission slack is pre-reserved at plan time
(:attr:`repro.sim.c2c.C2cLink.arrival_latency`) — never arbitrated.  This
module is the compiler side of that story for pipeline parallelism:

* :func:`partition_contiguous` — split an ordered list of layer costs
  into contiguous per-chip stages, every stage non-empty (an empty stage
  is a silently wasted chip; it is a :class:`~repro.errors.ConfigError`
  here, mirroring the ``ring(n_chips=1)`` guard).
* :class:`PartitionPlan` — the named stages plus a content fingerprint,
  so every partition-dependent cached artifact (C2C transfer programs,
  serve-layer entries) keys on *which* split produced it.
* :func:`pack_payload` / :func:`unpack_payload` — raw-byte packing of an
  activation tensor into the ``(n_words, n_lanes)`` uint8 vectors the
  C2C links ship.
* :class:`TimedProgram` — absolute dispatch cycles -> ``Nop``-padded ICU
  queues: a planner thinks in absolute cycles and lets the helper insert
  the gaps.

The timed Read -> Send -> Receive programs themselves have one planner,
:func:`repro.resil.degrade.build_ring_transfer`: a stage boundary is a
two-chip route.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..config import ArchConfig
from ..errors import CompileError, ConfigError
from ..isa.icu import Nop
from ..isa.program import IcuId, Program
from .cachekey import config_fingerprint


class TimedProgram:
    """Build a :class:`Program` from absolute dispatch cycles.

    Planners think in absolute cycles ("Send must dispatch at
    capture - d_skew"); ICU queues think in relative order with ``Nop``
    gap fillers.  This helper converts: record ``at(icu, cycle,
    instruction)`` pairs, then :meth:`build` sorts each queue and inserts
    the exact ``Nop`` padding.
    """

    def __init__(self) -> None:
        self._queues: dict[IcuId, list[tuple[int, object]]] = {}

    def at(self, icu: IcuId, cycle: int, instruction) -> None:
        self._queues.setdefault(icu, []).append((cycle, instruction))

    def build(self) -> Program:
        program = Program()
        for icu, items in self._queues.items():
            items.sort(key=lambda pair: pair[0])
            cursor = 0
            for cycle, instruction in items:
                if cycle < cursor:
                    raise CompileError(
                        f"{icu}: dispatch at cycle {cycle} overlaps the "
                        f"previous instruction (queue busy until {cursor})"
                    )
                if cycle > cursor:
                    program.add(icu, Nop(cycle - cursor))
                program.add(icu, instruction)
                cursor = cycle + instruction.issue_cycles()
        return program


# ----------------------------------------------------------------------
# Contiguous partitioning


def partition_contiguous(
    costs: list[float], n_chips: int
) -> list[list[int]]:
    """Split ``costs`` into ``n_chips`` contiguous, non-empty stages.

    Greedy balance toward ``total / n_chips`` per stage, with a forced
    split whenever the remaining items would otherwise be unable to fill
    the remaining chips — so exactly ``n_chips`` stages come back and
    every one holds at least one item.  Fewer items than chips is a
    :class:`~repro.errors.ConfigError`: a chip with no layers would
    silently idle (and, before this guard, billed phantom link hops in
    the analytic model).
    """
    if n_chips < 1:
        raise ConfigError("a pipeline needs at least one stage")
    if len(costs) < n_chips:
        raise ConfigError(
            f"{len(costs)} layers cannot fill {n_chips} chips — every "
            "chip needs at least one layer; reduce n_chips or deepen "
            "the model"
        )
    total = float(sum(costs))
    target = total / n_chips
    stages: list[list[int]] = []
    current: list[int] = []
    acc = 0.0
    for index, cost in enumerate(costs):
        current.append(index)
        acc += cost
        stages_left = n_chips - len(stages) - 1  # stages still to open
        items_left = len(costs) - index - 1
        if stages_left == 0:
            continue
        if items_left == stages_left or (
            acc >= target and items_left >= stages_left
        ):
            stages.append(current)
            current = []
            acc = 0.0
    stages.append(current)
    return stages


@dataclass(frozen=True)
class PartitionStage:
    """One chip's contiguous share of the layer sequence."""

    chip: int
    items: tuple[int, ...]  # indices into the partitioned sequence
    names: tuple[str, ...]
    cost: float


@dataclass(frozen=True)
class PartitionPlan:
    """A contiguous pipeline partition plus its content fingerprint.

    The fingerprint covers the chip configuration, the chip count, the
    link latency budget, and the exact stage boundaries (by layer name),
    so any cached artifact derived from a partition — C2C transfer
    programs above all — can never alias across different splits of the
    same model.
    """

    stages: tuple[PartitionStage, ...]
    n_chips: int
    link_latency: int
    fingerprint: str

    @staticmethod
    def plan(
        names: list[str],
        costs: list[float],
        n_chips: int,
        config: ArchConfig,
        link_latency: int,
    ) -> "PartitionPlan":
        if len(names) != len(costs):
            raise ConfigError(
                f"{len(names)} names for {len(costs)} layer costs"
            )
        groups = partition_contiguous(costs, n_chips)
        stages = tuple(
            PartitionStage(
                chip=chip,
                items=tuple(group),
                names=tuple(names[i] for i in group),
                cost=float(sum(costs[i] for i in group)),
            )
            for chip, group in enumerate(groups)
        )
        h = hashlib.sha256()
        h.update(config_fingerprint(config).encode())
        h.update(f"|chips={n_chips}|link={link_latency}".encode())
        for stage in stages:
            h.update(("|" + ",".join(stage.names)).encode())
        return PartitionPlan(
            stages=stages,
            n_chips=n_chips,
            link_latency=link_latency,
            fingerprint=h.hexdigest(),
        )


# ----------------------------------------------------------------------
# Payload packing


def pack_payload(array: np.ndarray, n_lanes: int) -> np.ndarray:
    """Raw bytes of ``array``, padded into ``(n_words, n_lanes)`` uint8.

    The C2C links ship lane-wide byte vectors; this is the host-side view
    of the same layout.  Padding bytes are zero and ignored by
    :func:`unpack_payload`.
    """
    raw = np.ascontiguousarray(array).tobytes()
    n_words = max(1, -(-len(raw) // n_lanes))
    flat = np.zeros(n_words * n_lanes, dtype=np.uint8)
    flat[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return flat.reshape(n_words, n_lanes)


def unpack_payload(
    words: np.ndarray, shape: tuple[int, ...], dtype
) -> np.ndarray:
    """Invert :func:`pack_payload` for a tensor of ``shape``/``dtype``."""
    flat = np.asarray(words, dtype=np.uint8).reshape(-1)
    n_bytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    if n_bytes > flat.size:
        raise ConfigError(
            f"payload of {flat.size} bytes cannot hold a {shape} "
            f"{np.dtype(dtype).name} tensor ({n_bytes} bytes)"
        )
    return (
        np.frombuffer(flat[:n_bytes].tobytes(), dtype=dtype)
        .reshape(shape)
        .copy()
    )

"""Pipeline partitioning and stage-boundary planning: the compiler side
of C2C forwarding.

The paper provisions 3.84 Tb/s of deterministic chip-to-chip bandwidth so
"large-scale systems" stay schedulable by a single compiler: Send and
Receive are ordinary scheduled instructions, the links have fixed latency,
and retransmission slack is pre-reserved at plan time
(:attr:`repro.sim.c2c.C2cLink.arrival_latency`) — never arbitrated.  This
module owns every decision about a pipeline's stage boundaries:

* :func:`partition_contiguous` — split an ordered list of layer costs
  into contiguous per-chip stages, every stage non-empty (an empty stage
  is a silently wasted chip; it is a :class:`~repro.errors.ConfigError`
  here, mirroring the ``ring(n_chips=1)`` guard).
* :class:`PartitionPlan` — the named stages plus a content fingerprint,
  so every partition-dependent cached artifact (C2C transfer programs,
  serve-layer entries) keys on *which* split produced it;
  :meth:`PartitionPlan.transfer` routes the transfer out of one stage
  around a blacklist's dead cables, keys it and asks the planner for it.
* :func:`plan_ring_route` / :func:`build_ring_transfer` — the one C2C
  planner: the shortest healthy ring route, then fully timed
  ``Read -> Send -> Receive`` store-and-forward programs for it, with
  the head slice, staging slice and pace decided from the route and the
  blacklist alone, and the transfer's plan: where each sender's words
  land, and each chip's :class:`~repro.sim.replay.ReplayPlan`.  A
  :class:`RingTransferPlan` is payload-free and touches no chip;
  :meth:`RingTransferPlan.run` stages a payload, replays the plan (or,
  where a chip's state record refuses it, runs the system in lockstep)
  and reads back what landed.
* :func:`pack_payload` / :func:`unpack_payload` — raw-byte packing of an
  activation tensor into the ``(n_words, n_lanes)`` uint8 vectors the
  C2C links ship.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from ..config import ArchConfig
from ..errors import C2cLinkError, ConfigError
from ..isa.c2c import Deskew, Receive, Send
from ..isa.mem import Read
from ..isa.program import IcuId, Program
from ..sim.replay import ReplayPlan, ScheduleRecorder, replay_allowed
from .cachekey import config_fingerprint
from .schedule import QueueBuilder


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
    #: the cache key of each transfer :meth:`transfer` has looked up, by
    #: what it folds in, so a warm lookup formats no string
    transfer_keys: dict = field(default_factory=dict, compare=False,
                                repr=False)

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

    def transfer(
        self, system, stage: int, n_words: int, *, blacklist=None,
        cache=None,
    ) -> "RingTransferPlan":
        """The timed transfer of ``n_words`` vectors out of ``stage``.

        A dead ring cable in ``blacklist`` sends the hop the long way
        around (:func:`plan_ring_route`); every other choice is
        :func:`build_ring_transfer`'s.  The cache key folds in this
        plan's fingerprint, the route, the word count, every hop's
        arrival latency and the blacklist's dead MEM slices (all the
        planner reads besides the route), so another split, a cable whose
        error model reserves other retry slack, or another set of dead
        slices recompiles instead of replaying a stale schedule.
        ``cache`` is a :class:`repro.serve.ProgramCache`, or None to
        build every time.
        """
        dead = blacklist.ring_cables if blacklist is not None else frozenset()
        route = plan_ring_route(len(system.chips), stage, stage + 1, dead)

        def build() -> RingTransferPlan:
            return build_ring_transfer(system, route, n_words, blacklist)

        if cache is None:
            return build()
        latencies = tuple(
            link.arrival_latency for link in _hop_links(system, route)[1]
        )
        slices = (blacklist.mem_slices if blacklist is not None
                  else frozenset())
        folded = (tuple(route), n_words, latencies, slices)
        key = self.transfer_keys.get(folded)
        if key is None:
            dead_slices = ",".join(sorted(
                f"{hemisphere.value}{index}" for hemisphere, index in slices
            ))
            key = self.transfer_keys.setdefault(folded, (
                f"xfer:{self.fingerprint}:{'-'.join(map(str, route))}:"
                f"{n_words}:{'/'.join(map(str, latencies))}:{dead_slices}"
            ))
        return cache.get_or_build(key, build)


# ----------------------------------------------------------------------
# Stage-boundary transfers

#: cycles between the sends of a direct (one-hop) transfer
DIRECT_HOP_INTERVAL = 1
#: cycles between a detour's sends: each relay re-reads what it received
STORE_AND_FORWARD_INTERVAL = 4
#: lockstep bound of one transfer run, far above any real transfer
TRANSFER_MAX_CYCLES = 2_000_000


def _staging_slice(config: ArchConfig, blacklist=None) -> int:
    """First MEM slice index healthy in *both* hemispheres.

    An eastward hop lands in WEST MEM, but a re-routed (westward) hop
    lands in EAST — so under a blacklist the staging index must be
    healthy on both sides, on every chip (the blacklist is chip-agnostic,
    like the compiler's).
    """
    if blacklist is None or not blacklist.mem_slices:
        return 0
    for index in range(config.mem_slices_per_hemisphere):
        if (Hemisphere.WEST, index) not in blacklist.mem_slices and (
            Hemisphere.EAST, index
        ) not in blacklist.mem_slices:
            return index
    raise ConfigError(
        "no healthy MEM slice left to stage pipeline transfers in"
    )


def head_slice(floorplan, hemisphere: Hemisphere, blacklist=None) -> int:
    """The healthy ``hemisphere`` MEM slice nearest that hemisphere's C2C
    unit: where a transfer's first chip stages the words it sends, so
    each read crosses the fewest hops to the link (3 on the test chip,
    against 20 from the far hemisphere's innermost slice)."""
    dead = blacklist.mem_slices if blacklist is not None else frozenset()
    link = floorplan.c2c(hemisphere)
    healthy = [
        index for index in range(floorplan.config.mem_slices_per_hemisphere)
        if (hemisphere, index) not in dead
    ]
    if not healthy:
        raise ConfigError(
            f"no healthy {hemisphere.value} MEM slice left to stage "
            "pipeline transfers in"
        )
    return min(
        healthy,
        key=lambda index: floorplan.delta(
            floorplan.mem_slice(hemisphere, index), link
        ),
    )


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


@dataclass(frozen=True)
class RingTransferPlan:
    """Timed store-and-forward programs along a ring route, one per chip,
    and the plan of a run of them.

    What :func:`build_ring_transfer` decided, and nothing a caller chose:
    where the ``n_words`` vectors are staged (``src_hemisphere`` slice
    ``head_slice`` on ``route[0]``) and where they land
    (``dst_hemisphere`` slice ``stage_slice`` on ``route[-1]``), both
    from address 0.  Payload-free; :meth:`run` moves a payload through
    it.

    The plan: ``hops`` maps each sender's words to its receiver's —
    ``(sender, (hemisphere, slice), receiver, (hemisphere, slice))``, word
    ``i`` of the one landing at address ``i`` of the other — and
    ``plans`` holds each chip's :class:`~repro.sim.replay.ReplayPlan`: its
    program, the run's cycles, its reads and their stream drives, the C2C
    links it drives and the activity counted from them.  ``latencies``
    are the link latencies each hop was timed for.
    """

    route: list[int]
    programs: list[Program]
    src_hemisphere: Hemisphere
    dst_hemisphere: Hemisphere
    head_slice: int
    stage_slice: int
    n_words: int
    hops: tuple = ()
    plans: list = field(default_factory=list, repr=False)
    latencies: tuple = ()

    def run(self, system, words: np.ndarray,
            replay: bool = True) -> tuple[np.ndarray, list]:
        """Stage ``words`` on the route head, run the transfer, and read
        back what landed on the route's last chip.

        The plan stands in for the run whenever :meth:`replays` (and
        ``replay``, which a test that means the simulator turns off);
        otherwise the whole system simulates the programs in lockstep.
        Returns the landed ``(n_words, n_lanes)`` uint8 words and one
        :class:`~repro.sim.chip.RunResult` per chip (lockstep: every chip
        reports the same cycle count).
        """
        if len(words) != self.n_words:
            raise ConfigError(
                f"a {self.n_words}-word transfer was given {len(words)} "
                "words"
            )
        system.chips[self.route[0]].load_memory(
            self.src_hemisphere, self.head_slice, 0, words
        )
        if replay and self.replays(system):
            runs = self.replay(system)
        else:
            runs = system.run(self.programs, max_cycles=TRANSFER_MAX_CYCLES)
        landed = system.chips[self.route[-1]].read_memory(
            self.dst_hemisphere, self.stage_slice, 0, self.n_words
        )
        return np.asarray(landed, dtype=np.uint8), runs

    def replays(self, system) -> bool:
        """May the plan stand in for a run of ``system``?  Each chip's
        state record decides for its own plan
        (:func:`~repro.sim.replay.replay_allowed`: a set instrument, or a
        unit fault its run touches — a dead slice it stages in, an error
        model on a link it drives — refuses).  So does a chip in strict
        C2C mode, whose Receives check deskew epochs the plan does not
        model, and a link whose latency is not the one a hop was timed
        for."""
        chips = system.chips
        if len(chips) != len(self.plans) or any(
            chips[a].c2c_unit(self.src_hemisphere).links[0].latency
            != latency
            for a, latency in zip(self.route, self.latencies)
        ):
            return False
        return all(
            not chip.strict_c2c and replay_allowed(
                plan, chip, max_cycles=TRANSFER_MAX_CYCLES,
                warmup_barrier=False,
            )
            for chip, plan in zip(chips, self.plans)
        )

    def replay(self, system) -> list:
        """Apply the plan to ``system`` as a run of the programs would:
        each hop's words land in its receiver's slice, and every chip is
        charged with its plan (:meth:`~repro.sim.replay.ReplayPlan.charge`:
        activity, ``now``, dispatches when kept, its telemetry collector,
        its links' counters).  A transfer computes nothing, so this is an
        identity on the words plus a charge.  One ``RunResult`` per chip.
        """
        chips = system.chips
        for chip in chips:
            chip.begin_run()
        for a, src, b, dst in self.hops:
            chips[b].load_memory(
                *dst, 0, chips[a].read_memory(*src, 0, self.n_words)
            )
        runs = []
        for chip, plan in zip(chips, self.plans):
            plan.charge(chip, 1)
            runs.append(plan.run_result(chip))
        return runs


def _hop_links(system, route: list[int]) -> tuple[Hemisphere, list]:
    """The hemisphere every hop of ``route`` leaves by (EAST on a
    clockwise route; a shortest ring route never reverses direction) and
    the outgoing C2C link each hop crosses, in order."""
    n_chips = len(system.chips)
    out_hemisphere = (
        Hemisphere.EAST if route[1] == (route[0] + 1) % n_chips
        else Hemisphere.WEST
    )
    links = []
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
        links.append(link)
    return out_hemisphere, links


def build_ring_transfer(
    system, route: list[int], n_words: int, blacklist=None
) -> RingTransferPlan:
    """Fully timed multi-hop transfer of ``n_words`` vectors along ``route``.

    Each hop Deskews both ends of the next cable, Reads the vectors out of
    the sender's slice, Sends them down it, and the receiver's Receive
    emplaces them into *its* staging slice — classic deterministic
    store-and-forward, with every dispatch cycle computed here at plan
    time, so the programs run on a strict-C2C system too.  Receives are
    placed after :attr:`~repro.sim.c2c.C2cLink.arrival_latency`, so the
    plan already reserves the retransmission slack of any error model
    attached to the cables.  ``system`` is only read (its floorplan,
    timing and wiring); no chip is written.

    Every other choice is made here too, from the route and the dead MEM
    slices of ``blacklist`` (a :class:`repro.resil.Blacklist` or None;
    its dead cables are the route's business, :func:`plan_ring_route`):

    * the first chip's words wait in the outgoing hemisphere's healthy
      slice nearest the link (:func:`head_slice`) — 3 hops on the test
      chip, not the 20 from the far hemisphere's innermost slice;
    * a Receive emplaces into its own hemisphere's staging slice, the
      first index healthy in both hemispheres.  A shortest ring route
      never reverses direction, so that is the hemisphere a relay next
      departs *away* from (an eastward hop lands in WEST MEM, which feeds
      the EASTWARD stream path) and one convention serves every relay;
    * a direct hop sends a word every :data:`DIRECT_HOP_INTERVAL`
      cycles, a longer route's every :data:`STORE_AND_FORWARD_INTERVAL`.
    """
    n_chips = len(system.chips)
    chip0 = system.chips[0]
    floorplan = chip0.floorplan
    timing = chip0.timing
    if not all(0 <= chip < n_chips for chip in route):
        raise ConfigError(
            f"route {route} leaves a {n_chips}-chip system"
        )
    if n_words < 1:
        raise ConfigError("a transfer needs at least one vector")
    words_per_slice = 1 << chip0.config.mem_addr_bits
    if n_words > words_per_slice:
        raise ConfigError(
            f"{n_words} staged vectors overflow the {words_per_slice}-word "
            "MEM slice; chunk the payload"
        )
    stage_slice = _staging_slice(chip0.config, blacklist)
    if len(route) == 1:
        # no hop: the words stay where they are staged, and no chip runs
        out_hemisphere = in_hemisphere = Hemisphere.WEST
        head, links = stage_slice, []
    else:
        out_hemisphere, links = _hop_links(system, route)
        # a Receive lands in the hemisphere a relay next departs away from
        in_hemisphere = out_hemisphere.other
        head = head_slice(floorplan, out_hemisphere, blacklist)
    direction = (
        Direction.EASTWARD if out_hemisphere is Hemisphere.EAST
        else Direction.WESTWARD
    )
    interval = (
        DIRECT_HOP_INTERVAL if len(route) == 2
        else STORE_AND_FORWARD_INTERVAL
    )
    c2c_out = floorplan.c2c(out_hemisphere)
    relay_address = floorplan.mem_slice(in_hemisphere, stage_slice)
    mem_address = floorplan.mem_slice(out_hemisphere, head)
    probe_read = Read(address=0, stream=0, direction=direction)
    probe_send = Send(link=0, stream=0, direction=direction)
    probe_recv = Receive(link=0, mem_slice=0, address=0)
    d_read = probe_read.dfunc(timing)
    d_send_skew = probe_send.dskew(timing)
    d_recv = probe_recv.dfunc(timing)
    d_deskew = Deskew(link=0).dfunc(timing)

    queues: list[dict[IcuId, QueueBuilder]] = [{} for _ in range(n_chips)]
    #: per chip, the MEM word each Read reads and the drive it makes
    reads: list[list] = [[] for _ in range(n_chips)]
    drives: list[list] = [[] for _ in range(n_chips)]
    end = 1  # the run retires the cycle after its last event lands

    def at(chip: int, icu: IcuId, cycle: int, instruction,
           lands: int) -> None:
        nonlocal end
        if icu not in queues[chip]:
            queues[chip][icu] = QueueBuilder(icu)
        queues[chip][icu].reserve(cycle, instruction)
        end = max(end, lands + 1)

    hop_words = []
    ready = 0  # cycle the staged payload (vector 0) is readable on route[0]
    for a, b, link in zip(route, route[1:], links):
        hops = floorplan.delta(mem_address, c2c_out)
        mem_icu = IcuId(mem_address)
        send_icu = IcuId(c2c_out, 0)
        recv_icu = IcuId(floorplan.c2c(in_hemisphere), 0)
        t_capture0 = ready + d_read + hops
        # calibrate both ends of the cable once, well before the first
        # capture: a strict link refuses a vector sent at another epoch
        # than the receiver's
        at(a, send_icu, ready, Deskew(link=0), ready + d_deskew)
        at(b, recv_icu, ready, Deskew(link=0), ready + d_deskew)
        for i in range(n_words):
            t_read = ready + i * interval
            t_capture = t_read + d_read + hops
            t_emplace = t_capture + link.arrival_latency
            at(a, mem_icu, t_read,
               Read(address=i, stream=0, direction=direction),
               t_read + d_read)
            at(a, send_icu, t_capture - d_send_skew,
               Send(link=0, stream=0, direction=direction), t_capture)
            at(b, recv_icu, t_emplace - d_recv,
               Receive(link=0, mem_slice=stage_slice, address=i), t_emplace)
            reads[a].append((mem_address.hemisphere, mem_address.index, i))
            drives[a].append((direction, 0, floorplan.position(mem_address),
                              t_read + d_read))
        hop_words.append((
            a, (mem_address.hemisphere, mem_address.index),
            b, (in_hemisphere, stage_slice),
        ))
        # next hop may read vector 0 the cycle after it is emplaced
        ready = t_capture0 + link.arrival_latency + 1
        mem_address = relay_address

    programs = []
    for chip_queues in queues:
        program = Program()
        for queue in chip_queues.values():
            queue.emit(program)
        programs.append(program)
    staged = [(out_hemisphere, head, i) for i in range(n_words)]
    landed = [(in_hemisphere, stage_slice, i) for i in range(n_words)]
    return RingTransferPlan(
        route, programs, out_hemisphere, in_hemisphere, head, stage_slice,
        n_words,
        hops=tuple(hop_words),
        plans=[
            _chip_plan(
                chip0, program, end, reads[chip], drives[chip],
                staged if chip == route[0] else [],
                landed if chip == route[-1] else [],
            )
            for chip, program in enumerate(programs)
        ],
        latencies=tuple(link.latency for link in links),
    )


def _chip_plan(chip0, program: Program, cycles: int, reads: list,
               drives: list, staged: list, landed: list):
    """One chip's plan of a transfer run of ``cycles``: ``program``, the
    MEM words its Reads read (``reads``) and their ``drives``, the words
    the host stages on it and reads back off it, and the links its C2C
    instructions drive — its activity counted from these by the
    compiler's rules (:class:`~repro.sim.replay.ScheduleRecorder`): each
    Receive lands one lane-wide SRAM write, as a simulated one does."""
    links: dict = {}
    kinds = (Deskew, Send, Receive)
    for icu in program.icus:
        for instruction in program.queue(icu):
            if isinstance(instruction, kinds):
                counts = links.setdefault(
                    (icu.address.hemisphere, instruction.link), [0, 0, 0]
                )
                counts[kinds.index(type(instruction))] += 1
    return ScheduleRecorder(ReplayPlan(
        config=chip0.config,
        timing=chip0.timing,
        program=program,
        cycles=cycles,
        ops=[("read", slot, word) for slot, word in enumerate(reads)],
        n_slots=len(reads),
        in_words=[("payload", 0, i, word) for i, word in enumerate(staged)],
        out_words={"payload": [("t", word) for word in landed]},
        drives=drives,
        n_positions=chip0.floorplan.n_positions,
        links={key: tuple(counts) for key, counts in links.items()},
    ), warmup_barrier=False).finish()


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

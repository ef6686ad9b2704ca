"""Transit-aware placement: put a value where Equation 4 says it is done first.

A tensor's MEM slices are chosen the way every other resource in the
scheduler is — from the cycle model, not by policy.  The scheduler
enumerates the slices a value can actually reach, scores each with the
cycle it would complete there (``t_drive + delta(j, i)`` plus one cycle per
row, provided the slice's dispatch cells and bank have room), and takes the
earliest:

* a *result* lands in the slices just downstream of its producer — every
  further hop is a cycle of pure transit on the critical path;
* a *weight feed* takes the width whose last chunk installs first — a wide
  feed needs fewer install cycles, but its farthest slice sets the start;
* a *matmul* streams its rows through as many MXM planes as make its last
  result byte land first (:func:`plane_split`) — more planes shorten the
  row stream but spread the results over more, farther slices — and
  engages the other hemisphere's planes only when the cycles that saves
  outweigh the dispatches a second weight copy adds (:func:`matmul_parts`);
* an *operand* is wanted at a cycle its consumer fixes, so every slice that
  can deliver it completes together; what separates them is how long the
  slice would still be issuing the operand's reads when values derived
  from it can already be coming back (:func:`contested_cycles`) — a slice
  has one dispatch queue, so those are cycles a result cannot land there.
  The operand takes the least contested slice, then the nearest.

That is why a result may share a slice with a live operand: reads come out
of bank 0 while writes land in bank 1 (Section IV-A), and only the
dispatch cells have to be disjoint.

The helpers here are pure: they read candidates and return a choice.
Nothing is reserved until the scheduler allocates the chosen slices.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..arch.geometry import Direction, Hemisphere
from ..errors import AllocationError
from .graph import Graph, OpKind


#: the most streams one ``InstallWeights`` can take its chunks from
MAX_FEED_STREAMS = 16


@dataclass(frozen=True)
class MemSlice:
    """One MEM slice as a placement candidate: identity plus X position."""

    hemisphere: Hemisphere
    index: int
    position: int


def earliest(
    candidates: Iterable[MemSlice],
    count: int,
    completion: Callable[[MemSlice], Any],
) -> list[MemSlice] | None:
    """The ``count`` candidates with the lowest scores, lowest first.

    ``completion`` scores a candidate — the cycle it would be done with the
    value, or any orderable cost — or returns None when the candidate
    cannot take the value at all.  Ties keep the candidates' own order.
    Returns None when fewer than ``count`` candidates are feasible.
    """
    scored = [
        (score, order, candidate)
        for order, candidate in enumerate(candidates)
        if (score := completion(candidate)) is not None
    ]
    if len(scored) < count:
        return None
    scored.sort(key=lambda entry: entry[:2])
    return [candidate for _score, _order, candidate in scored[:count]]


def read_direction(
    hemisphere: Hemisphere, source: int, position: int
) -> Direction:
    """The direction a read driven at ``source`` flows to ``position``."""
    if position == source:
        return Direction.inward_for(hemisphere)
    return Direction.EASTWARD if position > source else Direction.WESTWARD


def contested_cycles(rows: int, transit: int, dfunc_read: int) -> int:
    """Cycles a slice still issues an operand's reads after a value derived
    from that operand could be back at the slice.

    A slice ``transit`` hops from the consumer issues the ``rows`` reads
    over cycles ``[t - transit - dfunc_read, ... + rows)`` for vector 0 to
    arrive at ``t``; nothing computed from it can return before
    ``t + transit``.  The overlap is what a result stream would find busy.
    """
    return max(0, rows - dfunc_read - 2 * transit)


def operand_slices(
    candidates: list[MemSlice],
    count: int,
    rows: int,
    position: int,
    arrival: int,
    dfunc_read: int,
    free: Callable[[MemSlice, int, int], bool],
) -> list[MemSlice] | None:
    """The ``count`` slices to hold an operand of ``rows`` reads per slice
    whose vector 0 must be at ``position`` at cycle ``arrival``.

    ``free(s, t, n)`` says whether slice ``s`` can dispatch at cycles
    ``t .. t+n-1``.  The planes of a tensor ride one stream group and so
    share a flow direction: all chosen slices sit on one side of the
    consumer.  None when neither side has ``count`` slices that can deliver.
    """

    def cost(s: MemSlice) -> tuple[int, int] | None:
        transit = abs(position - s.position)
        if free(s, arrival - transit - dfunc_read, rows):
            return contested_cycles(rows, transit, dfunc_read), transit
        return None

    options = [
        chosen
        for side in Direction
        if (
            chosen := earliest(
                [
                    s for s in candidates
                    if read_direction(s.hemisphere, s.position, position)
                    is side
                ],
                count, cost,
            )
        )
    ]
    return min(options, key=lambda chosen: cost(chosen[-1]), default=None)


def feed_widths(n_chunks: int, limit: int) -> list[tuple[int, int]]:
    """``(width, install cycles)`` options for feeding ``n_chunks`` chunks.

    One option per distinct install length, each with the narrowest feed
    that achieves it (a wider one only reaches farther for the same
    length), narrowest first; ``limit`` caps the width.
    """
    narrowest: dict[int, int] = {}
    for width in range(1, min(limit, n_chunks) + 1):
        narrowest.setdefault(-(-n_chunks // width), width)
    return sorted((width, cycles) for cycles, width in narrowest.items())


def feed_options(
    near: list[MemSlice],
    n_chunks: int,
    position: int,
    t_start: int,
    dfunc_read: int,
    fits: Callable[[MemSlice, int], bool],
) -> list[tuple[int, int, list[MemSlice], int, int]]:
    """Weight-feed options as ``(bound, ready, roomy, width, cycles)``,
    most promising first.

    ``near`` lists the slices nearest the MXM first and ``fits(s, n)`` says
    whether ``n`` words fit in slice ``s`` (and so any fewer).  At best an option's feed is
    the ``width`` nearest of its ``roomy`` slices, the farthest of which
    sets the aligned start ``ready``; ``bound = ready + cycles`` is then
    the earliest its last chunk could be installed.
    """
    options = []
    fitting = [False] * len(near)
    for width, cycles in feed_widths(n_chunks, MAX_FEED_STREAMS):
        # narrowest first, so installs only get shorter: a slice with room
        # for one option has room for every later one, and is asked once
        fitting = [ok or fits(s, cycles) for ok, s in zip(fitting, near)]
        roomy = [s for ok, s in zip(fitting, near) if ok]
        if len(roomy) >= width:
            reach = abs(position - roomy[width - 1].position)
            ready = max(t_start, dfunc_read + reach)
            options.append((ready + cycles, ready, roomy, width, cycles))
    options.sort(key=lambda option: option[0])
    return options


def split_rows(rows: int, blocks: int) -> list[int]:
    """Sizes of the ``blocks`` contiguous row blocks of a ``rows``-row
    tensor: every block as long as the first, the last taking what is
    left (possibly nothing)."""
    first = -(-rows // blocks)
    return [max(0, min(first, rows - b * first)) for b in range(blocks)]


def plane_split(
    planes: list[int],
    rows: int,
    result_bytes: int,
    transits: list[int],
    ready: list[int] | None = None,
    room: list[int] | None = None,
) -> list[int]:
    """The MXM planes — a prefix of ``planes`` — a matmul should stream its
    rows through.

    ``k`` planes holding the same weights each take one row block, so the
    last row enters after ``ceil(rows / k)`` cycles instead of ``rows`` —
    but each plane drains its own ``result_bytes`` byte-plane streams and
    every stream needs a MEM slice to itself, so the results reach
    ``k * result_bytes`` slices deep into ``transits`` (hops from the MXM
    to each slice that could take one, nearest first), and nothing starts
    before the last of the ``k`` planes is free (``ready[p]``: the cycle
    ``planes[p]`` is done with its previous matmul; all idle when omitted).
    A slice takes one block of ``ceil(rows / k)`` results, so only slices
    with ``room`` for that many words count (``room[i]`` words fit in the
    slice ``transits[i]`` hops away; any number when omitted).
    The winner is the ``k`` whose last byte lands first; a tie keeps fewer
    planes (fewer instructions), and a chip short of planes or of near
    slices — a degraded one — simply has less to win with.
    """
    best, best_done = 1, None
    for k in range(1, len(planes) + 1):
        if not split_rows(rows, k)[-1]:
            break
        block, need = -(-rows // k), k * result_bytes
        hops = landing_hops(transits, room, block)
        if need > len(hops):
            continue
        done = block + hops[need - 1]
        if ready is not None:
            done += max(ready[:k])
        if best_done is None or done < best_done:
            best, best_done = k, done
    return planes[:best]


def landing_hops(
    transits: list[int], room: list[int] | None, words: int
) -> list[int]:
    """The ``transits`` of the slices with ``room`` for ``words`` words."""
    if room is None:
        return transits
    return [hops for hops, free in zip(transits, room) if free >= words]


@dataclass(frozen=True)
class MxmClock:
    """A matmul's fixed delays, in cycles, from the timing model.

    ``read``: ``d_func(Read)``; ``fill``: first activation at the MXM to
    first result on a stream (the systolic depth plus ``ACC``); ``turn``:
    end of a plane's row stream to the cycle it may start installing other
    weights (a new install wipes results still draining); ``retire``: last
    result byte at its slice to the program's last cycle; ``lag``: a
    plane's ``ABC`` dispatch to its ``ACC`` dispatch.
    """

    read: int
    fill: int
    turn: int
    retire: int
    lag: int = 0

    @classmethod
    def of(cls, timing, plane_rows: int) -> "MxmClock":
        """The delays ``timing`` gives a plane ``plane_rows`` deep."""
        depth = timing.mxm_pipeline_depth(plane_rows)
        return cls(
            read=timing.functional_delay("Read"),
            fill=depth - timing.operand_skew("ACC")
            + timing.functional_delay("ACC"),
            turn=depth + 1,
            retire=1 - timing.operand_skew("Write"),
            lag=depth + timing.operand_skew("ABC")
            - timing.operand_skew("ACC"),
        )

    def period(self, block: int) -> int:
        """Cycles between two passes of a matmul streaming ``block`` rows
        a plane (:mod:`repro.compiler.repeat`): one a row — or a cycle or
        so more, where an ``ABC`` would meet a later pass's ``ACC`` in
        their plane's queue."""
        period = block
        while self.lag and self.lag % period == 0:
            period += 1
        return period


@dataclass(frozen=True)
class PlaneOffer:
    """What one hemisphere's MXM, at ``position``, offers a matmul.

    ``planes`` are its usable planes, first free first, and ``ready`` the
    cycle each is done with its previous matmul; ``landing`` the MEM slices
    a result may land in, ``room`` how many result words each still takes
    (any number when omitted), and ``near`` every slice a weight feed could
    come from, ``fits(s, n)`` saying whether ``n`` words still fit in one —
    all nearest the MXM first.
    """

    hemisphere: Hemisphere
    position: int
    planes: list[int]
    ready: list[int]
    landing: list[MemSlice]
    near: list[MemSlice]
    fits: Callable[[MemSlice, int], bool]
    room: list[int] | None = None

    @cached_property
    def transits(self) -> list[int]:
        """Hops from the MXM to each landing slice, nearest first."""
        return [abs(s.position - self.position) for s in self.landing]

    def lands(self, block: int, streams: int) -> bool:
        """Whether ``streams`` result streams of ``block`` rows each find
        landing slices of their own."""
        return len(landing_hops(self.transits, self.room, block)) >= streams

    def feed(self, n_chunks: int, t_start: int, dfunc_read: int):
        """The best weight feed from ``t_start`` on (:func:`feed_options`):
        ``(cycle its last chunk is installed, reads it issues)``."""
        options = feed_options(
            self.near, n_chunks, self.position, t_start, dfunc_read, self.fits
        )
        if not options:
            raise AllocationError(
                f"no MEM slice has room for {n_chunks} weight chunks"
            )
        bound, _ready, _roomy, width, cycles = options[0]
        return bound, width * cycles


@dataclass(frozen=True)
class MatmulPart:
    """One hemisphere's share of a matmul: ``rows[b]`` rows through
    ``planes[b]``, from a weight copy and feed of its own."""

    offer: PlaneOffer
    planes: list[int]
    rows: list[int]


def matmul_cost(
    parts: list[MatmulPart],
    chunks: list[int],
    widths: tuple[int, int],
    clock: MxmClock,
    passes: int = 1,
) -> tuple[int, int]:
    """Predicted ``(cycles, instructions)`` of ``input -> matmul -> write``
    scheduled as ``parts`` (which run side by side), streaming ``passes``
    bindings through it (:mod:`repro.compiler.repeat`).

    Per K-tile of ``chunks[p]`` weight chunks a part issues its feed's
    reads, an ``IW``/``ABC``/``ACC`` per plane and one activation read per
    row and byte (``widths = (activation, result)`` bytes); the first
    activation follows the last chunk in, the next tile's install waits
    for the drain, and block ``b``'s results land in the ``b``-th nearest
    group of slices.  Exact for a program that is this matmul alone, as
    long as no two of its streams want one slice's dispatch queue at once
    — every benchmark chunk program (``tests/test_schedule_cycles.py``).

    Passes of one tile share the feed and the ``IW`` s, the prologue: a
    program of ``n`` runs ``cycles(1) + (n - 1) * period`` cycles and
    ``prologue + n * body`` instructions.  A pass recurs on every queue
    it touches, so once it streams rows more than half its period, no
    activation slice (the slices :func:`operand_slices` would pick) has
    the cycles of the period left to land a block of results: they land
    clear of them — the once-paid lead a pass costs over a one-pass
    program.
    A K-tiled program repeats whole: ``n`` times each.
    """
    act_bytes, result_bytes = widths
    periodic = passes > 1 and len(chunks) == 1
    cycles = prologue = body = 0
    for part in parts:
        k, n, offer = len(part.planes), sum(part.rows), part.offer
        t = max(offer.ready[:k])
        body += n * result_bytes
        for n_chunks in chunks:
            t_a, reads = offer.feed(n_chunks, t, clock.read)
            prologue += reads + k
            body += 2 * k + n * act_bytes
            t = t_a + part.rows[0] + clock.turn
        room = offer.room
        if periodic and 2 * part.rows[0] > clock.period(part.rows[0]):
            # an activation slice has no cycles left to land results in
            acts = operand_slices(
                [s for s in offer.near if offer.fits(s, part.rows[0])],
                k * act_bytes, part.rows[0], offer.position, t_a,
                clock.read, lambda *_: True,
            ) or []
            room = [
                0 if s in acts else free for s, free in zip(
                    offer.landing, room or [part.rows[0]] * len(offer.landing)
                )
            ]
        hops = landing_hops(offer.transits, room, part.rows[0])
        drained = max(
            block + hops[(b + 1) * result_bytes - 1]
            for b, block in enumerate(part.rows)
        )
        cycles = max(cycles, t_a + clock.fill + drained + clock.retire)
    if periodic:
        period = clock.period(parts[0].rows[0])
        return cycles + (passes - 1) * period, prologue + passes * body
    return passes * cycles, passes * (prologue + body)


def matmul_parts(
    rows: int,
    offers: list[PlaneOffer],
    chunks: list[int],
    widths: tuple[int, int],
    clock: MxmClock,
) -> list[MatmulPart]:
    """How a matmul whose rows are free is cut into parts, one per
    hemisphere that takes a share.

    ``offers[0]`` is the hemisphere the matmul lands in anyway; alone, it
    streams all the rows through its own :func:`plane_split`.  A second
    offer could take a share of the rows through planes that are otherwise
    dark — the rows go out in proportion to the planes on offer, each
    hemisphere then asks :func:`plane_split` how many of its planes that
    share is worth, and the blocks are cut once, evenly over every plane
    taken, so one layout addresses them all.  But those planes cannot
    sample the first hemisphere's feed: they need a weight copy and reads
    of their own.  The second hemisphere is therefore engaged only when it
    shortens the program by a larger share than it lengthens the
    instruction stream — predicted cycles x instructions
    (:func:`matmul_cost`) must fall; a tie keeps fewer planes.  A cut that
    leaves a part's blocks nowhere to land is not an option.
    """
    result_bytes = widths[1]

    def planes_for(offer: PlaneOffer, share: int) -> list[int]:
        return plane_split(
            offer.planes, share, result_bytes, offer.transits, offer.ready,
            offer.room,
        )

    def lands(parts: list[MatmulPart]) -> bool:
        return all(
            part.offer.lands(part.rows[0], len(part.planes) * result_bytes)
            for part in parts
        )

    home = offers[0]
    planes = planes_for(home, rows)
    alone = [MatmulPart(home, planes, split_rows(rows, len(planes)))]
    if len(offers) < 2:
        return alone
    away = offers[1]
    shares = split_rows(rows, len(home.planes) + len(away.planes))
    share = sum(shares[: len(home.planes)])
    if share == rows:
        return alone
    near, far = planes_for(home, share), planes_for(away, rows - share)
    cut = split_rows(rows, len(near) + len(far))
    if not cut[-1]:
        return alone
    both = [
        MatmulPart(home, near, cut[: len(near)]),
        MatmulPart(away, far, cut[len(near):]),
    ]

    def product(parts: list[MatmulPart]) -> int:
        cycles, instructions = matmul_cost(parts, chunks, widths, clock)
        return cycles * instructions

    if not lands(both):
        return alone
    if not lands(alone):
        return both
    return both if product(both) < product(alone) else alone


def rows_are_free(graph: Graph, matmul) -> bool:
    """Whether the schedule alone decides how a matmul's rows are laid out.

    True when every activation tensor is a program input nothing else
    reads and the result goes straight to one ``Write``: the host binds
    and fetches rows through the layout the scheduler publishes, so the
    rows may be split into blocks.  A value chained into the VXM or SXM
    must stay one row-per-cycle stream.
    """
    return all(
        graph.node(a).kind is OpKind.INPUT
        and [c.id for c in graph.consumers(a)] == [matmul.id]
        for a in matmul.inputs[1:]
    ) and [c.kind for c in graph.consumers(matmul.id)] == [OpKind.WRITE]


def co_consumed(graph: Graph) -> dict[int, set[int]]:
    """MEM-resident tensor -> the MEM-resident tensors some node consumes
    together with it.

    A slice has one dispatch queue, so two tensors a node may want in the
    same cycle can never both stream out of it: partners are kept apart.
    """
    partners: dict[int, set[int]] = {}
    for node in graph.nodes.values():
        resident = {
            i for i in node.inputs
            if graph.node(i).kind in (OpKind.CONSTANT, OpKind.INPUT)
        }
        for i in resident:
            partners.setdefault(i, set()).update(resident - {i})
    return partners

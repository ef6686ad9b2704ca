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
  row stream but spread the results over more, farther slices;
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
from typing import Any

from ..arch.geometry import Direction, Hemisphere
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
    whether ``n`` words fit in slice ``s``.  At best an option's feed is
    the ``width`` nearest of its ``roomy`` slices, the farthest of which
    sets the aligned start ``ready``; ``bound = ready + cycles`` is then
    the earliest its last chunk could be installed.
    """
    options = []
    for width, cycles in feed_widths(n_chunks, MAX_FEED_STREAMS):
        roomy = [s for s in near if fits(s, cycles)]
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
    planes: list[int], rows: int, result_bytes: int, transits: list[int]
) -> list[int]:
    """The MXM planes — a prefix of ``planes`` — a matmul should stream its
    rows through.

    ``k`` planes holding the same weights each take one row block, so the
    last row enters after ``ceil(rows / k)`` cycles instead of ``rows`` —
    but each plane drains its own ``result_bytes`` byte-plane streams and
    every stream needs a MEM slice to itself, so the results reach
    ``k * result_bytes`` slices deep into ``transits`` (hops from the MXM
    to each slice that could take one, nearest first).  The winner is the
    ``k`` whose last byte lands first; a tie keeps fewer planes (fewer
    instructions), and a chip short of planes or of near slices — a
    degraded one — simply has less to win with.
    """
    best, best_done = 1, None
    for k in range(1, len(planes) + 1):
        need = k * result_bytes
        if need > len(transits) or not split_rows(rows, k)[-1]:
            break
        done = -(-rows // k) + transits[need - 1]
        if best_done is None or done < best_done:
            best, best_done = k, done
    return planes[:best]


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

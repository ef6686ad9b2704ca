"""Lowering for the MXM: which planes a matmul streams through, its
weight feed, and its install → activate → accumulate passes.

A matmul is not a :class:`~.schedule.UnitOp` — per K-tile it plans a
weight feed, an ``IW`` per plane and an ``ABC``/``ACC`` pair per plane —
but it is planned the same way: everything :meth:`_try_matmul_at` takes
belongs to the scheduler's one :class:`~.schedule.Attempt` until the last
pass is granted.  So do its plan ops: an ``install`` per ``IW`` from the
feed's reads, a ``dot`` per row an ``ABC`` streams, an ``acc`` per row an
``ACC`` folds into a K-tile's partial sums and an ``emit`` per row it
drives.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import numpy as np

from ..arch.geometry import Direction, Hemisphere
from ..arch.streams import DType
from ..errors import CompileError, ScheduleError
from ..isa import (
    Accumulate,
    ActivationBufferControl,
    IcuId,
    InstallWeights,
)
from .allocator import INPUT_BANK, RESULT_BANK, TensorLayout
from .graph import Graph, Node, OpKind
from .placement import (
    MatmulPart,
    MemSlice,
    PlaneOffer,
    feed_options,
    matmul_parts,
    rows_are_free,
)
from .schedule import SEARCH_LIMIT, ConstantSlot, StreamValue, TensorSpec


class MxmLowering:
    """Mixed into :class:`~.scheduler.Scheduler`."""

    def _schedule_matmul(self, graph: Graph, node: Node) -> None:
        lanes = self.config.n_lanes
        weight_node = graph.node(node.inputs[0])
        act_nodes = [graph.node(i) for i in node.inputs[1:]]
        if weight_node.kind is not OpKind.CONSTANT:
            raise CompileError("matmul weights must be a constant tensor")
        m = node.params["m"]
        if m > lanes:
            raise CompileError(
                f"matmul output width {m} exceeds a {lanes}-wide plane; "
                "tile the M dimension at the API level"
            )
        tiles: list[np.ndarray] = node.params["weight_tiles"]
        if len(tiles) != len(act_nodes):
            raise CompileError(
                f"{len(tiles)} weight K-tiles but {len(act_nodes)} "
                "activation tensors"
            )

        weight_dtype = node.params.get("weight_dtype", DType.INT8)
        fp16 = weight_dtype is DType.FP16
        free = not fp16 and rows_are_free(graph, node)
        offers = self._plane_offers(node, act_nodes, fp16, free)
        # a graph that is one one-tile matmul alone (weights, activations,
        # the matmul, its write) repeats its pass behind one install;
        # anything else repeats whole
        periodic = (
            self.periodic and free and len(tiles) == 1
            and len(graph.nodes) == 4
        )
        # rows the schedule may lay out freely stream through as many
        # planes, of one hemisphere or both, as the closed forms say pay —
        # for a pass, at the fewest passes a pass schedule ever serves
        parts = [MatmulPart(offers[0], offers[0].planes[:1], [node.n_vectors])]
        if free:
            parts = matmul_parts(
                node.n_vectors, offers,
                [tile.shape[0] * weight_dtype.n_bytes for tile in tiles],
                (act_nodes[0].dtype.n_bytes, node.dtype.n_bytes),
                self._mxm_clock, passes=2 if periodic else 1,
            )
        if periodic:
            self.attempt.period = self.streams.period = (
                self._mxm_clock.period(parts[0].rows[0])
            )
        claimed = sum(len(part.planes) for part in parts)
        self._mxm_rr += 2 if fp16 else claimed
        self.stats.mxm_planes = max(self.stats.mxm_planes, claimed)
        if fp16:
            self._fp16_hemispheres.add(offers[0].hemisphere)
        # each part of a split is a matmul of its own rows in its own
        # hemisphere, on nodes of its own; the host sees one tensor per
        # name, its row blocks in both (and only a Write consumes the result)
        split = len(parts) > 1
        values = []
        for i, part in enumerate(parts):
            piece, *acts = (
                replace(n, id=(n.id, i), n_vectors=sum(part.rows))
                if split else n
                for n in (node, *act_nodes)
            )
            if not self._try_matmul_at(piece, acts, part):
                raise ScheduleError(
                    f"could not place matmul {node.name} within the search "
                    "window"
                )
            values.append(self.values.pop(piece.id))
        self.values[node.id] = replace(values[0], rest=tuple(values[1:]))
        for act in {a.id: a for a in act_nodes}.values() if split else ():
            layout = self.layouts[act.id] = TensorLayout.join(
                [self.layouts.pop((act.id, i)) for i in range(len(parts))]
            )
            self.inputs[act.name] = TensorSpec(
                act.name, layout, act.n_vectors, act.length, act.dtype
            )

    def _plane_offers(
        self, node: Node, act_nodes: list[Node], fp16: bool, free: bool
    ) -> list[PlaneOffer]:
        """What each hemisphere's MXM offers ``node``, the one it lands in
        first: in-flight activations dictate it, else it is where a plane
        is free first — the round-robin only breaks ties, and a blacklist
        (degraded mode) only shortens the offers.  An fp16 tile runs two
        byte-planes in tandem, hosted by plane 0 with its siblings captive
        (Section III-D): it needs them all healthy and idle, and later int8
        work on that hemisphere must use plane 0 too.  ``free`` rows get
        the landing slices the closed forms score, each with the room it
        has left: a part lands only its own blocks.
        """
        every = range(self.config.mxm_planes_per_hemisphere)
        east, lead = divmod(self._mxm_rr % self.config.mxm_planes, len(every))
        home = Hemisphere.EAST if east else Hemisphere.WEST
        hemispheres = [home, home.other]
        for act in act_nodes:
            if act.id in self.values:
                inbound = self.values[act.id].direction
                hemispheres = [
                    Hemisphere.EAST if inbound is Direction.EASTWARD
                    else Hemisphere.WEST
                ]
        offers = []
        for hemisphere in hemispheres:
            busy = [self._plane_busy.get((hemisphere, p), 0) for p in every]
            dead = [p for p in every if (hemisphere, p) in self._dead_planes]
            if fp16:
                planes, ready = ([] if dead else [0]), [max(busy)]
            elif hemisphere in self._fp16_hemispheres:
                planes, ready = ([] if 0 in dead else [0]), busy[:1]
            else:
                first = lead if hemisphere is home else 0
                planes = sorted(
                    (p for p in every if p not in dead),
                    key=lambda p: (busy[p], p != first),
                )
                ready = [busy[p] for p in planes]
            if not planes:
                continue
            position = self.floorplan.position(self.floorplan.mxm(hemisphere))
            near = self.mem.slices_near(position) if free else []
            offers.append(PlaneOffer(
                hemisphere, position, planes, ready, near, near,
                self._weights_fit,
                [self.mem.room(s, RESULT_BANK) for s in near],
            ))
        if not offers:
            dead = sorted((h.value, p) for h, p in self._dead_planes)
            pinned = " (hemisphere pinned by in-flight activations)"
            raise CompileError(
                f"degraded mode: no healthy MXM plane for {node.name} — "
                f"blacklist {dead}{pinned if len(hemispheres) == 1 else ''}"
            )
        return sorted(offers, key=lambda offer: offer.ready[0])

    def _try_matmul_at(self, node, act_nodes, part: MatmulPart) -> bool:
        """Plan the matmul on the planes of ``part``, none of them touched
        before it is free: per K-tile one weight feed installed into all
        of them at once, then plane ``b`` streaming its own block of
        ``rows[b]``.  One attempt: all of it commits, or none.

        Only the planes and the clock bound an install; an operand's
        arrival bounds its pass (:meth:`_plan_pass`), so activations
        already in flight can meet weights installed ahead of them."""
        clock = self._mxm_clock
        tiles = node.params["weight_tiles"]
        t_cursor = max(clock.read, *part.offer.ready[: len(part.planes)])
        weight_slots: list[ConstantSlot] = []
        k_from = 0
        # per row, the plan ref of its partial sum over the tiles so far
        sums: list = [None] * node.n_vectors
        with self.attempt as attempt:
            for p_idx, (tile, act) in enumerate(zip(tiles, act_nodes)):
                k_to = k_from + tile.shape[0]
                # the install is the prologue a periodic pass repeats after
                attempt.in_pass = False
                installed = self._plan_install(
                    node, part, (k_from, k_to), t_cursor, weight_slots
                )
                if installed is None:
                    return False
                k_from = k_to
                attempt.in_pass = attempt.period is not None
                t_a = self._plan_pass(
                    node, part, act, installed[0] + 1, installed[1], sums,
                    accumulate=p_idx > 0, last=p_idx == len(tiles) - 1,
                )
                if t_a is None:
                    return False
                # a new install wipes in-flight results: wait for the drain
                t_cursor = t_a + part.rows[0] + clock.turn
            attempt.commit(note=node.name)
        self.slots.extend(weight_slots)
        for plane in part.planes:
            self._plane_busy[(part.offer.hemisphere, plane)] = t_cursor
        return True

    def _plan_install(
        self, node: Node, part: MatmulPart, tile: tuple[int, int],
        t_from: int, weight_slots: list[ConstantSlot],
    ) -> tuple[int, list] | None:
        """Plan the weight feed of one K-tile — rows ``tile`` of the
        weights constant; the MEM words it will stream from go to
        ``weight_slots`` — and an ``IW`` per plane; the cycle the last
        chunk is installed and, per plane, the plan ref of the weights it
        holds — or None."""
        attempt, lanes = self.attempt, self.config.n_lanes
        weight_dtype = node.params.get("weight_dtype", DType.INT8)
        hemisphere, position = part.offer.hemisphere, part.offer.position
        outward = Direction.outward_for(hemisphere)
        mxm = self.floorplan.mxm(hemisphere)
        iw_icus = [IcuId(mxm, plane * 2) for plane in part.planes]
        k_rows = tile[1] - tile[0]
        # a tile is fed lane-padded, as whole lane-wide chunks
        n_chunks = k_rows * weight_dtype.n_bytes

        # the feed whose last chunk installs first, with a stream group
        # free for its whole flight; a group conflict retries later
        grant = None
        for _retry in range(64):
            feed = self._plan_weight_feed(n_chunks, position, iw_icus, t_from)
            if feed is None:
                return None
            t_w, slices, install_cycles = feed
            grant = attempt.grant(
                outward, len(slices), t_w, install_cycles, False, position
            )
            if grant is not None:
                break
            t_from = t_w + install_cycles
        if grant is None:
            return None
        n_streams = len(slices)
        layout = self.mem.alloc_sequential(slices, install_cycles)
        words = []
        # what the IW captures, cycle by cycle, stream by stream
        chunks = [[None] * n_streams for _ in range(install_cycles)]
        for j, (s, placement) in enumerate(zip(slices, layout.planes)):
            t_first = t_w - abs(position - s.position) - self._mxm_clock.read
            icu = self._mem_icu(s)
            for c in range(install_cycles):
                word = (s.hemisphere, s.index, placement.base_address + 2 * c)
                chunks[c][j] = self._plan_read(
                    icu, t_first + c, word, grant.base + j, outward
                )
                words.append(word)
        weight_slots.append(
            ConstantSlot(node.inputs[0], tuple(words), tile, n_streams)
        )
        fed = [ref for chunk in chunks for ref in chunk]
        weights = []
        for plane, icu in zip(part.planes, iw_icus):
            install = InstallWeights(
                plane=plane,
                base_stream=grant.base,
                n_streams=n_streams,
                direction=outward,
                rows=k_rows,
                cols=lanes,
                dtype=weight_dtype,
            )
            attempt.plan(icu, t_w - self.dskew("IW"), install)
            (slot,) = attempt.slots(1)
            self._emit(
                ("install", slot, weight_dtype, k_rows, lanes, fed),
                icu, t_w - self.dskew("IW"), install, install_cycles - 1,
            )
            weights.append(("s", slot))
        installed = t_w + install_cycles - 1
        self._mark("weights_installed", installed)
        return installed, weights

    def _plan_pass(
        self, node: Node, part: MatmulPart, act: Node, t_from: int,
        weights: list, sums: list, accumulate: bool, last: bool,
    ) -> int | None:
        """Plan one K-tile's activations through the planes holding
        ``weights``: the operand delivery, an ``ABC``/``ACC`` pair per
        plane and — on the ``last`` pass — the result group; each row's
        partial sum in ``sums`` moves on by this tile.  The cycle the first
        activation vector is at the MXM, or None."""
        attempt, clock = self.attempt, self._mxm_clock
        hemisphere, position = part.offer.hemisphere, part.offer.position
        planes, rows = part.planes, part.rows
        weight_dtype = node.params.get("weight_dtype", DType.INT8)
        act_width, out_width = act.dtype.n_bytes, node.dtype.n_bytes
        inward = Direction.inward_for(hemisphere)
        mxm = self.floorplan.mxm(hemisphere)
        compute_icus = [IcuId(mxm, plane * 2 + 1) for plane in planes]
        depth = self.timing.mxm_pipeline_depth(self.config.mxm_plane_rows)
        t_min = max(t_from, self._operand_min_arrival(act, position))
        for t_a in range(t_min, t_min + SEARCH_LIMIT):
            t_abc = t_a - self.dskew("ABC")
            t_acc = t_a + depth - self.dskew("ACC")
            if t_acc <= t_abc or not all(
                attempt.cells_free(icu, t)
                for icu in compute_icus for t in (t_abc, t_acc)
            ):
                continue
            out_grant = None
            if last:
                out_grant = attempt.grant(
                    inward, out_width * len(planes), t_a + clock.fill,
                    rows[0], False, position,
                )
                if out_grant is None:
                    continue
            delivery = self._deliver_operand(act, position, t_a, False, rows)
            if delivery is None:
                if out_grant is not None:
                    attempt.give_back(out_grant)
                continue
            out_base = out_grant.base if out_grant else 0
            results = []
            for b, (plane, icu) in enumerate(zip(planes, compute_icus)):
                abc = ActivationBufferControl(
                    plane=plane,
                    base_stream=delivery.base_stream + b * act_width,
                    direction=delivery.direction,
                    n_vectors=rows[b],
                    dtype=weight_dtype,
                )
                acc = Accumulate(
                    plane=plane,
                    base_stream=out_base + b * out_width,
                    direction=inward,
                    n_vectors=rows[b],
                    out_dtype=node.dtype,
                    accumulate=accumulate,
                    emit=last,
                )
                attempt.plan(icu, t_abc, abc)
                attempt.plan(icu, t_acc, acc)
                for k in range(rows[b]):
                    row = b * rows[0] + k
                    (dot,) = attempt.slots(1)
                    self._emit(
                        ("dot", dot, weight_dtype, act.length, weights[b],
                         delivery.refs[row]),
                        icu, t_abc, abc, k,
                    )
                    total = ("s", dot)
                    if accumulate:
                        (folded,) = attempt.slots(1)
                        self._emit(
                            ("acc", folded, total, sums[row]),
                            icu, t_acc, acc, k,
                        )
                        total = ("s", folded)
                    sums[row] = total
                    if last:
                        out = attempt.slots(out_width)
                        self._emit(
                            ("emit", out, total, node.dtype),
                            icu, t_acc, acc, k,
                        )
                        attempt.drive(inward, acc.base_stream, out_width,
                                      position, t_a + clock.fill + k)
                        results.append([("s", slot) for slot in out])
            self._mark("first_operand", t_a)
            if last:
                self.values[node.id] = StreamValue(
                    out_grant, position, t_a + clock.fill, node.n_vectors,
                    node.dtype, node.params["m"], split=tuple(rows),
                    refs=results,
                )
                self._mark("first_result", t_a + clock.fill)
            return t_a
        return None

    def _plan_weight_feed(
        self, n_chunks: int, position: int, icus: list[IcuId], t_start: int
    ) -> tuple[int, list[MemSlice], int] | None:
        """Choose a weight feed: ``(t_w, slices, install cycles)``.

        ``n_chunks`` 320-byte chunks reach the MXM over ``width`` streams,
        slice ``j`` holding every ``width``-th chunk so all streams feed at
        once.  A wider feed installs in fewer cycles, but its farthest
        slice sets when the aligned feed can start; the winner is the width
        whose last chunk installs first (degraded mode simply has fewer
        slices to offer); every IW queue in ``icus`` installs from it at
        once.  A pure probe: nothing is allocated or reserved.
        """
        options = feed_options(
            self.mem.slices_near(position), n_chunks, position, t_start,
            self.dfunc("Read"), self._weights_fit,
        )
        # most promising first: stop once a bound cannot beat the best found
        best = None
        for bound, ready, roomy, width, cycles in options:
            if best is not None and bound >= best[0] + best[2]:
                break
            found = self._find_weight_window(
                roomy, width, cycles, position, icus, ready
            )
            if found is not None and (
                best is None or found[0] + cycles < best[0] + best[2]
            ):
                best = (*found, cycles)
        return best

    def _weights_fit(self, s: MemSlice, n_words: int) -> bool:
        return self.mem.fits(s, INPUT_BANK, n_words)

    def _find_weight_window(
        self, roomy, width, install_cycles, position, icus, t_start
    ) -> tuple[int, list[MemSlice]] | None:
        """Earliest ``t_w >= t_start`` at which the IW cells are free and
        ``width`` of the ``roomy`` slices (nearest first) can each issue
        their ``install_cycles`` reads; returns it with those slices."""
        dfunc_read = self.dfunc("Read")
        t_iw_offset = self.dskew("IW")
        feeds = [
            (s, self._mem_icu(s), abs(position - s.position) + dfunc_read)
            for s in roomy
        ]
        for t_w in range(t_start, t_start + SEARCH_LIMIT):
            if not all(self.attempt.cells_free(i, t_w - t_iw_offset) for i in icus):
                continue
            slices = list(
                islice(
                    (
                        s for s, icu, lead in feeds
                        if self.attempt.cells_free(icu, t_w - lead, install_cycles)
                    ),
                    width,
                )
            )
            if len(slices) == width:
                return t_w, slices
        return None


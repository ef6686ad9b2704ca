"""One weight install, then ``n`` passes: a periodic schedule repeated.

A matmul program spends most of its cycles feeding, installing and
draining weights, and the install pays for itself only over a long
activation stream (Section V-b).  So a layer whose rows arrive in chunks
runs a group of ``n`` same-height chunks as one program: its *prologue* —
the weight feed and the ``IW`` s — once, then one *pass* — the activation
reads, each plane's ``ABC``/``ACC`` pair and the result writes — ``n``
times, ``period`` cycles apart, pass ``k`` reading and landing its words
``k * stride`` addresses above pass 0's.

The scheduler plans the pass once, under a periodic reservation
(``Scheduler(periodic=True)``: a pass's dispatch cell or stream window
taken at ``t`` is taken at every ``t + k * period`` too), so repeating it
for any ``n`` is this transform, not a scheduler run.  A K-tiled matmul
re-installs every tile each pass: its prologue is empty and its whole
schedule repeats, every ``makespan + 1`` cycles.

Pass ``k`` of an input or output tensor ``name`` is the tensor
:func:`pass_name` ``(name, k)`` of the program, so a simulation binds and
fetches every pass by name.  The replay plan stays the pass's: it runs
one binding per pass along its batch axis, and a run charges the
prologue once and the pass ``n`` times
(:attr:`repro.sim.replay.ReplayPlan.passes`).
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import CompileError
from ..isa import IcuId, Nop, Program, Read, Write
from .schedule import QueueBuilder, Schedule, ScheduleIntent, TensorSpec


def pass_name(name: str, k: int) -> str:
    """What pass ``k`` of tensor ``name`` binds or lands under."""
    return name if k == 0 else f"{name}@{k}"


def passes_key(key: str, passes: int | None) -> str:
    """The key, under a graph's ``key``, of its ``passes``-pass program —
    the graph's own at one pass — or (``None``) of its pass schedule."""
    if passes == 1:
        return key
    return f"{key}/pass" if passes is None else f"{key}/pass*{passes}"


def split_passes(named: dict, names, passes: int) -> list[dict]:
    """Per pass, the tensors ``names`` of ``named``, a dict keyed by
    :func:`pass_name`."""
    return [
        {name: named[pass_name(name, k)] for name in names}
        for k in range(passes)
    ]


def join_passes(per_pass: list[dict]) -> dict:
    """One dict keyed by :func:`pass_name` of a dict per pass."""
    return {
        pass_name(name, k): value
        for k, tensors in enumerate(per_pass)
        for name, value in tensors.items()
    }


def _pass_words(schedule: Schedule) -> list[tuple]:
    """Every MEM word a pass reads its inputs from or lands results in."""
    return [
        spec.layout.address_of(p, j)
        for spec in (*schedule.inputs.values(), *schedule.outputs.values())
        for p in range(1 if spec.layout.is_parallel else spec.dtype.n_bytes)
        for j in range(spec.n_vectors)
    ]


def stride(schedule: Schedule) -> int:
    """Words between one pass's copy of a word and the next's: enough for
    every copy to sit above all that one bank of one slice holds, so the
    copies meet neither each other nor the memory image."""
    pass_words = _pass_words(schedule)
    low: dict[tuple, int] = {}
    for hemisphere, index, address in pass_words:
        bank = (hemisphere, index, address % 2)
        low[bank] = min(low.get(bank, address), address)
    high = dict(low)
    for hemisphere, index, address in (*schedule.words, *pass_words):
        bank = (hemisphere, index, address % 2)
        if bank in high:
            high[bank] = max(high[bank], address)
    return max((high[bank] + 2 - low[bank] for bank in low), default=2)


def max_passes(schedule: Schedule) -> int:
    """How many passes' inputs and results MEM holds at once: the last
    copy of every word must stay inside its slice."""
    words, step = schedule.config.mem_words_per_slice_tile, stride(schedule)
    return min(
        (words - 1 - address) // step + 1
        for _hemisphere, _index, address in _pass_words(schedule)
    )


def _cells(program: Program) -> dict[IcuId, dict[int, tuple]]:
    """Per queue, ``{dispatch cycle: (instruction, note)}`` of ``program``."""
    cells: dict[IcuId, dict[int, tuple]] = {}
    for icu in program.icus:
        own, t = cells.setdefault(icu, {}), 0
        for i, instruction in enumerate(program.queue(icu)):
            if isinstance(instruction, Nop):
                t += max(instruction.count, 1)
                continue
            own[t] = (instruction, program.annotations.get((icu, i)) or "")
            t += 1
    return cells


def repeat(schedule: Schedule, passes: int) -> Schedule:
    """The schedule of ``passes`` passes of ``schedule`` — periodic (its
    :attr:`~.schedule.Schedule.pass_shape` says what repeats) or, with no
    pass shape, repeated whole; no more than :func:`max_passes`.

    Pass cells, pass drives and the pass's MEM words move on by ``k *
    period`` cycles and ``k * stride`` words; the prologue and the memory
    image stay.  The result's ``shape_key`` is the caller's to set
    (:meth:`~.schedule.Schedule.repeated` sets it).
    """
    from ..sim.replay import ScheduleRecorder

    if passes > max_passes(schedule):
        raise CompileError(
            f"MEM holds {max_passes(schedule)} passes' inputs and results "
            f"of this schedule, not {passes}"
        )
    shape = schedule.pass_shape
    period = shape.period if shape else schedule.stats.makespan + 1
    step, image = stride(schedule), set(schedule.words)

    def moved(icu: IcuId, instruction, k: int):
        if not isinstance(instruction, (Read, Write)) or k == 0:
            return instruction
        word = (icu.address.hemisphere, icu.address.index, instruction.address)
        if word in image:  # a K-tile's weights, read again each pass
            return instruction
        return replace(instruction, address=instruction.address + k * step)

    queues = {}
    for icu, cells in _cells(schedule.program).items():
        queue = queues[icu] = QueueBuilder(icu)
        repeated = shape.cells.get(icu, ()) if shape else cells
        for t, (instruction, note) in cells.items():
            # the first pass carries the compiler's annotations
            for k in range(passes if t in repeated else 1):
                queue.reserve(t + k * period, moved(icu, instruction, k),
                              "" if k else note)
    program = Program()
    instructions = nops = 0
    for icu in sorted(queues, key=IcuId.sort_key):
        emitted = queues[icu].emit(program)
        instructions, nops = instructions + emitted[0], nops + emitted[1]
    makespan = max(max(q.cells) + 1 for q in queues.values() if q.cells)
    drives = [
        (direction, stream, position, t + k * period)
        for k in range(passes)
        for direction, stream, position, t in schedule.intent.drives
        if k == 0 or shape is None
        or (direction, stream, position, t) in shape.drives
    ]
    last = schedule.stats.last_write

    def copies(specs: dict) -> dict:
        return {
            pass_name(name, k): TensorSpec(
                pass_name(name, k), spec.layout.shifted(k * step),
                spec.n_vectors, spec.length, spec.dtype,
            )
            for k in range(passes) for name, spec in specs.items()
        }

    plan = schedule.plan
    if plan is not None:
        plan = ScheduleRecorder(replace(
            plan, program=program, cycles=makespan + 1, drives=drives,
            passes=passes, stride=step,
            body=shape.ops if shape else (True,) * len(plan.ops),
        ), warmup_barrier=False).finish()
    return replace(
        schedule,
        program=program,
        inputs=copies(schedule.inputs),
        outputs=copies(schedule.outputs),
        stats=replace(
            schedule.stats, instructions=instructions, nops_inserted=nops,
            makespan=makespan,
            last_write=None if last is None else last + (passes - 1) * period,
        ),
        intent=ScheduleIntent(
            dispatch_cells={
                str(icu): {t: i.mnemonic for t, i in q.cells.items()}
                for icu, q in queues.items()
            },
            drives=drives,
        ),
        shape_key=None,
        plan=plan,
        pass_shape=None,
        passes=passes,
        source=schedule,
    )

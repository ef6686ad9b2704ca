"""Binary-identity digests: one sha256 per program of the corpus.

The scheduler is deterministic, so a refactor that claims "emitted binaries
unchanged" is checked exactly: run this helper on the parent commit and on
the change and ``diff`` the two outputs.  Nothing is pinned in the tree —
a PR that *means* to move a schedule moves these digests, and says so.

A digest covers everything ``CompiledProgram`` hands to a chip or a
checker: per-ICU program text (and the compiler's annotations), memory
image words, input/output layouts, ``ScheduleStats``, and the
``ScheduleIntent``: its ``(direction, stream, position, cycle)`` drive
tuples in the order the lowerings noted them, and its non-empty dispatch
cells.

The programs are ``tests/corpus.py``'s, in its order.

Run (not collected by pytest)::

    PYTHONPATH=src:tests python tests/binary_digest.py

``--rebind`` proves that a schedule never reads a constant: each corpus
program's graph is scheduled, a twin's constants — same shapes, other
values (:func:`repro.testing.redrawn`) — are bound to that schedule, and
the digest must equal the twin compiled from scratch.  Exit 1 on any
difference.

``--telemetry`` digests what a chip's telemetry collector reads instead:
one sha256 per program of its ``TelemetryCollector.snapshot()`` and its
dispatch log at window widths 1, 16 and 256 — each corpus program
executed on a fresh chip with a collector attached, the corpus's
``suite/warmup-barrier`` program once more behind the post-reset Sync/Notify
barrier, then each of :data:`repro.verify.suite.CASES` (the hand-built
Scatter, LW, Send/Receive, Config, Ifetch and Repeat programs) run under
:class:`repro.obs.AutoTelemetry`.  It uses only API that predates the
collector's derivation from the run, so the same file runs on both sides
of a change to how the counts are taken.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict

import numpy as np

from corpus import corpus
from repro.compiler import execute
from repro.config import small_test_chip
from repro.errors import TspError
from repro.isa.encoding import encode_program_text
from repro.obs import AutoTelemetry, TelemetryCollector
from repro.sim.chip import TspChip
from repro.testing import redrawn
from repro.verify.coverage import CoverageTracker
from repro.verify.suite import CASES

#: the counter window widths ``--telemetry`` reads each program at
WIDTHS = (1, 16, 256)


def digest(build) -> str:
    """Of the program ``build()`` compiles — or of the error it raises: a
    graph the scheduler rejects must stay rejected, for the same reason."""
    h = hashlib.sha256()
    try:
        compiled = build()
    except TspError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()

    def put(*parts) -> None:
        for part in parts:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
            h.update(b"\0")

    program = compiled.program
    for icu in program.icus:
        put(str(icu), encode_program_text(program.queue(icu)))
        put(program.queue(icu))
    put(sorted((str(icu), i, note)
               for (icu, i), note in program.annotations.items()))
    for word in compiled.memory_image:
        put(word.hemisphere, word.slice_index, word.address,
            np.ascontiguousarray(word.data).tobytes())
    for specs in (compiled.inputs, compiled.outputs):
        for name, spec in specs.items():
            put(name, spec.layout, spec.n_vectors, spec.length, spec.dtype)
    put(sorted(asdict(compiled.stats).items()))
    put(compiled.intent.drives)
    put(sorted(
        (icu, sorted(cells.items()))
        for icu, cells in compiled.intent.dispatch_cells.items() if cells
    ))
    return h.hexdigest()


def rebound(entry):
    """A :func:`redrawn` twin of ``entry`` as two thunks: compiled from
    scratch, and bound to the entry's schedule."""
    twin, blacklist, passes = redrawn(entry.builder), entry.blacklist, entry.passes
    return (lambda: twin.compile(blacklist, passes=passes),
            lambda: twin.bind(entry.builder.schedule(blacklist, passes),
                              blacklist))


def snapshots_digest(run) -> str:
    """Of the snapshots of every collector ``run(width)`` returns, at each
    of :data:`WIDTHS`."""
    h = hashlib.sha256()
    for width in WIDTHS:
        for collector in run(width):
            h.update(json.dumps(collector.snapshot(), sort_keys=True).encode())
            h.update(repr([(e.cycle, e.icu, e.mnemonic, e.occupancy)
                           for e in collector.dispatch_log]).encode())
    return h.hexdigest()


def corpus_collector(entry, warmup_barrier=False):
    """``run(width)`` for :func:`snapshots_digest`: the entry executed on a
    fresh chip with a collector attached."""
    compiled = entry.compile()

    def run(width):
        chip = TspChip(compiled.config)
        collector = TelemetryCollector(window_cycles=width)
        chip.attach_telemetry(collector)
        execute(compiled, chip=chip, inputs=entry.inputs,
                warmup_barrier=warmup_barrier)
        return [collector]

    return run


def case_collectors(case):
    """``run(width)``: a hand-built case under :class:`AutoTelemetry`."""

    def run(width):
        with AutoTelemetry(window_cycles=width) as auto:
            case(small_test_chip(), CoverageTracker())
        return auto.collectors

    return run


def telemetry() -> int:
    total = hashlib.sha256()
    count = 0
    entries = list(corpus())
    programs = [(entry.name, lambda e=entry: corpus_collector(e))
                for entry in entries]
    programs += [("barrier/" + entry.name,
                  lambda e=entry: corpus_collector(e, warmup_barrier=True))
                 for entry in entries if entry.name == "suite/warmup-barrier"]
    programs += [(f"case/{name}", lambda c=case: case_collectors(c))
                 for name, case in CASES]
    for name, collectors in programs:
        try:
            run = collectors()
        except TspError as exc:  # a rejected entry: no run to read
            line = f"{type(exc).__name__}  {name}"
        else:
            line = f"{snapshots_digest(run)}  {name}"
        print(line)
        total.update(line.encode())
        count += 1
    print(f"{total.hexdigest()}  TOTAL over {count} programs")
    return 0


def main(rebind: bool = False) -> int:
    total = hashlib.sha256()
    count = differ = 0
    for entry in corpus():
        name, build = entry.name, entry.compile
        if rebind:
            fresh, build = rebound(entry)
            if digest(fresh) != digest(build):
                name += "  != compiled from scratch"
                differ += 1
        line = f"{digest(build)}  {name}"
        print(line)
        total.update(line.encode())
        count += 1
    print(f"{total.hexdigest()}  TOTAL over {count} programs")
    if rebind:
        print(f"{count - differ} of {count} bound programs equal a fresh compile")
    return 1 if differ else 0


if __name__ == "__main__":
    if "--telemetry" in sys.argv[1:]:
        sys.exit(telemetry())
    sys.exit(main(rebind="--rebind" in sys.argv[1:]))

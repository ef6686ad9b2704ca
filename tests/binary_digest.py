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
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import asdict

import numpy as np

from corpus import corpus
from repro.errors import TspError
from repro.isa.encoding import encode_program_text
from repro.testing import redrawn


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
    twin, blacklist = redrawn(entry.builder), entry.blacklist
    return (lambda: twin.compile(blacklist),
            lambda: twin.bind(entry.builder.schedule(blacklist), blacklist))


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
    sys.exit(main(rebind="--rebind" in sys.argv[1:]))

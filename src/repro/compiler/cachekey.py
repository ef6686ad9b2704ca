"""Content-addressed identity for compiled stream programs.

The scheduler is deterministic: a compiled binary is a pure function of
(lowered graph, :class:`~repro.config.ArchConfig`, timing model,
degradation blacklist).  :func:`graph_fingerprint` hashes a canonical
serialization of that tuple, so two independently built graphs that lower
the same computation against the same chip collide to the same key — the
property the serving layer's compiled-program cache relies on to compile
each (model, shape, dtype, batch) shape exactly once and replay it
forever (Section IV-F's "compile once, run deterministically" promise at
datacenter scale).

Everything that can change the emitted schedule or the host binding
contract is folded into the digest: node kinds, shapes, dtypes, tensor
names (they key the input/output specs), op parameters, constant data
bytes, and the full architectural configuration.  Anything else — Python
object identity, insertion order of dict params, host endianness of the
hash input — is canonicalized away.

Constant bytes are the one ingredient the *schedule* never reads: they
are emplaced in MEM before execution and no instruction is made from
them.  :func:`shape_fingerprint` is the same digest without them — the
identity of a :class:`~repro.compiler.schedule.Schedule`, which a program
cache uses to bind a never-seen model's weights to a schedule it already
holds instead of searching again.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib

import numpy as np

from ..config import ArchConfig
from .graph import Graph


def _feed(h, token: str) -> None:
    h.update(token.encode())
    h.update(b"\x00")


def _feed_array(h, arr: np.ndarray, data: bool = True) -> None:
    _feed(h, f"ndarray:{arr.dtype.str}:{arr.shape}")
    if data:
        h.update(np.ascontiguousarray(arr).tobytes())


def _feed_value(h, value, data: bool = True) -> None:
    """Canonicalize one op parameter into the hash stream (``data``:
    with the bytes of any array in it, or only its dtype and shape)."""
    if isinstance(value, np.ndarray):
        _feed_array(h, value, data)
    elif isinstance(value, enum.Enum):
        _feed(h, f"enum:{type(value).__name__}.{value.name}")
    elif isinstance(value, (list, tuple)):
        _feed(h, f"seq:{len(value)}")
        for item in value:
            _feed_value(h, item, data)
    elif isinstance(value, bool):
        _feed(h, f"bool:{value}")
    elif isinstance(value, int):
        _feed(h, f"int:{value}")
    elif isinstance(value, float):
        _feed(h, f"float:{value.hex()}")
    elif value is None:
        _feed(h, "none")
    else:
        _feed(h, f"{type(value).__name__}:{value!r}")


class _ByteSink(bytearray):
    """hashlib's ``update`` protocol, collecting the stream instead."""

    update = bytearray.extend


@functools.lru_cache(maxsize=None)
def _config_bytes(config: ArchConfig) -> bytes:
    """The canonical byte stream of one configuration.

    ``ArchConfig`` is frozen, so the stream is serialised once per
    distinct configuration and fed to every digest as-is.
    """
    sink = _ByteSink()
    for f in dataclasses.fields(config):
        _feed(sink, f.name)
        _feed_value(sink, getattr(config, f.name))
    return bytes(sink)


def config_fingerprint(config: ArchConfig) -> str:
    """Canonical hash of one architecture configuration."""
    return hashlib.sha256(_config_bytes(config)).hexdigest()


def graph_fingerprint(
    graph: Graph,
    config: ArchConfig,
    timing=None,
    blacklist=None,
) -> str:
    """Canonical hash of a lowered graph and everything it compiles against.

    ``timing`` and ``blacklist`` default to the same values
    :meth:`~repro.compiler.api.StreamProgramBuilder.compile` defaults to;
    pass the actual objects when compiling with overrides so degraded-mode
    binaries never alias healthy ones in a cache.
    """
    return _fingerprint(
        "tsp-program/1", graph, config, timing, blacklist, data=True
    )


def shape_fingerprint(
    graph: Graph,
    config: ArchConfig,
    timing=None,
    blacklist=None,
) -> str:
    """:func:`graph_fingerprint` with every constant's bytes left out.

    What a :class:`~repro.compiler.schedule.Schedule` is a function of:
    two graphs with equal shape keys differ at most in what their
    ``CONSTANT`` nodes (and the weight tiles cut from them) hold — bytes
    that reach the memory image and no instruction — so one's schedule
    binds to the other's constants.  Shapes, dtypes, names, every other
    parameter, the configuration, the timing model and the blacklist all
    stay in.
    """
    return _fingerprint(
        "tsp-schedule/1", graph, config, timing, blacklist, data=False
    )


def _fingerprint(tag, graph, config, timing, blacklist, data: bool) -> str:
    h = hashlib.sha256()
    _feed(h, tag)
    h.update(_config_bytes(config))
    _feed(h, "timing")
    _feed(h, "default" if timing is None else repr(timing))
    _feed(h, "blacklist")
    _feed(h, "none" if blacklist is None else repr(blacklist))
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        _feed(h, f"node:{node.id}:{node.kind.value}")
        _feed_value(h, node.inputs)
        _feed(h, f"dtype:{node.dtype.label}")
        _feed(h, f"shape:{node.n_vectors}x{node.length}")
        _feed(h, f"name:{node.name}")
        for key in sorted(node.params):
            _feed(h, f"param:{key}")
            _feed_value(h, node.params[key], data)
        if node.data is not None:
            _feed_array(h, node.data, data)
    _feed_value(h, graph.outputs)
    return h.hexdigest()

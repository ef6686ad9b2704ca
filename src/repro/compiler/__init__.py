"""The TSP stream compiler.

Pushes all scheduling complexity out of (simulated) hardware and into
software, exactly as the paper prescribes: a ``groq.api``-style frontend
builds a dataflow graph, and the back-end solves the two-dimensional
scheduling of instructions and data in time and space, tracking stream
positions with ``delta(j, i)`` and instruction timing with
``d_func``/``d_skew``.
"""

from .api import StreamProgramBuilder, TensorHandle
from .cachekey import (
    config_fingerprint,
    graph_fingerprint,
    shape_fingerprint,
)
from .graph import Graph, Node, OpKind
from .allocator import (
    MemoryAllocator,
    StreamAllocator,
    StreamGrant,
    TensorLayout,
    WordPlacement,
)
from .partition import (
    PartitionPlan,
    PartitionStage,
    RingTransferPlan,
    build_ring_transfer,
    pack_payload,
    partition_contiguous,
    plan_ring_route,
    unpack_payload,
)
from .passes import insert_ifetch
from .runner import ExecutionResult, execute, fetch_output, load_compiled
from .textlayout import (
    TextLayout,
    TextPlacement,
    layout_program_text,
    materialize_text,
    recover_program_text,
    reserved_dispatch_slices,
)
from .scheduler import (
    CompiledProgram,
    ConstantSlot,
    MemWord,
    Schedule,
    ScheduleIntent,
    ScheduleStats,
    Scheduler,
    StreamValue,
    TensorSpec,
    pack_tensor,
    unpack_tensor,
)

__all__ = [
    "CompiledProgram",
    "ConstantSlot",
    "ExecutionResult",
    "PartitionPlan",
    "PartitionStage",
    "RingTransferPlan",
    "build_ring_transfer",
    "pack_payload",
    "partition_contiguous",
    "plan_ring_route",
    "unpack_payload",
    "Graph",
    "MemWord",
    "MemoryAllocator",
    "Node",
    "OpKind",
    "Schedule",
    "ScheduleIntent",
    "ScheduleStats",
    "Scheduler",
    "StreamAllocator",
    "StreamGrant",
    "StreamProgramBuilder",
    "StreamValue",
    "TextLayout",
    "TextPlacement",
    "TensorHandle",
    "TensorLayout",
    "TensorSpec",
    "WordPlacement",
    "config_fingerprint",
    "execute",
    "fetch_output",
    "graph_fingerprint",
    "insert_ifetch",
    "shape_fingerprint",
    "layout_program_text",
    "materialize_text",
    "recover_program_text",
    "reserved_dispatch_slices",
    "load_compiled",
    "pack_tensor",
    "unpack_tensor",
]

"""Stream identifiers, data types, and stream-group alignment rules.

Each stream carries one byte per lane per cycle.  Larger data types are built
from naturally aligned groups of streams (Section I-B): int16 occupies an
aligned pair (SG2), int32 and fp32 an aligned quad (SG4 — e.g. SG4_0 is
streams 0..3, SG4_1 is streams 4..7).  fp16 occupies an aligned pair.
Alignment is the compiler's job; :func:`streams_for_dtype` enforces it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import CompileError, IsaError
from .geometry import Direction


#: DType labels that are not numpy's own name for the type
_NUMPY_NAMES = {"fp16": "float16", "fp32": "float32"}


class DType(enum.Enum):
    """Hardware-supported element types and their stream footprints."""

    INT8 = ("int8", 1)
    UINT8 = ("uint8", 1)
    INT16 = ("int16", 2)
    FP16 = ("fp16", 2)
    INT32 = ("int32", 4)
    FP32 = ("fp32", 4)

    def __init__(self, label: str, n_bytes: int) -> None:
        self.label = label
        self.n_bytes = n_bytes
        #: the host-side element type (read on every tensor pack/unpack)
        self.numpy_dtype = np.dtype(_NUMPY_NAMES.get(label, label))

    @property
    def n_streams(self) -> int:
        """Streams needed to carry one element per lane."""
        return self.n_bytes

    @staticmethod
    def from_label(label: str) -> "DType":
        for member in DType:
            if member.label == label:
                return member
        raise IsaError(f"unknown dtype {label!r}")


@dataclass(frozen=True, order=True)
class StreamId:
    """One logical stream: a direction plus an identifier 0..31.

    The paper designates streams by identifier and direction, e.g. ``in(28)``
    or ``out(24)`` relative to a hemisphere; we use absolute directions and
    provide :meth:`inward`/:meth:`outward` constructors for the relative
    forms.
    """

    direction: Direction
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise IsaError(f"stream index {self.index} is negative")

    def __str__(self) -> str:
        return f"S{self.index}{self.direction.value}"

    def validate(self, streams_per_direction: int) -> None:
        if self.index >= streams_per_direction:
            raise IsaError(
                f"stream index {self.index} exceeds the "
                f"{streams_per_direction} streams per direction"
            )


def stream_group(base_index: int, dtype: DType) -> list[int]:
    """Indices of the naturally aligned stream group for ``dtype``.

    ``base_index`` must be aligned to the group size: int16/fp16 on even
    indices, int32/fp32 on multiples of four.
    """
    size = dtype.n_streams
    if base_index % size != 0:
        raise IsaError(
            f"{dtype.label} streams must be aligned to SG{size} boundaries; "
            f"stream {base_index} is not a multiple of {size}"
        )
    return list(range(base_index, base_index + size))


def streams_for_dtype(
    base_index: int, dtype: DType, direction: Direction
) -> list[StreamId]:
    """The aligned :class:`StreamId` group carrying one ``dtype`` vector."""
    return [
        StreamId(direction, i) for i in stream_group(base_index, dtype)
    ]


def split_to_byte_planes(values: np.ndarray, dtype: DType) -> list[np.ndarray]:
    """Split a vector of ``dtype`` elements into little-endian byte planes.

    Each returned plane is a uint8 vector of the same length, carrying one
    byte of each element — exactly what one stream transports.
    """
    arr = np.ascontiguousarray(values, dtype=dtype.numpy_dtype)
    raw = arr.view(np.uint8).reshape(arr.shape[0], dtype.n_bytes)
    return [np.ascontiguousarray(raw[:, b]) for b in range(dtype.n_bytes)]


def join_byte_planes(planes: list[np.ndarray], dtype: DType) -> np.ndarray:
    """Inverse of :func:`split_to_byte_planes`."""
    if len(planes) != dtype.n_bytes:
        raise IsaError(
            f"{dtype.label} needs {dtype.n_bytes} byte planes, got "
            f"{len(planes)}"
        )
    stacked = np.stack(
        [np.asarray(p, dtype=np.uint8) for p in planes], axis=1
    )
    return np.ascontiguousarray(stacked).view(dtype.numpy_dtype).reshape(-1)


def pack_tensor(data: np.ndarray, dtype: DType, lanes: int) -> np.ndarray:
    """(n, L) host tensor -> (bytes, n, lanes) byte-plane words."""
    arr = np.atleast_2d(np.asarray(data, dtype=dtype.numpy_dtype))
    n, length = arr.shape
    if length > lanes:
        raise CompileError(
            f"vector length {length} exceeds the {lanes}-lane maxVL"
        )
    padded = np.zeros((n, lanes), dtype=dtype.numpy_dtype)
    padded[:, :length] = arr
    raw = padded.view(np.uint8).reshape(n, lanes, dtype.n_bytes)
    return np.ascontiguousarray(raw.transpose(2, 0, 1))


def unpack_tensor(
    planes: np.ndarray, dtype: DType, length: int
) -> np.ndarray:
    """(bytes, n, lanes) byte-plane words -> (n, length) host tensor."""
    b, n, lanes = planes.shape
    raw = np.ascontiguousarray(planes.transpose(1, 2, 0))
    full = raw.reshape(n, lanes * b).view(dtype.numpy_dtype)
    return full[:, :length].copy()

"""Binary instruction encoding.

The program text stored in MEM "instruction dispatch" slices and fetched by
``Ifetch`` is a byte stream; this module defines the wire format and a
round-trippable encoder/decoder for every registered instruction.

Format (little-endian)::

    +--------+----------------+----------- ... -----------+
    | opcode | total length   | fields in dataclass order |
    | 1 byte | 2 bytes        |                           |
    +--------+----------------+----------- ... -----------+

Field encodings are chosen by the type of the field's default value:

* int   -> 4-byte signed
* bool  -> 1 byte
* float -> 8-byte IEEE double
* enum  -> 1-byte index into the enum's member order
* tuple -> 2-byte count, then 2-byte signed entries

:func:`encoded_length` computes the size of that encoding structurally —
same field walk, same range checks, no bytes built — for the consumers
that only need occupancy (the IQ supply model, ``insert_ifetch``,
``Program.text_bytes``).  :func:`encode` stays the wire format and the
oracle the length is property-tested against.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import fields

from ..errors import EncodingError
from .base import INSTRUCTION_REGISTRY, OPCODE_BY_MNEMONIC, Instruction

_HEADER = struct.Struct("<BH")
_INT = struct.Struct("<H")  # scalar fields are compact 16-bit unsigned
_FLOAT = struct.Struct("<d")
_SHORT = struct.Struct("<h")
_COUNT = struct.Struct("<H")


#: dataclass field names per instruction class (``fields()`` is slow)
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def _check_scalar(value: int) -> None:
    if not 0 <= value <= 0xFFFF:
        raise EncodingError(
            f"scalar field value {value} outside the 16-bit range"
        )


def _check_entries(values: tuple) -> None:
    for v in values:
        if not -0x8000 <= int(v) <= 0x7FFF:
            raise EncodingError(
                f"tuple entry {v} outside the signed 16-bit range"
            )


def _check_total(instruction: Instruction, total: int) -> None:
    if total > 0xFFFF:
        raise EncodingError(
            f"{instruction.mnemonic} encodes to {total} bytes (> 64 KiB)"
        )


def _class_by_opcode(opcode: int) -> type[Instruction]:
    for mnemonic, code in OPCODE_BY_MNEMONIC.items():
        if code == opcode:
            return INSTRUCTION_REGISTRY[mnemonic]
    raise EncodingError(f"unknown opcode {opcode}")


def _encode_field(value: object) -> bytes:
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return bytes([1 if value else 0])
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return bytes([members.index(value)])
    if isinstance(value, int):
        _check_scalar(value)
        return _INT.pack(value)
    if isinstance(value, float):
        return _FLOAT.pack(value)
    if isinstance(value, tuple):
        _check_entries(value)
        out = [_COUNT.pack(len(value))]
        out += [_SHORT.pack(int(v)) for v in value]
        return b"".join(out)
    raise EncodingError(f"cannot encode field value {value!r}")


def _field_length(value: object) -> int:
    """Encoded size of one field: ``len(_encode_field(value))``, unbuilt."""
    # plain ints are the common case: one identity test skips the 1-byte
    # check (bool and int-valued enums are int subclasses)
    if type(value) is not int and isinstance(value, (bool, enum.Enum)):
        return 1
    if isinstance(value, int):
        _check_scalar(value)
        return _INT.size
    if isinstance(value, float):
        return _FLOAT.size
    if isinstance(value, tuple):
        _check_entries(value)
        return _COUNT.size + _SHORT.size * len(value)
    raise EncodingError(f"cannot encode field value {value!r}")


def _decode_field(
    default: object, data: bytes, offset: int
) -> tuple[object, int]:
    if isinstance(default, bool):
        return data[offset] != 0, offset + 1
    if isinstance(default, enum.Enum):
        members = list(type(default))
        index = data[offset]
        if index >= len(members):
            raise EncodingError(
                f"enum index {index} out of range for {type(default).__name__}"
            )
        return members[index], offset + 1
    if isinstance(default, int):
        (value,) = _INT.unpack_from(data, offset)
        return value, offset + _INT.size
    if isinstance(default, float):
        (value,) = _FLOAT.unpack_from(data, offset)
        return value, offset + _FLOAT.size
    if isinstance(default, tuple):
        (count,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        values = []
        for _ in range(count):
            (v,) = _SHORT.unpack_from(data, offset)
            values.append(v)
            offset += _SHORT.size
        return tuple(values), offset
    raise EncodingError(f"cannot decode field with default {default!r}")


def encode(instruction: Instruction) -> bytes:
    """Serialize one instruction to its wire format."""
    body = b"".join(
        _encode_field(getattr(instruction, name))
        for name in _field_names(type(instruction))
    )
    total = _HEADER.size + len(body)
    _check_total(instruction, total)
    return _HEADER.pack(instruction.opcode, total) + body


def encoded_length(instruction: Instruction) -> int:
    """``len(encode(instruction))`` without building the bytes.

    Raises the same :class:`EncodingError` as :func:`encode` for an
    out-of-range or unencodable field.
    """
    total = _HEADER.size
    for name in _field_names(type(instruction)):
        total += _field_length(getattr(instruction, name))
    _check_total(instruction, total)
    return total


def decode(data: bytes, offset: int = 0) -> tuple[Instruction, int]:
    """Deserialize one instruction; returns (instruction, next offset)."""
    if offset + _HEADER.size > len(data):
        raise EncodingError("truncated instruction header")
    opcode, total = _HEADER.unpack_from(data, offset)
    cls = _class_by_opcode(opcode)
    end = offset + total
    if end > len(data):
        raise EncodingError(
            f"truncated {cls.mnemonic} body: need {total} bytes"
        )
    cursor = offset + _HEADER.size
    kwargs: dict[str, object] = {}
    for f in fields(cls):
        default = f.default
        value, cursor = _decode_field(default, data, cursor)
        kwargs[f.name] = value
    if cursor != end:
        raise EncodingError(
            f"{cls.mnemonic} decoded {cursor - offset} bytes, header said "
            f"{total}"
        )
    return cls(**kwargs), end


def encode_program_text(instructions: list[Instruction]) -> bytes:
    """Concatenate instruction encodings into IQ-fetchable program text."""
    return b"".join(encode(i) for i in instructions)


def decode_program_text(data: bytes) -> list[Instruction]:
    """Inverse of :func:`encode_program_text`."""
    out: list[Instruction] = []
    offset = 0
    while offset < len(data):
        instruction, offset = decode(data, offset)
        out.append(instruction)
    return out

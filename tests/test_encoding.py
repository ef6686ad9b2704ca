"""Binary instruction encoding: exhaustive and property-based round-trips."""

import dataclasses
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import Direction, DType
from repro.errors import EncodingError
from repro.isa.base import INSTRUCTION_REGISTRY
from repro.isa.encoding import encoded_length
from repro.isa import (
    Accumulate,
    ActivationBufferControl,
    AluOp,
    BinaryOp,
    Convert,
    Config,
    Deskew,
    Distribute,
    Gather,
    Ifetch,
    InstallWeights,
    LoadWeights,
    Nop,
    Notify,
    Permute,
    Read,
    Receive,
    Repeat,
    Rotate,
    Scatter,
    Select,
    Send,
    Shift,
    Sync,
    Transpose,
    UnaryOp,
    Write,
    decode,
    decode_program_text,
    encode,
    encode_program_text,
)

SAMPLES = [
    Nop(17),
    Ifetch(stream=5),
    Sync(),
    Notify(),
    Config(superlane=3, power_on=False),
    Repeat(n=4, d=2),
    Read(address=1234, stream=9, direction=Direction.WESTWARD),
    Write(address=77, stream=2),
    Gather(stream=1, map_stream=3, base=40),
    Scatter(stream=4, map_stream=5, base=2),
    UnaryOp(op=AluOp.TANH, src_stream=3, dst_stream=6, dtype=DType.FP16),
    BinaryOp(op=AluOp.MUL_MOD, src1_stream=1, src2_stream=2, dst_stream=3),
    Convert(from_dtype=DType.INT32, to_dtype=DType.INT8, scale=0.125),
    LoadWeights(plane=1, row=100, stream=7),
    InstallWeights(plane=0, rows=64, cols=320, n_streams=8),
    ActivationBufferControl(plane=1, n_vectors=12, dtype=DType.FP16),
    Accumulate(plane=0, base_stream=8, n_vectors=3, accumulate=True, emit=False),
    Shift(src_stream=1, dst_stream=2, amount=5),
    Select(src_stream_a=1, src_stream_b=2, dst_stream=3, mask=(0, 1) * 8),
    Permute(mapping=tuple(reversed(range(16)))),
    Distribute(mapping=(-1, 0, 1, 2) * 4),
    Rotate(src_stream=2, dst_base_stream=8, n=4),
    Transpose(src_base_stream=16, dst_base_stream=0, unit=1),
    Deskew(link=3),
    Send(link=7, stream=12),
    Receive(link=2, mem_slice=10, address=512),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "instruction", SAMPLES, ids=lambda i: i.mnemonic
    )
    def test_encode_decode_identity(self, instruction):
        decoded, consumed = decode(encode(instruction))
        assert decoded == instruction
        assert consumed == len(encode(instruction))

    def test_program_text_roundtrip(self):
        text = encode_program_text(SAMPLES)
        back = decode_program_text(text)
        assert back == SAMPLES

    def test_encoded_size_matches_wire(self):
        for instruction in SAMPLES:
            assert instruction.encoded_size() == len(encode(instruction))

    def test_instructions_are_compact(self):
        """IQ feeding requires dense instruction text: every instruction
        must fit well within one 16-byte MEM word equivalent (maps/masks
        excepted)."""
        for instruction in SAMPLES:
            if instruction.payload() or isinstance(
                instruction, (Permute, Distribute, Select)
            ):
                continue
            assert instruction.encoded_size() <= 32, str(instruction)


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(EncodingError):
            decode(b"\x01")

    def test_truncated_body(self):
        data = encode(Read(address=5, stream=1))
        with pytest.raises(EncodingError):
            decode(data[:-2])

    def test_unknown_opcode(self):
        with pytest.raises(EncodingError):
            decode(b"\xff\x03\x00")

    def test_out_of_range_scalar(self):
        from repro.isa.encoding import _encode_field

        with pytest.raises(EncodingError):
            _encode_field(70000)


class TestPropertyBased:
    @given(
        address=st.integers(0, 8191),
        stream=st.integers(0, 31),
        direction=st.sampled_from(list(Direction)),
    )
    @settings(max_examples=50, deadline=None)
    def test_read_roundtrip(self, address, stream, direction):
        instruction = Read(address=address, stream=stream, direction=direction)
        decoded, _ = decode(encode(instruction))
        assert decoded == instruction

    @given(
        op=st.sampled_from([o for o in AluOp if o.arity == 2]),
        s1=st.integers(0, 31),
        s2=st.integers(0, 31),
        dst=st.integers(0, 31),
        dtype=st.sampled_from(list(DType)),
        alu=st.integers(0, 15),
    )
    @settings(max_examples=50, deadline=None)
    def test_binary_roundtrip(self, op, s1, s2, dst, dtype, alu):
        instruction = BinaryOp(
            op=op, src1_stream=s1, src2_stream=s2, dst_stream=dst,
            dtype=dtype, alu=alu,
        )
        decoded, _ = decode(encode(instruction))
        assert decoded == instruction

    @given(st.permutations(list(range(16))))
    @settings(max_examples=30, deadline=None)
    def test_permute_roundtrip(self, mapping):
        instruction = Permute(mapping=tuple(mapping))
        decoded, _ = decode(encode(instruction))
        assert decoded == instruction

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_convert_scale_roundtrip(self, scale):
        instruction = Convert(scale=scale)
        decoded, _ = decode(encode(instruction))
        assert decoded.scale == scale


def _field_values(default, in_range: bool):
    """Values of a field's wire type: encodable ones, or a mix with
    scalars/entries the 16-bit formats cannot hold."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, enum.Enum):
        return st.sampled_from(list(type(default)))
    if isinstance(default, int):
        return (
            st.integers(0, 0xFFFF) if in_range
            else st.integers(-0x20000, 0x20000)
        )
    if isinstance(default, float):
        return st.floats(allow_nan=False)
    if isinstance(default, tuple):
        entries = (
            st.integers(-0x8000, 0x7FFF) if in_range
            else st.integers(-0x20000, 0x20000)
        )
        return st.lists(entries, max_size=40).map(tuple)
    raise AssertionError(f"field default {default!r} has no wire type")


@st.composite
def _instructions(draw, in_range: bool):
    """Any registered class with arbitrary wire-typed field values.

    Built around ``__post_init__``: the encoder's contract is over wire
    types, not over which operand values a slice accepts.
    """
    cls = draw(st.sampled_from(sorted(
        INSTRUCTION_REGISTRY.values(), key=lambda c: c.mnemonic
    )))
    instruction = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(
            instruction, f.name, draw(_field_values(f.default, in_range))
        )
    return instruction


class TestStructuralLength:
    """``encoded_length`` is ``len(encode(...))`` without the bytes."""

    def test_every_registered_class_is_covered(self):
        assert {type(i) for i in SAMPLES} == set(INSTRUCTION_REGISTRY.values())
        for instruction in SAMPLES:
            assert encoded_length(instruction) == len(encode(instruction))

    @given(_instructions(in_range=True))
    @settings(max_examples=400, deadline=None)
    def test_length_matches_the_wire_format(self, instruction):
        wire = encode(instruction)
        assert encoded_length(instruction) == len(wire)
        assert instruction.encoded_size() == len(wire)

    @given(_instructions(in_range=False))
    @settings(max_examples=400, deadline=None)
    def test_unencodable_fields_raise_the_same_error(self, instruction):
        try:
            wire = encode(instruction)
        except EncodingError as fault:
            with pytest.raises(EncodingError) as structural:
                encoded_length(instruction)
            assert str(structural.value) == str(fault)
        else:
            assert encoded_length(instruction) == len(wire)

    def test_oversized_tuple_payload_rejected_by_both(self):
        huge = Permute(mapping=tuple(range(16)))
        object.__setattr__(huge, "mapping", (0,) * 0x8000)
        for measure in (encode, encoded_length):
            with pytest.raises(EncodingError, match="64 KiB"):
                measure(huge)

    def test_non_wire_field_type_rejected_by_both(self):
        odd = Nop(1)
        object.__setattr__(odd, "count", "seven")
        for measure in (encode, encoded_length):
            with pytest.raises(EncodingError, match="cannot encode"):
                measure(odd)

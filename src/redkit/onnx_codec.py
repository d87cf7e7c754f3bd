"""Minimal ONNX protobuf wire codec.

Reads and writes just the message subset the bridge needs (models, graphs,
nodes, attributes, tensors, value infos). No protobuf runtime involved: the
wire format is varint tags + four wire types, implemented directly. Unknown
fields are skipped on read; writes emit fields in ascending field number so
re-encoding identical content is byte-identical.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedModelError

# TensorProto.DataType values used here
DT_FLOAT = 1
DT_INT32 = 6
DT_INT64 = 7
DT_DOUBLE = 11

# AttributeProto.AttributeType
AT_FLOAT = 1
AT_INT = 2
AT_STRING = 3
AT_TENSOR = 4
AT_GRAPH = 5
AT_FLOATS = 6
AT_INTS = 7
AT_STRINGS = 8

_WT_VARINT = 0
_WT_64 = 1
_WT_LEN = 2
_WT_32 = 5

_U64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# primitive writers


def _uvarint(v: int) -> bytes:
    out = bytearray()
    v &= _U64
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _tag(fieldno: int, wt: int) -> bytes:
    return _uvarint((fieldno << 3) | wt)


def _f_varint(fieldno: int, v: int) -> bytes:
    return _tag(fieldno, _WT_VARINT) + _uvarint(int(v))


def _f_len(fieldno: int, payload: bytes) -> bytes:
    return _tag(fieldno, _WT_LEN) + _uvarint(len(payload)) + payload


def _f_str(fieldno: int, s: str) -> bytes:
    return _f_len(fieldno, s.encode("utf-8"))


def _f_float(fieldno: int, v: float) -> bytes:
    return _tag(fieldno, _WT_32) + struct.pack("<f", v)


def _packed_varints(fieldno: int, vals) -> bytes:
    body = b"".join(_uvarint(int(v)) for v in vals)
    return _f_len(fieldno, body)


# ---------------------------------------------------------------------------
# primitive reader


class _Reader:
    """Walks the fields of one message without copying its payloads.

    The message bytes are held as a read-only memoryview, so a
    length-delimited field (a nested message, a string, a tensor's raw data)
    is a view into the caller's buffer, not a new bytes object. Fields that
    outlive decoding are converted where they are stored: strings to str,
    AttrP's string fields to bytes; TensorP.raw_data stays a view.
    """

    def __init__(self, buf):
        self.buf = memoryview(buf).toreadonly()
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.buf)

    def uvarint(self) -> int:
        v = 0
        shift = 0
        while True:
            if self.pos >= len(self.buf):
                raise UnsupportedModelError("truncated varint in model file")
            b = self.buf[self.pos]
            self.pos += 1
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                return v
            shift += 7
            if shift > 70:
                raise UnsupportedModelError("varint too long in model file")

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise UnsupportedModelError("truncated field in model file")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def chunk(self) -> memoryview:
        return self.take(self.uvarint())

    def fields(self):
        """Yield (field_number, wire_type, value); value type depends on wire type."""
        while not self.eof():
            key = self.uvarint()
            fieldno, wt = key >> 3, key & 7
            if wt == _WT_VARINT:
                yield fieldno, wt, self.uvarint()
            elif wt == _WT_64:
                yield fieldno, wt, self.take(8)
            elif wt == _WT_LEN:
                yield fieldno, wt, self.chunk()
            elif wt == _WT_32:
                yield fieldno, wt, self.take(4)
            else:
                raise UnsupportedModelError(f"unsupported protobuf wire type {wt}")


def _as_signed(v: int) -> int:
    v &= _U64
    return v - (1 << 64) if v >= (1 << 63) else v


def _varints_in(buf: bytes) -> list[int]:
    r = _Reader(buf)
    out = []
    while not r.eof():
        out.append(_as_signed(r.uvarint()))
    return out


def _ints(wt: int, v) -> list[int]:
    """An integer field, packed (length-delimited) or a single varint."""
    if wt == _WT_LEN:
        return _varints_in(v)
    if wt == _WT_VARINT:
        return [_as_signed(v)]
    raise UnsupportedModelError(f"integer field has wire type {wt}")


def _reals(wt: int, v, dtype: str) -> list[float]:
    """A float ('<f4') or double ('<f8') field, packed or a single fixed-width value."""
    single = _WT_32 if dtype == "<f4" else _WT_64
    if wt not in (_WT_LEN, single) or len(v) % np.dtype(dtype).itemsize:
        raise UnsupportedModelError(f"malformed {dtype} field (wire type {wt})")
    return np.frombuffer(v, dtype=dtype).tolist()


def _text(v) -> str:
    try:
        return str(v, "utf-8")
    except UnicodeDecodeError as e:
        raise UnsupportedModelError(f"string field is not valid UTF-8: {e.reason}") from None


# ---------------------------------------------------------------------------
# message structures


@dataclass
class TensorP:
    """A tensor initializer or constant.

    raw_data, when decoded, is a read-only memoryview into the model bytes;
    to_array reads it in place, so a float64 payload becomes an array view
    of those bytes with no copy. A caller that keeps the data copies it, so
    that no view holds the whole model buffer (netir.Layer does, through
    freeze_array).
    """

    name: str = ""
    dims: list[int] = field(default_factory=list)
    data_type: int = DT_FLOAT
    raw_data: bytes | memoryview | None = None
    float_data: list[float] = field(default_factory=list)
    int64_data: list[int] = field(default_factory=list)
    int32_data: list[int] = field(default_factory=list)
    double_data: list[float] = field(default_factory=list)

    def to_array(self) -> np.ndarray:
        """The tensor as float64 (float types) or int64 (integer types).

        A float64 or int64 raw payload comes back as a read-only view of
        raw_data; every other payload as a new array.
        """
        shape = tuple(self.dims)
        if self.raw_data is not None:
            dt = {
                DT_FLOAT: "<f4",
                DT_DOUBLE: "<f8",
                DT_INT64: "<i8",
                DT_INT32: "<i4",
            }.get(self.data_type)
            if dt is None:
                raise UnsupportedModelError(
                    f"tensor {self.name!r}: unsupported data type {self.data_type}"
                )
            if len(self.raw_data) % np.dtype(dt).itemsize:
                raise UnsupportedModelError(
                    f"tensor {self.name!r}: {len(self.raw_data)} raw bytes is not a whole "
                    f"number of {dt} elements"
                )
            arr = np.frombuffer(self.raw_data, dtype=dt)
        elif self.data_type == DT_FLOAT and self.float_data:
            arr = np.asarray(self.float_data, dtype=np.float32)
        elif self.data_type == DT_DOUBLE and self.double_data:
            arr = np.asarray(self.double_data, dtype=np.float64)
        elif self.data_type == DT_INT64 and self.int64_data:
            arr = np.asarray(self.int64_data, dtype=np.int64)
        elif self.data_type == DT_INT32 and self.int32_data:
            arr = np.asarray(self.int32_data, dtype=np.int32)
        elif math.prod(shape) == 0:
            arr = np.zeros(0, dtype=np.float32)
        else:
            raise UnsupportedModelError(f"tensor {self.name!r}: no data payload")
        if any(d < 0 for d in shape) or math.prod(shape) != arr.size:
            raise UnsupportedModelError(
                f"tensor {self.name!r}: dims {list(shape)} do not fit {arr.size} elements"
            )
        if self.data_type in (DT_FLOAT, DT_DOUBLE):
            arr = arr.astype(np.float64, copy=False)
        else:
            arr = arr.astype(np.int64, copy=False)
        return arr.reshape(shape)


@dataclass
class AttrP:
    name: str = ""
    type: int = 0
    f: float = 0.0
    i: int = 0
    s: bytes = b""
    t: TensorP | None = None
    floats: list[float] = field(default_factory=list)
    ints: list[int] = field(default_factory=list)
    strings: list[bytes] = field(default_factory=list)


@dataclass
class NodeP:
    op_type: str = ""
    name: str = ""
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    attributes: dict[str, AttrP] = field(default_factory=dict)

    def attr_i(self, name: str, default: int | None = None) -> int:
        a = self.attributes.get(name)
        if a is None:
            if default is None:
                raise UnsupportedModelError(f"node {self.name!r}: missing attribute {name!r}")
            return default
        return int(a.i)

    def attr_f(self, name: str, default: float) -> float:
        a = self.attributes.get(name)
        return float(a.f) if a is not None else default

    def attr_ints(self, name: str, default=None) -> list[int]:
        a = self.attributes.get(name)
        if a is None:
            if default is None:
                raise UnsupportedModelError(f"node {self.name!r}: missing attribute {name!r}")
            return list(default)
        return [int(v) for v in a.ints]


@dataclass
class ValueInfoP:
    name: str = ""
    elem_type: int = DT_FLOAT
    dims: list = field(default_factory=list)  # ints, or strings for symbolic dims


@dataclass
class GraphP:
    name: str = ""
    nodes: list[NodeP] = field(default_factory=list)
    initializers: list[TensorP] = field(default_factory=list)
    inputs: list[ValueInfoP] = field(default_factory=list)
    outputs: list[ValueInfoP] = field(default_factory=list)


@dataclass
class ModelP:
    ir_version: int = 8
    producer_name: str = ""
    producer_version: str = ""
    opset_imports: list[tuple[str, int]] = field(default_factory=list)
    graph: GraphP = field(default_factory=GraphP)


# ---------------------------------------------------------------------------
# decoding


def _decode_tensor(buf: bytes) -> TensorP:
    t = TensorP()
    for no, wt, v in _Reader(buf).fields():
        if no == 1:
            t.dims.extend(_ints(wt, v))
        elif no == 2 and wt == _WT_VARINT:
            t.data_type = v
        elif no == 4:
            t.float_data.extend(_reals(wt, v, "<f4"))
        elif no == 5:
            t.int32_data.extend(_ints(wt, v))
        elif no == 7:
            t.int64_data.extend(_ints(wt, v))
        elif no == 8 and wt == _WT_LEN:
            t.name = _text(v)
        elif no == 9 and wt == _WT_LEN:
            t.raw_data = v
        elif no == 10:
            t.double_data.extend(_reals(wt, v, "<f8"))
        elif no == 14 and wt == _WT_VARINT and v != 0:
            raise UnsupportedModelError(f"tensor {t.name!r}: external data is not supported")
    return t


def _decode_attr(buf: bytes) -> AttrP:
    a = AttrP()
    for no, wt, v in _Reader(buf).fields():
        if no == 1 and wt == _WT_LEN:
            a.name = _text(v)
        elif no == 2 and wt == _WT_32:
            a.f = struct.unpack("<f", v)[0]
        elif no == 3 and wt == _WT_VARINT:
            a.i = _as_signed(v)
        elif no == 4 and wt == _WT_LEN:
            a.s = bytes(v)
        elif no == 5 and wt == _WT_LEN:
            a.t = _decode_tensor(v)
        elif no == 6:
            raise UnsupportedModelError(f"attribute {a.name!r}: graph attributes not supported")
        elif no == 7:
            a.floats.extend(_reals(wt, v, "<f4"))
        elif no == 8:
            a.ints.extend(_ints(wt, v))
        elif no == 9 and wt == _WT_LEN:
            a.strings.append(bytes(v))
        elif no == 20 and wt == _WT_VARINT:
            a.type = v
    return a


def _decode_node(buf: bytes) -> NodeP:
    n = NodeP()
    for no, wt, v in _Reader(buf).fields():
        if no == 1 and wt == _WT_LEN:
            n.inputs.append(_text(v))
        elif no == 2 and wt == _WT_LEN:
            n.outputs.append(_text(v))
        elif no == 3 and wt == _WT_LEN:
            n.name = _text(v)
        elif no == 4 and wt == _WT_LEN:
            n.op_type = _text(v)
        elif no == 5 and wt == _WT_LEN:
            a = _decode_attr(v)
            n.attributes[a.name] = a
        elif no == 7 and wt == _WT_LEN and v:
            dom = _text(v)
            if dom not in ("", "ai.onnx"):
                raise UnsupportedModelError(f"node {n.name!r}: unsupported domain {dom!r}")
    return n


def _decode_shape(buf: bytes) -> list:
    dims = []
    for no, wt, v in _Reader(buf).fields():
        if no == 1 and wt == _WT_LEN:  # Dimension
            dim_val = None
            for dno, dwt, dv in _Reader(v).fields():
                if dno == 1 and dwt == _WT_VARINT:
                    dim_val = _as_signed(dv)
                elif dno == 2 and dwt == _WT_LEN:
                    dim_val = _text(dv)
            dims.append(dim_val)
    return dims


def _decode_value_info(buf: bytes) -> ValueInfoP:
    vi = ValueInfoP()
    for no, wt, v in _Reader(buf).fields():
        if no == 1 and wt == _WT_LEN:
            vi.name = _text(v)
        elif no == 2 and wt == _WT_LEN:  # TypeProto
            for tno, twt, tv in _Reader(v).fields():
                if tno == 1 and twt == _WT_LEN:  # tensor_type
                    for eno, ewt, ev in _Reader(tv).fields():
                        if eno == 1 and ewt == _WT_VARINT:
                            vi.elem_type = ev
                        elif eno == 2 and ewt == _WT_LEN:
                            vi.dims = _decode_shape(ev)
    return vi


def _decode_graph(buf: bytes) -> GraphP:
    g = GraphP()
    for no, wt, v in _Reader(buf).fields():
        if no == 1 and wt == _WT_LEN:
            g.nodes.append(_decode_node(v))
        elif no == 2 and wt == _WT_LEN:
            g.name = _text(v)
        elif no == 5 and wt == _WT_LEN:
            g.initializers.append(_decode_tensor(v))
        elif no == 11 and wt == _WT_LEN:
            g.inputs.append(_decode_value_info(v))
        elif no == 12 and wt == _WT_LEN:
            g.outputs.append(_decode_value_info(v))
    return g


def decode_model(data) -> ModelP:
    """Decode a bytes-like ModelProto; its tensors' raw data are views into data."""
    m = ModelP()
    saw_graph = False
    for no, wt, v in _Reader(data).fields():
        if no == 1 and wt == _WT_VARINT:
            m.ir_version = v
        elif no == 2 and wt == _WT_LEN:
            m.producer_name = _text(v)
        elif no == 3 and wt == _WT_LEN:
            m.producer_version = _text(v)
        elif no == 7 and wt == _WT_LEN:
            m.graph = _decode_graph(v)
            saw_graph = True
        elif no == 8 and wt == _WT_LEN:
            dom, ver = "", 0
            for ono, owt, ov in _Reader(v).fields():
                if ono == 1 and owt == _WT_LEN:
                    dom = _text(ov)
                elif ono == 2 and owt == _WT_VARINT:
                    ver = _as_signed(ov)
            m.opset_imports.append((dom, ver))
    if not saw_graph:
        raise UnsupportedModelError("model file has no graph (is this an ONNX file?)")
    return m


# ---------------------------------------------------------------------------
# encoding


def _encode_tensor(t: TensorP) -> bytes:
    out = bytearray()
    if t.dims:
        out += _packed_varints(1, t.dims)
    out += _f_varint(2, t.data_type)
    if t.float_data:
        out += _f_len(4, np.asarray(t.float_data, dtype="<f4").tobytes())
    if t.int64_data:
        out += _packed_varints(7, t.int64_data)
    if t.name:
        out += _f_str(8, t.name)
    if t.raw_data is not None:
        out += _f_len(9, t.raw_data)
    return bytes(out)


def _encode_attr(a: AttrP) -> bytes:
    out = bytearray(_f_str(1, a.name))
    if a.type == AT_FLOAT:
        out += _f_float(2, a.f)
    elif a.type == AT_INT:
        out += _f_varint(3, a.i)
    elif a.type == AT_STRING:
        out += _f_len(4, a.s)
    elif a.type == AT_TENSOR and a.t is not None:
        out += _f_len(5, _encode_tensor(a.t))
    elif a.type == AT_FLOATS:
        out += _f_len(7, np.asarray(a.floats, dtype="<f4").tobytes())
    elif a.type == AT_INTS:
        out += _packed_varints(8, a.ints)
    elif a.type == AT_STRINGS:
        for s in a.strings:
            out += _f_len(9, s)
    out += _f_varint(20, a.type)
    return bytes(out)


def _encode_node(n: NodeP) -> bytes:
    out = bytearray()
    for s in n.inputs:
        out += _f_str(1, s)
    for s in n.outputs:
        out += _f_str(2, s)
    if n.name:
        out += _f_str(3, n.name)
    out += _f_str(4, n.op_type)
    for a in n.attributes.values():
        out += _f_len(5, _encode_attr(a))
    return bytes(out)


def _encode_value_info(vi: ValueInfoP) -> bytes:
    dims = b""
    for d in vi.dims:
        if isinstance(d, str):
            dim = _f_str(2, d)
        else:
            dim = _f_varint(1, int(d))
        dims += _f_len(1, dim)
    shape = _f_len(2, dims)
    tensor_type = _f_varint(1, vi.elem_type) + shape
    type_proto = _f_len(1, tensor_type)
    return _f_str(1, vi.name) + _f_len(2, type_proto)


def _encode_graph(g: GraphP) -> bytes:
    out = bytearray()
    for n in g.nodes:
        out += _f_len(1, _encode_node(n))
    if g.name:
        out += _f_str(2, g.name)
    for t in g.initializers:
        out += _f_len(5, _encode_tensor(t))
    for vi in g.inputs:
        out += _f_len(11, _encode_value_info(vi))
    for vi in g.outputs:
        out += _f_len(12, _encode_value_info(vi))
    return bytes(out)


def encode_model(m: ModelP) -> bytes:
    out = bytearray(_f_varint(1, m.ir_version))
    if m.producer_name:
        out += _f_str(2, m.producer_name)
    if m.producer_version:
        out += _f_str(3, m.producer_version)
    out += _f_len(7, _encode_graph(m.graph))
    for dom, ver in m.opset_imports:
        body = (_f_str(1, dom) if dom else b"") + _f_varint(2, ver)
        out += _f_len(8, body)
    return bytes(out)

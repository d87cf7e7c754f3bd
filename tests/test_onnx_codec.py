"""Wire-level tests for the protobuf codec.

The expected byte sequences below are hand-assembled from the protobuf
encoding rules (tag = fieldno << 3 | wire_type, varints little-endian
base-128), so the round-trip tests are anchored to an external format,
not to the codec itself.
"""

from collections import Counter

import numpy as np
import pytest

import redkit.onnx_codec as oc
from conftest import residual_conv_model
from redkit import export_onnx, from_sequential, generate_network, import_onnx
from redkit.netir import KIND_LINEAR
from redkit.errors import RedkitError, UnsupportedModelError


def _tiny_model(**model_kw) -> oc.ModelP:
    w = oc.TensorP(
        name="w",
        dims=[2, 2],
        data_type=oc.DT_FLOAT,
        raw_data=np.arange(4, dtype="<f4").tobytes(),
    )
    node = oc.NodeP(op_type="Gemm", name="g0", inputs=["x", "w"], outputs=["y"])
    node.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=1)
    node.attributes["alpha"] = oc.AttrP("alpha", oc.AT_FLOAT, f=1.0)
    g = oc.GraphP(
        name="tiny",
        nodes=[node],
        initializers=[w],
        inputs=[oc.ValueInfoP("x", oc.DT_FLOAT, [1, 2])],
        outputs=[oc.ValueInfoP("y", oc.DT_FLOAT, [1, 2])],
    )
    return oc.ModelP(graph=g, opset_imports=[("", 13)], **model_kw)


# --- varint plumbing ---


def test_uvarint_encoding_known_values():
    # 0 -> 00, 1 -> 01, 127 -> 7f, 128 -> 80 01, 300 -> ac 02
    assert oc._uvarint(0) == b"\x00"
    assert oc._uvarint(1) == b"\x01"
    assert oc._uvarint(127) == b"\x7f"
    assert oc._uvarint(128) == b"\x80\x01"
    assert oc._uvarint(300) == b"\xac\x02"


def test_reader_round_trips_uvarint():
    for v in [0, 1, 127, 128, 16384, 2**32, 2**63 - 1]:
        r = oc._Reader(oc._uvarint(v))
        assert r.uvarint() == v
        assert r.eof()


def test_tag_layout():
    # field 1, wiretype 0 -> 0x08; field 7, wiretype 2 -> 0x3a
    assert oc._tag(1, 0) == b"\x08"
    assert oc._tag(7, 2) == b"\x3a"


def test_truncated_varint_rejected():
    with pytest.raises(UnsupportedModelError, match="truncated"):
        oc._Reader(b"\x80\x80").uvarint()


def test_truncated_length_field_rejected():
    # declares a 10-byte chunk but provides 2
    with pytest.raises(UnsupportedModelError, match="truncated"):
        oc._Reader(b"\x0aAB").chunk()


def test_overlong_varint_rejected():
    with pytest.raises(UnsupportedModelError, match="too long"):
        oc._Reader(b"\xff" * 12).uvarint()


# --- tensor payloads ---


def test_tensor_to_array_raw_f4():
    a = np.array([[1.5, -2.0], [0.0, 3.25]], dtype="<f4")
    t = oc.TensorP(name="t", dims=[2, 2], data_type=oc.DT_FLOAT, raw_data=a.tobytes())
    out = t.to_array()
    assert out.dtype == np.float64
    assert np.array_equal(out, a.astype(np.float64))


def test_tensor_to_array_raw_f8():
    a = np.array([1.0, 1e-300, -7.0])
    t = oc.TensorP(name="t", dims=[3], data_type=oc.DT_DOUBLE, raw_data=a.tobytes())
    assert np.array_equal(t.to_array(), a)


def test_tensor_to_array_raw_i64():
    t = oc.TensorP(name="s", dims=[2], data_type=oc.DT_INT64,
                   raw_data=np.array([4, -1], dtype="<i8").tobytes())
    out = t.to_array()
    assert out.dtype == np.int64
    assert out.tolist() == [4, -1]


def test_tensor_to_array_repeated_fields():
    t = oc.TensorP(name="f", dims=[2], data_type=oc.DT_FLOAT, float_data=[0.5, 2.0])
    assert t.to_array().tolist() == [0.5, 2.0]
    t = oc.TensorP(name="i", dims=[3], data_type=oc.DT_INT64, int64_data=[7, 8, 9])
    assert t.to_array().tolist() == [7, 8, 9]


def test_tensor_empty_is_fine():
    t = oc.TensorP(name="e", dims=[0], data_type=oc.DT_FLOAT)
    assert t.to_array().shape == (0,)


def test_tensor_missing_payload_rejected():
    t = oc.TensorP(name="ghost", dims=[2], data_type=oc.DT_FLOAT)
    with pytest.raises(UnsupportedModelError, match="ghost"):
        t.to_array()


def test_tensor_unknown_dtype_rejected():
    t = oc.TensorP(name="h", dims=[1], data_type=10, raw_data=b"\x00\x00")  # float16
    with pytest.raises(UnsupportedModelError, match="data type"):
        t.to_array()


def test_tensor_encode_decode_round_trip():
    for arr, dt in [
        (np.random.default_rng(0).normal(size=(3, 4)).astype("<f4"), oc.DT_FLOAT),
        (np.random.default_rng(1).normal(size=(2, 2, 2)), oc.DT_DOUBLE),
        (np.array([[1, -2], [3, 4]], dtype="<i8"), oc.DT_INT64),
    ]:
        t = oc.TensorP(name="rt", dims=list(arr.shape), data_type=dt,
                       raw_data=arr.tobytes())
        back = oc._decode_tensor(oc._encode_tensor(t))
        assert back.name == "rt"
        assert back.dims == list(arr.shape)
        assert np.array_equal(back.to_array(), t.to_array())


# --- attributes ---


def test_attr_round_trip_all_types():
    cases = [
        oc.AttrP("f", oc.AT_FLOAT, f=0.25),
        oc.AttrP("i", oc.AT_INT, i=-3),
        oc.AttrP("s", oc.AT_STRING, s=b"row-major"),
        oc.AttrP("ints", oc.AT_INTS, ints=[1, 1, 2, 2]),
        oc.AttrP("floats", oc.AT_FLOATS, floats=[0.5, -1.5]),
    ]
    for a in cases:
        back = oc._decode_attr(oc._encode_attr(a))
        assert back.name == a.name
        assert back.type == a.type
        assert back.f == pytest.approx(a.f)
        assert back.i == a.i
        assert back.s == a.s
        assert back.ints == a.ints
        assert back.floats == pytest.approx(a.floats)


def test_attr_tensor_round_trip():
    inner = oc.TensorP(name="v", dims=[2], data_type=oc.DT_FLOAT,
                       raw_data=np.array([5.0, 6.0], dtype="<f4").tobytes())
    a = oc.AttrP("value", oc.AT_TENSOR, t=inner)
    back = oc._decode_attr(oc._encode_attr(a))
    assert back.t is not None
    assert np.array_equal(back.t.to_array(), [5.0, 6.0])


def test_attr_negative_int_survives():
    a = oc.AttrP("axis", oc.AT_INT, i=-1)
    assert oc._decode_attr(oc._encode_attr(a)).i == -1


def test_node_attr_helpers():
    n = oc.NodeP(op_type="Gemm", name="g")
    n.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=1)
    n.attributes["pads"] = oc.AttrP("pads", oc.AT_INTS, ints=[0, 1, 0, 1])
    assert n.attr_i("transB") == 1
    assert n.attr_i("transA", 0) == 0
    assert n.attr_f("alpha", 1.0) == 1.0
    assert n.attr_ints("pads") == [0, 1, 0, 1]
    assert n.attr_ints("strides", [1, 1]) == [1, 1]
    with pytest.raises(UnsupportedModelError, match="transA"):
        n.attr_i("transA")


# --- whole models ---


def test_model_round_trip():
    m = _tiny_model(ir_version=8, producer_name="redkit")
    back = oc.decode_model(oc.encode_model(m))
    assert back.ir_version == 8
    assert back.producer_name == "redkit"
    assert back.opset_imports == [("", 13)]
    g = back.graph
    assert g.name == "tiny"
    assert [n.op_type for n in g.nodes] == ["Gemm"]
    assert g.nodes[0].inputs == ["x", "w"]
    assert g.nodes[0].outputs == ["y"]
    assert g.nodes[0].attr_i("transB") == 1
    assert g.nodes[0].attr_f("alpha", 0.0) == 1.0
    assert [t.name for t in g.initializers] == ["w"]
    assert np.array_equal(g.initializers[0].to_array(),
                          np.arange(4.0).reshape(2, 2))
    assert [vi.name for vi in g.inputs] == ["x"]
    assert g.inputs[0].dims == [1, 2]
    assert [vi.name for vi in g.outputs] == ["y"]


def test_value_info_symbolic_dims():
    vi = oc.ValueInfoP("x", oc.DT_FLOAT, ["batch", 4])
    g = oc.GraphP(name="g", inputs=[vi], outputs=[oc.ValueInfoP("y", oc.DT_FLOAT, [4])])
    back = oc.decode_model(oc.encode_model(oc.ModelP(graph=g)))
    assert back.graph.inputs[0].dims == ["batch", 4]


def test_decode_model_without_graph_rejected():
    with pytest.raises(UnsupportedModelError, match="no graph"):
        oc.decode_model(b"")
    # valid protobuf, but only an ir_version field
    with pytest.raises(UnsupportedModelError, match="no graph"):
        oc.decode_model(b"\x08\x08")


def test_decode_model_garbage_rejected():
    with pytest.raises(UnsupportedModelError):
        oc.decode_model(b"\x0b\x0b\x0b\x0b")  # wire type 3 (group): unsupported


def test_unknown_fields_skipped():
    # append an unknown length-delimited field (field 99) to a valid model
    data = oc.encode_model(_tiny_model()) + oc._f_len(99, b"opaque")
    back = oc.decode_model(data)
    assert back.graph.name == "tiny"


def test_encode_is_deterministic():
    a = oc.encode_model(_tiny_model())
    b = oc.encode_model(_tiny_model())
    assert a == b


# --- decoding reads the model bytes in place; the imported network owns its arrays ---


def _generated_chain_model() -> bytes:
    net, _ = generate_network(2, 16, 4, 3, stable_fraction=0.5, seed=5)
    return export_onnx(net)


MODELS = {"generated_chain": _generated_chain_model, "residual_conv": residual_conv_model}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_decode_then_encode_gives_the_same_bytes(name):
    data = MODELS[name]()
    assert oc.encode_model(oc.decode_model(data)) == data


def test_decoded_raw_data_is_a_read_only_view_of_the_model_bytes():
    data = bytearray(residual_conv_model())
    t = oc.decode_model(data).graph.initializers[0]
    assert isinstance(t.raw_data, memoryview) and t.raw_data.readonly
    arr = t.to_array()
    assert not arr.flags.writeable
    assert np.shares_memory(arr, np.frombuffer(data, dtype=np.uint8))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_an_imported_network_keeps_no_view_of_the_model_buffer(name):
    buf = bytearray(MODELS[name]())
    net, _ = import_onnx(buf)
    linears = [l for l in net.layers if l.kind == KIND_LINEAR]
    for l in linears:
        for a in (l.weight, l.bias):
            assert not a.flags.writeable and a.flags.owndata
    kept = [(l.weight.copy(), l.bias.copy()) for l in linears]
    buf[:] = bytes(len(buf))  # overwrite the model in place
    buf += b"\0"  # resizing raises BufferError while any view of buf is alive
    for l, (w, b) in zip(linears, kept):
        assert np.array_equal(l.weight, w) and np.array_equal(l.bias, b)


# --- malformed input raises UnsupportedModelError, never a raw exception ---


def test_truncated_fixed_width_fields_rejected():
    for key in (b"\x09", b"\x0d"):  # field 1 as a 64-bit, then a 32-bit value
        with pytest.raises(UnsupportedModelError, match="truncated"):
            list(oc._Reader(key + b"\x00\x00\x00").fields())


def test_invalid_utf8_string_rejected():
    node = oc._f_len(4, b"\xffRelu")  # op_type
    with pytest.raises(UnsupportedModelError, match="UTF-8"):
        oc._decode_node(node)


def test_wrong_wire_type_for_numbers_rejected():
    with pytest.raises(UnsupportedModelError, match="wire type"):
        oc._decode_tensor(oc._tag(1, oc._WT_32) + b"\x00" * 4)  # dims as a 32-bit value
    with pytest.raises(UnsupportedModelError, match="wire type"):
        oc._decode_tensor(oc._f_varint(4, 3))  # float_data as a varint
    with pytest.raises(UnsupportedModelError, match="wire type"):
        oc._decode_attr(oc._f_len(7, b"\x00" * 5))  # 5 bytes of packed floats


def test_tensor_payload_size_mismatch_rejected():
    t = oc.TensorP(name="odd", dims=[2], data_type=oc.DT_FLOAT, raw_data=b"\x00" * 7)
    with pytest.raises(UnsupportedModelError, match="odd"):
        t.to_array()
    t = oc.TensorP(name="short", dims=[2, 3], data_type=oc.DT_FLOAT, float_data=[1.0, 2.0])
    with pytest.raises(UnsupportedModelError, match="do not fit"):
        t.to_array()
    t = oc.TensorP(name="neg", dims=[-1, -2], data_type=oc.DT_FLOAT, float_data=[1.0, 2.0])
    with pytest.raises(UnsupportedModelError, match="do not fit"):
        t.to_array()


def test_varint_beyond_64_bits_wraps_like_protobuf():
    # ten bytes carry 70 bits; protobuf keeps the low 64, so this reads as -1
    buf = oc._tag(7, oc._WT_VARINT) + b"\xff" * 9 + b"\x7f" + oc._f_varint(2, oc.DT_INT64)
    t = oc._decode_tensor(oc._packed_varints(1, [1]) + buf)
    assert t.to_array().tolist() == [-1]


def test_node_with_too_few_inputs_rejected():
    m = _tiny_model()
    m.graph.nodes[0].inputs = ["x"]
    with pytest.raises(UnsupportedModelError, match="needs 2 inputs"):
        import_onnx(oc.encode_model(m))


def test_byte_mutations_raise_only_typed_errors():
    # seeded 1-3-byte overwrites of an exported 3 -> 4 -> 2 model; every one
    # must import or raise a RedkitError (the CLI's exit 2), never leak
    rng = np.random.default_rng(0)
    layers = [(rng.normal(size=(4, 3)), rng.normal(size=4))]
    layers.append((rng.normal(size=(2, 4)), rng.normal(size=2)))
    net = from_sequential(layers, 3)
    data = export_onnx(net)
    leaked = Counter()
    with np.errstate(all="ignore"):
        for seed in range(3000):
            r = np.random.default_rng(seed)
            buf = bytearray(data)
            for _ in range(r.integers(1, 4)):
                buf[r.integers(len(buf))] = r.integers(256)
            try:
                import_onnx(bytes(buf))
            except RedkitError:
                pass
            except Exception as e:  # noqa: BLE001 - the test counts what escapes
                leaked[type(e).__name__] += 1
    assert not leaked, dict(leaked)

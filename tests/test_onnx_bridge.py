"""Importer/exporter tests.

Every import test checks the lowered network against reference_forward,
which interprets the decoded node list directly, so agreement is between
two independent code paths. Convolution lowering additionally gets a
hand-written sliding-window oracle local to this file.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import redkit.onnx_codec as oc
from redkit import (
    conv_to_matrix,
    export_onnx,
    forward,
    import_onnx,
    reference_forward,
    simplify,
)
from conftest import box_samples
from redkit.errors import StructuralError, UnsupportedModelError
from redkit.netir import KIND_LINEAR, KIND_RELU, KIND_SUM, as_sequential, validate

rng = np.random.default_rng(20240817)


def _t(name, arr):
    a32 = np.ascontiguousarray(arr, dtype="<f4")
    return oc.TensorP(name=name, dims=list(a32.shape), data_type=oc.DT_FLOAT,
                      raw_data=a32.tobytes())


def _t64(name, arr):
    a = np.ascontiguousarray(arr, dtype="<i8")
    return oc.TensorP(name=name, dims=list(a.shape), data_type=oc.DT_INT64,
                      raw_data=a.tobytes())


def _graph(nodes, inits, in_dims, out_name, name="g"):
    return oc.GraphP(
        name=name,
        nodes=nodes,
        initializers=inits,
        inputs=[oc.ValueInfoP("x", oc.DT_FLOAT, list(in_dims))],
        outputs=[oc.ValueInfoP(out_name, oc.DT_FLOAT, [])],
    )


def _bytes(g):
    return oc.encode_model(oc.ModelP(graph=g, opset_imports=[("", 13)]))


def _gemm(name, xin, w, b, out, transB=1):
    inputs = [xin, f"{name}_w"] + ([f"{name}_b"] if b is not None else [])
    n = oc.NodeP(op_type="Gemm", name=name, inputs=inputs, outputs=[out])
    n.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=transB)
    inits = [_t(f"{name}_w", w)]
    if b is not None:
        inits.append(_t(f"{name}_b", b))
    return n, inits


def _assert_agrees(g, n_inputs, samples=100, tol=1e-9, lo=-2.0, hi=2.0):
    net, _ = import_onnx(_bytes(g))
    assert validate(net).violations == []
    xs = rng.uniform(lo, hi, size=(samples, n_inputs))
    worst = 0.0
    for x in xs:
        got = forward(net, x)
        want = reference_forward(g, x)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= tol, f"importer disagrees with reference by {worst}"
    return net


# --- conv_to_matrix against hand-built cases and a naive oracle ---


def test_conv_1x1_is_scalar_multiply():
    M, b, out_shape = conv_to_matrix(np.full((1, 1, 1, 1), 3.0), np.array([0.5]), (1, 1, 1))
    assert M.tolist() == [[3.0]]
    assert b.tolist() == [0.5]
    assert out_shape == (1, 1, 1)


def test_conv_2x2_ones_sums_the_window():
    w = np.ones((1, 1, 2, 2))
    M, b, out_shape = conv_to_matrix(w, None, (1, 2, 2))
    assert out_shape == (1, 1, 1)
    assert M.shape == (1, 4)
    assert np.array_equal(M, np.ones((1, 4)))
    assert np.array_equal(b, np.zeros(1))


def test_conv_3x3_center_tap_with_pad_is_identity():
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    M, b, out_shape = conv_to_matrix(w, None, (1, 3, 3), pads=(1, 1, 1, 1))
    assert out_shape == (1, 3, 3)
    assert np.array_equal(M, np.eye(9))


def _naive_conv(x, w, bias, strides, pads, dilations):
    ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    pt, pl, pb, pr = pads
    sh, sw = strides
    dh, dw = dilations
    xp = np.zeros((ci, h + pt + pb, wd + pl + pr))
    xp[:, pt:pt + h, pl:pl + wd] = x
    oh = (xp.shape[1] - (dh * (kh - 1) + 1)) // sh + 1
    ow = (xp.shape[2] - (dw * (kw - 1) + 1)) // sw + 1
    out = np.zeros((co, oh, ow))
    for o in range(co):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(ci):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += w[o, c, a, bb] * xp[c, i * sh + a * dh, j * sw + bb * dw]
                out[o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


@pytest.mark.parametrize("strides,pads,dilations", [
    ((1, 1), (0, 0, 0, 0), (1, 1)),
    ((1, 2), (1, 0, 1, 0), (1, 1)),
    ((2, 2), (1, 1, 1, 1), (1, 1)),
    ((1, 1), (2, 2, 2, 2), (2, 2)),
])
def test_conv_to_matrix_matches_naive_loops(strides, pads, dilations):
    in_shape = (2, 5, 4)
    w = rng.normal(size=(3, 2, 3, 3))
    bias = rng.normal(size=3)
    M, b, out_shape = conv_to_matrix(w, bias, in_shape, strides=strides,
                                     pads=pads, dilations=dilations)
    for _ in range(5):
        x = rng.normal(size=in_shape)
        want = _naive_conv(x, w, bias, strides, pads, dilations)
        assert out_shape == want.shape
        got = (M @ x.ravel() + b).reshape(out_shape)
        assert np.abs(got - want).max() <= 1e-12


def _conv_matrix_loop(w, in_shape, strides, pads, dilations):
    """Reference unrolling: one assignment per (filter, channel, ky, kx)."""
    F, C, kh, kw = w.shape
    _, H, W = in_shape
    (sh, sw), (pt, pl, pb, pr), (dh, dw) = strides, pads, dilations
    oh = (H + pt + pb - (dh * (kh - 1) + 1)) // sh + 1
    ow = (W + pl + pr - (dw * (kw - 1) + 1)) // sw + 1
    M = np.zeros((F * oh * ow, C * H * W))
    oy, ox = np.arange(oh), np.arange(ow)
    for ky in range(kh):
        iy = oy * sh - pt + ky * dh
        my = (iy >= 0) & (iy < H)
        for kx in range(kw):
            ix = ox * sw - pl + kx * dw
            mx = (ix >= 0) & (ix < W)
            rows = (oy[my][:, None] * ow + ox[mx][None, :]).ravel()
            cols = (iy[my][:, None] * W + ix[mx][None, :]).ravel()
            for f in range(F):
                for c in range(C):
                    M[f * oh * ow + rows, c * H * W + cols] = w[f, c, ky, kx]
    return M


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    hw=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    strides=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    pads=st.tuples(*[st.integers(0, 2)] * 4),
    dilations=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_to_matrix_is_byte_equal_to_a_per_filter_channel_loop(
    shape, hw, strides, pads, dilations, seed
):
    in_shape = (shape[1], *hw)
    (kh, kw), (pt, pl, pb, pr), (dh, dw) = shape[2:], pads, dilations
    assume(hw[0] + pt + pb >= dh * (kh - 1) + 1 and hw[1] + pl + pr >= dw * (kw - 1) + 1)
    w = np.random.default_rng(seed).normal(size=shape)
    M, _, _ = conv_to_matrix(w, None, in_shape, strides=strides, pads=pads, dilations=dilations)
    want = _conv_matrix_loop(w, in_shape, strides, pads, dilations)
    assert M.tobytes() == want.tobytes()


def test_conv_bias_lands_on_every_output_pixel():
    w = np.zeros((2, 1, 1, 1))
    M, b, out_shape = conv_to_matrix(w, np.array([4.0, -1.0]), (1, 2, 2))
    assert out_shape == (2, 2, 2)
    assert np.array_equal(b, np.array([4.0, 4.0, 4.0, 4.0, -1.0, -1.0, -1.0, -1.0]))


# --- per-op import agreement ---


def test_gemm_lowers_to_single_linear():
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    node, inits = _gemm("g0", "x", w, b, "y")
    g = _graph([node], inits, [1, 4], "y")
    net = _assert_agrees(g, 4)
    kinds = [l.kind for l in net.layers]
    assert kinds == ["input", "linear"]
    assert np.allclose(net.layers[1].weight, w, atol=1e-7)


def test_gemm_untransposed_weight():
    w = rng.normal(size=(4, 3))  # stored as K x N, transB=0
    node, inits = _gemm("g0", "x", w, None, "y", transB=0)
    g = _graph([node], inits, [1, 4], "y")
    _assert_agrees(g, 4)


def test_matmul_then_constant_add():
    w = rng.normal(size=(4, 2))
    mm = oc.NodeP(op_type="MatMul", name="mm", inputs=["x", "w"], outputs=["h"])
    add = oc.NodeP(op_type="Add", name="bias", inputs=["h", "c"], outputs=["y"])
    g = _graph([mm, add], [_t("w", w), _t("c", rng.normal(size=2))], [1, 4], "y")
    net = _assert_agrees(g, 4)
    # constant add folds into the affine layer instead of spawning a Sum
    assert all(l.kind != KIND_SUM for l in net.layers)


def test_add_of_two_dynamic_values_builds_a_sum():
    w = rng.normal(size=(4, 4))
    node, inits = _gemm("g0", "x", w, None, "h")
    add = oc.NodeP(op_type="Add", name="res", inputs=["x", "h"], outputs=["y"])
    g = _graph([node, add], inits, [1, 4], "y")
    net = _assert_agrees(g, 4)
    sums = [l for l in net.layers if l.kind == KIND_SUM]
    assert len(sums) == 1
    # the Sum reads both operands themselves, with no wrapper in between
    (gemm,) = [l.id for l in net.layers if l.kind == KIND_LINEAR]
    assert list(net.preds[sums[0].id]) == [net.input_id, gemm]


def test_add_of_a_value_to_itself_sums_it_twice():
    add = oc.NodeP(op_type="Add", name="twice", inputs=["x", "x"], outputs=["y"])
    net = _assert_agrees(_graph([add], [], [1, 3], "y"), 3)
    assert [l.kind for l in net.layers] == ["input", KIND_SUM]
    assert list(net.preds[net.output_id]) == [net.input_id, net.input_id]
    chain, _ = simplify(net)
    (layer,) = as_sequential(chain).linears
    np.testing.assert_array_equal(layer.weight, 2 * np.eye(3))
    np.testing.assert_array_equal(layer.bias, np.zeros(3))


def test_sub_negates_the_right_operand():
    w = rng.normal(size=(4, 4))
    node, inits = _gemm("g0", "x", w, None, "h")
    sub = oc.NodeP(op_type="Sub", name="res", inputs=["h", "x"], outputs=["y"])
    g = _graph([node, sub], inits, [1, 4], "y")
    net = _assert_agrees(g, 4)
    sums = [l for l in net.layers if l.kind == KIND_SUM]
    preds = [net.by_id[p] for p in net.preds[sums[0].id]]
    assert np.array_equal(preds[1].weight, -np.eye(4))


def test_sub_with_constant_on_either_side():
    c = rng.normal(size=3)
    for order in (["x", "c"], ["c", "x"]):
        sub = oc.NodeP(op_type="Sub", name="s", inputs=order, outputs=["y"])
        g = _graph([sub], [_t("c", c)], [1, 3], "y")
        _assert_agrees(g, 3)


def test_concat_of_width1_values_uses_selectors():
    n0, i0 = _gemm("a", "x", rng.normal(size=(1, 2)), None, "u")
    n1, i1 = _gemm("b", "x", rng.normal(size=(1, 2)), None, "v")
    cat = oc.NodeP(op_type="Concat", name="cat", inputs=["u", "v"], outputs=["y"])
    cat.attributes["axis"] = oc.AttrP("axis", oc.AT_INT, i=-1)
    g = _graph([n0, n1, cat], i0 + i1, [1, 2], "y")
    net = _assert_agrees(g, 2)
    sums = [l for l in net.layers if l.kind == KIND_SUM]
    assert len(sums) == 1
    sels = [net.by_id[p].weight for p in net.preds[sums[0].id]]
    assert np.array_equal(sels[0], np.array([[1.0], [0.0]]))
    assert np.array_equal(sels[1], np.array([[0.0], [1.0]]))


def test_concat_mixing_constant_and_dynamic():
    # MatMul keeps rank 1, so the width-2 constant concatenates cleanly
    mm = oc.NodeP(op_type="MatMul", name="a", inputs=["x", "w"], outputs=["u"])
    cat = oc.NodeP(op_type="Concat", name="cat", inputs=["u", "c"], outputs=["y"])
    cat.attributes["axis"] = oc.AttrP("axis", oc.AT_INT, i=-1)
    g = _graph([mm, cat], [_t("w", rng.normal(size=(3, 2))), _t("c", np.array([7.0, -2.0]))],
               [3], "y")
    net = _assert_agrees(g, 3)
    # the constant half arrives as selector bias, not as an extra layer
    out = forward(net, np.zeros(3))
    assert out[2:].tolist() == [pytest.approx(7.0), pytest.approx(-2.0)]


def test_batchnorm_is_affine():
    scale = rng.uniform(0.5, 2.0, size=3)
    bias = rng.normal(size=3)
    mean = rng.normal(size=3)
    var = rng.uniform(0.2, 2.0, size=3)
    bn = oc.NodeP(op_type="BatchNormalization", name="bn",
                  inputs=["x", "s", "b", "m", "v"], outputs=["y"])
    bn.attributes["epsilon"] = oc.AttrP("epsilon", oc.AT_FLOAT, f=1e-5)
    g = _graph([bn], [_t("s", scale), _t("b", bias), _t("m", mean), _t("v", var)],
               [1, 3, 1, 1], "y")
    _assert_agrees(g, 3, tol=1e-6)


@pytest.mark.parametrize("op,extra", [
    ("Flatten", {}),
    ("Squeeze", {}),
])
def test_shape_ops_are_transparent(op, extra):
    w = rng.normal(size=(6, 6))
    node, inits = _gemm("g0", "x", w, None, "h")
    shp = oc.NodeP(op_type=op, name="shp", inputs=["h"], outputs=["hh"])
    for k, v in extra.items():
        shp.attributes[k] = v
    node2, inits2 = _gemm("g1", "hh", rng.normal(size=(2, 6)), None, "y")
    g = _graph([node, shp, node2], inits + inits2, [1, 6], "y")
    net = _assert_agrees(g, 6)
    assert sum(l.kind == KIND_LINEAR for l in net.layers) == 2


def test_reshape_with_shape_initializer():
    conv = oc.NodeP(op_type="Conv", name="c", inputs=["x", "cw"], outputs=["h"])
    conv.attributes["kernel_shape"] = oc.AttrP("kernel_shape", oc.AT_INTS, ints=[2, 2])
    rsh = oc.NodeP(op_type="Reshape", name="r", inputs=["h", "shape"], outputs=["hf"])
    node2, inits2 = _gemm("g1", "hf", rng.normal(size=(2, 18)), None, "y")
    g = _graph(
        [conv, rsh, node2],
        [_t("cw", rng.normal(size=(2, 1, 2, 2))), _t64("shape", np.array([1, -1]))] + inits2,
        [1, 1, 4, 4], "y",
    )
    _assert_agrees(g, 16, tol=1e-6)


def test_unsqueeze_roundtrip_between_gemms():
    node, inits = _gemm("g0", "x", rng.normal(size=(3, 3)), None, "h")
    unsq = oc.NodeP(op_type="Unsqueeze", name="u", inputs=["h"], outputs=["hu"])
    unsq.attributes["axes"] = oc.AttrP("axes", oc.AT_INTS, ints=[0])
    sq = oc.NodeP(op_type="Squeeze", name="s", inputs=["hu"], outputs=["hs"])
    sq.attributes["axes"] = oc.AttrP("axes", oc.AT_INTS, ints=[0])
    node2, inits2 = _gemm("g1", "hs", rng.normal(size=(1, 3)), None, "y")
    g = _graph([node, unsq, sq, node2], inits + inits2, [1, 3], "y")
    _assert_agrees(g, 3)


def test_split_feeds_two_branches():
    sp = oc.NodeP(op_type="Split", name="sp", inputs=["x"], outputs=["u", "v"])
    sp.attributes["axis"] = oc.AttrP("axis", oc.AT_INT, i=-1)
    n0, i0 = _gemm("a", "u", rng.normal(size=(2, 2)), None, "p")
    n1, i1 = _gemm("b", "v", rng.normal(size=(2, 2)), None, "q")
    add = oc.NodeP(op_type="Add", name="j", inputs=["p", "q"], outputs=["y"])
    g = _graph([sp, n0, n1, add], i0 + i1, [1, 4], "y")
    _assert_agrees(g, 4)


def _axis_node(op, inputs, **attrs):
    n = oc.NodeP(op_type=op, name=op.lower(), inputs=inputs, outputs=["y"])
    for k, v in attrs.items():
        n.attributes[k] = (oc.AttrP(k, oc.AT_INT, i=v) if isinstance(v, int)
                           else oc.AttrP(k, oc.AT_INTS, ints=v))
    return n


# each model reads an axis that its value does not have; x is (1, 4), a rank-2
# value to the model although the importer strips its batch dimension
BAD_AXIS_MODELS = {
    "concat": ([_axis_node("Concat", ["x", "x"], axis=5)], [], "axis 5 is outside"),
    "split": ([_axis_node("Split", ["x"], axis=3)], [], "axis 3 is outside"),
    "flatten": ([_axis_node("Flatten", ["x"], axis=3)], [], "axis 3 is outside"),
    "unsqueeze": ([_axis_node("Unsqueeze", ["x"], axes=[7])], [], "axis 7 is outside"),
    "squeeze_range": ([_axis_node("Squeeze", ["x"], axes=[-3])], [], "axis -3 is outside"),
    "squeeze_size": ([_axis_node("Squeeze", ["c"], axes=[0])], [_t("c", np.ones((2, 3)))],
                     "are not all of size 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_AXIS_MODELS))
def test_a_shape_op_with_a_bad_axis_is_unsupported(case):
    nodes, inits, message = BAD_AXIS_MODELS[case]
    with pytest.raises(UnsupportedModelError, match=message):
        import_onnx(_bytes(_graph(nodes, inits, [1, 4], "y")))


def test_shape_ops_accept_every_axis_in_range():
    # x is (1, 4) to the model: axes 0 and -2 name its batch dimension
    for axis in (-2, -1, 0, 1):
        net = _assert_agrees(_graph([_axis_node("Concat", ["x", "x"], axis=axis)], [], [1, 4], "y"), 4)
        assert net.output_layer.width == 8
    for axes in ([0], [-3], [1], [-2], [2], [-1]):
        node = _axis_node("Unsqueeze", ["x"], axes=axes)
        _assert_agrees(_graph([node], [], [1, 4], "y"), 4)
    for axes in ([0], [-2]):
        _assert_agrees(_graph([_axis_node("Squeeze", ["x"], axes=axes)], [], [1, 4], "y"), 4)
    for axis in (-2, -1, 0, 1, 2):
        _assert_agrees(_graph([_axis_node("Flatten", ["x"], axis=axis)], [], [1, 4], "y"), 4)


def _split_and_swap(axis):
    # u, v = split(x, axis); y = concat([v, u, x], axis)
    sp = oc.NodeP(op_type="Split", name="sp", inputs=["x"], outputs=["u", "v"])
    sp.attributes["axis"] = oc.AttrP("axis", oc.AT_INT, i=axis)
    return [sp, _axis_node("Concat", ["v", "u", "x"], axis=axis)]


@pytest.mark.parametrize("axis", [1, -1])
def test_split_and_concat_along_the_features_of_a_batched_vector(axis):
    # torch.split(x, 2, dim=1) and torch.cat(dim=1) over a (1, 4) value
    net = _assert_agrees(_graph(_split_and_swap(axis), [], [1, 4], "y"), 4)
    assert net.output_layer.width == 8


@pytest.mark.parametrize("axis", [1, 2, 3, -3, -2, -1])
def test_split_and_concat_of_an_image_read_the_models_axes(axis):
    # x is (1, 2, 2, 2): axis 1 is the channel axis, as the model numbers it
    _assert_agrees(_graph(_split_and_swap(axis), [], [1, 2, 2, 2], "y"), 8)


def test_a_branch_that_does_not_feed_the_output_is_dropped():
    n0, i0 = _gemm("a", "x", rng.normal(size=(4, 3)), rng.normal(size=4), "h")
    r = oc.NodeP(op_type="Relu", name="r", inputs=["h"], outputs=["hr"])
    n1, i1 = _gemm("b", "hr", rng.normal(size=(2, 4)), rng.normal(size=2), "y")
    debug = oc.NodeP(op_type="Relu", name="debug", inputs=["h"], outputs=["dbg"])
    n2, i2 = _gemm("c", "dbg", rng.normal(size=(2, 4)), None, "dbg2")
    g = _graph([n0, r, debug, n1, n2], i0 + i1 + i2, [1, 3], "y")
    net = _assert_agrees(g, 3)
    assert [l.kind for l in net.layers] == ["input", KIND_LINEAR, KIND_RELU, KIND_LINEAR]
    assert as_sequential(net).linears
    _, report = import_onnx(_bytes(g))
    assert report.notes == ["dropped 2 layer(s) that cannot reach the graph output"]


def test_identity_and_constant_nodes():
    cn = oc.NodeP(op_type="Constant", name="k", inputs=[], outputs=["c"])
    cn.attributes["value"] = oc.AttrP(
        "value", oc.AT_TENSOR, t=_t("cv", np.array([1.0, -1.0, 0.5]))
    )
    ident = oc.NodeP(op_type="Identity", name="id", inputs=["x"], outputs=["xi"])
    add = oc.NodeP(op_type="Add", name="a", inputs=["xi", "c"], outputs=["y"])
    g = _graph([cn, ident, add], [], [1, 3], "y")
    _assert_agrees(g, 3)


def test_conv_graph_and_import_report():
    conv = oc.NodeP(op_type="Conv", name="c0", inputs=["x", "cw", "cb"], outputs=["h"])
    conv.attributes["kernel_shape"] = oc.AttrP("kernel_shape", oc.AT_INTS, ints=[3, 3])
    conv.attributes["pads"] = oc.AttrP("pads", oc.AT_INTS, ints=[1, 1, 1, 1])
    relu = oc.NodeP(op_type="Relu", name="r0", inputs=["h"], outputs=["hr"])
    flat = oc.NodeP(op_type="Flatten", name="f", inputs=["hr"], outputs=["hf"])
    node2, inits2 = _gemm("fc", "hf", rng.normal(size=(2, 32)), None, "y")
    g = _graph(
        [conv, relu, flat, node2],
        [_t("cw", rng.normal(size=(2, 1, 3, 3)) * 0.3), _t("cb", rng.normal(size=2))] + inits2,
        [1, 1, 4, 4], "y",
    )
    net, report = import_onnx(_bytes(g))
    assert report.input_shape == (1, 1, 4, 4)
    assert report.flattening_order == "row-major"
    assert report.present_ops == ["Conv", "Flatten", "Gemm", "Relu"]
    assert report.unsupported_ops == []
    xs = rng.uniform(-1, 1, size=(100, 16))
    for x in xs:
        assert np.abs(forward(net, x) - reference_forward(g, x)).max() <= 1e-6


# --- maxpool gadget ---


def _pool_graph(in_dims, kernel, strides=None):
    mp = oc.NodeP(op_type="MaxPool", name="mp", inputs=["x"], outputs=["y"])
    mp.attributes["kernel_shape"] = oc.AttrP("kernel_shape", oc.AT_INTS, ints=list(kernel))
    if strides:
        mp.attributes["strides"] = oc.AttrP("strides", oc.AT_INTS, ints=list(strides))
    return _graph([mp], [], in_dims, "y")


def test_maxpool_pair_gadget():
    net = import_onnx(_bytes(_pool_graph([1, 1, 1, 2], (1, 2))))[0]
    assert forward(net, np.array([3.0, 5.0])).tolist() == [5.0]
    assert forward(net, np.array([5.0, 3.0])).tolist() == [5.0]
    # max of negatives must stay negative; the gadget is not a relu
    assert forward(net, np.array([-4.0, -1.0])).tolist() == [-1.0]
    kinds = {l.kind for l in net.layers}
    # the pairwise gadget needs only one relu sandwich, no Sum
    assert KIND_RELU in kinds and KIND_SUM not in kinds


def test_maxpool_2x2_matches_direct_max():
    g = _pool_graph([1, 1, 4, 4], (2, 2), strides=(2, 2))
    net = import_onnx(_bytes(g))[0]
    for _ in range(250):
        x = rng.normal(size=16)
        want = x.reshape(4, 4).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4).max(axis=1)
        assert np.abs(forward(net, x) - want).max() <= 1e-12


def test_maxpool_window_of_three():
    g = _pool_graph([1, 1, 1, 3], (1, 3))
    net = import_onnx(_bytes(g))[0]
    # a third window element chains through a Sum join
    assert KIND_SUM in {l.kind for l in net.layers}
    for x in ([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 3.0, 1.0], [-1.0, -5.0, -2.0]):
        assert forward(net, np.array(x)).tolist() == [max(x)]


def test_maxpool_agrees_with_reference():
    g = _pool_graph([1, 2, 4, 4], (2, 2), strides=(2, 2))
    _assert_agrees(g, 32, samples=50, tol=1e-12)


# --- error paths ---


def test_unsupported_ops_are_listed_by_name():
    sig = oc.NodeP(op_type="Sigmoid", name="act1", inputs=["x"], outputs=["h"])
    tanh = oc.NodeP(op_type="Tanh", name="act2", inputs=["h"], outputs=["y"])
    g = _graph([sig, tanh], [], [1, 2], "y")
    with pytest.raises(UnsupportedModelError) as ei:
        import_onnx(_bytes(g))
    msg = str(ei.value)
    assert "act1:Sigmoid" in msg
    assert "act2:Tanh" in msg
    assert ei.value.nodes == [("act1", "Sigmoid"), ("act2", "Tanh")]


def test_two_graph_inputs_rejected():
    add = oc.NodeP(op_type="Add", name="a", inputs=["x", "x2"], outputs=["y"])
    g = _graph([add], [], [1, 2], "y")
    g.inputs.append(oc.ValueInfoP("x2", oc.DT_FLOAT, [1, 2]))
    with pytest.raises(UnsupportedModelError, match="one graph input"):
        import_onnx(_bytes(g))


def test_symbolic_feature_dim_rejected():
    node, inits = _gemm("g0", "x", np.ones((1, 2)), None, "y")
    g = oc.GraphP(
        name="g", nodes=[node], initializers=inits,
        inputs=[oc.ValueInfoP("x", oc.DT_FLOAT, [1, "width"])],
        outputs=[oc.ValueInfoP("y", oc.DT_FLOAT, [])],
    )
    with pytest.raises(UnsupportedModelError, match="non-concrete"):
        import_onnx(_bytes(g))


@pytest.mark.parametrize(
    "attr,ints", [("pads", [1, 1, 1]), ("strides", [0, 1]), ("dilations", [1])]
)
def test_conv_bad_window_attributes_rejected(attr, ints):
    conv = oc.NodeP(op_type="Conv", name="c", inputs=["x", "k"], outputs=["y"])
    conv.attributes[attr] = oc.AttrP(attr, oc.AT_INTS, ints=ints)
    g = _graph([conv], [_t("k", np.ones((1, 1, 2, 2)))], [1, 1, 3, 3], "y")
    with pytest.raises(UnsupportedModelError, match="bad window"):
        import_onnx(_bytes(g))


@pytest.mark.parametrize("kernel,strides", [((2,), (1, 1)), ((2, 2), (1,)), ((2, 2), (1, -1))])
def test_maxpool_bad_window_attributes_rejected(kernel, strides):
    with pytest.raises(UnsupportedModelError, match="bad window"):
        import_onnx(_bytes(_pool_graph([1, 1, 4, 4], kernel, strides)))


# --- export ---


def test_export_fig4_node_layout(fig4_net):
    model = oc.decode_model(export_onnx(fig4_net))
    ops = [(n.op_type, n.name) for n in model.graph.nodes]
    assert ops == [("Gemm", "red_linear_0"), ("Relu", "red_relu_0"), ("Gemm", "red_linear_1")]
    assert model.opset_imports == [("", 13)]
    assert model.graph.inputs[0].dims == [1, 2]
    assert model.graph.outputs[0].dims == [1, 2]
    dims = {t.name: t.dims for t in model.graph.initializers}
    assert dims["red_linear_0_weight"] == [3, 2]
    assert dims["red_linear_0_bias"] == [3]
    assert dims["red_linear_1_weight"] == [2, 3]
    assert dims["red_linear_1_bias"] == [2]


def test_export_import_fig4_is_exact(fig4_net, unit_box):
    # small integer weights survive the float32 round trip bit for bit
    net2, _ = import_onnx(export_onnx(fig4_net))
    for x in box_samples(unit_box, 100, seed=3):
        a = forward(fig4_net, x)
        b = forward(net2, x)
        assert np.abs(a - b).max() <= 1e-12


def test_export_import_random_weights_float32_tolerance(fig1_net, unit_box):
    net2, report = import_onnx(export_onnx(fig1_net))
    assert report.present_ops == ["Gemm", "Relu"]
    for x in box_samples(unit_box, 100, seed=4):
        assert np.abs(forward(fig1_net, x) - forward(net2, x)).max() <= 1e-6


def test_export_rejects_dag():
    from conftest import build_residual_block
    net, _, _ = build_residual_block()
    with pytest.raises(StructuralError, match="sequential"):
        export_onnx(net)


def test_exported_bytes_decode_anywhere(fig4_net):
    data = export_onnx(fig4_net, graph_name="reduced")
    model = oc.decode_model(data)
    assert model.graph.name == "reduced"
    assert model.producer_name == "redkit"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["w", "b"])
def test_non_finite_initializer_rejected(bad, where):
    w, b = np.ones((2, 3)), np.zeros(2)
    (w if where == "w" else b)[1, ...] = bad
    node, inits = _gemm("g0", "x", w, b, "y")
    g = _graph([node], inits, [1, 3], "y")
    with pytest.raises(UnsupportedModelError, match="non-finite"):
        import_onnx(_bytes(g))

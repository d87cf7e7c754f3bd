"""Shared fixtures: the worked-example pair, a residual block, onnx helpers.

All golden numbers here were derived by hand from the network definitions
(x3 = -x1-x2-2, x4 = x1+x2+3, x5 = x1-x2+2, x6 = x1+x2+2, x7 = -x1+x2;
y1 = x8-x9+x10+x11-x12, y2 = x8+x9+x10+x11+x12 over the ReLU outputs) and
are frozen so regressions surface as value diffs, not re-derivations.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import redkit.onnx_codec as oc
from redkit import Box, Chain, NetworkBuilder, conv_to_matrix, root_leaf, split_leaf
from redkit.bounds import chain_margin_lower_bounds

# original example network
FIG1_W1 = np.array(
    [
        [-1.0, -1.0],
        [1.0, 1.0],
        [1.0, -1.0],
        [1.0, 1.0],
        [-1.0, 1.0],
    ]
)
FIG1_B1 = np.array([-2.0, 3.0, 2.0, 2.0, 0.0])
FIG1_W2 = np.array([[1.0, -1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
FIG1_B2 = np.zeros(2)

# pre-activation boxes over [-1,1]^2, exact (affine rows)
FIG1_PRE_LO = np.array([-4.0, 1.0, 0.0, 0.0, -2.0])
FIG1_PRE_HI = np.array([0.0, 5.0, 4.0, 4.0, 2.0])

# reduced network: m1 = x1-x2+2, m2 = 3x1+x2+7, kept x7 = -x1+x2
FIG4_W1 = np.array([[1.0, -1.0], [3.0, 1.0], [-1.0, 1.0]])
FIG4_B1 = np.array([2.0, 7.0, 0.0])
FIG4_W2 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
FIG4_B2 = np.array([-1.0, 0.0])


def build_fig1():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, FIG1_W1, FIG1_B1)
    r1 = b.add_relu(l1, 5)
    l2 = b.add_linear(r1, FIG1_W2, FIG1_B2)
    return b.build(l2)


def build_fig4():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, FIG4_W1, FIG4_B1)
    r1 = b.add_relu(l1, 3)
    l2 = b.add_linear(r1, FIG4_W2, FIG4_B2)
    return b.build(l2)


@pytest.fixture(scope="session")
def fig1_net():
    return build_fig1()


@pytest.fixture(scope="session")
def fig4_net():
    return build_fig4()


@pytest.fixture(scope="session")
def unit_box():
    return Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def build_residual_block(channels: int = 4, side: int = 4, seed: int = 0):
    """Input(3ch) -> conv1 -> ReLU -> conv2 -> Sum <- conv3 <- Input.

    conv2 and conv3 outputs share the 3 x side x side shape so the Sum is
    well formed. Returns (net, box, parts) where parts carries the unrolled
    conv matrices for structural assertions.
    """
    rng = np.random.default_rng(seed)
    in_shape = (3, side, side)
    k1 = rng.normal(scale=0.5, size=(channels, 3, 3, 3))
    c1 = rng.normal(scale=0.1, size=channels)
    k2 = rng.normal(scale=0.5, size=(3, channels, 3, 3))
    c2 = rng.normal(scale=0.1, size=3)
    k3 = rng.normal(scale=0.5, size=(3, 3, 3, 3))
    c3 = rng.normal(scale=0.1, size=3)
    M1, B1, mid_shape = conv_to_matrix(k1, c1, in_shape, pads=(1, 1, 1, 1))
    M2, B2, _ = conv_to_matrix(k2, c2, mid_shape, pads=(1, 1, 1, 1))
    M3, B3, _ = conv_to_matrix(k3, c3, in_shape, pads=(1, 1, 1, 1))

    d = 3 * side * side
    b = NetworkBuilder()
    i = b.add_input(d)
    l1 = b.add_linear(i, M1, B1)
    r1 = b.add_relu(l1, M1.shape[0])
    l2 = b.add_linear(r1, M2, B2)
    l3 = b.add_linear(i, M3, B3)
    s = b.add_sum([l2, l3], d)
    net = b.build(s)
    box = Box(-np.ones(d), np.ones(d))
    return net, box, {"M1": M1, "B1": B1, "M2": M2, "B2": B2, "M3": M3, "B3": B3}


def residual_conv_model(seed: int = 0, blocks: int = 2, channels: int = 4, side: int = 5) -> bytes:
    """ONNX bytes of residual conv blocks (Conv, Relu, Conv, Add, Relu), then Flatten and Gemm.

    Input (1, 3, side, side); float64 initializers; the first conv carries a
    string attribute (auto_pad NOTSET) so every attribute kind the blocks use
    is on the wire.
    """
    rng = np.random.default_rng(seed)

    def tensor(name, arr):
        a = np.ascontiguousarray(arr, dtype="<f8")
        return oc.TensorP(name=name, dims=list(a.shape), data_type=oc.DT_DOUBLE,
                          raw_data=a.tobytes())

    pads = oc.AttrP("pads", oc.AT_INTS, ints=[1, 1, 1, 1])
    nodes, inits, cur = [], [], "x"
    for k in range(blocks):
        inits += [
            tensor(f"k1_{k}", rng.normal(scale=0.3, size=(channels, 3, 3, 3))),
            tensor(f"c1_{k}", rng.normal(scale=0.1, size=channels)),
            tensor(f"k2_{k}", rng.normal(scale=0.3, size=(3, channels, 3, 3))),
            tensor(f"c2_{k}", rng.normal(scale=0.1, size=3)),
        ]
        first = {"pads": pads, "auto_pad": oc.AttrP("auto_pad", oc.AT_STRING, s=b"NOTSET")}
        nodes += [
            oc.NodeP("Conv", f"conv1_{k}", [cur, f"k1_{k}", f"c1_{k}"], [f"h_{k}"], first),
            oc.NodeP("Relu", f"relu1_{k}", [f"h_{k}"], [f"hr_{k}"]),
            oc.NodeP("Conv", f"conv2_{k}", [f"hr_{k}", f"k2_{k}", f"c2_{k}"], [f"g_{k}"],
                     {"pads": pads}),
            oc.NodeP("Add", f"add_{k}", [f"g_{k}", cur], [f"s_{k}"]),
            oc.NodeP("Relu", f"relu2_{k}", [f"s_{k}"], [f"sr_{k}"]),
        ]
        cur = f"sr_{k}"
    size = 3 * side * side
    inits += [tensor("gw", rng.normal(scale=size**-0.5, size=(4, size))),
              tensor("gb", rng.normal(scale=0.1, size=4))]
    nodes += [
        oc.NodeP("Flatten", "flat", [cur], ["f"], {"axis": oc.AttrP("axis", oc.AT_INT, i=1)}),
        oc.NodeP("Gemm", "head", ["f", "gw", "gb"], ["y"],
                 {"transB": oc.AttrP("transB", oc.AT_INT, i=1)}),
    ]
    graph = oc.GraphP(
        name="residual", nodes=nodes, initializers=inits,
        inputs=[oc.ValueInfoP("x", oc.DT_DOUBLE, [1, 3, side, side])],
        outputs=[oc.ValueInfoP("y", oc.DT_DOUBLE, [1, 4])],
    )
    return oc.encode_model(oc.ModelP(producer_name="tests", opset_imports=[("", 13)], graph=graph))


def box_samples(box: Box, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(box.lower, box.upper, size=(n, box.lower.shape[0]))


def leaf_margins(chain, box, leaf, C, d):
    """Lower bounds of the margins C y + d over a leaf's sign region."""
    W, b = chain.layers[-1]
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return chain_margin_lower_bounds(
        chain, box.lower[None], box.upper[None], C @ W, C @ b + np.asarray(d, dtype=float),
        leaf.relaxations,
    )[0]


def member(batch, b=0):
    """Member b of a LeafBatch as one leaf: its ranges and signs without the batch axis.

    batch is the member alone as a batch of one, the form split_leaf takes;
    relaxations are that batch's (1, n) lines, the form the backward pass
    takes.
    """
    one = batch.take([b])
    return SimpleNamespace(
        lower=tuple(a[0] for a in one.lower),
        upper=tuple(a[0] for a in one.upper),
        relaxations=one.relaxations,
        signs=tuple(a[0] for a in one.signs),
        batch=one,
    )


def root_one(chain, box):
    """The root leaf as one leaf (see member)."""
    return member(root_leaf(chain, box))


def split_one(chain, box, leaf, k, j, sign):
    """Split one leaf (see member): the child, or None when its sign region is empty."""
    child = split_leaf(chain, box, leaf.batch, [k], [j], [sign])
    return None if child.empty[0] else member(child)


def root_margins(net, box, C, d=0.0):
    """Lower bounds of the margins C y + d over the whole box."""
    chain = Chain.of(net)
    return leaf_margins(chain, box, root_one(chain, box), C, d)

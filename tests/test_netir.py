import numpy as np
import pytest

from redkit import (
    Box,
    Chain,
    ContractError,
    NetworkBuilder,
    StructuralError,
    as_sequential,
    forward,
    forward_batch,
    from_sequential,
    topo_order,
    validate,
)
from redkit.netir import KIND_INPUT, KIND_LINEAR, KIND_RELU, KIND_SUM, Layer, freeze_array

from conftest import build_fig1, build_fig4, build_residual_block


def test_forward_fig1_at_origin(fig1_net):
    y = forward(fig1_net, np.zeros(2))
    assert np.array_equal(y, np.array([1.0, 7.0]))


def test_forward_fig4_at_origin(fig4_net):
    y = forward(fig4_net, np.zeros(2))
    assert np.array_equal(y, np.array([1.0, 7.0]))


def test_forward_identity_linear():
    b = NetworkBuilder()
    i = b.add_input(3)
    l = b.add_linear(i, np.eye(3), np.zeros(3))
    net = b.build(l)
    a = np.array([0.3, -1.2, 5.0])
    assert np.array_equal(forward(net, a), a)


def test_forward_is_pure(fig1_net):
    x = np.array([0.37, -0.81])
    y1 = forward(fig1_net, x)
    y2 = forward(fig1_net, x)
    assert np.array_equal(y1, y2)


def test_forward_batch_matches_loop(fig1_net):
    xs = np.array([[0.0, 0.0], [1.0, -1.0], [-0.5, 0.25]])
    ys = forward_batch(fig1_net, xs)
    for k in range(xs.shape[0]):
        assert np.array_equal(ys[k], forward(fig1_net, xs[k]))


def test_forward_dimension_mismatch(fig1_net):
    with pytest.raises(ContractError):
        forward(fig1_net, np.zeros(3))


def test_validate_fig1_clean(fig1_net):
    rep = validate(fig1_net)
    assert rep.violations == []


def test_validate_relu_two_preds():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    l2 = b.add_linear(i, np.eye(2), np.ones(2))
    # assemble by hand to bypass builder-side checks
    from redkit.netir import Layer, Network

    relu = Layer(99, KIND_RELU, 2)
    out = Layer(100, KIND_LINEAR, 2, np.eye(2), np.zeros(2))
    base = b.build(l1)
    layers = list(base.layers) + [relu, out]
    arcs = list(base.arcs) + [(l1, 99), (l2, 99), (99, 100)]
    net = Network(layers, arcs, base.input_id, 100)
    rep = validate(net)
    assert any("99" in v for v in rep.violations)


def test_validate_output_with_successor():
    from redkit.netir import Layer, Network

    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    base = b.build(l1)
    extra = Layer(50, KIND_LINEAR, 2, np.eye(2), np.zeros(2))
    net = Network(list(base.layers) + [extra], list(base.arcs) + [(l1, 50)], i, l1)
    rep = validate(net)
    assert rep.violations  # output layer has a successor / extra unreachable


def test_validate_sum_width_mismatch():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    l2 = b.add_linear(i, np.ones((3, 2)), np.zeros(3))
    s = b.add_sum([l1, l2], 2)
    rep = validate(b.build(s))
    assert any("sum" in v and "width" in v for v in rep.violations)


def test_topo_order_chain(fig1_net):
    order = topo_order(fig1_net)
    assert order == sorted(order)
    kinds = [fig1_net.by_id[i].kind for i in order]
    assert kinds == [KIND_INPUT, KIND_LINEAR, KIND_RELU, KIND_LINEAR]


def test_topo_order_residual_block():
    net, _, _ = build_residual_block()
    order = topo_order(net)
    pos = {lid: k for k, lid in enumerate(order)}
    relus = [l.id for l in net.layers if l.kind == KIND_RELU]
    sums = [l.id for l in net.layers if l.kind == KIND_SUM]
    # conv3 is the linear fed by the input that feeds the Sum directly
    (conv3,) = [
        l.id
        for l in net.layers
        if l.kind == KIND_LINEAR
        and net.preds[l.id][0] == net.input_id
        and sums[0] in net.succs[l.id]
    ]
    assert pos[conv3] > pos[net.input_id]
    assert pos[conv3] < pos[sums[0]]
    for r in relus:
        for p in net.preds[r]:
            assert pos[p] < pos[r]


def test_topo_order_respects_every_arc(fig1_net):
    net, _, _ = build_residual_block(seed=3)
    pos = {lid: k for k, lid in enumerate(topo_order(net))}
    for src, dst in net.arcs:
        assert pos[src] < pos[dst]


def test_topo_order_single_input():
    b = NetworkBuilder()
    i = b.add_input(4)
    net = b.build(i)
    assert topo_order(net) == [i]


def test_sum_forward_predecessor_order():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.array([1.0, 0.0]))
    l2 = b.add_linear(i, -np.eye(2), np.array([0.0, 2.0]))
    s = b.add_sum([l1, l2], 2)
    net = b.build(s)
    x = np.array([0.5, -0.5])
    assert np.array_equal(forward(net, x), (x + [1, 0]) + (-x + [0, 2]))


def test_as_sequential_round_trip(fig1_net):
    seq = as_sequential(fig1_net)
    assert [l.width for l in seq.linears] == [5, 2]
    assert [l.width for l in seq.relus] == [5]
    assert not seq.ends_with_relu
    wb = [(np.array(l.weight), np.array(l.bias)) for l in seq.linears]
    rebuilt = from_sequential(wb, 2)
    x = np.array([0.25, -0.75])
    assert np.array_equal(forward(rebuilt, x), forward(fig1_net, x))


def test_chain_round_trip_keeps_layer_ids_and_arrays(fig1_net):
    chain = Chain.of(fig1_net)
    assert chain.n_relu == 1 and chain.input_width == 2
    back = chain.to_network()
    assert [(l.id, l.kind, l.width) for l in back.layers] == [
        (l.id, l.kind, l.width) for l in fig1_net.layers
    ]
    for a, b in zip(Chain.of(back).layers, chain.layers):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_chain_to_network_trailing_relu():
    chain = Chain(((np.array([[1.0, -1.0]]), np.array([0.5])),), 1)
    seq = as_sequential(chain.to_network())
    assert seq.ends_with_relu
    assert forward(chain.to_network(), np.array([0.0, 2.0])).tolist() == [0.0]


def test_from_sequential_checks_input_width():
    with pytest.raises(ContractError):
        from_sequential([(np.eye(2), np.zeros(2))], 3)
    with pytest.raises(ContractError):
        from_sequential([], 2)


def test_as_sequential_rejects_dag():
    net, _, _ = build_residual_block()
    with pytest.raises((ContractError, StructuralError)):
        as_sequential(net)


def test_builder_duplicate_output_arc_rejected():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    net = b.build(l1)
    assert net.output_id == l1
    assert net.succs[l1] == ()


def test_linear_width_bookkeeping(fig1_net):
    for l in fig1_net.layers:
        if l.kind == KIND_LINEAR:
            assert l.weight.shape[0] == l.width == l.bias.shape[0]


def test_box_validation():
    with pytest.raises(ContractError):
        Box(np.array([1.0]), np.array([0.0]))
    b = Box(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    assert b.lower.shape == (2,)


def test_nan_weight_flagged():
    b = NetworkBuilder()
    i = b.add_input(1)
    l = b.add_linear(i, np.array([[np.nan]]), np.zeros(1))
    rep = validate(b.build(l))
    assert any("finite" in v for v in rep.violations)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["weight", "bias"])
def test_from_sequential_rejects_non_finite_parameters(bad, where):
    W1, b1 = np.ones((3, 2)), np.zeros(3)
    W2, b2 = np.ones((1, 3)), np.zeros(1)
    if where == "weight":
        W2[0, 1] = bad
    else:
        b2[0] = bad
    with pytest.raises(ContractError, match="layer 1 has non-finite"):
        from_sequential([(W1, b1), (W2, b2)], 2)


def test_freeze_array_shares_a_frozen_array_and_copies_the_rest():
    frozen = freeze_array(np.arange(6.0).reshape(2, 3))
    assert not frozen.flags.writeable and frozen.flags.owndata
    assert freeze_array(frozen) is frozen
    # a layer built from another layer's arrays holds the same memory
    layer = Layer(0, KIND_LINEAR, 2, frozen, freeze_array(np.zeros(2)))
    assert layer.weight is frozen
    writeable = np.arange(6.0).reshape(2, 3)
    out = freeze_array(writeable)
    assert out is not writeable and not np.shares_memory(out, writeable)
    writeable[0, 0] = 99.0
    assert out[0, 0] == 0.0
    # read-only but not owning its data, or not C-contiguous, or not float64
    view = frozen[:, :2]
    assert not np.shares_memory(freeze_array(view), frozen)
    t = frozen.T
    assert freeze_array(t).flags.c_contiguous and not np.shares_memory(freeze_array(t), frozen)
    ints = np.arange(3)
    ints.flags.writeable = False
    assert freeze_array(ints).dtype == np.float64

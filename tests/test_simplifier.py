import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redkit import (
    Box,
    ContractError,
    NetworkBuilder,
    StructuralError,
    as_sequential,
    forward,
    forward_batch,
    import_onnx,
    sample_equivalence,
    simplify,
)
from redkit import netir, simplifier
from redkit.netir import KIND_LINEAR, KIND_RELU, topo_order

from conftest import build_residual_block, box_samples, residual_conv_model


def _layers(net) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (W, b) pairs of simplify's chain."""
    return [(l.weight, l.bias) for l in as_sequential(simplify(net)[0]).linears]


def test_normalize_scalar_composition():
    # [[3]],[4] then a one-member Sum, then [[2]],[1]: composed [[6]],[9]
    b = NetworkBuilder()
    i = b.add_input(1)
    inner = b.add_sum([b.add_linear(i, np.array([[3.0]]), np.array([4.0]))], 1)
    outer = b.add_linear(inner, np.array([[2.0]]), np.array([1.0]))
    b.add_sum([outer], 1)
    ((W, c),) = _layers(b.build())
    np.testing.assert_array_equal(W, [[6.0]])
    np.testing.assert_array_equal(c, [9.0])


def test_normalize_merges_same_predecessor():
    b = NetworkBuilder()
    i = b.add_input(1)
    la = b.add_linear(i, np.array([[1.0]]), np.array([2.0]))
    lb = b.add_linear(i, np.array([[3.0]]), np.array([4.0]))
    net = b.build(b.add_sum([la, lb], 1))
    chain, stats = simplify(net)
    (layer,) = as_sequential(chain).linears
    np.testing.assert_array_equal(layer.weight, [[4.0]])
    np.testing.assert_array_equal(layer.bias, [6.0])
    assert stats.normalization_rewrites == 1


def test_graph_shares_read_only_arrays(fig1_net):
    # a chain already: simplify hands the network's own arrays to the chain
    chain, _ = simplify(fig1_net)
    lin = [l for l in fig1_net.layers if l.kind == KIND_LINEAR]
    for l, got in zip(lin, as_sequential(chain).linears):
        assert got.weight is l.weight and not got.weight.flags.writeable
        assert got.bias is l.bias and not got.bias.flags.writeable


def test_construction_relu_passthrough_zero_shift():
    # P_L is a ReLU layer: no shift needed, no box required
    rng = np.random.default_rng(0)
    b = NetworkBuilder()
    i = b.add_input(3)
    l0 = b.add_linear(i, rng.normal(size=(3, 3)), rng.normal(size=3))
    r0 = b.add_relu(l0, 3)
    W1, c1 = rng.normal(size=(3, 3)), rng.normal(size=3)
    W2, c2 = rng.normal(size=(3, 3)), rng.normal(size=3)
    W3, c3 = rng.normal(size=(3, 3)), rng.normal(size=3)
    l1 = b.add_linear(r0, W1, c1)
    r1 = b.add_relu(l1, 3)
    l2 = b.add_linear(r1, W2, c2)
    l3 = b.add_linear(r0, W3, c3)
    s = b.add_sum([l2, l3], 3)
    net = b.build(s)
    chain, stats = simplify(net)  # no box: must still work
    seq = as_sequential(chain)
    assert not seq.ends_with_relu
    rep = sample_equivalence(net, chain, Box(-np.ones(3), np.ones(3)), n=1000, seed=1)
    assert rep.max_abs_diff <= 1e-9


def test_construction_input_passthrough_shift():
    # P_L = the input layer over [-1,1]^2: shift is (1,1) and the final
    # linear compensates
    rng = np.random.default_rng(1)
    net, box, parts = _tiny_skip(rng, d=2)
    chain, stats = simplify(net, box=box)
    seq = as_sequential(chain)
    first = seq.linears[0]
    # bottom rows of the first linear pass the input through, shifted
    np.testing.assert_array_equal(first.weight[-2:], np.eye(2))
    np.testing.assert_array_equal(first.bias[-2:], [1.0, 1.0])
    rep = sample_equivalence(net, chain, box, n=1000, seed=2)
    assert rep.max_abs_diff <= 1e-9


def _tiny_skip(rng, d=2, h=3):
    b = NetworkBuilder()
    i = b.add_input(d)
    W1, c1 = rng.normal(size=(h, d)), rng.normal(size=h)
    W2, c2 = rng.normal(size=(d, h)), rng.normal(size=d)
    W3, c3 = rng.normal(size=(d, d)), rng.normal(size=d)
    l1 = b.add_linear(i, W1, c1)
    r1 = b.add_relu(l1, h)
    l2 = b.add_linear(r1, W2, c2)
    l3 = b.add_linear(i, W3, c3)
    s = b.add_sum([l2, l3], d)
    return b.build(s), Box(-np.ones(d), np.ones(d)), (W1, c1, W2, c2, W3, c3)


def test_construction_without_box_fails_loudly():
    rng = np.random.default_rng(2)
    net, _, _ = _tiny_skip(rng)
    with pytest.raises(ContractError, match="input box is required"):
        simplify(net)


@pytest.mark.parametrize("carried", [True, False])
def test_a_box_of_the_wrong_width_is_rejected(carried):
    # the tiny skip carries its input past the hidden layer; the other net
    # never carries it, and used to accept a box of any width
    rng = np.random.default_rng(3)
    if carried:
        net, box, _ = _tiny_skip(rng, d=4)
    else:
        b = NetworkBuilder()
        l0 = b.add_linear(b.add_input(4), rng.normal(size=(3, 4)), rng.normal(size=3))
        net = b.build(b.add_linear(b.add_relu(l0, 3), rng.normal(size=(2, 3)), np.zeros(2)))
        box = Box(-np.ones(4), np.ones(4))
    simplify(net, box)
    with pytest.raises(ContractError, match="box dimension 5 does not match input width 4"):
        simplify(net, Box(-np.ones(5), np.ones(5)))


def test_simplify_residual_block_shape():
    net, box, parts = build_residual_block(channels=4, side=4, seed=7)
    chain, stats = simplify(net, box=box)
    seq = as_sequential(chain)
    assert len(seq.linears) == 2 and len(seq.relus) == 1
    # first linear stacks conv1 over the identity passthrough
    M1 = parts["M1"]
    np.testing.assert_allclose(seq.linears[0].weight[: M1.shape[0]], M1)
    np.testing.assert_array_equal(seq.linears[0].weight[M1.shape[0] :], np.eye(48))
    rep = sample_equivalence(net, chain, box, n=1000, seed=3)
    assert rep.max_abs_diff <= 1e-6
    assert stats.constructions <= len(net.layers)


def test_simplify_fixed_point_on_sequential(fig1_net, unit_box):
    chain, stats = simplify(fig1_net, box=unit_box)
    seq = as_sequential(chain)
    assert [l.width for l in seq.linears] == [5, 2]
    assert [l.width for l in seq.relus] == [5]
    assert stats.constructions == 0
    rep = sample_equivalence(fig1_net, chain, unit_box, n=500, seed=4)
    assert rep.max_abs_diff == 0.0


def test_linearize_single_linear_block():
    # a one-member Sum dissolves into the linear it reads
    b = NetworkBuilder()
    i = b.add_input(2)
    l = b.add_linear(i, 2 * np.eye(2), np.ones(2))
    out, _ = simplify(b.build(b.add_sum([l], 2)))
    assert sorted(x.kind for x in out.layers) == ["input", "linear"]
    assert np.array_equal(forward(out, np.ones(2)), [3.0, 3.0])


def test_random_dag_simplifies():
    # three-branch dag of linears and sums
    rng = np.random.default_rng(12)
    b = NetworkBuilder()
    i = b.add_input(3)
    l1 = b.add_linear(i, rng.normal(size=(4, 3)), rng.normal(size=4))
    r1 = b.add_relu(l1, 4)
    l2 = b.add_linear(r1, rng.normal(size=(3, 4)), rng.normal(size=3))
    l3 = b.add_linear(i, rng.normal(size=(3, 3)), rng.normal(size=3))
    s1 = b.add_sum([l2, l3], 3)
    l4 = b.add_linear(s1, rng.normal(size=(2, 3)), rng.normal(size=2))
    l5 = b.add_linear(r1, rng.normal(size=(2, 4)), rng.normal(size=2))
    s2 = b.add_sum([l4, l5], 2)
    net = b.build(s2)
    box = Box(-np.ones(3), np.ones(3))
    chain, stats = simplify(net, box=box)
    seq = as_sequential(chain)
    for k, lin in enumerate(seq.linears):
        assert lin.kind == KIND_LINEAR
    rep = sample_equivalence(net, chain, box, n=1000, seed=5)
    assert rep.max_abs_diff <= 1e-9
    assert stats.constructions <= len(net.layers)


def test_result_well_formed_relus():
    net, box, _ = build_residual_block(seed=9)
    chain, _ = simplify(net, box=box)
    for l in chain.layers:
        if l.kind == KIND_RELU:
            (p,) = chain.preds[l.id]
            (s,) = chain.succs[l.id]
            assert chain.by_id[p].kind == KIND_LINEAR
            assert chain.by_id[s].kind == KIND_LINEAR


def test_stats_fields():
    # conv1 fires next to the carried input; three network linears fold
    net, box, _ = build_residual_block(seed=4)
    _, stats = simplify(net, box=box)
    assert stats.constructions == 1
    assert stats.linearizations == 3
    assert stats.normalization_rewrites == 0
    assert stats.layer_budget == len(net.layers)
    assert stats.constructions <= stats.layer_budget


# reading a network into a chain: runs of linear layers fold into one


def test_read_chain_folds_two_linears():
    b = NetworkBuilder()
    i = b.add_input(1)
    l1 = b.add_linear(i, np.array([[2.0]]), np.array([1.0]))
    l2 = b.add_linear(l1, np.array([[3.0]]), np.array([0.0]))
    ((W, c),) = _layers(b.build(l2))
    np.testing.assert_array_equal(W, [[6.0]])
    np.testing.assert_array_equal(c, [3.0])


def test_read_chain_folds_identity_chain():
    b = NetworkBuilder()
    i = b.add_input(3)
    l1 = b.add_linear(i, np.eye(3), np.zeros(3))
    l2 = b.add_linear(l1, np.eye(3), np.zeros(3))
    ((W, _),) = _layers(b.build(l2))
    np.testing.assert_array_equal(W, np.eye(3))


def test_read_chain_fold_preserves_forward():
    rng = np.random.default_rng(9)
    b = NetworkBuilder()
    i = b.add_input(3)
    W1, b1 = rng.normal(size=(5, 3)), rng.normal(size=5)
    W2, b2 = rng.normal(size=(4, 5)), rng.normal(size=4)
    l1 = b.add_linear(i, W1, b1)
    l2 = b.add_linear(l1, W2, b2)
    raw = b.build(l2)
    folded, _ = simplify(raw)
    for x in np.random.default_rng(0).uniform(-1, 1, size=(100, 3)):
        np.testing.assert_allclose(forward(folded, x), forward(raw, x), atol=1e-12)


def test_read_chain_run_of_three_folds_left_to_right():
    rng = np.random.default_rng(11)
    W = [rng.normal(size=(3, 2)), rng.normal(size=(4, 3)), rng.normal(size=(2, 4))]
    c = [rng.normal(size=3), rng.normal(size=4), rng.normal(size=2)]
    b = NetworkBuilder()
    cur = b.add_input(2)
    for Wk, ck in zip(W, c):
        cur = b.add_linear(cur, Wk, ck)
    cur = b.add_relu(cur, 2)
    seq = as_sequential(simplify(b.build(cur))[0])
    assert len(seq.linears) == 1 and seq.ends_with_relu
    np.testing.assert_array_equal(seq.linears[0].weight, W[2] @ (W[1] @ W[0]))
    np.testing.assert_array_equal(seq.linears[0].bias, W[2] @ (W[1] @ c[0] + c[1]) + c[2])


@pytest.mark.parametrize("after_input", [True, False])
def test_read_chain_rejects_relu_without_linear(after_input):
    b = NetworkBuilder()
    cur = b.add_input(2)
    if not after_input:
        cur = b.add_linear(cur, np.eye(2), np.zeros(2))
        cur = b.add_relu(cur, 2)
    cur = b.add_relu(cur, 2)
    cur = b.add_linear(cur, np.eye(2), np.zeros(2))
    with pytest.raises(StructuralError, match="relu not preceded"):
        simplify(b.build(cur))


def test_read_chain_rejects_fan_out_and_stray_layers():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    r1 = b.add_relu(l1, 2)
    stray = b.add_linear(i, np.eye(2), np.zeros(2))  # a second consumer of the input
    with pytest.raises(StructuralError, match=rf"layers \[{stray}\] are not on the"):
        simplify(b.build(r1))
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    b.add_input(2)  # a layer no path from the input reaches
    with pytest.raises(StructuralError, match="not on the"):
        simplify(b.build(l1))


def test_a_relu_summed_with_itself_doubles_its_reader():
    # s sums a ReLU with itself: its two identity terms add into 2I, and the
    # linear O after s reads the block as 2 O
    b = NetworkBuilder()
    i = b.add_input(2)
    r = b.add_relu(b.add_linear(i, np.array([[1.0, -1.0], [2.0, 0.5]]), np.array([0.1, -0.2])), 2)
    s = b.add_sum([r, r], 2)
    O = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.25]])
    b.add_linear(s, O, np.array([1.0, 2.0, 3.0]))
    chain, stats = simplify(b.build())
    _, last = as_sequential(chain).linears
    np.testing.assert_array_equal(last.weight, 2 * O)
    np.testing.assert_array_equal(last.bias, [1.0, 2.0, 3.0])
    assert stats.normalization_rewrites == 1


def test_chained_linear_skips_merge_at_each_sum():
    # y <- y + A_j y, forty times with no ReLU between: each Sum adds its two
    # terms over r into one matrix, so the form stays one term, not 2^40
    rng = np.random.default_rng(7)
    b = NetworkBuilder()
    i = b.add_input(3)
    cur = b.add_relu(b.add_linear(i, rng.normal(size=(3, 3)), rng.normal(size=3)), 3)
    M = np.eye(3)
    for _ in range(40):
        A = rng.normal(size=(3, 3)) / 3
        cur = b.add_sum([cur, b.add_linear(cur, A, np.zeros(3))], 3)
        M = M + A @ M
    O = rng.normal(size=(2, 3))
    net = b.build(b.add_linear(cur, O, np.zeros(2)))
    chain, stats = simplify(net)
    _, last = as_sequential(chain).linears
    np.testing.assert_array_equal(last.weight, O @ M)
    assert stats.normalization_rewrites == 40


# the graphs below pin the chain's layer shapes; identity blocks are written by indexing


def _random_block_net(seed):
    """Residual blocks of random widths; each skip is an identity or a general linear."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    b = NetworkBuilder()
    cur = b.add_input(d)
    for _ in range(int(rng.integers(1, 4))):
        h = int(rng.integers(2, 7))
        r = b.add_relu(b.add_linear(cur, rng.normal(size=(h, d)), rng.normal(size=h)), h)
        members = [b.add_linear(r, rng.normal(size=(d, h)), rng.normal(size=d))]
        skip = np.eye(d) if rng.random() < 0.5 else rng.normal(size=(d, d))
        members.append(b.add_linear(cur, skip, np.zeros(d)))
        if rng.random() < 0.3:  # a third member from the block's own ReLU
            members.append(b.add_linear(r, rng.normal(size=(d, h)), rng.normal(size=d)))
        cur = b.add_relu(b.add_sum(members, d), d)
    out = b.add_linear(cur, rng.normal(size=(3, d)), rng.normal(size=3))
    return b.build(out), Box(-np.ones(d), np.ones(d))


def _residual_conv(seed, blocks):
    net, _ = import_onnx(residual_conv_model(seed, blocks=blocks))
    d = net.input_layer.width
    return net, Box(np.zeros(d), np.ones(d))


SELECTOR_CASES = {
    **{f"conv_{s}_{k}": (lambda s=s, k=k: _residual_conv(s, k)) for s in (0, 1) for k in (1, 2)},
    "residual_block": lambda: build_residual_block(seed=3)[:2],
    **{f"random_{s}": (lambda s=s: _random_block_net(s)) for s in range(12)},
}

# the weight shapes each case's chain has had since the simplifier first flattened it
CHAIN_SHAPES = {
    "conv_0_1": [(175, 75), (75, 175), (4, 75)],
    "conv_0_2": [(175, 75), (75, 175), (175, 75), (75, 175), (4, 75)],
    "conv_1_1": [(175, 75), (75, 175), (4, 75)],
    "conv_1_2": [(175, 75), (75, 175), (175, 75), (75, 175), (4, 75)],
    "random_0": [(8, 4), (4, 8), (7, 4), (4, 7), (3, 4)],
    "random_1": [(8, 3), (3, 8), (9, 3), (3, 9), (3, 3)],
    "random_10": [(7, 4), (4, 7), (7, 4), (4, 7), (8, 4), (4, 8), (3, 4)],
    "random_11": [(7, 2), (2, 7), (3, 2)],
    "random_2": [(6, 4), (4, 6), (3, 4)],
    "random_3": [(6, 4), (4, 6), (3, 4)],
    "random_4": [(10, 4), (4, 10), (8, 4), (4, 8), (9, 4), (4, 9), (3, 4)],
    "random_5": [(6, 4), (4, 6), (10, 4), (4, 10), (7, 4), (4, 7), (3, 4)],
    "random_6": [(7, 3), (3, 7), (6, 3), (3, 6), (3, 3)],
    "random_7": [(9, 4), (4, 9), (10, 4), (4, 10), (3, 4)],
    "random_8": [(7, 4), (4, 7), (3, 4)],
    "random_9": [(9, 3), (3, 9), (6, 3), (3, 6), (5, 3), (3, 5), (3, 3)],
    "residual_block": [(112, 48), (48, 112)],
}


@pytest.mark.parametrize("case", sorted(SELECTOR_CASES))
def test_indexed_composition_keeps_the_dense_products_bytes(case, monkeypatch):
    net, box = SELECTOR_CASES[case]()
    chain, _ = simplify(net, box)
    assert [l.weight.shape for l in as_sequential(chain).linears] == CHAIN_SHAPES[case]
    xs = box_samples(box, 256, seed=1)
    y0 = forward_batch(net, xs)
    np.testing.assert_allclose(forward_batch(chain, xs), y0, rtol=0, atol=1e-9 * (1 + np.abs(y0).max()))
    # the reference adds each identity block as a dense eye
    indexed = []

    def dense_identity(W, r0, c0, w):
        indexed.append(w)
        W[r0 : r0 + w, c0 : c0 + w] += np.eye(w)

    monkeypatch.setattr(simplifier, "_identity", dense_identity)
    dense, _ = simplify(net, box)
    assert indexed
    for la, lb in zip(as_sequential(chain).linears, as_sequential(dense).linears):
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


@pytest.mark.parametrize("case", ["conv_0_2", "residual_block"])
def test_simplify_hands_its_composed_arrays_to_the_layers_uncopied(case, monkeypatch):
    # freeze_array copies a writeable array: each composed array must reach
    # the layers read-only
    net, box = SELECTOR_CASES[case]()
    frozen, copied = [], []

    def freeze(a, dtype=np.float64, real=netir.freeze_array):
        out = real(a, dtype)
        frozen.append(a)
        if out is not a:
            copied.append(a)
        return out

    monkeypatch.setattr(netir, "freeze_array", freeze)
    out, _ = simplify(net, box)
    seq = as_sequential(out)
    assert len(seq.linears) > 1 and not copied
    for layer in seq.linears:
        assert layer.weight.flags.owndata and layer.bias.flags.owndata
        assert any(layer.weight is a for a in frozen) and any(layer.bias is a for a in frozen)


# random residual DAGs: stacked blocks whose skips are identities or general
# linears, from the block's input or straight from the network's input, with
# an optional second member reading the block's own ReLU


@st.composite
def _residual_dags(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    b = NetworkBuilder()
    x = cur = b.add_input(d)
    for _ in range(draw(st.integers(1, 4))):
        h = draw(st.integers(1, 5))
        r = b.add_relu(b.add_linear(cur, rng.normal(size=(h, d)), rng.normal(size=h)), h)
        members = [b.add_linear(r, rng.normal(size=(d, h)), rng.normal(size=d))]
        src = draw(st.sampled_from([cur, x]))
        if draw(st.booleans()):
            members.append(src)
        else:
            members.append(b.add_linear(src, rng.normal(size=(d, d)), rng.normal(size=d)))
        if draw(st.booleans()):
            members.append(b.add_linear(r, rng.normal(size=(d, h)), rng.normal(size=d)))
        cur = b.add_relu(b.add_sum(members, d), d)
    b.add_linear(cur, rng.normal(size=(2, d)), rng.normal(size=2))
    lo = rng.uniform(-2.0, 0.5, size=d)
    return b.build(), Box(lo, lo + rng.uniform(0.1, 2.0, size=d))


def _longest_relu_path(net) -> int:
    depth = {}
    for i in topo_order(net):
        below = max((depth[p] for p in net.preds[i]), default=0)
        depth[i] = below + (net.by_id[i].kind == KIND_RELU)
    return depth[net.output_id]


@settings(max_examples=60, deadline=None)
@given(_residual_dags())
def test_random_residual_dags_flatten_to_equal_chains(case):
    net, box = case
    chain, stats = simplify(net, box)
    seq = as_sequential(chain)
    assert len(seq.relus) == _longest_relu_path(net)
    assert stats.constructions <= stats.layer_budget == len(net.layers)
    xs = box_samples(box, 128, seed=0)
    y0 = forward_batch(net, xs)
    np.testing.assert_allclose(forward_batch(chain, xs), y0, rtol=0, atol=1e-9 * (1 + np.abs(y0).max()))

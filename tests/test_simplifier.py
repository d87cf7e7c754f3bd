import numpy as np
import pytest

from redkit import (
    Box,
    ContractError,
    Layer,
    Network,
    NetworkBuilder,
    StructuralError,
    as_sequential,
    forward,
    forward_batch,
    import_onnx,
    sample_equivalence,
    simplify,
    validate,
)
from redkit import netir, simplifier
from redkit.netir import KIND_LINEAR, KIND_RELU, KIND_SUM
from redkit.simplifier import (
    _compose,
    _Graph,
    _initialize,
    _last_block,
    _linearize,
    _normalize,
    _read_chain,
)

from conftest import build_fig1, build_residual_block, box_samples, residual_conv_model


def _as_network(g: _Graph) -> Network:
    """The scratch graph as a Network, so validate and forward can check a single step."""
    layers = [
        Layer(i, g.kind[i], g.width[i], g.weight.get(i), g.bias.get(i)) for i in sorted(g.kind)
    ]
    arcs = [(p, i) for i in sorted(g.kind) for p in g.preds[i]]
    return Network(layers, arcs, g.input_id, g.output_id)


def _initialized(net) -> _Graph:
    g = _Graph.from_network(net)
    _initialize(g)
    return g


def test_initialization_wraps_linears():
    b = NetworkBuilder()
    i = b.add_input(2)
    l = b.add_linear(i, np.eye(2), np.ones(2))
    net = _as_network(_initialized(b.build(l)))
    kinds = sorted(x.kind for x in net.layers)
    assert kinds == ["input", "linear", "sum"]
    assert validate(net).violations == []
    assert np.array_equal(forward(net, np.array([1.0, 2.0])), [2.0, 3.0])


def test_initialization_residual_block_structure():
    net, _, _ = build_residual_block()
    g = _initialized(net)
    succs = g.succs_map()
    blocks = g.sums()
    # the Add becomes a Sum block with fresh identity members; each conv gets
    # a singleton block of its own
    assert len(blocks) == 4
    assert sorted(len(g.preds[sid]) for sid in blocks) == [1, 1, 1, 2]
    for sid in blocks:
        for lid in g.preds[sid]:
            assert g.kind[lid] == KIND_LINEAR
            assert succs[lid] == [sid]
    assert validate(_as_network(g)).violations == []


def test_initialization_noop_on_relu_chain():
    b = NetworkBuilder()
    i = b.add_input(2)
    r = b.add_relu(i, 2)
    net = b.build(r)
    g = _initialized(net)
    assert sorted(g.kind.values()) == ["input", "relu"]


def test_normalize_scalar_composition():
    # inner block [[3]],[4] feeding outer [[2]],[1] -> composed [[6]],[9]
    b = NetworkBuilder()
    i = b.add_input(1)
    inner_l = b.add_linear(i, np.array([[3.0]]), np.array([4.0]))
    inner_s = b.add_sum([inner_l], 1)
    outer_l = b.add_linear(inner_s, np.array([[2.0]]), np.array([1.0]))
    outer_s = b.add_sum([outer_l], 1)
    g = _Graph.from_network(b.build(outer_s))
    _normalize(g, _last_block(g))
    (lid,) = g.preds[_last_block(g)]
    np.testing.assert_array_equal(g.weight[lid], [[6.0]])
    np.testing.assert_array_equal(g.bias[lid], [9.0])
    # the consumed inner block is gone
    assert len(g.sums()) == 1


def test_normalize_merges_same_predecessor():
    b = NetworkBuilder()
    i = b.add_input(1)
    la = b.add_linear(i, np.array([[1.0]]), np.array([2.0]))
    lb = b.add_linear(i, np.array([[3.0]]), np.array([4.0]))
    s = b.add_sum([la, lb], 1)
    g = _Graph.from_network(b.build(s))
    _normalize(g, _last_block(g))
    members = g.preds[_last_block(g)]
    assert len(members) == 1
    np.testing.assert_array_equal(g.weight[members[0]], [[4.0]])
    np.testing.assert_array_equal(g.bias[members[0]], [6.0])


def test_graph_shares_read_only_arrays(fig1_net):
    g = _Graph.from_network(fig1_net)
    lin = [l for l in fig1_net.layers if l.kind == KIND_LINEAR]
    for l in lin:
        assert g.weight[l.id] is l.weight and not g.weight[l.id].flags.writeable
        assert g.bias[l.id] is l.bias and not g.bias[l.id].flags.writeable


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
    with pytest.raises(ContractError):
        simplify(net)


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
    b = NetworkBuilder()
    i = b.add_input(2)
    l = b.add_linear(i, 2 * np.eye(2), np.ones(2))
    s = b.add_sum([l], 2)
    g = _Graph.from_network(b.build(s))
    _linearize(g, _last_block(g))
    out = _as_network(g)
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
    net, box, _ = build_residual_block(seed=4)
    _, stats = simplify(net, box=box)
    assert stats.constructions >= 1
    assert stats.linearizations >= 1
    # budget is measured on the initialized graph, which is never smaller
    assert stats.layer_budget >= len(net.layers)
    assert stats.constructions <= stats.layer_budget


# reading a Sum-free graph into a chain: runs of linear layers fold into one


def _read(net) -> Network:
    return _read_chain(_Graph.from_network(net)).to_network()


def test_read_chain_folds_two_linears():
    b = NetworkBuilder()
    i = b.add_input(1)
    l1 = b.add_linear(i, np.array([[2.0]]), np.array([1.0]))
    l2 = b.add_linear(l1, np.array([[3.0]]), np.array([0.0]))
    seq = as_sequential(_read(b.build(l2)))
    assert len(seq.linears) == 1
    np.testing.assert_array_equal(seq.linears[0].weight, [[6.0]])
    np.testing.assert_array_equal(seq.linears[0].bias, [3.0])


def test_read_chain_folds_identity_chain():
    b = NetworkBuilder()
    i = b.add_input(3)
    l1 = b.add_linear(i, np.eye(3), np.zeros(3))
    l2 = b.add_linear(l1, np.eye(3), np.zeros(3))
    seq = as_sequential(_read(b.build(l2)))
    assert len(seq.linears) == 1
    np.testing.assert_array_equal(seq.linears[0].weight, np.eye(3))


def test_read_chain_fold_preserves_forward():
    rng = np.random.default_rng(9)
    b = NetworkBuilder()
    i = b.add_input(3)
    W1, b1 = rng.normal(size=(5, 3)), rng.normal(size=5)
    W2, b2 = rng.normal(size=(4, 5)), rng.normal(size=4)
    l1 = b.add_linear(i, W1, b1)
    l2 = b.add_linear(l1, W2, b2)
    raw = b.build(l2)
    folded = _read(raw)
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
    seq = as_sequential(_read(b.build(cur)))
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
    net = b.build(cur)
    with pytest.raises(StructuralError):
        _read(net)
    with pytest.raises(StructuralError):
        simplify(net)


def test_read_chain_rejects_fan_out_and_stray_layers():
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    r1 = b.add_relu(l1, 2)
    b.add_linear(i, np.eye(2), np.zeros(2))  # a second consumer of the input
    with pytest.raises(StructuralError, match="consumers"):
        _read(b.build(r1))
    b = NetworkBuilder()
    i = b.add_input(2)
    l1 = b.add_linear(i, np.eye(2), np.zeros(2))
    b.add_input(2)  # a layer no path from the input reaches
    with pytest.raises(StructuralError, match="not on the"):
        _read(b.build(l1))


# selectors (identity arcs, construction selectors) compose by indexing


def _selector_matrix(rows, in_width):
    M = np.zeros((len(rows), in_width))
    for i, j in enumerate(rows):
        if j >= 0:
            M[i, j] = 1.0
    return M


def test_compose_gives_the_dense_product_bytes_with_negative_zeros():
    rows = np.array([2, -1, 0])
    S = _selector_matrix(rows, 3)
    X = np.array([[-0.0, 1.5], [2.0, -3.0], [-0.0, -0.0]])
    G = np.array([[-0.0, 1.0, -2.0], [0.5, -0.0, 3.0]])
    W, W_rows = _compose(S, rows, X)
    assert W.tobytes() == (S @ X).tobytes() and W_rows is None
    b, _ = _compose(S, rows, X[:, 0])
    assert b.tobytes() == (S @ X[:, 0]).tobytes()
    W, W_rows = _compose(G, None, S, rows)
    assert W.tobytes() == (G @ S).tobytes() and W_rows is None
    inner = np.array([1, 0, -1])
    W, W_rows = _compose(S, rows, _selector_matrix(inner, 3), inner)
    assert W.tobytes() == (S @ _selector_matrix(inner, 3)).tobytes()
    assert W_rows.tolist() == [-1, -1, 1]
    assert np.array_equal(_selector_matrix(W_rows, 3), W)


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


@pytest.mark.parametrize("case", sorted(SELECTOR_CASES))
def test_indexed_composition_keeps_the_dense_products_bytes(case, monkeypatch):
    net, box = SELECTOR_CASES[case]()
    indexed = []

    def spy(M, m_rows, X, x_rows=None):
        indexed.append(m_rows is not None or x_rows is not None)
        return _compose(M, m_rows, X, x_rows)

    monkeypatch.setattr(simplifier, "_compose", spy)
    chain, _ = simplify(net, box)
    assert any(indexed)
    # the reference composes every factor as a dense product
    monkeypatch.setattr(simplifier, "_compose", lambda M, m_rows, X, x_rows=None: (M @ X, None))
    dense, _ = simplify(net, box)
    a, b = as_sequential(chain), as_sequential(dense)
    assert len(a.linears) == len(b.linears)
    for la, lb in zip(a.linears, b.linears):
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()
    xs = box_samples(box, 256, seed=1)
    y0 = forward_batch(net, xs)
    np.testing.assert_allclose(forward_batch(chain, xs), y0, rtol=0, atol=1e-9 * (1 + np.abs(y0).max()))


@pytest.mark.parametrize("case", ["conv_0_2", "residual_block"])
def test_simplify_hands_its_composed_arrays_to_the_layers_uncopied(case, monkeypatch):
    # freeze_array copies a writeable array: each composed array must reach
    # the layers read-only
    net, box = SELECTOR_CASES[case]()
    chains, copied = [], []

    def read_chain(g, real=simplifier._read_chain):
        chains.append(real(g))
        return chains[-1]

    def freeze(a, dtype=np.float64, real=netir.freeze_array):
        out = real(a, dtype)
        if out is not a:
            copied.append(a)
        return out

    monkeypatch.setattr(simplifier, "_read_chain", read_chain)
    monkeypatch.setattr(netir, "freeze_array", freeze)
    out, _ = simplify(net, box)
    seq = as_sequential(out)
    assert len(seq.linears) == len(chains[0].layers) > 1
    for layer, (W, b) in zip(seq.linears, chains[0].layers):
        assert layer.weight.flags.owndata and layer.bias.flags.owndata
        assert layer.weight is W and layer.bias is b
    assert not any(a is c for a in copied for pair in chains[0].layers for c in pair)


def test_a_merged_member_is_no_selector_and_composes_densely():
    # s sums a ReLU with itself: its two identity arcs merge into 2I, and a
    # stale selector index would compose o through it as I and drop the 2
    b = NetworkBuilder()
    i = b.add_input(2)
    r = b.add_relu(b.add_linear(i, np.array([[1.0, -1.0], [2.0, 0.5]]), np.array([0.1, -0.2])), 2)
    s = b.add_sum([r, r], 2)
    O = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.25]])
    b.add_linear(s, O, np.array([1.0, 2.0, 3.0]))
    g = _initialized(b.build())
    assert all(m in g.sel for m in g.preds[s])
    _normalize(g, s)
    (merged,) = g.preds[s]
    assert merged not in g.sel
    np.testing.assert_array_equal(g.weight[merged], 2 * np.eye(2))
    t = _last_block(g)
    _normalize(g, t)
    (m,) = g.preds[t]
    assert g.preds[m] == [r] and m not in g.sel
    np.testing.assert_array_equal(g.weight[m], 2 * O)

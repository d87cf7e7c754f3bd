"""Branch-and-bound verifier and falsification.

The worked example frozen here: proving y_1 <= 11 on the unit box. CROWN at
the root gives margin -1, and one split on the widest unstable neuron
closes both branches with margin 0. CROWN closes y_0 >= -3 at the root. All
numbers are exact in binary floating point.
"""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_B1, FIG1_W1, box_samples, leaf_margins, member, root_margins, root_one, split_one
from redkit import (
    Box,
    Chain,
    LayerPartition,
    PropertySpec,
    bab_verify,
    compute_bounds,
    find_grid_counterexample,
    forward,
    forward_batch,
    from_sequential,
    generate_network,
    reduce_layer,
    reduce_network,
    split_leaf,
    verify_incomplete,
)
from redkit import bounds as bounds_mod
from redkit import kernels
from redkit import verify as verify_mod
from redkit.errors import ContractError
from redkit.bounds import chain_margin_lower_bounds
from redkit.specio import MODE_ALL, MODE_ANY
from redkit.verify import ACTIVE, INACTIVE, TIMED_OUT, UNKNOWN, VERIFIED, LeafBatch


def _spec(unit_box, rows, offsets, name="p"):
    return PropertySpec(unit_box, np.array(rows, dtype=float),
                        np.array(offsets, dtype=float), name=name)


# --- the frozen worked example ---


def _y1_le_11(unit_box):
    """The worked example: unknown at the root, verified after one split."""
    return _spec(unit_box, [[0.0, -1.0]], [11.0], name="y1_le_11")


def test_bab_needs_exactly_one_split(fig1_net, unit_box):
    v = bab_verify(fig1_net, _y1_le_11(unit_box))
    assert v.status == VERIFIED
    assert v.splits == 1
    assert v.bound == 0.0


def test_crown_closes_the_same_property_at_the_root(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0], name="y0_ge_m3")
    v = bab_verify(fig1_net, spec)
    assert v.status == VERIFIED
    assert v.splits == 0
    assert v.bound == 0.0


def test_root_margins_behind_the_example(fig1_net, unit_box):
    assert root_margins(fig1_net, unit_box, [[0.0, -1.0]], [11.0])[0] == -1.0
    assert root_margins(fig1_net, unit_box, [[1.0, 0.0]], [3.0])[0] == 0.0


def test_difference_property_verified_at_the_root(fig1_net, unit_box):
    # y_1 - y_0 = 2 x9 + 2 x12 >= 0, and CROWN sees exactly 2 at the root
    spec = _spec(unit_box, [[-1.0, 1.0]], [0.0])
    v = bab_verify(fig1_net, spec)
    assert v.status == VERIFIED
    assert v.splits == 0
    assert v.bound == 2.0


def test_false_property_comes_back_unknown(fig1_net, unit_box):
    # y_0 - y_1 <= -2 everywhere, so this can never verify
    spec = _spec(unit_box, [[1.0, -1.0]], [0.0])
    v = bab_verify(fig1_net, spec)
    assert v.status == UNKNOWN
    assert v.bound <= -2.0
    assert v.note != ""


def test_vacuous_spec_is_verified_for_free(fig1_net, unit_box):
    spec = PropertySpec(unit_box, np.zeros((0, 2)), np.zeros(0))
    v = bab_verify(fig1_net, spec)
    assert v.status == VERIFIED
    assert v.bound == np.inf
    assert v.splits == 0
    assert "no constraints" in v.note


def test_split_budget_zero_gives_unknown(fig1_net, unit_box):
    v = bab_verify(fig1_net, _y1_le_11(unit_box), max_splits=0)
    assert v.status == UNKNOWN
    assert v.splits == 0
    assert "budget" in v.note


def test_zero_timeout_times_out(fig1_net, unit_box):
    v = bab_verify(fig1_net, _y1_le_11(unit_box), timeout=0.0)
    assert v.status == TIMED_OUT
    assert v.wall_time_s >= 0.0


@pytest.mark.parametrize("budget", [
    {"max_splits": -3}, {"timeout": -1.0}, {"timeout": float("nan")}, {"max_splits": 2.5},
])
def test_an_invalid_budget_is_rejected(fig1_net, unit_box, budget):
    # before: -3 splits gave "split budget exhausted", -1 s a timeout, and a
    # NaN timeout never fired because elapsed > nan is always false
    with pytest.raises(ContractError, match="max_splits|timeout"):
        bab_verify(fig1_net, _y1_le_11(unit_box), **budget)


def test_bab_is_deterministic(fig1_net, unit_box):
    runs = [bab_verify(fig1_net, _y1_le_11(unit_box)) for _ in range(3)]
    assert len({(v.status, v.bound, v.splits, v.note) for v in runs}) == 1


def test_verdict_verified_flag(fig1_net, unit_box):
    spec = _y1_le_11(unit_box)
    assert bab_verify(fig1_net, spec).verified
    assert not bab_verify(fig1_net, spec, timeout=0.0).verified


# --- splitting ---


def _unstable_count(leaf):
    return sum(int(((lo < 0) & (hi > 0)).sum()) for lo, hi in zip(leaf.lower, leaf.upper))


def _pre_activations(chain, xs):
    """Pre-activations of every hidden layer at each row of xs."""
    out, h = [], xs
    for W, b in chain.layers[: chain.n_relu]:
        z = h @ W.T + b
        out.append(z)
        h = np.maximum(z, 0.0)
    return out


def test_sign_split_removes_the_instability(fig1_net, unit_box):
    chain = Chain.of(fig1_net)
    root = root_one(chain, unit_box)
    base = _unstable_count(root)
    assert base > 0
    for sign in (INACTIVE, ACTIVE):
        child = split_one(chain, unit_box, root, 0, 4, sign)
        assert _unstable_count(child) < base
        assert child.signs[0][4] == sign
        assert root.signs[0][4] == 0  # the parent keeps its own state


def test_sign_split_branches_partition_the_behavior(fig1_net, unit_box):
    # on the half-box where neuron 4 is active the active branch's ranges and
    # margin bound hold, and similarly for the inactive branch
    chain = Chain.of(fig1_net)
    root = root_one(chain, unit_box)
    kids = {s: split_one(chain, unit_box, root, 0, 4, s) for s in (ACTIVE, INACTIVE)}
    bound = {s: leaf_margins(chain, unit_box, kid, [[1.0, 0.0]], [3.0])[0]
             for s, kid in kids.items()}
    for x in box_samples(unit_box, 200, seed=11):
        pre = -x[0] + x[1]  # neuron 4 pre-activation in the worked network
        s = ACTIVE if pre >= 0 else INACTIVE
        (z,) = _pre_activations(chain, x[None, :])
        assert np.all(kids[s].lower[0] - 1e-12 <= z[0]) and np.all(z[0] <= kids[s].upper[0] + 1e-12)
        assert forward(fig1_net, x)[0] + 3.0 >= bound[s] - 1e-9


def test_sign_split_rejects_bad_layer_neuron_and_sign(fig1_net, unit_box):
    chain = Chain.of(fig1_net)
    root = root_one(chain, unit_box)
    with pytest.raises(ContractError, match="no hidden layer"):
        split_one(chain, unit_box, root, 5, 0, ACTIVE)
    with pytest.raises(ContractError, match="no neuron"):
        split_one(chain, unit_box, root, 0, 5, ACTIVE)
    for sign in (0, 2, "sideways"):
        with pytest.raises(ContractError, match="sign"):
            split_one(chain, unit_box, root, 0, 0, sign)


def _surgery_child(net, k, j, sign, table, box):
    """The branch network the verifier used to build: pin by layer surgery."""
    pairs = list(Chain.of(net).layers)
    width = pairs[k][0].shape[0]
    others = np.setdiff1d(np.arange(width), [j])
    none = np.empty(0, np.int64)
    if sign == INACTIVE:
        part = LayerPartition(np.array([j]), none, others, width)
    else:
        part = LayerPartition(none, np.array([j]), others, width)
    v_range = (box.lower, box.upper) if k == 0 else table.post_activation(k - 1)
    x, z = pairs[k], pairs[k + 1]
    if sign == ACTIVE:  # the pinned row stays, shifted into the nonnegative range
        shift = np.zeros(width)
        shift[j] = max(0.0, -table.pre_activation(k)[0][j])
        x, z = (x[0], x[1] + shift), (z[0], z[1] - z[0] @ shift)
    pairs[k : k + 2], _ = reduce_layer(x, z, part, v_range)
    return from_sequential(pairs, net.input_layer.width)


def _generated(n_hidden, width, n_in, n_out, seed):
    net, sidecar = generate_network(n_hidden, width, n_in, n_out, stable_fraction=0.4, seed=seed)
    return net, Box(np.asarray(sidecar["box"]["lower"]), np.asarray(sidecar["box"]["upper"]))


# table is the bounds table the surgery child takes its ranges from; the
# split child is always bound by CROWN. The comparison holds on these nets
# but is no theorem: a pin that tightens a range can flip CROWN's adaptive
# lower line of a neuron below it, so on (4, 8, 3, 3, 3) and (2, 12, 3, 3, 0)
# the split child comes out looser than the surgery child.
_SURGERY_CASES = [
    ("fig1", "interval"),
    ("fig1", "crown"),
    ((3, 10, 4, 3, 1), "crown"),
    ((3, 10, 4, 3, 1), "interval"),
    ((3, 16, 6, 3, 4), "crown"),
    ((3, 48, 8, 1, 5), "crown"),
    ((4, 32, 8, 1, 6), "crown"),
]


@pytest.mark.parametrize("net_cfg,table", _SURGERY_CASES)
def test_sign_split_child_is_no_looser_than_the_surgery_child(net_cfg, table, fig1_net, unit_box):
    if net_cfg == "fig1":
        net, box = fig1_net, unit_box
        C, d = np.array([[1.0, 0.0], [1.0, -1.0]]), np.array([3.0, 0.0])
    else:
        net, box = _generated(*net_cfg)
        n_out = net_cfg[3]
        C, d = np.vstack([np.eye(n_out)[:1], np.eye(n_out)[:1] - np.eye(n_out)[-1:]]), np.zeros(2)
    chain = Chain.of(net)
    table = compute_bounds(net, box, table)
    root = root_one(chain, box)
    checked = 0
    for k in range(chain.n_relu):
        for j in np.flatnonzero((root.lower[k] < 0) & (root.upper[k] > 0))[:6]:
            for sign in (ACTIVE, INACTIVE):
                child = split_one(chain, box, root, k, j, sign)
                surgery = _surgery_child(net, k, j, sign, table, box)
                old = root_margins(surgery, box, C, d)
                if child is None:  # an empty region needs no bound
                    continue
                new = leaf_margins(chain, box, child, C, d)
                assert np.all(new >= old - 1e-9), (k, j, sign, new, old)
                checked += 1
    assert checked >= 2


# b = relu(a) - 0.5 can only be active when a is: pinning b active and then a
# inactive leaves no point of the box
_EMPTY_WB = [
    (np.array([[1.0]]), np.array([0.0])),
    (np.array([[1.0]]), np.array([-0.5])),
    (np.array([[1.0]]), np.array([0.0])),
]


# found_by names the bound that finds the region empty: pinned b first, the
# CROWN pass that bounds b again under a's pin; pinned a first, the clamp of
# b's own range, which a's pin has already made [-0.5, -0.5].
@pytest.mark.parametrize("found_by", ["crown", "interval"])
def test_contradictory_pins_close_the_leaf(found_by):
    chain = Chain.of(from_sequential(_EMPTY_WB, 1))
    box = Box(np.array([-1.0]), np.array([1.0]))
    root = root_one(chain, box)
    if found_by == "crown":
        b_active = split_one(chain, box, root, 1, 0, ACTIVE)
        assert b_active is not None
        assert split_one(chain, box, b_active, 0, 0, INACTIVE) is None
        assert split_one(chain, box, b_active, 0, 0, ACTIVE) is not None
    else:
        a_inactive = split_one(chain, box, root, 0, 0, INACTIVE)
        assert a_inactive is not None
        assert a_inactive.upper[1][0] < 0
        assert split_one(chain, box, a_inactive, 1, 0, ACTIVE) is None
        assert split_one(chain, box, a_inactive, 1, 0, INACTIVE) is not None


def test_bab_closes_an_empty_leaf_instead_of_giving_up(monkeypatch):
    # b0 = relu(3 a1 - 1) can only be active when a1 is. b0 is the widest
    # unstable neuron ([-1, 14]), so BaB pins it first, then a1 in both
    # children; in b0's active branch the inactive side of a1 is empty. The
    # property y = b1 / 2 - 1 >= -1 holds with equality where b1 = 0.
    wb = [
        (np.array([[2.0, -1.0], [1.5, -2.0]]), np.array([2.0, 1.5])),
        (np.array([[0.0, 3.0], [-1.5, 1.0]]), np.array([-1.0, 1.5])),
        (np.array([[0.0, 0.5]]), np.array([-1.0])),
    ]
    net = from_sequential(wb, 2)
    box = Box(-np.ones(2), np.ones(2))
    spec = PropertySpec(box, np.array([[1.0]]), np.array([1.0]), name="y_ge_m1")
    empty = []
    real_split = verify_mod.split_leaf

    def counting_split(chain, box, leaf, k, j, sign, *rest):
        child = real_split(chain, box, leaf, k, j, sign, *rest)
        for b in np.flatnonzero(child.empty):
            empty.append((k[b], j[b], sign[b], leaf.signs[1][b][0]))
        return child

    monkeypatch.setattr(verify_mod, "split_leaf", counting_split)
    v = bab_verify(net, spec)
    assert v.status == VERIFIED
    assert v.splits == 3
    assert v.bound == 0.0
    assert empty == [(0, 1, INACTIVE, ACTIVE)]
    assert find_grid_counterexample(net, spec, budget=10_000) is None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_pins=st.integers(1, 4),
)
def test_pinned_leaf_bounds_hold_on_their_sign_region(seed, n_pins):
    rng = np.random.default_rng(seed)
    widths = [2, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 2]
    wb = [(rng.normal(scale=1.2, size=(o, i)), rng.normal(scale=0.5, size=o))
          for i, o in zip(widths, widths[1:])]
    chain = Chain.of(from_sequential(wb, widths[0]))
    box = Box(-np.ones(2), np.ones(2))
    leaf = root_one(chain, box)
    pins = []
    for _ in range(n_pins):
        free = [(k, j) for k in range(chain.n_relu)
                for j in np.flatnonzero((leaf.lower[k] < 0) & (leaf.upper[k] > 0))]
        if not free:
            break
        k, j = free[int(rng.integers(len(free)))]
        sign = int(rng.choice([ACTIVE, INACTIVE]))
        pins.append((k, j, sign))
        leaf = split_one(chain, box, leaf, k, j, sign)
        if leaf is None:
            break
    xs = box.sample(3000, rng)
    pre = _pre_activations(chain, xs)
    inside = np.ones(len(xs), dtype=bool)
    for k, j, sign in pins:
        inside &= pre[k][:, j] * sign >= 0.0
    if leaf is None:
        assert not inside.any(), "an empty leaf holds a sampled point"
        return
    for k in range(chain.n_relu):
        z = pre[k][inside]
        mag = 1e-9 * (1.0 + np.abs(z).max(initial=0.0))
        assert np.all(z >= leaf.lower[k] - mag) and np.all(z <= leaf.upper[k] + mag)
    C, d = np.array([[1.0, -1.0]]), np.array([0.0])
    bound = leaf_margins(chain, box, leaf, C, d)[0]
    ys = forward_batch(from_sequential(wb, widths[0]), xs[inside])
    if len(ys):
        assert (ys @ C.T + d).min() >= bound - 1e-9


# --- what a child bounds again in the last hidden layer ---


def _record_last_layer_passes(monkeypatch, chain):
    """Monkeypatch the kernels to record, per interval step on the last hidden
    layer, the neurons it bounds, and per concretized backward pass its row count."""
    W_last = chain.layers[chain.n_relu - 1][0]
    sent, backward = [], []
    interval, concretize = kernels.interval_affine, kernels.concretize

    def recording_interval(W, *rest):
        if W.shape[1] == W_last.shape[1]:
            sent.append([int(np.flatnonzero((W_last == w).all(axis=1))[0]) for w in W])
        return interval(W, *rest)

    def recording_concretize(A, *rest, **kw):
        backward.append(A.shape[1])
        return concretize(A, *rest, **kw)

    monkeypatch.setattr(kernels, "interval_affine", recording_interval)
    monkeypatch.setattr(kernels, "concretize", recording_concretize)
    return sent, backward


def test_a_child_bounds_again_only_the_last_layer_rows_its_parent_leaves_open(monkeypatch):
    # the parent proves some last-layer neurons active and one more is pinned
    # active: a split above bounds that layer again on its unstable rows and
    # the pinned one, whose range may yet show the region empty; the rows
    # the parent proves active or dead keep their ranges
    net, box = _generated(2, 10, 3, 1, 0)
    chain = Chain.of(net)
    root = root_one(chain, box)
    lo, hi = root.lower[1], root.upper[1]
    unstable = np.flatnonzero((lo < 0) & (hi > 0))
    assert (lo >= 0).any() and (hi <= 0).any() and len(unstable) > 1
    parent = split_one(chain, box, root, 1, unstable[0], ACTIVE)
    j = np.flatnonzero((parent.lower[0] < 0) & (parent.upper[0] > 0))[0]
    kept = ~np.isin(np.arange(len(lo)), unstable)
    sent, backward = _record_last_layer_passes(monkeypatch, chain)
    for sign in (ACTIVE, INACTIVE):
        child = split_one(chain, box, parent, 0, j, sign)
        if child is not None:
            assert np.array_equal(child.lower[1][kept], parent.lower[1][kept])
            assert np.array_equal(child.upper[1][kept], parent.upper[1][kept])
    assert sent == [list(unstable)] * 2
    assert backward == [len(unstable)] * 4


def test_a_last_layer_with_no_open_row_runs_no_pass(monkeypatch, unit_box):
    # the last hidden layer has one neuron active and one dead on the whole
    # box, so a split of the first layer bounds nothing again
    wb = [(FIG1_W1, FIG1_B1), (np.array([[1.0] * 5, [-1.0] * 5]), np.array([1.0, -20.0])),
          (np.array([[1.0, 1.0]]), np.zeros(1))]
    chain = Chain.of(from_sequential(wb, 2))
    root = root_one(chain, unit_box)
    sent, backward = _record_last_layer_passes(monkeypatch, chain)
    for sign in (ACTIVE, INACTIVE):
        child = split_one(chain, unit_box, root, 0, 4, sign)
        assert np.array_equal(child.lower[1], root.lower[1])
        assert np.array_equal(child.upper[1], root.upper[1])
    assert sent == [] and backward == []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_pins=st.integers(1, 5),
)
def test_kept_last_layer_ranges_hold_on_the_sign_region(seed, n_pins):
    # chains of 3 or 4 hidden layers: each split above the last one keeps the
    # parent's range of every unpinned last-layer neuron it proves active,
    # and that range holds on the child's sign region
    rng = np.random.default_rng(seed)
    widths = [2] + [int(rng.integers(3, 7)) for _ in range(int(rng.integers(3, 5)))] + [1]
    wb = [(rng.normal(scale=1.2, size=(o, i)), rng.normal(scale=0.5, size=o))
          for i, o in zip(widths, widths[1:])]
    chain = Chain.of(from_sequential(wb, widths[0]))
    last = chain.n_relu - 1
    box = Box(-np.ones(2), np.ones(2))
    xs = box.sample(3000, rng)
    pre = _pre_activations(chain, xs)
    leaf, inside = root_one(chain, box), np.ones(len(xs), dtype=bool)
    for _ in range(n_pins):
        free = [(k, j) for k in range(last)
                for j in np.flatnonzero((leaf.lower[k] < 0) & (leaf.upper[k] > 0))]
        if not free:
            break
        k, j = free[int(rng.integers(len(free)))]
        sign = int(rng.choice([ACTIVE, INACTIVE]))
        child = split_one(chain, box, leaf, k, j, sign)
        inside &= pre[k][:, j] * sign >= 0.0
        if child is None:
            assert not inside.any(), "an empty leaf holds a sampled point"
            return
        kept = (leaf.lower[last] >= 0.0) & (leaf.signs[last] == 0)
        assert np.array_equal(child.lower[last][kept], leaf.lower[last][kept])
        assert np.array_equal(child.upper[last][kept], leaf.upper[last][kept])
        z = pre[last][inside][:, kept]
        mag = 1e-9 * (1.0 + np.abs(z).max(initial=0.0))
        assert np.all(z >= child.lower[last][kept] - mag)
        assert np.all(z <= child.upper[last][kept] + mag)
        leaf = child


# nets on which re-bounding the last hidden layer in full turned a neuron
# that an ancestor proves active unstable again
@pytest.mark.parametrize("seed", [3, 52, 94])
def test_a_descendant_never_splits_a_last_layer_neuron_an_ancestor_proves_active(seed):
    rng = np.random.default_rng(seed)
    widths = [2] + [int(rng.integers(3, 8)) for _ in range(int(rng.integers(2, 5)))] + [1]
    wb = [(rng.normal(scale=1.2, size=(o, i)), rng.normal(scale=0.5, size=o))
          for i, o in zip(widths, widths[1:])]
    chain = Chain.of(from_sequential(wb, 2))
    box = Box(-np.ones(2), np.ones(2))
    last = chain.n_relu - 1
    leaf = root_one(chain, box)
    proved = leaf.lower[last] >= 0.0  # active in some ancestor
    for _ in range(6):
        layers, neurons = verify_mod._widest_unstable(leaf.batch.lower, leaf.batch.upper)
        if layers[0] < 0:
            break
        leaf = split_one(chain, box, leaf, int(layers[0]), int(neurons[0]),
                         int(rng.choice([ACTIVE, INACTIVE])))
        if leaf is None:
            break
        assert np.all(leaf.lower[last][proved] >= 0.0)
        layers, neurons = verify_mod._widest_unstable(leaf.batch.lower, leaf.batch.upper)
        assert not (layers[0] == last and proved[neurons[0]])
        proved |= leaf.lower[last] >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    slack=st.floats(-0.1, 0.3),
)
def test_verified_bab_has_no_grid_counterexample(seed, slack):
    rng = np.random.default_rng(seed)
    widths = [2, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 1]
    wb = [(rng.normal(scale=1.2, size=(o, i)), rng.normal(scale=0.5, size=o))
          for i, o in zip(widths, widths[1:])]
    net = from_sequential(wb, widths[0])
    box = Box(-np.ones(2), np.ones(2))
    ys = forward_batch(net, box.sample(2000, rng))[:, 0]
    t = ys.min() - slack * (ys.max() - ys.min())
    spec = PropertySpec(box, np.array([[1.0]]), np.array([-t]), name="y_ge_t")
    v = bab_verify(net, spec, max_splits=60)
    if v.verified:
        assert find_grid_counterexample(net, spec, budget=4096, seed=1) is None


def test_bab_decides_a_chain_with_no_hidden_layer():
    # no hidden layer carries the batch axis of the root's margins; bab_verify
    # used to fail on that with an AxisError
    net = from_sequential([([[1.0, -1.0]], [0.0])], 2)
    box = Box(np.zeros(2), np.ones(2))
    fails = PropertySpec(box, np.array([[1.0]]), np.array([0.5]), name="y_ge_m0.5")
    assert verify_incomplete(net, fails).bound == -0.5
    v = bab_verify(net, fails)
    assert (v.status, v.bound, v.splits) == (UNKNOWN, -0.5, 0)
    assert v.note == "affine leaf bound is negative"
    holds = PropertySpec(box, np.array([[1.0]]), np.array([1.0]), name="y_ge_m1")
    v = bab_verify(net, holds)
    assert (v.status, v.bound, v.splits) == (VERIFIED, 0.0, 0)


def test_bab_decides_a_reduction_that_removed_every_relu():
    # both hidden neurons are dead on the box, so the reduced net is the
    # constant 0.25 with no ReLU left
    net = from_sequential([(np.eye(2), -2.0 * np.ones(2)), (np.array([[1.0, -1.0]]), [0.25])], 2)
    box = Box(np.zeros(2), np.ones(2))
    reduced, report = reduce_network(net, box)
    assert report.relu_after == 0 and Chain.of(reduced).n_relu == 0
    v = bab_verify(reduced, PropertySpec(box, np.array([[1.0]]), np.array([0.5])))
    assert (v.status, v.bound) == (VERIFIED, 0.75)
    v = bab_verify(reduced, PropertySpec(box, np.array([[1.0]]), np.array([-0.5])))
    assert (v.status, v.bound) == (UNKNOWN, -0.25)


# --- batches of leaves ---


def _widest_unstable_loop(leaf):
    """Reference: the earliest (layer, neuron) of strictly greatest unstable width."""
    best, best_w = None, 0.0
    for k, (lo, hi) in enumerate(zip(leaf.lower, leaf.upper)):
        for j in range(lo.shape[0]):
            if lo[j] < 0.0 < hi[j] and hi[j] - lo[j] > best_w:
                best, best_w = (k, j), hi[j] - lo[j]
    return best


def _random_leaf(chain, box, rng, depth):
    """A leaf reached from the root by depth random pins (fewer when none is left)."""
    leaf = root_one(chain, box)
    for _ in range(depth):
        free = [(k, j) for k in range(chain.n_relu)
                for j in np.flatnonzero((leaf.lower[k] < 0) & (leaf.upper[k] > 0))]
        if not free:
            break
        k, j = free[int(rng.integers(len(free)))]
        child = split_one(chain, box, leaf, k, j, int(rng.choice([ACTIVE, INACTIVE])))
        if child is None:
            break
        leaf = child
    return leaf


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(2, 8),
)
def test_batched_split_matches_looped_splits(seed, size):
    rng = np.random.default_rng(seed)
    net, box = _generated(int(rng.integers(1, 4)), int(rng.integers(3, 9)), 2, 2, seed % 10_000)
    chain = Chain.of(net)
    parents, splits = [], []
    for _ in range(size):
        leaf = _random_leaf(chain, box, rng, int(rng.integers(0, 4)))
        free = [(k, j) for k in range(chain.n_relu)
                for j in np.flatnonzero((leaf.lower[k] < 0) & (leaf.upper[k] > 0))]
        if free:
            parents.append(leaf)
            splits.append(free[int(rng.integers(len(free)))] + (int(rng.choice([ACTIVE, INACTIVE])),))
    if not parents:
        return
    ks, js, signs = zip(*splits)
    batch = split_leaf(chain, box, LeafBatch.concat([p.batch for p in parents]), ks, js, signs)
    C, d = np.array([[1.0, -1.0]]), np.array([0.0])
    W, b = chain.layers[-1]
    margins = chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], C @ W,
                                        C @ b + d, batch.relaxations)
    xs = np.vstack([box.sample(2000, rng), box.lower, box.upper])
    pre = _pre_activations(chain, xs)
    ys = forward_batch(net, xs) @ C.T + d
    layers, neurons = verify_mod._widest_unstable(batch.lower, batch.upper)
    for i, (parent, (k, j, sign)) in enumerate(zip(parents, splits)):
        looped = split_one(chain, box, parent, k, j, sign)
        inside = np.ones(len(xs), dtype=bool)
        for layer, pins in enumerate(batch.signs):
            for n in np.flatnonzero(pins[i]):
                inside &= pre[layer][:, n] * pins[i][n] >= 0.0
        assert bool(batch.empty[i]) == (looped is None)
        if looped is None:
            assert not inside.any(), "an empty leaf holds a sampled point"
            continue
        child = member(batch, i)
        for layer in range(chain.n_relu):
            assert np.array_equal(child.signs[layer], looped.signs[layer])
            _close(child.lower[layer], looped.lower[layer])
            _close(child.upper[layer], looped.upper[layer])
            z = pre[layer][inside]
            mag = 1e-9 * (1.0 + np.abs(z).max(initial=0.0))
            assert np.all(z >= child.lower[layer] - mag) and np.all(z <= child.upper[layer] + mag)
        for got, want in zip(child.relaxations, looped.relaxations):
            for line in ("slope_lo", "slope_up", "icpt_up"):
                _close(getattr(got, line), getattr(want, line))
        want = leaf_margins(chain, box, looped, C, d)
        _close(margins[i], want)
        if inside.any():
            assert ys[inside].min() >= margins[i].min() - 1e-9
        expect = _widest_unstable_loop(child)
        assert (layers[i], neurons[i]) == (expect if expect else (-1, neurons[i]))


def test_widest_unstable_breaks_ties_toward_the_lowest_neuron():
    # member 0 ties at width 2 on (0, 1), (1, 0) and (1, 2), and the earliest
    # wins over the stable (0, 0) and the single point (0, 2); member 1 has
    # nothing unstable; member 2's widest is (1, 2)
    lower = (np.array([[0.5, -1.0, 0.0, -0.5], [0.0, 0.0, 0.0, 0.0], [-1.0, -1.0, -1.0, -3.0]]),
             np.array([[-1.0, -0.5, -1.0], [0.0, 0.0, 0.0], [-0.5, -0.5, -1.0]]))
    upper = (np.array([[2.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, -1.0]]),
             np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, 1.0, 3.0]]))
    layers, neurons = verify_mod._widest_unstable(lower, upper)
    for b in range(3):
        leaf = SimpleNamespace(lower=tuple(lo[b] for lo in lower), upper=tuple(hi[b] for hi in upper))
        expect = _widest_unstable_loop(leaf)
        assert (layers[b] >= 0) == (expect is not None)
        if expect is not None:
            assert (layers[b], neurons[b]) == expect
    assert [(int(k), int(j)) for k, j in zip(layers, neurons)][0::2] == [(0, 1), (1, 2)]


def _small_net(seed):
    rng = np.random.default_rng(seed)
    widths = [2, int(rng.integers(3, 7)), int(rng.integers(2, 5)), 1]
    wb = [(rng.normal(scale=1.2, size=(o, i)), rng.normal(scale=0.5, size=o))
          for i, o in zip(widths, widths[1:])]
    return from_sequential(wb, 2), Box(-np.ones(2), np.ones(2)), rng


# (net, slack): small random nets whose property BaB verifies after 6 to 50
# splits or leaves unknown, and generated chains it leaves unknown
_CAP_CASES = [
    (("small", 72), 0.4), (("small", 9), 0.25), (("small", 26), 0.35), (("small", 32), 0.1),
    (("small", 59), 0.7), (("small", 10), 0.0), (("small", 4), 0.05), (("gen", 101), 0.0),
    (("gen", 104), -0.01), (("gen", 105), 0.05),
]


@pytest.mark.parametrize("net_cfg,slack", _CAP_CASES)
def test_batch_cap_keeps_the_verdict(monkeypatch, net_cfg, slack):
    kind, seed = net_cfg
    if kind == "small":
        net, box, rng = _small_net(seed)
    else:
        net, box = _generated(3, 8, 2, 1, seed)
        rng = np.random.default_rng(seed)
    ys = forward_batch(net, box.sample(4000, rng))[:, 0]
    t = ys.min() - slack * (ys.max() - ys.min())
    spec = PropertySpec(box, np.array([[1.0]]), np.array([-t]), name="y_ge_t")
    batched = bab_verify(net, spec, max_splits=300)
    monkeypatch.setattr(verify_mod, "BATCH", 1)
    single = bab_verify(net, spec, max_splits=300)
    assert batched.status == single.status
    if batched.verified:
        # the whole tree closed either way; the cap only changes the order
        assert batched.splits == single.splits > 0
        assert find_grid_counterexample(net, spec, budget=4096, seed=seed) is None


# --- grid falsification ---


def test_grid_finds_a_counterexample(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [0.0], name="y0_ge_0")  # false: y0 hits -3
    x = find_grid_counterexample(fig1_net, spec, budget=10_000, seed=0)
    assert x is not None
    assert np.all(x >= unit_box.lower - 1e-12) and np.all(x <= unit_box.upper + 1e-12)
    assert spec.is_counterexample(forward(fig1_net, x))


def test_grid_respects_a_true_property(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    assert find_grid_counterexample(fig1_net, spec, budget=10_000, seed=0) is None


@pytest.mark.parametrize("mode", [MODE_ANY, MODE_ALL])
def test_grid_finds_nothing_against_a_spec_with_no_rows(fig1_net, unit_box, mode):
    # .all() over no rows is true: the box centre must not come back
    spec = PropertySpec(unit_box, np.zeros((0, 2)), np.zeros(0), mode=mode)
    assert find_grid_counterexample(fig1_net, spec, budget=100, seed=0) is None
    assert verify_incomplete(fig1_net, spec).verified


def test_grid_budget_must_be_positive(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    with pytest.raises(ContractError, match="budget"):
        find_grid_counterexample(fig1_net, spec, budget=0)


@pytest.mark.parametrize("kwargs", [
    {"budget": -4}, {"budget": 2.5}, {"budget": True}, {"budget": "64"},
    {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "0"},
])
def test_grid_rejects_a_budget_or_seed_that_is_not_a_count(fig1_net, unit_box, kwargs):
    # before: 2.5 and "64" raised a raw TypeError, seed -1 numpy's
    # ValueError, and True counted as a budget of 1
    spec = _spec(unit_box, [[1.0, 0.0]], [0.0])
    with pytest.raises(ContractError, match=next(iter(kwargs))):
        find_grid_counterexample(fig1_net, spec, **kwargs)


def test_grid_takes_numpy_integers(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [0.0])
    want = find_grid_counterexample(fig1_net, spec, budget=500, seed=2)
    got = find_grid_counterexample(fig1_net, spec, budget=np.int64(500), seed=np.uint8(2))
    assert want is not None and np.array_equal(got, want)


def test_grid_counterexample_is_deterministic(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [0.0])
    a = find_grid_counterexample(fig1_net, spec, budget=5000, seed=3)
    b = find_grid_counterexample(fig1_net, spec, budget=5000, seed=3)
    assert np.array_equal(a, b)


# --- the root that verify_incomplete hands to bab_verify ---


def _root_passes(monkeypatch):
    """Record each root pass: a bounds.bound_layers call from layer 0."""
    passes = []
    real = bounds_mod.bound_layers

    def counting(*args, start=0, **kwargs):
        if start == 0:
            passes.append(start)
        return real(*args, start=start, **kwargs)

    monkeypatch.setattr(bounds_mod, "bound_layers", counting)
    monkeypatch.setattr(verify_mod, "bound_layers", counting)
    return passes


def _handoff_case(seed=101):
    """A generated chain with root-dead neurons and a property that needs splits."""
    net, box = _generated(3, 8, 2, 1, seed)
    ys = forward_batch(net, box.sample(4000, np.random.default_rng(seed)))[:, 0]
    t = ys.min() - 0.05 * (ys.max() - ys.min())
    return net, PropertySpec(box, np.array([[1.0]]), np.array([-t]), name="y_ge_t")


def _outcome(v):
    return v.status, v.bound, v.splits, v.note


def test_bab_verify_takes_over_the_root_of_verify_incomplete(monkeypatch):
    net, spec = _handoff_case()
    root = verify_mod.root_leaf(Chain.of(net), spec.box)
    assert any((hi <= 0.0).any() for hi in root.upper)  # the live chain is narrower
    alone = bab_verify(net, spec, max_splits=300)  # no verify_incomplete before it
    assert alone.splits > 0
    passes = _root_passes(monkeypatch)
    assert not verify_incomplete(net, spec).verified
    assert len(passes) == 1
    taken = bab_verify(net, spec, max_splits=300)
    assert len(passes) == 1  # no second root pass
    assert _outcome(taken) == _outcome(alone)
    # the hand-off is one-shot: a second bab_verify bounds its own root
    assert _outcome(bab_verify(net, spec, max_splits=300)) == _outcome(alone)
    assert len(passes) == 2


def test_another_box_or_network_bounds_its_own_root(monkeypatch):
    net, spec = _handoff_case()
    other_net, _ = _handoff_case()
    box = spec.box
    smaller = PropertySpec(Box(box.lower, box.lower + 0.5 * box.widths), spec.rows,
                           spec.offsets, name="smaller")
    alone = {name: bab_verify(n, s, max_splits=300)
             for name, n, s in (("other_box", net, smaller), ("other_net", other_net, spec))}
    passes = _root_passes(monkeypatch)
    verify_incomplete(net, spec)
    assert _outcome(bab_verify(net, smaller, max_splits=300)) == _outcome(alone["other_box"])
    assert len(passes) == 2
    verify_incomplete(net, spec)
    assert _outcome(bab_verify(other_net, spec, max_splits=300)) == _outcome(alone["other_net"])
    assert len(passes) == 4
    # a root bounded on an equal box taken from another spec object is taken over
    same_box = PropertySpec(Box(box.lower.copy(), box.upper.copy()), spec.rows, spec.offsets)
    bab_verify(net, same_box, max_splits=300)
    assert len(passes) == 4


def test_a_root_left_by_verify_incomplete_dies_with_its_network():
    net, spec = _handoff_case()
    verify_incomplete(net, spec)
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None

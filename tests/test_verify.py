"""Branch-and-bound verifier, falsification, and the benchmark harness.

The worked example frozen here: proving y_0 >= -3 on the unit box. Interval
arithmetic at the root gives margin -4, one split on the widest unstable
neuron makes both branches stable-affine and exactly nonnegative; crown
already closes the root. All numbers are exact in binary floating point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box_samples
from redkit import (
    Box,
    Chain,
    LayerPartition,
    PropertySpec,
    as_sequential,
    bab_verify,
    bench_pair,
    compute_bounds,
    find_grid_counterexample,
    forward,
    forward_batch,
    from_sequential,
    generate_network,
    margin_lower_bounds,
    reduce_layer,
    root_leaf,
    split_leaf,
)
from redkit import verify as verify_mod
from redkit.bounds import chain_margin_lower_bounds
from redkit.errors import ContractError
from redkit.verify import ACTIVE, INACTIVE, TIMED_OUT, UNKNOWN, VERIFIED


def _spec(unit_box, rows, offsets, name="p"):
    return PropertySpec(unit_box, np.array(rows, dtype=float),
                        np.array(offsets, dtype=float), name=name)


# --- the frozen worked example ---


def test_interval_bab_needs_exactly_one_split(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0], name="y0_ge_m3")
    v = bab_verify(fig1_net, spec, method="interval")
    assert v.status == VERIFIED
    assert v.splits == 1
    assert v.bound == 0.0


def test_crown_closes_the_same_property_at_the_root(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    v = bab_verify(fig1_net, spec, method="crown")
    assert v.status == VERIFIED
    assert v.splits == 0
    assert v.bound == 0.0


def test_root_margins_behind_the_example(fig1_net, unit_box):
    from redkit import margin_lower_bound
    c = np.array([[1.0, 0.0]])
    d = np.array([3.0])
    assert margin_lower_bound(fig1_net, unit_box, c, d, method="interval") == -4.0
    assert margin_lower_bound(fig1_net, unit_box, c, d, method="crown") == 0.0


def test_difference_property_verified_by_interval(fig1_net, unit_box):
    # y_1 - y_0 = 2 x9 + 2 x12 >= 0, and interval sees exactly 2 at the root
    spec = _spec(unit_box, [[-1.0, 1.0]], [0.0])
    v = bab_verify(fig1_net, spec, method="interval")
    assert v.status == VERIFIED
    assert v.splits == 0
    assert v.bound == 2.0


def test_false_property_comes_back_unknown(fig1_net, unit_box):
    # y_0 - y_1 <= -2 everywhere, so this can never verify
    spec = _spec(unit_box, [[1.0, -1.0]], [0.0])
    v = bab_verify(fig1_net, spec, method="crown")
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
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    v = bab_verify(fig1_net, spec, method="interval", max_splits=0)
    assert v.status == UNKNOWN
    assert v.splits == 0
    assert "budget" in v.note


def test_zero_timeout_times_out(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    v = bab_verify(fig1_net, spec, method="interval", timeout=0.0)
    assert v.status == TIMED_OUT
    assert v.wall_time_s >= 0.0


def test_bab_is_deterministic(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    runs = [bab_verify(fig1_net, spec, method="interval") for _ in range(3)]
    assert len({(v.status, v.bound, v.splits, v.note) for v in runs}) == 1


def test_verdict_verified_flag(fig1_net, unit_box):
    spec = _spec(unit_box, [[-1.0, 1.0]], [0.0])
    assert bab_verify(fig1_net, spec, method="interval").verified
    assert not bab_verify(fig1_net, spec, method="interval", timeout=0.0).verified


# --- splitting ---


def _unstable_count(leaf):
    return sum(int(((lo < 0) & (hi > 0)).sum()) for lo, hi in zip(leaf.lower, leaf.upper))


def _leaf_margins(chain, box, leaf, C, d, method):
    W, b = chain.layers[-1]
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return chain_margin_lower_bounds(
        chain, box, C @ W, C @ b + np.asarray(d, dtype=float), method,
        leaf.lower, leaf.upper, leaf.relaxations,
    )


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
    root = root_leaf(chain, unit_box, "interval")
    base = _unstable_count(root)
    assert base > 0
    for sign in (INACTIVE, ACTIVE):
        child = split_leaf(chain, unit_box, root, 0, 4, sign, "interval")
        assert _unstable_count(child) < base
        assert child.signs[0][4] == sign
        assert root.signs[0][4] == 0  # the parent keeps its own state


def test_sign_split_branches_partition_the_behavior(fig1_net, unit_box):
    # on the half-box where neuron 4 is active the active branch's ranges and
    # margin bound hold, and similarly for the inactive branch
    chain = Chain.of(fig1_net)
    root = root_leaf(chain, unit_box, "interval")
    kids = {s: split_leaf(chain, unit_box, root, 0, 4, s, "interval") for s in (ACTIVE, INACTIVE)}
    bound = {s: _leaf_margins(chain, unit_box, kid, [[1.0, 0.0]], [3.0], "interval")[0]
             for s, kid in kids.items()}
    for x in box_samples(unit_box, 200, seed=11):
        pre = -x[0] + x[1]  # neuron 4 pre-activation in the worked network
        s = ACTIVE if pre >= 0 else INACTIVE
        (z,) = _pre_activations(chain, x[None, :])
        assert np.all(kids[s].lower[0] - 1e-12 <= z[0]) and np.all(z[0] <= kids[s].upper[0] + 1e-12)
        assert forward(fig1_net, x)[0] + 3.0 >= bound[s] - 1e-9


def test_sign_split_rejects_bad_layer_neuron_and_sign(fig1_net, unit_box):
    chain = Chain.of(fig1_net)
    root = root_leaf(chain, unit_box, "interval")
    with pytest.raises(ContractError, match="no hidden layer"):
        split_leaf(chain, unit_box, root, 5, 0, ACTIVE)
    with pytest.raises(ContractError, match="no neuron"):
        split_leaf(chain, unit_box, root, 0, 5, ACTIVE)
    for sign in (0, 2, "sideways"):
        with pytest.raises(ContractError, match="sign"):
            split_leaf(chain, unit_box, root, 0, 0, sign)


def _surgery_child(net, k, j, sign, table, box):
    """The branch network the verifier used to build: pin by layer surgery."""
    seq = as_sequential(net)
    x, y, z = seq.linears[k], seq.relus[k], seq.linears[k + 1]
    others = np.setdiff1d(np.arange(x.width), [j])
    none = np.empty(0, np.int64)
    if sign == INACTIVE:
        part = LayerPartition(np.array([j]), none, others, x.width)
    else:
        part = LayerPartition(none, np.array([j]), others, x.width)
    v_range = (box.lower, box.upper) if k == 0 else table.post_activation(k - 1)
    x2, _, z2, _ = reduce_layer(x, y, z, part, v_range, table.pre_activation(k)[0])
    wb = [(l.weight, l.bias) for l in seq.linears]
    if x2 is None:
        wb[k : k + 2] = [(z2.weight, z2.bias)]
    else:
        wb[k : k + 2] = [(x2.weight, x2.bias), (z2.weight, z2.bias)]
    return from_sequential(wb, seq.input.width)


def _generated(n_hidden, width, n_in, n_out, seed):
    net, sidecar = generate_network(n_hidden, width, n_in, n_out, stable_fraction=0.4, seed=seed)
    return net, Box(np.asarray(sidecar["box"]["lower"]), np.asarray(sidecar["box"]["upper"]))


_SURGERY_CASES = [
    ("fig1", "interval", "adaptive"),
    ("fig1", "crown", "adaptive"),
    ((2, 12, 3, 3, 0), "interval", "adaptive"),
    ((3, 10, 4, 3, 1), "interval", "one"),
    ((4, 8, 3, 3, 3), "crown", "zero"),
    ((3, 16, 6, 3, 4), "crown", "zero"),
    ((3, 48, 8, 1, 5), "crown", "adaptive"),
    ((4, 32, 8, 1, 6), "crown", "adaptive"),
]


@pytest.mark.parametrize("net_cfg,method,alpha_rule", _SURGERY_CASES)
def test_sign_split_child_is_no_looser_than_the_surgery_child(
    net_cfg, method, alpha_rule, fig1_net, unit_box
):
    if net_cfg == "fig1":
        net, box = fig1_net, unit_box
        C, d = np.array([[1.0, 0.0], [1.0, -1.0]]), np.array([3.0, 0.0])
    else:
        net, box = _generated(*net_cfg)
        n_out = net_cfg[3]
        C, d = np.vstack([np.eye(n_out)[:1], np.eye(n_out)[:1] - np.eye(n_out)[-1:]]), np.zeros(2)
    chain = Chain.of(net)
    table = compute_bounds(net, box, method, alpha_rule)
    root = root_leaf(chain, box, method, alpha_rule)
    checked = 0
    for k in range(chain.n_relu):
        for j in np.flatnonzero((root.lower[k] < 0) & (root.upper[k] > 0))[:6]:
            for sign in (ACTIVE, INACTIVE):
                child = split_leaf(chain, box, root, k, j, sign, method, alpha_rule)
                surgery = _surgery_child(net, k, j, sign, table, box)
                old = margin_lower_bounds(surgery, box, C, d, method, alpha_rule)
                if child is None:  # an empty region needs no bound
                    continue
                new = _leaf_margins(chain, box, child, C, d, method)
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


@pytest.mark.parametrize("method", ["interval", "crown"])
def test_contradictory_pins_close_the_leaf(method):
    chain = Chain.of(from_sequential(_EMPTY_WB, 1))
    box = Box(np.array([-1.0]), np.array([1.0]))
    root = root_leaf(chain, box, method)
    b_active = split_leaf(chain, box, root, 1, 0, ACTIVE, method)
    assert b_active is not None
    assert split_leaf(chain, box, b_active, 0, 0, INACTIVE, method) is None
    assert split_leaf(chain, box, b_active, 0, 0, ACTIVE, method) is not None


def test_bab_closes_an_empty_leaf_instead_of_giving_up(monkeypatch):
    # b = 3 relu(a) - 0.5 is wider than a, so BaB pins b first; its active
    # branch then pins a, and the inactive side of a is empty. Rewriting
    # that leaf as a network over the whole box gave y = -0.5 there and an
    # "affine leaf bound is negative" unknown; the property holds (min -0.375).
    wb = [
        (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([0.0, 1.5])),
        (np.array([[3.0, 0.0], [0.5, 1.5]]), np.array([-0.5, -0.5])),
        (np.array([[-0.5, 0.5]]), np.array([0.5])),
    ]
    net = from_sequential(wb, 2)
    box = Box(-np.ones(2), np.ones(2))
    spec = PropertySpec(box, np.array([[1.0]]), np.array([0.5]), name="y_ge_m0.5")
    empty = []
    real_split = verify_mod.split_leaf

    def counting_split(chain, box, leaf, k, j, sign, *rest):
        child = real_split(chain, box, leaf, k, j, sign, *rest)
        if child is None:
            empty.append((k, j, sign, leaf.signs[1][0]))
        return child

    monkeypatch.setattr(verify_mod, "split_leaf", counting_split)
    v = bab_verify(net, spec, method="interval")
    assert v.status == VERIFIED
    assert v.splits == 2
    assert empty == [(0, 0, INACTIVE, ACTIVE)]
    assert find_grid_counterexample(net, spec, budget=10_000) is None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    method=st.sampled_from(["interval", "crown"]),
    alpha_rule=st.sampled_from(["adaptive", "zero", "one"]),
    n_pins=st.integers(1, 4),
)
def test_pinned_leaf_bounds_hold_on_their_sign_region(seed, method, alpha_rule, n_pins):
    rng = np.random.default_rng(seed)
    widths = [2, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 2]
    wb = [(rng.normal(scale=1.2, size=(o, i)), rng.normal(scale=0.5, size=o))
          for i, o in zip(widths, widths[1:])]
    chain = Chain.of(from_sequential(wb, widths[0]))
    box = Box(-np.ones(2), np.ones(2))
    leaf = root_leaf(chain, box, method, alpha_rule)
    pins = []
    for _ in range(n_pins):
        free = [(k, j) for k in range(chain.n_relu)
                for j in np.flatnonzero((leaf.lower[k] < 0) & (leaf.upper[k] > 0))]
        if not free:
            break
        k, j = free[int(rng.integers(len(free)))]
        sign = int(rng.choice([ACTIVE, INACTIVE]))
        pins.append((k, j, sign))
        leaf = split_leaf(chain, box, leaf, k, j, sign, method, alpha_rule)
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
    bound = _leaf_margins(chain, box, leaf, C, d, method)[0]
    ys = forward_batch(from_sequential(wb, widths[0]), xs[inside])
    if len(ys):
        assert (ys @ C.T + d).min() >= bound - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    method=st.sampled_from(["interval", "crown"]),
    slack=st.floats(-0.1, 0.3),
)
def test_verified_bab_has_no_grid_counterexample(seed, method, slack):
    rng = np.random.default_rng(seed)
    widths = [2, int(rng.integers(3, 7)), int(rng.integers(3, 7)), 1]
    wb = [(rng.normal(scale=1.2, size=(o, i)), rng.normal(scale=0.5, size=o))
          for i, o in zip(widths, widths[1:])]
    net = from_sequential(wb, widths[0])
    box = Box(-np.ones(2), np.ones(2))
    ys = forward_batch(net, box.sample(2000, rng))[:, 0]
    t = ys.min() - slack * (ys.max() - ys.min())
    spec = PropertySpec(box, np.array([[1.0]]), np.array([-t]), name="y_ge_t")
    v = bab_verify(net, spec, method=method, max_splits=60)
    if v.verified:
        assert find_grid_counterexample(net, spec, budget=4096, seed=1) is None


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


def test_grid_budget_must_be_positive(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    with pytest.raises(ContractError, match="budget"):
        find_grid_counterexample(fig1_net, spec, budget=0)


def test_grid_counterexample_is_deterministic(fig1_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [0.0])
    a = find_grid_counterexample(fig1_net, spec, budget=5000, seed=3)
    b = find_grid_counterexample(fig1_net, spec, budget=5000, seed=3)
    assert np.array_equal(a, b)


# --- benchmark harness ---


def test_bench_pair_on_the_reduced_twin(fig1_net, fig4_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0], name="y0_ge_m3")
    out = bench_pair(fig1_net, fig4_net, spec, method="crown", repeats=2)
    assert out["agreement"] is True
    assert out["equiv_max_diff"] <= 1e-9
    assert [r["variant"] for r in out["rows"]] == ["original", "reduced"]
    for r in out["rows"]:
        assert r["status"] == VERIFIED
        assert r["property"] == "y0_ge_m3"
        assert r["median_time_s"] >= 0.0
        assert isinstance(r["splits"], int)


def test_bench_pair_refuses_inequivalent_networks(fig1_net, fig4_net, unit_box):
    from conftest import FIG4_B2, FIG4_W1, FIG4_B1, FIG4_W2, build_fig4
    from redkit.netir import NetworkBuilder
    b = NetworkBuilder()
    i = b.add_input(2)
    h = b.add_linear(i, FIG4_W1, FIG4_B1)
    r = b.add_relu(h, 3)
    o = b.add_linear(r, FIG4_W2, FIG4_B2 + 1.0)  # shifted output
    crooked = b.build(o)
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    with pytest.raises(ContractError, match="refusing to benchmark"):
        bench_pair(fig1_net, crooked, spec)


def test_bench_pair_repeats_clamped(fig1_net, fig4_net, unit_box):
    spec = _spec(unit_box, [[1.0, 0.0]], [3.0])
    out = bench_pair(fig1_net, fig4_net, spec, repeats=0)
    assert len(out["rows"]) == 2

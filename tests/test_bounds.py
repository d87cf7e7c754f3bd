import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redkit import (
    Box,
    ContractError,
    NetworkBuilder,
    compute_bounds,
    forward,
    from_sequential,
    interval_forward,
)
from redkit.bounds import relu_relaxation
from conftest import FIG1_PRE_LO, FIG1_PRE_HI, box_samples, root_margins


def _chain(rng, widths, scale=0.8):
    """Random sequential net input->linear->relu->...->linear."""
    wb = []
    for w_in, w_out in zip(widths, widths[1:]):
        W = rng.normal(scale=scale / np.sqrt(w_in), size=(w_out, w_in))
        b = rng.normal(scale=0.3, size=w_out)
        wb.append((W, b))
    return from_sequential(wb, widths[0])


# frozen example values


def test_interval_fig1_pre_activations_exact(fig1_net, unit_box):
    t = interval_forward(fig1_net, unit_box)
    lo, hi = t.pre_activation(0)
    assert np.array_equal(lo, FIG1_PRE_LO)
    assert np.array_equal(hi, FIG1_PRE_HI)


def test_interval_fig1_outputs(fig1_net, unit_box):
    lo, hi = interval_forward(fig1_net, unit_box).output_bounds()
    assert lo[0] == -7.0 and hi[0] == 7.0


def test_zero_weight_linear_gives_point_interval():
    b = NetworkBuilder()
    i = b.add_input(2)
    l = b.add_linear(i, np.zeros((3, 2)), np.array([5.0, -1.0, 0.0]))
    net = b.build(l)
    lo, hi = interval_forward(net, Box(-np.ones(2), np.ones(2))).output_bounds()
    assert np.array_equal(lo, [5.0, -1.0, 0.0])
    assert np.array_equal(hi, [5.0, -1.0, 0.0])


def test_crown_first_hidden_equals_interval(fig1_net, unit_box):
    ti = interval_forward(fig1_net, unit_box)
    tc = compute_bounds(fig1_net, unit_box, "crown")
    np.testing.assert_array_equal(tc.pre_activation(0)[0], ti.pre_activation(0)[0])
    np.testing.assert_array_equal(tc.pre_activation(0)[1], ti.pre_activation(0)[1])


def test_crown_fig1_output_containment(fig1_net, unit_box):
    # exact range of y1 is [-3,3]; crown must contain it and sit inside interval
    lo_c, hi_c = compute_bounds(fig1_net, unit_box, "crown").output_bounds()
    lo_i, hi_i = interval_forward(fig1_net, unit_box).output_bounds()
    assert lo_c[0] <= -3.0 <= 3.0 <= hi_c[0]
    assert lo_i[0] <= lo_c[0] and hi_c[0] <= hi_i[0]


def test_crown_fig1_y1_lower_is_exact(fig1_net, unit_box):
    # the adaptive relaxation happens to be exact on the lower side here
    lo_c, _ = compute_bounds(fig1_net, unit_box, "crown").output_bounds()
    assert lo_c[0] == -3.0


def test_crown_fully_activated_net_is_exact():
    # all pre-activations >= 0: the network is affine over the box
    rng = np.random.default_rng(5)
    W1 = rng.normal(size=(4, 3))
    b1 = np.abs(W1).sum(axis=1) + 1.0  # lower bound = b1 - |W|·1 >= 1
    W2 = rng.normal(size=(2, 4))
    b2 = rng.normal(size=2)
    net = from_sequential([(W1, b1), (W2, b2)], 3)
    box = Box(-np.ones(3), np.ones(3))
    lo, hi = compute_bounds(net, box, "crown").output_bounds()
    M = W2 @ W1
    c = W2 @ b1 + b2
    exact_lo = np.minimum(M, 0) @ np.ones(3) + np.maximum(M, 0) @ -np.ones(3) + c
    exact_hi = np.maximum(M, 0) @ np.ones(3) + np.minimum(M, 0) @ -np.ones(3) + c
    np.testing.assert_allclose(lo, exact_lo, atol=1e-12)
    np.testing.assert_allclose(hi, exact_hi, atol=1e-12)


def test_compute_bounds_dispatch(fig1_net, unit_box):
    ti = compute_bounds(fig1_net, unit_box, "interval")
    tc = compute_bounds(fig1_net, unit_box, "crown")
    assert ti.method == "interval" and tc.method == "crown"
    with pytest.raises(ContractError):
        compute_bounds(fig1_net, unit_box, "deepz")


def test_bounds_table_rows(fig1_net, unit_box):
    rows = interval_forward(fig1_net, unit_box).rows()
    assert len(rows) == 7  # 5 + 2 output neurons
    layer0 = [r for r in rows if r[0] == 0]
    assert [r[1] for r in layer0] == [0, 1, 2, 3, 4]
    for _, j, lo, hi, method in layer0:
        assert lo == FIG1_PRE_LO[j] and hi == FIG1_PRE_HI[j]
        assert method == "interval"


def test_post_activation_clamps(fig1_net, unit_box):
    t = interval_forward(fig1_net, unit_box)
    lo, hi = t.post_activation(0)
    assert np.array_equal(lo, np.maximum(FIG1_PRE_LO, 0.0))
    assert np.array_equal(hi, np.maximum(FIG1_PRE_HI, 0.0))


# margin bounds


def test_margin_fig1_y1_minus_y2_falsifiable(fig1_net, unit_box):
    got = root_margins(fig1_net, unit_box, np.array([1.0, -1.0]))[0]
    assert got <= -2.0


def test_margin_zero_vector_is_zero(fig1_net, unit_box):
    assert root_margins(fig1_net, unit_box, np.zeros(2))[0] == 0.0


def test_margin_rows_with_offsets(fig1_net, unit_box):
    C = np.array([[1.0, 0.0], [-1.0, 1.0]])
    d = np.array([3.0, 0.0])
    lo = root_margins(fig1_net, unit_box, C, d)
    assert lo.shape == (2,)
    assert lo[0] == 0.0  # y1 + 3, crown lower is exact here
    assert lo[1] >= 2.0 - 1e-12


def test_margin_sound_vs_samples(fig1_net, unit_box):
    c = np.array([0.7, -0.3])
    bound = root_margins(fig1_net, unit_box, c)[0]
    xs = box_samples(unit_box, 2000, seed=3)
    vals = np.array([c @ forward(fig1_net, x) for x in xs])
    assert vals.min() >= bound - 1e-9


# soundness and structure properties


@pytest.mark.parametrize("method", ["interval", "crown"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounds_sound_on_random_chains(method, seed):
    rng = np.random.default_rng(seed)
    net = _chain(rng, [4, 12, 10, 3])
    box = Box(-np.ones(4), np.ones(4))
    table = compute_bounds(net, box, method)
    xs = box_samples(box, 500, seed=seed + 50)
    from redkit import as_sequential

    seq = as_sequential(net)
    for x in xs:
        h = x
        for k, lin in enumerate(seq.linears):
            h = lin.weight @ h + lin.bias
            if k < len(seq.linears) - 1:
                lo, hi = table.pre_activation(k)
            else:
                lo, hi = table.output_bounds()
            mag = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
            assert np.all(h >= lo - 1e-9 * mag)
            assert np.all(h <= hi + 1e-9 * mag)
            if k < len(seq.linears) - 1:
                h = np.maximum(h, 0.0)


def test_crown_contained_in_interval_elementwise():
    for seed in range(4):
        rng = np.random.default_rng(seed + 20)
        net = _chain(rng, [3, 16, 16, 2])
        box = Box(-np.ones(3), np.ones(3))
        ti = interval_forward(net, box)
        tc = compute_bounds(net, box, "crown")
        for k in range(2):
            li, ui = ti.pre_activation(k)
            lc, uc = tc.pre_activation(k)
            assert np.all(lc >= li - 1e-12)
            assert np.all(uc <= ui + 1e-12)
        li, ui = ti.output_bounds()
        lc, uc = tc.output_bounds()
        assert np.all(lc >= li - 1e-12) and np.all(uc <= ui + 1e-12)


def test_interval_monotone_in_box():
    rng = np.random.default_rng(11)
    net = _chain(rng, [3, 8, 8, 2])
    big = Box(-np.ones(3), np.ones(3))
    small = Box(-0.4 * np.ones(3), 0.4 * np.ones(3))
    tb = interval_forward(net, big)
    ts = interval_forward(net, small)
    for k in range(2):
        lb, ub = tb.pre_activation(k)
        ls, us = ts.pre_activation(k)
        assert np.all(ls >= lb) and np.all(us <= ub)


def test_crown_output_bounds_are_sound(fig1_net, unit_box):
    t = compute_bounds(fig1_net, unit_box, "crown")
    xs = box_samples(unit_box, 500, seed=9)
    lo, hi = t.output_bounds()
    for x in xs:
        y = forward(fig1_net, x)
        assert np.all(y >= lo - 1e-9) and np.all(y <= hi + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    l=st.floats(-10, -0.01),
    u=st.floats(0.01, 10),
    t=st.floats(0, 1),
)
def test_relaxation_lines_valid(l, u, t):
    # upper line >= relu >= lower line on [l, u], for both alpha choices
    x = l + t * (u - l)
    relu = max(x, 0.0)
    up = u / (u - l) * x - u * l / (u - l)
    assert up >= relu - 1e-9
    for alpha in (0.0, 1.0):
        assert alpha * x <= relu + 1e-9


def _lines_one_neuron(lo, hi):
    """One neuron's (slope_lo, slope_up, icpt_up), in scalar arithmetic."""
    if hi <= 0.0:
        return 0.0, 0.0, 0.0
    if lo >= 0.0:
        return 1.0, 1.0, 0.0
    denom = hi - lo
    return (1.0 if hi >= -lo else 0.0), hi / denom, -lo * hi / denom


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shape=st.sampled_from([(1, 64), (16, 64), (1, 1024)]))
def test_relu_relaxation_matches_the_per_neuron_rule_bit_for_bit(seed, shape):
    # ranges of every class: dead, active, unstable either side of u = -l,
    # touching zero at one end or both (l = u = 0)
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    a[rng.uniform(size=shape) < 0.1] = 0.0
    b[rng.uniform(size=shape) < 0.1] = 0.0
    sym = rng.uniform(size=shape) < 0.05
    b[sym] = -a[sym]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    r = relu_relaxation(lo, hi)
    want = np.array([_lines_one_neuron(l, u) for l, u in zip(lo.ravel(), hi.ravel())])
    for got, col in ((r.slope_lo, 0), (r.slope_up, 1), (r.icpt_up, 2)):
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == want[:, col].reshape(shape).tobytes()

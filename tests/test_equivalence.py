import numpy as np
import pytest

from redkit import (
    Box,
    ContractError,
    NetworkBuilder,
    forward,
    grid_equivalence,
    sample_equivalence,
)
from conftest import FIG1_B2, FIG1_W1, FIG1_B1, FIG1_W2, build_fig1, build_fig4


def test_fig_pair_sampled(fig1_net, fig4_net, unit_box):
    rep = sample_equivalence(fig1_net, fig4_net, unit_box, n=10000, seed=0)
    assert rep.max_abs_diff <= 1e-9
    assert rep.argmax_mismatches == 0
    assert rep.samples >= 10000  # corners ride along


def test_reflexive_is_exact(fig1_net, unit_box):
    rep = sample_equivalence(fig1_net, fig1_net, unit_box, n=100, seed=1)
    assert rep.max_abs_diff == 0.0
    assert rep.argmax_mismatches == 0


def test_constant_offset_detected(unit_box):
    a = build_fig1()
    b_ = NetworkBuilder()
    i = b_.add_input(2)
    l1 = b_.add_linear(i, FIG1_W1, FIG1_B1)
    r1 = b_.add_relu(l1, 5)
    l2 = b_.add_linear(r1, FIG1_W2, FIG1_B2 + np.array([0.0, 1.0]))
    shifted = b_.build(l2)
    rep = sample_equivalence(a, shifted, unit_box, n=500, seed=2)
    assert rep.max_abs_diff == pytest.approx(1.0, abs=1e-12)


def test_determinism(fig1_net, fig4_net, unit_box):
    r1 = sample_equivalence(fig1_net, fig4_net, unit_box, n=300, seed=7)
    r2 = sample_equivalence(fig1_net, fig4_net, unit_box, n=300, seed=7)
    assert r1.max_abs_diff == r2.max_abs_diff
    assert np.array_equal(r1.worst_input, r2.worst_input)


def test_worst_input_inside_box(fig1_net, fig4_net, unit_box):
    rep = sample_equivalence(fig1_net, fig4_net, unit_box, n=200, seed=3)
    assert np.all(rep.worst_input >= unit_box.lower - 1e-12)
    assert np.all(rep.worst_input <= unit_box.upper + 1e-12)


def test_width_mismatch_rejected(fig1_net, unit_box):
    b = NetworkBuilder()
    i = b.add_input(3)
    l = b.add_linear(i, np.eye(3), np.zeros(3))
    other = b.build(l)
    with pytest.raises(ContractError):
        sample_equivalence(fig1_net, other, unit_box, n=10, seed=0)


def test_grid_fig_pair(fig1_net, fig4_net, unit_box):
    rep = grid_equivalence(fig1_net, fig4_net, unit_box, points_per_dim=21)
    assert rep.samples == 441
    assert rep.max_abs_diff <= 1e-9


def test_grid_includes_corners():
    # nets agreeing except at the corner x=1 must be caught
    b1 = NetworkBuilder()
    i = b1.add_input(1)
    l1 = b1.add_linear(i, np.array([[1.0]]), np.array([-1.0]))
    r = b1.add_relu(l1, 1)
    l2 = b1.add_linear(r, np.array([[1.0]]), np.zeros(1))
    kinked = b1.build(l2)  # relu(x-1): nonzero only at x=1... zero on [0,1]

    b2 = NetworkBuilder()
    i = b2.add_input(1)
    l = b2.add_linear(i, np.zeros((1, 1)), np.zeros(1))
    zero = b2.build(l)
    box = Box(np.array([0.0]), np.array([2.0]))
    rep = grid_equivalence(kinked, zero, box, points_per_dim=2)  # grid {0, 2}
    assert rep.max_abs_diff == 1.0  # corner x=2 caught


def test_grid_identity_pair():
    b1 = NetworkBuilder()
    i = b1.add_input(1)
    net = b1.build(b1.add_linear(i, np.eye(1), np.zeros(1)))
    rep = grid_equivalence(net, net, Box(np.array([0.0]), np.array([1.0])), points_per_dim=2)
    assert rep.max_abs_diff == 0.0
    assert rep.samples == 2


def test_differs_only_outside_box():
    # f = relu(x-2) vs g = 0 agree on [0,1]
    b1 = NetworkBuilder()
    i = b1.add_input(1)
    l1 = b1.add_linear(i, np.array([[1.0]]), np.array([-2.0]))
    r = b1.add_relu(l1, 1)
    l2 = b1.add_linear(r, np.eye(1), np.zeros(1))
    f = b1.build(l2)

    b2 = NetworkBuilder()
    i = b2.add_input(1)
    g = b2.build(b2.add_linear(i, np.zeros((1, 1)), np.zeros(1)))

    box = Box(np.array([0.0]), np.array([1.0]))
    assert grid_equivalence(f, g, box, points_per_dim=11).max_abs_diff == 0.0
    assert sample_equivalence(f, g, box, n=500, seed=0).max_abs_diff == 0.0
    # sanity: they do differ outside
    assert forward(f, np.array([3.0]))[0] == 1.0


def test_grid_width_guard():
    b = NetworkBuilder()
    i = b.add_input(5)
    net = b.build(b.add_linear(i, np.eye(5), np.zeros(5)))
    with pytest.raises(ContractError):
        grid_equivalence(net, net, Box(-np.ones(5), np.ones(5)), points_per_dim=3)


def test_a_negative_sample_count_is_rejected(fig1_net, unit_box):
    with pytest.raises(ContractError, match="sample count"):
        sample_equivalence(fig1_net, fig1_net, unit_box, n=-1)
    assert sample_equivalence(fig1_net, fig1_net, unit_box, n=0).samples == 4  # the corners

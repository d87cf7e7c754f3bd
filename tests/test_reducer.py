import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redkit import (
    Box,
    Chain,
    ContractError,
    LayerPartition,
    NetworkBuilder,
    as_sequential,
    classify,
    compute_bounds,
    forward,
    forward_batch,
    from_sequential,
    generate_network,
    grid_equivalence,
    interval_forward,
    reduce_layer,
    reduce_network,
    sample_equivalence,
)
from conftest import (
    FIG4_B1,
    FIG4_B2,
    FIG4_W1,
    FIG4_W2,
    box_samples,
    build_fig1,
)


def _relu_widths(net):
    return [l.width for l in as_sequential(net).relus]


# classification


def test_classify_fig1(fig1_net, unit_box):
    (part,) = classify(interval_forward(fig1_net, unit_box))
    assert part.deactivated.tolist() == [0]
    assert part.activated.tolist() == [1, 2, 3]
    assert part.unstable.tolist() == [4]
    assert part.width == 5


def test_classify_partition_disjoint_and_complete(fig1_net, unit_box):
    (part,) = classify(interval_forward(fig1_net, unit_box))
    all_idx = np.concatenate([part.deactivated, part.activated, part.unstable])
    assert sorted(all_idx.tolist()) == list(range(5))


def test_classify_boundary_goes_stable():
    # u == 0 counts as deactivated; l == 0 as activated
    b = NetworkBuilder()
    i = b.add_input(1)
    l1 = b.add_linear(i, np.array([[1.0], [1.0]]), np.array([-1.0, 1.0]))
    r = b.add_relu(l1, 2)
    l2 = b.add_linear(r, np.eye(2), np.zeros(2))
    net = b.build(l2)
    box = Box(np.array([-1.0]), np.array([0.0]))
    # pre-acts: x-1 in [-2,-1] deactivated; x+1 in [0,1] activated
    (part,) = classify(interval_forward(net, box))
    assert part.deactivated.tolist() == [0]
    assert part.activated.tolist() == [1]


def test_classify_tol_never_loosens_soundness(fig1_net, unit_box):
    (strict,) = classify(interval_forward(fig1_net, unit_box))
    assert strict.unstable.tolist() == [4]


# reduce_layer


def test_reduce_layer_fig1_merge_values(fig1_net, unit_box):
    x, z = Chain.of(fig1_net).layers
    (part,) = classify(interval_forward(fig1_net, unit_box))
    [(W1, b1), (W2, b2)], merged = reduce_layer(x, z, part, (unit_box.lower, unit_box.upper))
    assert merged
    np.testing.assert_array_equal(W1, FIG4_W1)
    np.testing.assert_array_equal(b1, FIG4_B1)
    np.testing.assert_array_equal(W2, FIG4_W2)
    np.testing.assert_array_equal(b2, FIG4_B2)
    assert part.width == 5 and W1.shape[0] == 3


def test_reduce_layer_empty_partition_is_identity(fig1_net, unit_box):
    x, z = Chain.of(fig1_net).layers
    part = LayerPartition(
        np.empty(0, np.int64), np.empty(0, np.int64), np.arange(5), 5
    )
    [(W1, b1), (W2, b2)], merged = reduce_layer(x, z, part, (unit_box.lower, unit_box.upper))
    assert not merged
    np.testing.assert_array_equal(W1, x[0])
    np.testing.assert_array_equal(b1, x[1])
    np.testing.assert_array_equal(W2, z[0])
    np.testing.assert_array_equal(b2, z[1])


def test_reduce_layer_planted_segment_equivalence():
    # random 6-wide middle layer with a planted partition; compare the
    # v -> z segment before/after on samples
    rng = np.random.default_rng(3)
    q, m, n = 4, 6, 3
    X = rng.normal(size=(m, q))
    bx = rng.normal(size=m)
    Z = rng.normal(size=(n, m))
    bz = rng.normal(size=n)
    v_lo, v_hi = np.zeros(q), np.ones(q)
    # plant: rows 0,1 deactivated, rows 2,3,4,5 activated -> merge (|A|=4 > n)
    bx[0] = -(np.maximum(X[0], 0) @ v_hi) - 0.5
    bx[1] = -(np.maximum(X[1], 0) @ v_hi) - 0.5
    for j in (2, 3, 4, 5):
        bx[j] = -(np.minimum(X[j], 0) @ v_hi) + 0.5
    # v_lo is all zeros, so only v_hi contributes to the interval ends
    lo = np.minimum(X, 0) @ v_hi + bx
    hi = np.maximum(X, 0) @ v_hi + bx
    assert (hi[:2] <= 0).all() and (lo[2:] >= 0).all()  # reduce_layer trusts the plant
    part = LayerPartition(np.array([0, 1]), np.array([2, 3, 4, 5]), np.empty(0, np.int64), m)

    [(X2, bx2), (Z2, bz2)], merged = reduce_layer((X, bx), (Z, bz), part, (v_lo, v_hi))
    assert merged and X2.shape[0] == n
    for v in rng.uniform(v_lo, v_hi, size=(1000, q)):
        before = Z @ np.maximum(X @ v + bx, 0.0) + bz
        after = Z2 @ np.maximum(X2 @ v + bx2, 0.0) + bz2
        np.testing.assert_allclose(after, before, atol=1e-9)


def test_reduce_layer_merged_preactivations_nonnegative():
    rng = np.random.default_rng(8)
    net = build_fig1()
    box = Box(-np.ones(2), np.ones(2))
    reduced, _ = reduce_network(net, box, method="interval")
    seq = as_sequential(reduced)
    for v in rng.uniform(box.lower, box.upper, size=(1000, 2)):
        pre = seq.linears[0].weight @ v + seq.linears[0].bias
        assert np.all(pre[:2] >= -1e-12)  # the two merged rows


# reduce_network


@pytest.mark.parametrize("moved_to", ["deactivated", "activated"])
def test_reduce_network_rejects_a_partition_its_table_does_not_prove(fig1_net, unit_box, moved_to):
    # neuron 4 ranges over [-2, 2] on the box, so neither stable class holds
    none = np.empty(0, np.int64)
    part = {
        "deactivated": LayerPartition([0, 4], [1, 2, 3], none, 5),
        "activated": LayerPartition([0], [1, 2, 3, 4], none, 5),
    }[moved_to]
    with pytest.raises(ContractError, match=rf"{moved_to} neurons \[4\] are not proved"):
        reduce_network(fig1_net, unit_box, partitions=[part])


def test_reduce_network_fig1_golden(fig1_net, unit_box):
    reduced, report = reduce_network(fig1_net, unit_box, method="interval")
    assert report.relu_before == 5 and report.relu_after == 3
    seq = as_sequential(reduced)
    np.testing.assert_array_equal(seq.linears[0].weight, FIG4_W1)
    np.testing.assert_array_equal(seq.linears[0].bias, FIG4_B1)
    np.testing.assert_array_equal(seq.linears[1].weight, FIG4_W2)
    np.testing.assert_array_equal(seq.linears[1].bias, FIG4_B2)


def test_reduce_network_fig1_grid_equivalence(fig1_net, unit_box):
    reduced, _ = reduce_network(fig1_net, unit_box, method="interval")
    rep = grid_equivalence(fig1_net, reduced, unit_box, points_per_dim=21)
    assert rep.samples == 441
    assert rep.max_abs_diff <= 1e-9


def test_reduce_network_crown_same_result_here(fig1_net, unit_box):
    reduced, report = reduce_network(fig1_net, unit_box, method="crown")
    assert report.relu_after == 3


def test_reduce_all_unstable_unchanged():
    # weights small, biases zero: every neuron straddles 0
    rng = np.random.default_rng(1)
    net = from_sequential(
        [
            (rng.normal(size=(6, 2)), np.zeros(6)),
            (rng.normal(size=(2, 6)), np.zeros(2)),
        ],
        2,
    )
    box = Box(-np.ones(2), np.ones(2))
    reduced, report = reduce_network(net, box, method="interval")
    assert report.relu_before == report.relu_after == 6
    assert report.ratio == 1.0
    rep = sample_equivalence(net, reduced, box, n=200, seed=0)
    assert rep.max_abs_diff == 0.0


def test_reduce_fully_deactivated_collapses():
    W1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    b1 = np.array([-10.0, -10.0])
    W2 = np.array([[1.0, 1.0]])
    b2 = np.array([0.5])
    net = from_sequential([(W1, b1), (W2, b2)], 2)
    box = Box(-np.ones(2), np.ones(2))
    reduced, report = reduce_network(net, box, method="interval")
    assert report.relu_after == 0
    seq = as_sequential(reduced)
    assert len(seq.relus) == 0
    for x in box_samples(box, 50, seed=2):
        np.testing.assert_allclose(forward(reduced, x), forward(net, x), atol=1e-12)
        np.testing.assert_allclose(forward(reduced, x), [0.5], atol=1e-12)


def test_reduce_keeps_small_activated_sets():
    # |A| <= n: merging cannot shrink, activated rows stay in place
    rng = np.random.default_rng(4)
    W1 = rng.normal(size=(3, 4))
    b1 = np.array([10.0, 10.0, 0.0])  # rows 0,1 activated, row 2 unstable
    W2 = rng.normal(size=(3, 3))
    b2 = rng.normal(size=3)
    net = from_sequential([(W1, b1), (W2, b2)], 4)
    box = Box(-np.ones(4), np.ones(4))
    reduced, report = reduce_network(net, box, method="interval")
    row = report.rows[0]
    assert row["n_activated"] == 2 and not row["merged"]
    assert report.relu_after == 3
    rep = sample_equivalence(net, reduced, box, n=500, seed=1)
    assert rep.max_abs_diff <= 1e-9


@pytest.mark.parametrize("method", ["interval", "crown"])
def test_a_merge_that_overflows_stays_unmerged(method):
    # the three activated neurons would merge into one row whose bound over
    # the box overflows; its shift came out infinite, and the reduced net
    # computed NaN. Kept unmerged, the block computes what it did
    net = from_sequential([(np.eye(3), np.zeros(3)), ([[1e308, -1e308, 1e308]], [0.0])], 3)
    box = Box(np.ones(3), np.ones(3))
    reduced, report = reduce_network(net, box, method=method)
    row = report.rows[0]
    assert row["n_activated"] == 3 and not row["merged"]
    assert report.relu_after == 3
    x = box.lower[None]
    assert forward_batch(reduced, x) == forward_batch(net, x) == 1e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["interval", "crown"])
def test_a_merge_whose_weights_overflow_stays_unmerged_without_a_warning(method):
    # the merged weights 1e200 * 1e200 overflow to inf, so the three activated
    # neurons stay unmerged, and numpy's overflow warning stays inside the
    # merge; on the box's one point the net computes 3e100
    net = from_sequential([(1e200 * np.eye(3), np.zeros(3)), ([[1e200, 1e200, 1e200]], [0.0])], 3)
    box = Box(np.full(3, 1e-300), np.full(3, 1e-300))
    reduced, report = reduce_network(net, box, method=method)
    row = report.rows[0]
    assert row["n_activated"] == 3 and not row["merged"]
    x = box.lower[None]
    assert forward_batch(reduced, x) == forward_batch(net, x)


def test_reduce_idempotent(fig1_net, unit_box):
    once, r1 = reduce_network(fig1_net, unit_box, method="interval")
    twice, r2 = reduce_network(once, unit_box, method="interval")
    assert r2.relu_after <= r1.relu_after
    rep = sample_equivalence(once, twice, unit_box, n=500, seed=5)
    assert rep.max_abs_diff <= 1e-9


def test_reduce_monotone_size(fig1_net, unit_box):
    _, report = reduce_network(fig1_net, unit_box, method="interval")
    for row in report.rows:
        assert row["width_after"] <= row["width_before"]


def test_reduction_report_csv(fig1_net, unit_box):
    _, report = reduce_network(fig1_net, unit_box, method="interval")
    text = report.to_csv()
    assert "layer,width_before,n_deactivated,n_activated,n_unstable,width_after" in text
    assert "relu_before=5" in text and "relu_after=3" in text
    assert f"ratio={5/3:.4f}" in text


def test_reduction_ratio_before_over_after(fig1_net, unit_box):
    _, report = reduce_network(fig1_net, unit_box, method="interval")
    assert report.ratio == pytest.approx(5 / 3)


def test_reduce_with_supplied_partitions(fig1_net, unit_box):
    # forcing everything unstable disables all rewriting
    parts = [LayerPartition(np.empty(0, np.int64), np.empty(0, np.int64), np.arange(5), 5)]
    reduced, report = reduce_network(fig1_net, unit_box, partitions=parts)
    assert report.relu_after == 5


def test_partition_rejects_a_negative_index():
    # -1 leaves neuron 1 in no class, so reduce_network would drop it silently
    with pytest.raises(ContractError, match="must lie in"):
        LayerPartition([0], [2], [-1], 3)


def test_partition_rejects_an_index_past_the_width():
    with pytest.raises(ContractError, match="must lie in"):
        LayerPartition([0], [3], [1], 3)


@pytest.mark.parametrize("activated,unstable", [([1.7], [2.2]), ([1.0], [np.nan]), ([True], [2])])
def test_partition_rejects_an_index_that_is_not_an_integer(activated, unstable):
    # a cast would truncate 1.7 to 1 and 2.2 to 2, naming other neurons
    with pytest.raises(ContractError, match="must be integers"):
        LayerPartition([0.0], activated, unstable, 3)


def test_partition_accepts_integral_floats_and_empty_lists():
    part = LayerPartition([0.0], [], [2.0, 1.0], 3)
    assert part.unstable.dtype == np.int64
    assert part.unstable.tolist() == [2, 1]
    assert part.activated.shape == (0,)


def _demote(part: LayerPartition, rng, frac: float) -> LayerPartition:
    """The partition with a random share of its stable neurons moved to unstable."""
    stable = np.concatenate([part.deactivated, part.activated])
    demoted = stable[rng.uniform(size=len(stable)) < frac]
    return LayerPartition(
        np.setdiff1d(part.deactivated, demoted),
        np.setdiff1d(part.activated, demoted),
        np.union1d(part.unstable, demoted),
        part.width,
    )


@pytest.mark.parametrize("method", ["interval", "crown"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_hidden=st.integers(1, 4),
    width=st.integers(2, 10),
    output_dim=st.integers(1, 2),
    stable_fraction=st.floats(0.0, 1.0),
    demote=st.floats(0.0, 1.0),
)
def test_reduce_network_matches_original_on_box(
    method, seed, n_hidden, width, output_dim, stable_fraction, demote
):
    net, _ = generate_network(n_hidden, width, 3, output_dim, stable_fraction, seed=seed)
    box = Box(np.zeros(3), np.ones(3))
    table = compute_bounds(net, box, method)
    rng = np.random.default_rng(seed)
    parts = [_demote(p, rng, demote) for p in classify(table)]
    reduced, report = reduce_network(net, box, method=method, partitions=parts)
    relus = [l.width for l in as_sequential(reduced).relus]
    assert sum(relus) == report.relu_after <= report.relu_before
    xs = np.vstack([box.sample(500, rng), box.corners(64)])
    np.testing.assert_allclose(forward_batch(reduced, xs), forward_batch(net, xs), atol=1e-9)

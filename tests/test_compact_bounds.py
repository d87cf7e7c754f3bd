"""The composed crown pass on large hidden layers against the plain one.

bounds.COMPACT_MIN_ENTRIES decides which hidden layers enter backward passes
composed: dead neurons dropped, active ones merged into the pre-activation
map of the layer. Raising it past every layer gives the plain arithmetic,
so each test bounds the same chain both ways and compares.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import member, root_one, split_one
from redkit import (
    Box,
    Chain,
    LayerPartition,
    PropertySpec,
    compute_bounds,
    forward_batch,
    from_sequential,
    reduce_network,
)
from redkit import bounds, verify
from redkit.bounds import (
    _backward_from,
    _enter,
    bound_layers,
    chain_margin_lower_bounds,
    relu_relaxation,
)
from redkit.errors import ContractError
from redkit.verify import ACTIVE, INACTIVE

PLAIN = 1 << 62  # no layer is that large


def _planted_chain(seed, widths, dead=0.4, active=0.3):
    """Random chain whose hidden layers hold planted dead and active neurons.

    Each planted neuron's bias puts its whole interval range on one side of
    zero, so the interval step already proves it stable; the rest keep a
    small random bias and are mostly unstable. seed is an integer or a
    numpy Generator.
    """
    rng = np.random.default_rng(seed)
    box = Box(-np.ones(widths[0]), np.ones(widths[0]))
    v_lo, v_hi = box.lower, box.upper
    wb = []
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        W = rng.normal(scale=1.0 / np.sqrt(w_in), size=(w_out, w_in))
        b = rng.normal(scale=0.1, size=w_out)
        if i < len(widths) - 2:
            Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
            lo, hi = Wp @ v_lo + Wn @ v_hi, Wp @ v_hi + Wn @ v_lo
            kind = rng.uniform(size=w_out)
            b = np.where(kind < dead, -hi - 0.1, np.where(kind < dead + active, -lo + 0.1, b))
            v_lo, v_hi = np.maximum(lo + b, 0.0), np.maximum(hi + b, 0.0)
        wb.append((W, b))
    net = from_sequential(wb, widths[0])
    return net, Chain.of(net), box


def _crown(chain, box):
    """The root pass: every layer's (1, n) ranges and every hidden layer's (1, n) lines."""
    lower, upper, relaxations = [], [], []
    bound_layers(chain, box.lower[None], box.upper[None], lower, upper, relaxations)
    return lower, upper, relaxations


def _classes(lo, hi):
    return np.where(hi <= 0.0, -1, np.where(lo >= 0.0, 1, 0))


def _assert_same_live_bounds(lo_c, hi_c, lo_p, hi_p, hidden, tol=1e-12):
    """Equal classes; equal ranges, to tol of the layer's scale, off dead rows."""
    if hidden:
        assert np.array_equal(_classes(lo_c, hi_c), _classes(lo_p, hi_p))
    live = hi_p > 0.0 if hidden else np.ones(hi_p.shape, bool)
    scale = max(1.0, float(np.abs(lo_p).max()), float(np.abs(hi_p).max()))
    for got, want in ((lo_c, lo_p), (hi_c, hi_p)):
        np.testing.assert_allclose(got[live], want[live], rtol=tol, atol=tol * scale)


def _composed(chain, threshold):
    """Which hidden layers the threshold composes: their weight or the next one is that large."""
    sizes = [W.size for W, _ in chain.layers]
    return [max(sizes[k : k + 2]) >= threshold for k in range(chain.n_relu)]


def _pre_activations(chain, xs):
    out, h = [], xs
    for W, b in chain.layers:
        z = h @ W.T + b
        out.append(z)
        h = np.maximum(z, 0.0)
    return out


# (widths, threshold): the real threshold, which composes the 300x8 first
# layer for its 256x300 successor, then a lowered one that makes composed
# and plain layers alternate (sizes 512, 4096, 512, 64, 512, 4096, 192
# against 2048: two composed, two plain, two composed, so the second run of
# composed layers sits on plain post-ReLU columns), then one that composes
# every hidden layer
_CASES = [
    ([8, 300, 256, 256, 3], bounds.COMPACT_MIN_ENTRIES),
    ([8, 64, 64, 8, 8, 64, 64, 3], 2048),
    ([8, 64, 64, 16, 256, 3], 1),
]


@pytest.mark.parametrize("widths,threshold", _CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_compacted_pass_matches_the_plain_one(monkeypatch, widths, threshold, seed):
    net, chain, box = _planted_chain(seed, widths)
    monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", PLAIN)
    lower_p, upper_p, relax_p = _crown(chain, box)
    assert all(r.composed is None for r in relax_p)
    monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", threshold)
    lower_c, upper_c, relax_c = _crown(chain, box)
    composed = _composed(chain, threshold)
    assert [r.composed is not None for r in relax_c] == composed
    assert any(composed)

    for k in range(len(chain.layers)):
        hidden = k < chain.n_relu
        _assert_same_live_bounds(lower_c[k], upper_c[k], lower_p[k], upper_p[k], hidden)
        if hidden and composed[k]:
            # the form keeps the root's unstable and active neurons, and a
            # dead row keeps a range that holds the plain one (its interval
            # range, when interval proves it dead) and stays dead
            c = relax_c[k].composed
            classes = _classes(lower_p[k][0], upper_p[k][0])
            assert np.array_equal(c.unstable, np.flatnonzero(classes == 0))
            assert np.array_equal(c.active, np.flatnonzero(classes == 1))
            dead = upper_p[k] <= 0.0
            assert dead.any()
            tol = 1e-12 * max(1.0, float(np.abs(lower_p[k]).max()))
            assert np.all(lower_c[k][dead] <= lower_p[k][dead] + tol)
            assert np.all(upper_c[k][dead] >= upper_p[k][dead] - tol)
            assert np.all(upper_c[k][dead] <= 0.0)

    xs = np.vstack([box.sample(400, np.random.default_rng(seed)), box.lower, box.upper])
    for k, z in enumerate(_pre_activations(chain, xs)):
        mag = 1e-9 * (1.0 + np.abs(z).max())
        assert np.all(z >= lower_c[k] - mag) and np.all(z <= upper_c[k] + mag)

    W, b = chain.layers[-1]
    C = np.eye(W.shape[0])[:2] - np.eye(W.shape[0])[[1, 2]]
    m_p = chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], C @ W, C @ b,
                                    relax_p)
    m_c = chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], C @ W, C @ b,
                                    relax_c)
    np.testing.assert_allclose(m_c, m_p, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(m_p).max()))


def test_layers_below_the_threshold_keep_the_plain_arithmetic(monkeypatch):
    _, chain, box = _planted_chain(3, [8, 64, 64, 3])
    assert all(W.size < bounds.COMPACT_MIN_ENTRIES for W, _ in chain.layers)
    lower_d, upper_d, relax_d = _crown(chain, box)
    assert all(r.composed is None for r in relax_d)
    monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", PLAIN)
    lower_p, upper_p, _ = _crown(chain, box)
    for got, want in zip(lower_d + upper_d, lower_p + upper_p):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("threshold", [bounds.COMPACT_MIN_ENTRIES, 1])
def test_split_leaf_with_pins_matches_the_plain_pass(monkeypatch, threshold):
    net, chain, box = _planted_chain(5, [8, 300, 256, 256, 3])
    W, b = chain.layers[-1]
    C = np.array([[1.0, -1.0, 0.0]])
    xs = box.sample(4000, np.random.default_rng(5))
    pre = _pre_activations(chain, xs)
    leaves = {}
    for mode, value in (("plain", PLAIN), ("composed", threshold)):
        monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", value)
        leaf = root_one(chain, box)
        path = []
        for step in range(4):
            free = [(k, j) for k in range(chain.n_relu)
                    for j in np.flatnonzero((leaf.lower[k] < 0) & (leaf.upper[k] > 0))]
            assert free
            # the same pins in both modes, each on the side the first sample
            # takes, so that the sign region holds at least that point
            k, j = free[int(np.random.default_rng(step).integers(len(free)))]
            sign = ACTIVE if pre[k][0, j] >= 0.0 else INACTIVE
            path.append((k, j, sign))
            child = split_one(chain, box, leaf, k, j, sign)
            assert child is not None
            leaf = child
        leaves[mode] = (leaf, path)
    (plain, path_p), (composed, path_c) = leaves["plain"], leaves["composed"]
    assert path_p == path_c
    assert any(r.composed is not None for r in composed.relaxations)
    for k in range(chain.n_relu):
        assert np.array_equal(plain.signs[k], composed.signs[k])
        _assert_same_live_bounds(
            composed.lower[k], composed.upper[k], plain.lower[k], plain.upper[k], True
        )

    inside = np.ones(len(xs), dtype=bool)
    for k, j, sign in path_c:
        inside &= pre[k][:, j] * sign >= 0.0
    assert inside[0]
    for k in range(chain.n_relu):
        z = pre[k][inside]
        mag = 1e-9 * (1.0 + np.abs(z).max())
        assert np.all(z >= composed.lower[k] - mag) and np.all(z <= composed.upper[k] + mag)
    margins = {
        mode: chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], C @ W, C @ b,
                                        leaf.relaxations)
        for mode, (leaf, _) in leaves.items()
    }
    np.testing.assert_allclose(margins["composed"], margins["plain"], rtol=1e-12, atol=1e-12)
    ys = pre[-1][inside] @ C.T
    assert ys.min() >= margins["composed"][0, 0] - 1e-9


def test_backward_pass_never_writes_into_its_rows():
    # bab_verify hands every leaf the same margin rows; a pass that wrote
    # into them would corrupt every later leaf
    _, chain, box = _planted_chain(7, [8, 300, 256, 256, 3])
    lower, upper, relaxations = _crown(chain, box)
    assert all(r.composed is not None for r in relaxations)
    W, b = chain.layers[-1]
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]) @ W
    const = np.array([0.5, -0.5])
    A0, const0 = A.copy(), const.copy()
    A.flags.writeable = False
    const.flags.writeable = False
    rows = _enter(relaxations, chain.n_relu - 1, A, const)
    for a in rows:
        a.flags.writeable = False
    rows0 = [a.copy() for a in rows]
    for upper_pass in (False, True):
        _backward_from(chain, chain.n_relu, *rows, relaxations, upper_pass)
    chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], A, const, relaxations)
    assert np.array_equal(A, A0) and np.array_equal(const, const0)
    assert all(np.array_equal(a, a0) for a, a0 in zip(rows, rows0))
    # and the composed weights are not the chain's own arrays
    for k, r in enumerate(relaxations):
        assert not np.shares_memory(r.composed.weight, chain.layers[k][0])


def _free(leaf):
    """The unstable (layer, neuron) pairs of a leaf."""
    return [(k, j) for k in range(len(leaf.lower))
            for j in np.flatnonzero((leaf.lower[k] < 0) & (leaf.upper[k] > 0))]


@pytest.mark.parametrize("threshold", [bounds.COMPACT_MIN_ENTRIES, 1])
def test_a_chain_with_a_large_layer_is_split_in_batches(monkeypatch, threshold):
    # parents of depths 0 to 3, each split both ways in one batch, against
    # the same splits made one parent at a time on the plain arithmetic
    net, chain, box = _planted_chain(5, [8, 300, 256, 256, 3])
    W, b = chain.layers[-1]
    C = np.array([[1.0, -1.0, 0.0]])
    pre = _pre_activations(chain, box.sample(1, np.random.default_rng(5)))
    runs = {}
    for mode, value in (("plain", PLAIN), ("composed", threshold)):
        monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", value)
        parents = [root_one(chain, box)]
        for step in range(3):
            free = _free(parents[-1])
            # each pin on the side the sample takes, so that no parent is empty
            k, j = free[int(np.random.default_rng(step).integers(len(free)))]
            sign = ACTIVE if pre[k][0, j] >= 0 else INACTIVE
            parents.append(split_one(chain, box, parents[-1], k, j, sign))
        splits = []
        for depth, parent in enumerate(parents):
            free = _free(parent)
            k, j = free[int(np.random.default_rng(10 + depth).integers(len(free)))]
            splits += [(parent, k, j, ACTIVE), (parent, k, j, INACTIVE)]
        runs[mode] = splits
    assert [s[1:] for s in runs["plain"]] == [s[1:] for s in runs["composed"]]
    assert len({k for _, k, _, _ in runs["composed"]}) > 1

    parents, ks, js, signs = zip(*runs["composed"])
    batch = verify.LeafBatch.concat([p.batch for p in parents])
    children = verify.split_leaf(chain, box, batch, ks, js, signs)
    root = parents[0].batch
    for r, shared in zip(children.relaxations, root.relaxations):
        assert r.composed is shared.composed
    assert any(r.composed is not None for r in children.relaxations)
    margins = chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], C @ W, C @ b,
                                        children.relaxations)
    monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", PLAIN)
    for i, (parent, k, j, sign) in enumerate(runs["plain"]):
        want = split_one(chain, box, parent, k, j, sign)
        assert bool(children.empty[i]) == (want is None)
        if want is None:
            continue
        got = member(children, i)
        for layer in range(chain.n_relu):
            assert np.array_equal(got.signs[layer], want.signs[layer])
            _assert_same_live_bounds(got.lower[layer], got.upper[layer],
                                     want.lower[layer], want.upper[layer], True)
        want_m = chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], C @ W,
                                           C @ b, want.relaxations)[0]
        np.testing.assert_allclose(margins[i], want_m, rtol=1e-12,
                                   atol=1e-12 * max(1.0, np.abs(want_m).max()))

    monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", threshold)
    sizes = []
    real_split = verify.split_leaf

    def recording_split(chain, box, parents, *rest):
        sizes.append(len(parents))
        return real_split(chain, box, parents, *rest)

    monkeypatch.setattr(verify, "split_leaf", recording_split)
    xs = box.sample(2000, np.random.default_rng(0))
    ys = forward_batch(net, xs) @ C.T
    spec = PropertySpec(box, C, -ys.min(axis=0), name="y0_minus_y1")
    v = verify.bab_verify(net, spec, max_splits=6)
    assert v.splits > 0
    assert max(sizes) > 1


@pytest.mark.parametrize("case", ["fig1", "wide"])
def test_the_root_is_a_batch_of_one(case, fig1_net, unit_box):
    # compute_bounds's crown table is member 0 of root_leaf, whose lines are
    # those of its ranges, and verify_incomplete bounds the margins on that
    # batch of one
    if case == "fig1":
        net, chain, box = fig1_net, Chain.of(fig1_net), unit_box
        C, d = np.array([[1.0, 0.0], [1.0, -1.0]]), np.array([3.0, 0.0])
    else:
        net, chain, box = _planted_chain(5, [8, 300, 256, 256, 3])
        C, d = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]), np.array([0.5, 0.0])
    table = compute_bounds(net, box, "crown")
    root = verify.root_leaf(chain, box)
    assert len(root) == 1
    for k in range(chain.n_relu):
        lo, hi = table.pre_activation(k)
        assert np.array_equal(root.lower[k][0], lo) and np.array_equal(root.upper[k][0], hi)
        for line in ("slope_lo", "slope_up", "icpt_up"):
            want = getattr(relu_relaxation(lo[None], hi[None]), line)
            assert np.array_equal(getattr(root.relaxations[k], line), want)
    W, b = chain.layers[-1]
    margins = chain_margin_lower_bounds(chain, box.lower[None], box.upper[None], C @ W,
                                        C @ b + d, root.relaxations)
    assert margins.shape == (1, len(C))
    v = verify.verify_incomplete(net, PropertySpec(box, C, d, name="margins"))
    assert np.array_equal(v.bound, margins.min())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), depth=st.integers(1, 4), mixed=st.booleans())
def test_composed_bounds_match_the_plain_pass_on_random_chains(seed, depth, mixed):
    # every hidden layer composed (threshold 1), or, when mixed, the layers
    # whose weight or successor's reaches a size drawn from the chain's own
    rng = np.random.default_rng(seed)
    widths = [int(rng.integers(2, 7))] + [int(rng.integers(3, 25)) for _ in range(depth)] + [2]
    net, chain, box = _planted_chain(rng, widths)
    sizes = [W.size for W, _ in chain.layers]
    threshold = int(rng.choice(sizes)) if mixed else 1
    xs = np.vstack([box.sample(500, rng), box.corners(64, rng)])
    pre = _pre_activations(chain, xs)
    ys = pre[-1] @ np.array([1.0, -1.0])
    # the 1e-6 keeps the margin off zero where the output is constant on the
    # box, so that the two passes' rounding cannot decide the verdict
    t = ys.min() - rng.uniform(0.0, 0.3) * (ys.max() - ys.min()) - 1e-6
    spec = PropertySpec(box, np.array([[1.0, -1.0]]), np.array([-t]), name="y0_minus_y1")
    W, b = chain.layers[-1]
    A, const = spec.rows @ W, spec.rows @ b + spec.offsets

    runs = {}
    for mode, value in (("plain", PLAIN), ("composed", threshold)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "COMPACT_MIN_ENTRIES", value)
            root = verify.root_leaf(chain, box)
            root_active = [lo[0] >= 0.0 for lo in root.lower]
            loosened = []  # root-active neurons that a leaf re-bound puts below zero
            lower, upper, _ = _crown(chain, box)
            if mode == "plain":  # the same pins in both modes, on every layer's free neurons
                free = [(k, j) for k in range(chain.n_relu)
                        for j in np.flatnonzero((root.lower[k][0] < 0) & (root.upper[k][0] > 0))]
                pins = [free[i] for i in rng.permutation(len(free))[:6]]
                signs = [int(rng.choice([ACTIVE, INACTIVE])) for _ in pins]
            children = None
            if pins:
                ks, js = zip(*pins)
                parents = verify.LeafBatch.concat([root] * len(pins))
                children = verify.split_leaf(chain, box, parents, ks, js, signs)
            margins = None if children is None else chain_margin_lower_bounds(
                chain, box.lower[None], box.upper[None], A, const, children.relaxations)

            # bab_verify splits the live chain, whose layers keep only the
            # neurons live at the root (verify._live_chain)
            live_active = [a[hi[0] > 0.0] for a, hi in zip(root_active, root.upper)]

            def recording_split(chain, box, parents, *rest, real=verify.split_leaf):
                kids = real(chain, box, parents, *rest)
                for k, lo in enumerate(kids.lower):
                    loosened.extend(np.argwhere((lo < 0.0) & live_active[k] & ~kids.empty[:, None]))
                return kids

            mp.setattr(verify, "split_leaf", recording_split)
            verdict = verify.bab_verify(net, spec, max_splits=20)
            runs[mode] = SimpleNamespace(root=root, lower=lower, upper=upper, children=children,
                                         margins=margins, verdict=verdict, loosened=loosened)
    plain, comp = runs["plain"], runs["composed"]
    assert [r.composed is not None for r in comp.root.relaxations] == _composed(chain, threshold)

    for k, z in enumerate(pre):
        hidden = k < chain.n_relu
        _assert_same_live_bounds(comp.lower[k], comp.upper[k], plain.lower[k], plain.upper[k],
                                 hidden, tol=1e-9)
        mag = 1e-9 * (1.0 + np.abs(z).max())
        assert np.all(z >= comp.lower[k] - mag) and np.all(z <= comp.upper[k] + mag)
    if pins:
        assert np.array_equal(comp.children.empty, plain.children.empty)
        for i in np.flatnonzero(~plain.children.empty):
            got, want = member(comp.children, i), member(plain.children, i)
            k, j = pins[i]
            inside = pre[k][:, j] * signs[i] >= 0.0
            for layer in range(chain.n_relu):
                assert np.array_equal(got.signs[layer], want.signs[layer])
                z = pre[layer][inside]
                mag = 1e-9 * (1.0 + np.abs(z).max(initial=0.0))
                assert np.all(z >= got.lower[layer] - mag) and np.all(z <= got.upper[layer] + mag)
            assert np.all(ys[inside] - t >= comp.margins[i, 0] - 1e-9)
            # the composed form keeps a root-active neuron exact; a plain leaf
            # whose re-bound puts one below zero (CROWN's adaptive lower line
            # is not monotone in its range) relaxes it instead, and then the
            # two passes are both sound but no longer the same sums
            if not all(np.all(want.lower[layer][root_active[layer]] >= 0.0)
                       for layer in range(chain.n_relu)):
                continue
            for layer in range(chain.n_relu):
                _assert_same_live_bounds(got.lower[layer], got.upper[layer],
                                         want.lower[layer], want.upper[layer], True, tol=1e-9)
            scale = max(1.0, float(np.abs(plain.margins[i]).max()))
            np.testing.assert_allclose(comp.margins[i], plain.margins[i], rtol=1e-9, atol=1e-9 * scale)
    v_c, v_p = comp.verdict, plain.verdict
    for v in (v_c, v_p):
        assert not v.verified or np.all(ys - t >= 0.0)
    if not plain.loosened:  # every leaf of the search bounded by the same sums
        assert (v_c.status, v_c.splits, v_c.note) == (v_p.status, v_p.splits, v_p.note)


def test_batches_from_different_roots_cannot_be_concatenated():
    # each root pass builds its own composed forms, which only its leaves share
    _, chain, box = _planted_chain(7, [8, 300, 256, 256, 3])
    one, other = verify.root_leaf(chain, box), verify.root_leaf(chain, box)
    assert all(r.composed is not None for r in one.relaxations)
    assert len(verify.LeafBatch.concat([one, one])) == 2
    with pytest.raises(ContractError, match="different roots"):
        verify.LeafBatch.concat([one, other])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), depth=st.integers(1, 4),
       mode=st.sampled_from(["plain", "mixed", "composed"]))
def test_bab_on_the_live_chain_matches_bab_on_the_network_without_its_dead_neurons(
        seed, depth, mode):
    # bab_verify deletes the neurons its root proves dead before branching;
    # reduce_network with only those neurons deactivated deletes the same
    # ones from the network. Both searches then add up the same terms, less
    # the dead neurons' exact zeros, so they decide alike, provided that the
    # same layers enter them composed: none, every one, or, when mixed, the
    # layers that a size drawn from each chain's own selects in both
    rng = np.random.default_rng(seed)
    widths = [int(rng.integers(2, 7))] + [int(rng.integers(3, 25)) for _ in range(depth)] + [2]
    net, chain, box = _planted_chain(rng, widths)
    xs = np.vstack([box.sample(500, rng), box.corners(64, rng)])
    ys = forward_batch(net, xs) @ np.array([1.0, -1.0])
    # the 1e-6 keeps the margin off zero where the output is constant on the box
    t = ys.min() - rng.uniform(0.0, 0.3) * (ys.max() - ys.min()) - 1e-6
    spec = PropertySpec(box, np.array([[1.0, -1.0]]), np.array([-t]), name="y0_minus_y1")

    def without_dead_neurons():  # partitions that deactivate the root-dead neurons alone
        root = verify.root_leaf(chain, box)
        parts = [LayerPartition(np.flatnonzero(hi[0] <= 0.0), [], np.flatnonzero(hi[0] > 0.0),
                                hi.shape[1]) for hi in root.upper]
        reduced, _ = reduce_network(net, box, partitions=parts)
        alive = [k for k, hi in enumerate(root.upper) if (hi > 0.0).any()]
        return reduced, Chain.of(reduced), alive

    def pattern(threshold, alive=None):  # the composed layers: of the reduced chain, or
        if alive is None:                # of the full one's layers that it keeps
            return _composed(red_chain, threshold)
        return [_composed(chain, threshold)[k] for k in alive]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "COMPACT_MIN_ENTRIES", PLAIN)
        _, red_chain, alive = without_dead_neurons()
        if mode == "mixed":
            pairs = [(f, r) for f in {W.size for W, _ in chain.layers}
                     for r in {W.size for W, _ in red_chain.layers}
                     if pattern(f, alive) == pattern(r)]
            mixed = [p for p in pairs if len(set(pattern(p[1]))) == 2]
            t_full, t_red = sorted(mixed or pairs)[int(rng.integers(len(mixed or pairs)))]
        else:
            t_full = t_red = PLAIN if mode == "plain" else 1
        mp.setattr(bounds, "COMPACT_MIN_ENTRIES", t_full)
        reduced, red_chain, alive = without_dead_neurons()
        assert red_chain.n_relu == len(alive)
        v_net = verify.bab_verify(net, spec, max_splits=40)
        mp.setattr(bounds, "COMPACT_MIN_ENTRIES", t_red)
        assert pattern(t_full, alive) == pattern(t_red)
        v_red = verify.bab_verify(reduced, spec, max_splits=40)
    assert (v_net.status, v_net.splits, v_net.note) == (v_red.status, v_red.splits, v_red.note)
    assert abs(v_net.bound - v_red.bound) <= 1e-9 * max(1.0, abs(v_red.bound))
    assert not v_net.verified or np.all(ys - t >= 0.0)

"""The compacted crown pass on large hidden layers against the plain one.

bounds.COMPACT_MIN_ENTRIES decides which hidden layers drop their dead
neurons from backward passes. Raising it past every layer gives the plain
arithmetic, so each test bounds the same chain both ways and compares.
"""

import numpy as np
import pytest

from conftest import member, root_one, split_one
from redkit import Box, Chain, PropertySpec, compute_bounds, forward_batch, from_sequential
from redkit import bounds, verify
from redkit.bounds import _backward_from, bound_layers, chain_margin_lower_bounds, relu_relaxation
from redkit.verify import ACTIVE, INACTIVE

PLAIN = 1 << 62  # no layer is that large


def _planted_chain(seed, widths, dead=0.4, active=0.3):
    """Random chain whose hidden layers hold planted dead and active neurons.

    Each planted neuron's bias puts its whole interval range on one side of
    zero, so the interval step already proves it stable; the rest keep a
    small random bias and are mostly unstable.
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
    bound_layers(chain, box, lower, upper, relaxations)
    return lower, upper, relaxations


def _classes(lo, hi):
    return np.where(hi <= 0.0, -1, np.where(lo >= 0.0, 1, 0))


def _assert_same_live_bounds(lo_c, hi_c, lo_p, hi_p, hidden):
    """Equal classes; equal ranges, to 1e-12 of the layer's scale, off dead rows."""
    if hidden:
        assert np.array_equal(_classes(lo_c, hi_c), _classes(lo_p, hi_p))
    live = hi_p > 0.0 if hidden else np.ones(hi_p.shape, bool)
    scale = max(1.0, float(np.abs(lo_p).max()), float(np.abs(hi_p).max()))
    for got, want in ((lo_c, lo_p), (hi_c, hi_p)):
        np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=1e-12 * scale)


def _pre_activations(chain, xs):
    out, h = [], xs
    for W, b in chain.layers:
        z = h @ W.T + b
        out.append(z)
        h = np.maximum(z, 0.0)
    return out


# (widths, threshold): the real threshold on layers of at least 2**16
# entries, then lowered ones that make plain and compacted layers alternate
# (sizes 512, 4096, 1024, 4096 against 2048) or compact every hidden layer
_CASES = [
    ([8, 300, 256, 256, 3], bounds.COMPACT_MIN_ENTRIES),
    ([8, 64, 64, 16, 256, 3], 2048),
    ([8, 64, 64, 16, 256, 3], 1),
]


@pytest.mark.parametrize("widths,threshold", _CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_compacted_pass_matches_the_plain_one(monkeypatch, widths, threshold, seed):
    net, chain, box = _planted_chain(seed, widths)
    monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", PLAIN)
    lower_p, upper_p, relax_p = _crown(chain, box)
    assert all(r.compact is None for r in relax_p)
    monkeypatch.setattr(bounds, "COMPACT_MIN_ENTRIES", threshold)
    lower_c, upper_c, relax_c = _crown(chain, box)
    large = [W.size >= threshold for W, _ in chain.layers[: chain.n_relu]]
    assert [r.compact is not None for r in relax_c] == large
    assert any(large)

    for k in range(len(chain.layers)):
        hidden = k < chain.n_relu
        _assert_same_live_bounds(lower_c[k], upper_c[k], lower_p[k], upper_p[k], hidden)
        if hidden and large[k]:
            # a dead row keeps a range that holds the plain one (its interval
            # range, when interval proves it dead) and stays dead
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
    m_p = chain_margin_lower_bounds(chain, box, C @ W, C @ b, relax_p)
    m_c = chain_margin_lower_bounds(chain, box, C @ W, C @ b, relax_c)
    np.testing.assert_allclose(m_c, m_p, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(m_p).max()))


def test_layers_below_the_threshold_keep_the_plain_arithmetic(monkeypatch):
    _, chain, box = _planted_chain(3, [8, 64, 64, 3])
    assert all(W.size < bounds.COMPACT_MIN_ENTRIES for W, _ in chain.layers)
    lower_d, upper_d, relax_d = _crown(chain, box)
    assert all(r.compact is None for r in relax_d)
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
    for mode, value in (("plain", PLAIN), ("compact", threshold)):
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
    (plain, path_p), (compact, path_c) = leaves["plain"], leaves["compact"]
    assert path_p == path_c
    assert any(r.compact is not None for r in compact.relaxations)
    for k in range(chain.n_relu):
        assert np.array_equal(plain.signs[k], compact.signs[k])
        _assert_same_live_bounds(
            compact.lower[k], compact.upper[k], plain.lower[k], plain.upper[k], True
        )

    inside = np.ones(len(xs), dtype=bool)
    for k, j, sign in path_c:
        inside &= pre[k][:, j] * sign >= 0.0
    assert inside[0]
    for k in range(chain.n_relu):
        z = pre[k][inside]
        mag = 1e-9 * (1.0 + np.abs(z).max())
        assert np.all(z >= compact.lower[k] - mag) and np.all(z <= compact.upper[k] + mag)
    margins = {
        mode: chain_margin_lower_bounds(chain, box, C @ W, C @ b, leaf.relaxations)
        for mode, (leaf, _) in leaves.items()
    }
    np.testing.assert_allclose(margins["compact"], margins["plain"], rtol=1e-12, atol=1e-12)
    ys = pre[-1][inside] @ C.T
    assert ys.min() >= margins["compact"][0, 0] - 1e-9


def test_backward_pass_never_writes_into_its_rows():
    # bab_verify hands every leaf the same margin rows; a pass that wrote
    # into them would corrupt every later leaf
    _, chain, box = _planted_chain(7, [8, 300, 256, 256, 3])
    lower, upper, relaxations = _crown(chain, box)
    assert all(r.compact is not None for r in relaxations[1:])
    W, b = chain.layers[-1]
    A = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]) @ W
    const = np.array([0.5, -0.5])
    A0, const0 = A.copy(), const.copy()
    A.flags.writeable = False
    const.flags.writeable = False
    for upper_pass in (False, True):
        _backward_from(chain, chain.n_relu, A, const, relaxations, box, upper_pass)
    assert np.array_equal(A, A0) and np.array_equal(const, const0)
    # and the compacted weights are not the chain's own arrays
    for k, r in enumerate(relaxations):
        if r.compact is not None:
            assert not np.shares_memory(r.compact.weight, chain.layers[k][0])


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
    for mode, value in (("plain", PLAIN), ("compact", threshold)):
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
    assert [s[1:] for s in runs["plain"]] == [s[1:] for s in runs["compact"]]
    assert len({k for _, k, _, _ in runs["compact"]}) > 1

    parents, ks, js, signs = zip(*runs["compact"])
    batch = verify.LeafBatch.concat([p.batch for p in parents])
    children = verify.split_leaf(chain, box, batch, ks, js, signs)
    root = parents[0].batch
    for r, shared in zip(children.relaxations, root.relaxations):
        assert r.compact is shared.compact
    assert any(r.compact is not None for r in children.relaxations)
    margins = chain_margin_lower_bounds(chain, box, C @ W, C @ b, children.relaxations)
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
        want_m = chain_margin_lower_bounds(chain, box, C @ W, C @ b, want.relaxations)[0]
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
    margins = chain_margin_lower_bounds(chain, box, C @ W, C @ b + d, root.relaxations)
    assert margins.shape == (1, len(C))
    v = verify.verify_incomplete(net, PropertySpec(box, C, d, name="margins"))
    assert np.array_equal(v.bound, margins.min())

"""Margin verification: one CROWN pass, then branch and bound on ReLU signs.

Every bound here is CROWN's (bounds.bound_layers). A property holds when
every margin row stays nonnegative over the box. The certificate threshold
is nonnegative rather than strictly positive, so a margin that attains
exactly zero still counts as proved; counterexamples are points with a
strictly negative margin.

Branching never splits the input box and never rewrites the network. The
network is read once into a fixed affine-ended chain of (W, b) pairs, and a
branch is a sign region of the box: each leaf carries, per hidden layer, an
int8 sign array (-1 pinned inactive, 0 free, +1 pinned active) next to that
layer's pre-activation bounds and ReLU relaxation. Pinning neuron j of layer
k clamps its range to [0, u] or [l, 0], which makes its relaxation exact,
and bounds layers k+1 onward again; the child shares the parent's arrays
for the layers before k. Not every row of those layers is bounded again
(bounds.bound_layers): a neuron the parent proves dead keeps the parent's
range, and so does an unpinned neuron of the last hidden layer that the
parent proves active, whose lines are the identity on any range that stays
active. Every leaf's bounds are sound on its sign region.
A re-bound that puts a pinned neuron strictly on the wrong side of zero
shows that no box point has the pinned signs, and that leaf closes without
a margin.

Every leaf is a member of a LeafBatch, whose arrays carry a leading batch
axis; the root is a batch of one, bounded by the same layer loop. The
search bounds up to BATCH leaves per step as one batch, so one numpy call
serves every leaf, and each still re-bounds only the layers after its own
split. A composed hidden layer (bounds.COMPACT_MIN_ENTRIES) enters every
leaf's backward passes in the composed form built at the root
(bounds.relax_layer).

The root is bounded once per network and box. verify_incomplete leaves its
chain and root on the network it was called with, held weakly so that they
die with the network, and the next bab_verify on the same Network object
and an equal box takes them over instead of bounding again; the hand-off is
one-shot, so a later bab_verify bounds its own root. Before branching,
bab_verify runs on the live chain (_live_chain): every neuron that the root
proves dead (hi <= 0) is deleted from the chain and from the root leaf, as
the paper deletes stable neurons before the verifier sees them. A dead
neuron adds exactly 0 to every interval and backward sum, so this changes
a bound only by summation order; verify_incomplete bounds the full chain.
"""
from __future__ import annotations

import numbers
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .bounds import (
    Box,
    Chain,
    _Composed,
    _ReluRelaxation,
    bound_layers,
    chain_margin_lower_bounds,
    clamp_to_signs,
    relu_relaxation,
)
from .errors import ContractError
from .netir import Network, forward_batch
from .specio import PropertySpec

VERIFIED = "verified"
UNKNOWN = "unknown"
TIMED_OUT = "timeout"

ACTIVE = 1
INACTIVE = -1

# Leaves bounded per branch-and-bound step. Chosen from {16, 32, 64} by
# paired perfbench runs on bab_tight (CHANGES.md).
BATCH = 16

# verify_incomplete's root by network: (box, chain, root leaf), taken over
# by the next bab_verify on that network and box. Keyed weakly, so an entry
# dies with its network; the values hold the network's arrays, not the
# network itself.
_ROOTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification run.

    bound is the worst certified margin lower bound seen across processed
    leaves; for non-verified outcomes it includes the failing leaf and is
    only informative, not a certificate.
    """

    status: str
    bound: float
    splits: int
    wall_time_s: float
    note: str = ""

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED


@dataclass(frozen=True)
class LeafBatch:
    """B sign regions of the box and the bounds of every hidden layer on them.

    The leaf of branch and bound, the root included (a batch of one).
    signs[k][b] holds member b's pins in hidden layer k (-1 inactive, 0
    free, +1 active); lower[k][b], upper[k][b] and the (B, n) lines of
    relaxations[k] are that layer's pre-activation range and ReLU
    lines, sound for every box point whose pre-activations have member b's
    pinned signs. A composed layer's backward form is the root's,
    shared by every batch split from it. empty[b] is True when member b's
    sign region turned out empty; its arrays then mean nothing.
    """

    lower: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, ...]
    relaxations: tuple
    signs: tuple[np.ndarray, ...]
    empty: np.ndarray

    @staticmethod
    def concat(batches) -> LeafBatch:
        """The members of batches, in order, copied into one batch.

        The batches must share their composed backward forms, which holds
        for batches split from one root.
        """

        def cat(field):
            return tuple(np.concatenate(arrays) for arrays in zip(*(getattr(b, field) for b in batches)))

        relaxations = []
        for rs in zip(*(b.relaxations for b in batches)):
            if any(r.composed is not rs[0].composed for r in rs):
                raise ContractError("batches split from different roots cannot be concatenated")
            lines = [np.concatenate([getattr(r, line) for r in rs])
                     for line in ("slope_lo", "slope_up", "icpt_up")]
            relaxations.append(_ReluRelaxation(*lines, rs[0].composed))
        return LeafBatch(
            cat("lower"), cat("upper"), tuple(relaxations), cat("signs"),
            np.concatenate([b.empty for b in batches]),
        )

    def take(self, rows) -> LeafBatch:
        """Members rows (an index array), copied into a new batch."""
        return LeafBatch(
            tuple(a[rows] for a in self.lower),
            tuple(a[rows] for a in self.upper),
            tuple(_rows(r, rows) for r in self.relaxations),
            tuple(a[rows] for a in self.signs),
            self.empty[rows],
        )

    def __len__(self) -> int:
        return self.empty.shape[0]


def root_leaf(chain: Chain, box: Box) -> LeafBatch:
    """The whole box, nothing pinned: a batch of one."""
    chain.check_box(box)
    lower, upper, relaxations = [], [], []
    bound_layers(chain, box.lower[None], box.upper[None], lower, upper, relaxations,
                 stop=chain.n_relu)
    return LeafBatch(
        tuple(lower),
        tuple(upper),
        tuple(relaxations),
        tuple(np.zeros(lo.shape, np.int8) for lo in lower),
        np.zeros(1, bool),
    )


def _live_chain(chain: Chain, root: LeafBatch) -> tuple[Chain, LeafBatch]:
    """The chain and its root without the hidden neurons that the root proves dead.

    A neuron with hi <= 0 at the root stays dead in every leaf below it
    (bound_layers keeps a dead row's range), and adds exactly 0 to every
    interval and backward sum. So its row of W_k, its column of W_{k+1} and
    its ranges, lines and signs go, and the bounds change only by summation
    order. A composed layer's unstable and active neurons, which are all
    kept, are re-indexed into the kept ones. Its weight's columns are the
    backward columns of the layer below (bounds._enter): a plain layer's
    neurons, whose dead ones go, or a composed layer's own weight columns
    followed by its unstable neurons, which lose what that weight lost.
    """
    keep = [np.flatnonzero(hi[0] > 0.0) for hi in root.upper]
    if all(len(kept) == hi.shape[-1] for kept, hi in zip(keep, root.upper)):
        return chain, root
    rows = keep + [np.arange(chain.layers[-1][0].shape[0])]
    cols = [np.arange(chain.input_width)] + keep
    layers = tuple((W[np.ix_(r, c)], b[r]) for (W, b), r, c in zip(chain.layers, rows, cols))
    relaxations = []
    below = None  # the backward columns of the layer below that stay; None for all
    for k, r in enumerate(root.relaxations):
        c = r.composed
        if c is None:
            below = keep[k]
        else:
            weight = c.weight
            if below is not None:  # its own columns: those below, then its unstable neurons
                weight = weight[:, below]
                below = np.concatenate([below, c.weight.shape[1] + np.arange(len(c.unstable))])
            c = _Composed(np.searchsorted(keep[k], c.unstable),
                          np.searchsorted(keep[k], c.active), weight, c.bias)
        lines = (a[:, keep[k]] for a in (r.slope_lo, r.slope_up, r.icpt_up))
        relaxations.append(_ReluRelaxation(*lines, c))

    def cut(arrays):
        return tuple(a[:, kept] for a, kept in zip(arrays, keep))

    live = LeafBatch(cut(root.lower), cut(root.upper), tuple(relaxations), cut(root.signs),
                     root.empty)
    return Chain(layers, chain.n_relu), live


def _same_box(a: Box, b: Box) -> bool:
    return a is b or (np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper))


def _check_split(chain: Chain, lower: tuple, k: int, j: int, sign: int) -> None:
    """Reject a split of a neuron that the leaf does not have, or a bad sign."""
    if not 0 <= k < chain.n_relu:
        raise ContractError(f"no hidden layer {k} to split")
    if not 0 <= j < lower[k].shape[-1]:
        raise ContractError(f"hidden layer {k} has no neuron {j}")
    if sign not in (ACTIVE, INACTIVE):
        raise ContractError(f"sign must be {ACTIVE} (active) or {INACTIVE} (inactive), got {sign!r}")


def _rows(r: _ReluRelaxation, rows) -> _ReluRelaxation:
    return _ReluRelaxation(r.slope_lo[rows], r.slope_up[rows], r.icpt_up[rows], r.composed)


def _set_rows(r: _ReluRelaxation, rows, new: _ReluRelaxation) -> None:
    r.slope_lo[rows], r.slope_up[rows], r.icpt_up[rows] = new.slope_lo, new.slope_up, new.icpt_up


def split_leaf(
    chain: Chain,
    box: Box,
    parents: LeafBatch,
    ks,
    js,
    signs,
) -> LeafBatch:
    """Pin neuron js[b] of hidden layer ks[b] of each parent b to signs[b] and re-bound.

    ks, js and signs hold one split per parent, each sign ACTIVE or
    INACTIVE. A child shares its parent's layers before its split, takes
    layer k as the parent's with neuron j clamped, and bounds the layers
    after k again with every pin re-applied. In those layers only the rows
    that may change are bounded (bound_layers): rows the parent proves dead,
    and unpinned rows of the last hidden layer that it proves active, keep
    the parent's ranges. Returns the children as a
    LeafBatch in the parents' order, empty sign regions flagged in its
    empty mask.

    The members are bounded in order of their split layer, so at layer l the
    ones split above it (k < l), which re-bound l, are a leading slice of
    the arrays; the ones split at l clamp their parent's range, and the rest
    keep it.
    """
    if not len(parents) == len(ks) == len(js) == len(signs) > 0:
        raise ContractError("a batch split needs one layer, neuron and sign per parent leaf")
    for k, j, sign in zip(ks, js, signs):
        _check_split(chain, parents.lower, k, j, sign)
    order = np.argsort(ks, kind="stable")
    ks, js = np.asarray(ks)[order], np.asarray(js)[order]
    signs = np.asarray(signs, np.int8)[order]
    first = int(ks[0])
    in_order = bool((order == np.arange(len(order))).all())

    def fresh(arrays, rows=lambda a: a[order]):
        # copies of what is written below, the layers from the first split on;
        # earlier layers are shared when the members already come in order
        return [a if l < first and in_order else rows(a) for l, a in enumerate(arrays)]

    lower, upper, pins = fresh(parents.lower), fresh(parents.upper), fresh(parents.signs)
    relax = fresh(parents.relaxations, lambda r: _rows(r, order))
    empty = np.zeros(len(order), bool)
    for l in range(first, chain.n_relu):
        c, d = np.searchsorted(ks, [l, l + 1])
        if c:  # members 0..c-1 were split above l: bound layer l again
            lo_c, hi_c = [a[:c] for a in lower], [a[:c] for a in upper]
            prefix_lo, prefix_hi = lo_c[:l], hi_c[:l]
            prefix_relax = [_rows(r, slice(c)) for r in relax[:l]]
            ok = bound_layers(
                chain, box.lower[None], box.upper[None], prefix_lo, prefix_hi, prefix_relax,
                start=l, stop=l + 1, signs=[a[:c] for a in pins], parent=(lo_c, hi_c),
            )
            empty[:c] |= ~ok
            if ok.any():
                lower[l][:c], upper[l][:c] = prefix_lo[l], prefix_hi[l]
                _set_rows(relax[l], slice(c), prefix_relax[l])
        if d > c:  # members c..d-1 pin a neuron of layer l
            g = slice(c, d)
            pins[l][np.arange(c, d), js[g]] = signs[g]
            lo, hi, e = clamp_to_signs(lower[l][g], upper[l][g], pins[l][g])
            empty[g] |= e
            lower[l][g], upper[l][g] = lo, hi
            _set_rows(relax[l], g, relu_relaxation(lo, hi))
    children = LeafBatch(tuple(lower), tuple(upper), tuple(relax), tuple(pins), empty)
    if in_order:
        return children
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return children.take(back)


def _margin_rows(chain: Chain, spec: PropertySpec) -> tuple[np.ndarray, np.ndarray]:
    """The margin rows folded into the readout layer: margins = A h + const."""
    W, b = chain.layers[-1]
    if spec.rows.shape[1] != W.shape[0]:
        raise ContractError(
            f"margin rows have {spec.rows.shape[1]} entries, output width is {W.shape[0]}"
        )
    return spec.rows @ W, spec.rows @ b + spec.offsets


def verify_incomplete(net: Network, spec: PropertySpec) -> Verdict:
    """Single CROWN pass; verified iff every margin bound is >= 0.

    The root it bounds stays on net for the next bab_verify on the same
    box (see the module docstring).
    """
    t0 = time.monotonic()
    if spec.rows.shape[0] == 0:
        return Verdict(VERIFIED, np.inf, 0, time.monotonic() - t0, "no constraints")
    chain = Chain.of(net).affine_ended()
    A, const = _margin_rows(chain, spec)
    root = root_leaf(chain, spec.box)
    _ROOTS[net] = (spec.box, chain, root)
    bound = float(_margins(chain, spec.box, root, A, const)[0])
    status = VERIFIED if bound >= 0.0 else UNKNOWN
    return Verdict(status, bound, 0, time.monotonic() - t0)


def _widest_unstable(lower, upper):
    """Per leaf, the unstable neuron with the widest pre-activation interval.

    lower/upper are the hidden layers' ranges of a batch of leaves, each with
    a leading batch axis. Returns (layer, neuron) index arrays, layer -1 for
    a leaf with no unstable neuron. Ties break toward the lowest (layer,
    neuron): argmax over the layers' widths laid end to end keeps the first
    maximum. Pinned neurons are clamped to one side of zero, so they are
    never candidates.
    """
    B = lower[0].shape[0] if lower else 1
    sizes = [lo.shape[-1] for lo in lower]
    if not sum(sizes):
        return np.full(B, -1), np.zeros(B, np.int64)
    widths = np.concatenate(
        [np.where((lo < 0.0) & (hi > 0.0), hi - lo, -np.inf) for lo, hi in zip(lower, upper)],
        axis=-1,
    )
    flat = widths.argmax(axis=-1)
    ends = np.cumsum(sizes)
    layer = np.searchsorted(ends, flat, side="right")
    neuron = flat - (ends - sizes)[layer]
    found = widths[np.arange(B), flat] > 0.0
    return np.where(found, layer, -1), neuron


def _bound_step(chain: Chain, box: Box, items: list, A, const):
    """Split the leaves that stack items name, as one batch, and bound their margins.

    An item is (batch, b, layer, neuron, sign): split member b of batch
    there. Returns the children as a LeafBatch, the minimum of each child's
    margin lower bounds, and the child of each item in item order (its
    position in the batch). A batch is gathered in order of split layer,
    the order split_leaf bounds it in.
    """
    order = sorted(range(len(items)), key=lambda i: items[i][2])
    runs: list = []  # consecutive members from one batch: (batch, members)
    for i in order:
        batch, b = items[i][:2]
        if runs and runs[-1][0] is batch:
            runs[-1][1].append(b)
        else:
            runs.append((batch, [b]))
    parts = [batch.take(rows) for batch, rows in runs]
    parents = parts[0] if len(parts) == 1 else LeafBatch.concat(parts)
    ks, js, signs = zip(*(items[i][2:] for i in order))
    children = split_leaf(chain, box, parents, ks, js, signs)
    return children, _margins(chain, box, children, A, const), np.argsort(order)


def _margins(chain: Chain, box: Box, batch: LeafBatch, A, const) -> np.ndarray:
    """Each member's minimum margin lower bound."""
    x_lo, x_hi = box.lower[None], box.upper[None]
    return chain_margin_lower_bounds(chain, x_lo, x_hi, A, const, batch.relaxations).min(axis=1)


def check_budget(timeout, max_splits) -> None:
    """Reject a branch-and-bound budget that cannot mean what it says.

    max_splits must be a nonnegative integer and timeout a nonnegative
    number of seconds; 0 times out at the first check. A negative or NaN
    timeout would time out at once or never.
    """
    if not (isinstance(max_splits, numbers.Integral) and max_splits >= 0):
        raise ContractError(f"max_splits must be a nonnegative integer, got {max_splits!r}")
    if not (isinstance(timeout, numbers.Real) and timeout >= 0):
        raise ContractError(f"timeout must be a nonnegative number of seconds, got {timeout!r}")


def bab_verify(
    net: Network,
    spec: PropertySpec,
    timeout: float = 60.0,
    max_splits: int = 100_000,
) -> Verdict:
    """Sign branching, depth-first in batches of up to BATCH leaves, until the margins certify.

    A split pins the widest unstable neuron inactive in one child and active
    in the other (see split_leaf); the inactive child is explored first.
    Each step pops up to BATCH open leaves off the end of the stack, and no
    more than max_splits - splits + 1, bounds them as one batch, and
    handles them in the order popped; the children go back so that the
    first leaf's inactive child is popped next. splits
    counts branch events; each adds two leaves. A leaf whose sign region
    turns out empty closes without touching the bound. A leaf with no
    unstable neuron left is affine and its CROWN lines are exact, so its
    margin bound is the affine minimum over the box; a negative one ends the
    search with unknown (the minimum may lie outside the leaf's sign region,
    so no counterexample is claimed). The search also stops at the first leaf that
    would exceed max_splits, and at the first timeout check past timeout
    seconds; each step checks once, after its bound pass and before it
    handles its leaves, which then count as open. The reported bound is the
    worst bound among closed leaves, plus the failing leaf's for
    non-verified outcomes.

    The root is the one that verify_incomplete left on net for an equal
    box, if it did so since the last bab_verify on net; else it is bounded
    here. wall_time_s and timeout count from the call, so a root taken over
    counts for neither. The search then runs on the live chain, without
    the neurons that the root proves dead (_live_chain).
    """
    check_budget(timeout, max_splits)
    t0 = time.monotonic()
    box = spec.box
    held = _ROOTS.pop(net, None)
    if spec.rows.shape[0] == 0:
        return Verdict(VERIFIED, np.inf, 0, time.monotonic() - t0, "no constraints")
    if held is not None and _same_box(held[0], box):
        _, chain, root = held
    else:
        chain = Chain.of(net).affine_ended()
        root = root_leaf(chain, box)
    chain, batch = _live_chain(chain, root)
    A, const = _margin_rows(chain, spec)
    margins, members = _margins(chain, box, batch, A, const), [0]
    stack: list = []  # open leaves: (batch, member, layer, neuron, sign)
    splits = 0
    worst = np.inf

    def done(status: str, bound: float, note: str = "") -> Verdict:
        return Verdict(status, float(bound), splits, time.monotonic() - t0, note)

    while True:
        if time.monotonic() - t0 > timeout:  # the leaves just bounded are still open
            return done(TIMED_OUT, worst, f"{len(stack) + len(members)} open branches")
        layers, neurons = _widest_unstable(batch.lower, batch.upper)
        opened = []
        for b in members:  # in the order popped
            if batch.empty[b]:  # no box point has these signs
                continue
            m = float(margins[b])
            if m >= 0.0:
                worst = min(worst, m)
                continue
            if layers[b] < 0:  # every neuron stable: m is the exact minimum over the box
                return done(UNKNOWN, min(worst, m), "affine leaf bound is negative")
            if splits >= max_splits:
                return done(UNKNOWN, min(worst, m), "split budget exhausted")
            splits += 1
            opened.append((b, int(layers[b]), int(neurons[b])))
        for b, k, j in reversed(opened):
            stack.append((batch, b, k, j, ACTIVE))
            stack.append((batch, b, k, j, INACTIVE))
        if not stack:
            return done(VERIFIED, worst)
        # a leaf popped past max_splits - splits + 1 would be bounded in vain
        # when every leaf before it needs a split: the search stops there
        items = [stack.pop() for _ in range(min(BATCH, len(stack), max_splits - splits + 1))]
        batch, margins, members = _bound_step(chain, box, items, A, const)


def find_grid_counterexample(
    net: Network, spec: PropertySpec, budget: int = 4096, seed: int = 0
) -> np.ndarray | None:
    """Cheap falsification: box-filling grid plus random samples.

    Returns the first input that spec.counterexamples flags (a strictly
    negative margin, any-mode: some row; all-mode: every row), or None.
    Absence of a hit proves nothing. budget must be a positive integer and
    seed a nonnegative one; a bool is neither.
    """
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 1:
        raise ContractError(f"budget must be a positive integer, got {budget!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ContractError(f"seed must be a nonnegative integer, got {seed!r}")
    box = spec.box
    d = box.dim
    rng = np.random.default_rng(seed)
    chunks = [box.lower[None, :] + box.widths[None, :] * 0.5]
    g = max(int(budget ** (1.0 / d)), 1)
    while g > 1 and g**d > budget:
        g -= 1
    if g >= 2:
        axes = [np.linspace(box.lower[i], box.upper[i], g) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        chunks.append(np.stack([m.ravel() for m in mesh], axis=1))
    used = sum(len(c) for c in chunks)
    if used < budget:
        chunks.append(box.sample(budget - used, rng))
    xs = np.vstack(chunks)
    for start in range(0, len(xs), 8192):
        batch = xs[start : start + 8192]
        hits = np.nonzero(spec.counterexamples(forward_batch(net, batch)))[0]
        if len(hits):
            return batch[hits[0]].copy()
    return None


"""Margin verification: one-shot bounding and branch-and-bound on ReLU signs.

A property holds when every margin row stays nonnegative over the box. The
certificate threshold is nonnegative rather than strictly positive, so a
margin that attains exactly zero still counts as proved; counterexamples are
points with a strictly negative margin.

Branching never splits the input box and never rewrites the network. The
network is read once into a fixed affine-ended chain of (W, b) pairs, and a
branch is a sign region of the box: each leaf carries, per hidden layer, an
int8 sign array (-1 pinned inactive, 0 free, +1 pinned active) next to that
layer's pre-activation bounds and ReLU relaxation. Pinning neuron j of layer
k clamps its range to [0, u] or [l, 0], which makes its relaxation exact,
and re-bounds only layers k+1 onward; the child shares the parent's arrays
for the layers before k. Every leaf's bounds are sound on its sign region.
A re-bound that puts a pinned neuron strictly on the wrong side of zero
shows that no box point has the pinned signs, and that leaf closes without
a margin.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    Box,
    Chain,
    bound_layers,
    chain_margin_lower_bounds,
    clamp_to_signs,
    relu_relaxation,
)
from .equivalence import sample_equivalence
from .errors import ContractError
from .netir import Network, forward_batch
from .specio import MODE_ANY, PropertySpec

VERIFIED = "verified"
UNKNOWN = "unknown"
TIMED_OUT = "timeout"

ACTIVE = 1
INACTIVE = -1


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
class Leaf:
    """One sign region of the box and the bounds of every hidden layer on it.

    signs[k] holds hidden layer k's pins (-1 inactive, 0 free, +1 active);
    lower[k], upper[k] and, for crown, relaxations[k] are that layer's
    pre-activation range and ReLU lines, sound for every box point whose
    pre-activations have the pinned signs.
    """

    lower: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, ...]
    relaxations: tuple
    signs: tuple[np.ndarray, ...]


def root_leaf(chain: Chain, box: Box, method: str = "crown", alpha_rule: str = "adaptive") -> Leaf:
    """The whole box, nothing pinned."""
    chain.check_box(box)
    lower: list = []
    upper: list = []
    relaxations: list = []
    bound_layers(chain, box, method, alpha_rule, lower, upper, relaxations, stop=chain.n_relu)
    signs = tuple(np.zeros(lo.shape[0], np.int8) for lo in lower)
    return Leaf(tuple(lower), tuple(upper), tuple(relaxations), signs)


def split_leaf(
    chain: Chain,
    box: Box,
    leaf: Leaf,
    k: int,
    j: int,
    sign: int,
    method: str = "crown",
    alpha_rule: str = "adaptive",
) -> Leaf | None:
    """Pin neuron j of hidden layer k to ACTIVE or INACTIVE and re-bound.

    Layers before k are shared with the parent, layer k is the parent's with
    neuron j clamped, and layers after k are bounded again with every pin
    re-applied. Returns None when the pinned sign region is empty.
    """
    if not 0 <= k < chain.n_relu:
        raise ContractError(f"no hidden layer {k} to split")
    if not 0 <= j < leaf.lower[k].shape[0]:
        raise ContractError(f"hidden layer {k} has no neuron {j}")
    if sign not in (ACTIVE, INACTIVE):
        raise ContractError(f"sign must be {ACTIVE} (active) or {INACTIVE} (inactive), got {sign!r}")
    pins = leaf.signs[k].copy()
    pins[j] = sign
    clamped = clamp_to_signs(leaf.lower[k], leaf.upper[k], pins)
    if clamped is None:
        return None
    lo, hi = clamped
    signs = leaf.signs[:k] + (pins,) + leaf.signs[k + 1 :]
    lower = list(leaf.lower[:k]) + [lo]
    upper = list(leaf.upper[:k]) + [hi]
    relaxations = list(leaf.relaxations[:k])
    if method == "crown":
        relaxations.append(relu_relaxation(lo, hi, alpha_rule))
    if not bound_layers(
        chain, box, method, alpha_rule, lower, upper, relaxations,
        start=k + 1, stop=chain.n_relu, signs=signs, parent=(leaf.lower, leaf.upper),
    ):
        return None
    return Leaf(tuple(lower), tuple(upper), tuple(relaxations), signs)


def _margin_rows(chain: Chain, spec: PropertySpec) -> tuple[np.ndarray, np.ndarray]:
    """The margin rows folded into the readout layer: margins = A h + const."""
    W, b = chain.layers[-1]
    if spec.rows.shape[1] != W.shape[0]:
        raise ContractError(
            f"margin rows have {spec.rows.shape[1]} entries, output width is {W.shape[0]}"
        )
    return spec.rows @ W, spec.rows @ b + spec.offsets


def verify_incomplete(
    net: Network,
    spec: PropertySpec,
    method: str = "crown",
    alpha_rule: str = "adaptive",
) -> Verdict:
    """Single bounding pass; verified iff every margin bound is >= 0."""
    t0 = time.monotonic()
    if spec.rows.shape[0] == 0:
        return Verdict(VERIFIED, np.inf, 0, time.monotonic() - t0, "no constraints")
    chain = Chain.of(net).affine_ended()
    A, const = _margin_rows(chain, spec)
    leaf = root_leaf(chain, spec.box, method, alpha_rule)
    lo = chain_margin_lower_bounds(
        chain, spec.box, A, const, method, leaf.lower, leaf.upper, leaf.relaxations
    )
    bound = float(lo.min())
    status = VERIFIED if bound >= 0.0 else UNKNOWN
    return Verdict(status, bound, 0, time.monotonic() - t0)


def _exact_affine_margin(chain: Chain, leaf: Leaf, A, const, box: Box) -> float:
    """Exact margin minimum over the box for a leaf with every neuron stable.

    With all signs fixed the network is affine, so composing the margin rows
    through sign masks and taking the interval minimum of the resulting
    affine map is exact, regardless of which (possibly loose) method
    produced the leaf's bounds.
    """
    for k in range(chain.n_relu - 1, -1, -1):
        lo, hi = leaf.lower[k], leaf.upper[k]
        passthrough = (lo >= 0.0) & (hi > 0.0)  # deactivated wins the l = u = 0 tie
        A = A * passthrough[None, :].astype(np.float64)
        W, b = chain.layers[k]
        const = const + A @ b
        A = A @ W
    Ap, An = np.maximum(A, 0.0), np.minimum(A, 0.0)
    lows = Ap @ box.lower + An @ box.upper + const
    return float(lows.min())


def _widest_unstable(leaf: Leaf) -> tuple[int, int] | None:
    """Unstable neuron with the widest pre-activation interval.

    Ties break toward the lowest (layer, neuron): with strict improvement
    required, the earliest candidate of maximal width wins. Pinned neurons
    are clamped to one side of zero, so they are never candidates.
    """
    best = None
    best_w = 0.0
    for k, (lo, hi) in enumerate(zip(leaf.lower, leaf.upper)):
        unstable = (lo < 0.0) & (hi > 0.0)
        if not unstable.any():
            continue
        widths = np.where(unstable, hi - lo, -np.inf)
        j = int(np.argmax(widths))
        if widths[j] > best_w:
            best_w = float(widths[j])
            best = (k, j)
    return best


def bab_verify(
    net: Network,
    spec: PropertySpec,
    method: str = "crown",
    alpha_rule: str = "adaptive",
    timeout: float = 60.0,
    max_splits: int = 100_000,
) -> Verdict:
    """Depth-first sign branching until every leaf's margins certify.

    A split pins the widest unstable neuron inactive in one child and active
    in the other (see split_leaf); the inactive child is explored first.
    splits counts branch events; each adds two leaves. A leaf whose sign
    region turns out empty closes without touching the bound. A leaf with no
    unstable neuron left is affine, so its margins are re-bounded exactly
    over the box before giving up; a negative exact bound ends the search
    with unknown (the minimum may lie outside the leaf's sign region, so no
    counterexample is claimed). The reported bound is the worst bound among
    closed leaves, plus the failing leaf's for non-verified outcomes.
    """
    t0 = time.monotonic()
    if spec.rows.shape[0] == 0:
        return Verdict(VERIFIED, np.inf, 0, time.monotonic() - t0, "no constraints")
    chain = Chain.of(net).affine_ended()
    A, const = _margin_rows(chain, spec)
    box = spec.box
    stack: list = [None]  # None is the root; a child is (parent leaf, layer, neuron, sign)
    splits = 0
    worst = np.inf

    def done(status: str, bound: float, note: str = "") -> Verdict:
        return Verdict(status, float(bound), splits, time.monotonic() - t0, note)

    while stack:
        if time.monotonic() - t0 > timeout:
            return done(TIMED_OUT, worst, f"{len(stack)} open branches")
        item = stack.pop()
        if item is None:
            leaf = root_leaf(chain, box, method, alpha_rule)
        else:
            leaf = split_leaf(chain, box, *item, method, alpha_rule)
            if leaf is None:  # no box point has these signs
                continue
        lo = chain_margin_lower_bounds(
            chain, box, A, const, method, leaf.lower, leaf.upper, leaf.relaxations
        )
        m = float(lo.min())
        if m >= 0.0:
            worst = min(worst, m)
            continue
        cand = _widest_unstable(leaf)
        if cand is None:
            exact = _exact_affine_margin(chain, leaf, A, const, box)
            if exact >= 0.0:
                worst = min(worst, exact)
                continue
            return done(UNKNOWN, min(worst, exact), "affine leaf bound is negative")
        if splits >= max_splits:
            return done(UNKNOWN, min(worst, m), "split budget exhausted")
        splits += 1
        k, j = cand
        stack.append((leaf, k, j, ACTIVE))
        stack.append((leaf, k, j, INACTIVE))
    return done(VERIFIED, worst)


def find_grid_counterexample(
    net: Network, spec: PropertySpec, budget: int = 4096, seed: int = 0
) -> np.ndarray | None:
    """Cheap falsification: box-filling grid plus random samples.

    Returns an input with a strictly negative margin (any-mode: some row;
    all-mode: every row), or None. Absence of a hit proves nothing.
    """
    if budget < 1:
        raise ContractError("budget must be positive")
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
        ys = forward_batch(net, batch)
        margins = ys @ spec.rows.T + spec.offsets[None, :]
        bad = (margins < 0).any(axis=1) if spec.mode == MODE_ANY else (margins < 0).all(axis=1)
        hits = np.nonzero(bad)[0]
        if len(hits):
            return batch[hits[0]].copy()
    return None


def bench_pair(
    original: Network,
    reduced: Network,
    spec: PropertySpec,
    method: str = "crown",
    alpha_rule: str = "adaptive",
    timeout: float = 60.0,
    max_splits: int = 100_000,
    repeats: int = 3,
    equiv_tol: float = 1e-3,
) -> dict:
    """Time identical verification runs on a network and its reduced twin.

    Refuses to compare networks that disagree on sampled points (the timing
    would be meaningless). Returns per-variant rows with median wall time and
    an agreement flag: the reduced variant must never lose a verdict the
    original achieved.
    """
    eq = sample_equivalence(original, reduced, spec.box, n=200, seed=7)
    if not eq.within(equiv_tol):
        raise ContractError(
            f"networks differ by {eq.max_abs_diff:.3g} on the box; refusing to benchmark"
        )
    rows = []
    verdicts = {}
    for label, net in (("original", original), ("reduced", reduced)):
        times = []
        verdict = None
        for _ in range(max(repeats, 1)):
            verdict = bab_verify(net, spec, method, alpha_rule, timeout, max_splits)
            times.append(verdict.wall_time_s)
        verdicts[label] = verdict
        rows.append(
            {
                "property": spec.name,
                "variant": label,
                "status": verdict.status,
                "median_time_s": float(np.median(times)),
                "splits": verdict.splits,
                "bound": verdict.bound,
            }
        )
    agreement = not (verdicts["original"].verified and not verdicts["reduced"].verified)
    return {"rows": rows, "agreement": agreement, "equiv_max_diff": eq.max_abs_diff}

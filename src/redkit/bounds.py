"""Bound propagation over sequential ReLU networks.

Two methods share one table format: interval (forward ranges, cheap and
loose) and CROWN, a backward linear-relaxation pass (per-neuron
slope/intercept lines, tighter). Bounds are always sound: every concrete
pre-activation lies inside the reported range. The CROWN layer loop
(bound_layers) and the backward pass run on a batch of sign regions, every
array with a leading batch axis; the root pass over the whole box is a
batch of one, and branch and bound bounds its leaves in larger batches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError, InternalInvariantError
from .netir import Chain, Network, as_sequential

# A hidden layer whose weight matrix has at least this many entries is bounded
# without its interval-dead rows and enters backward passes in compacted form
# (see relax_layer). Below it, the per-call numpy overhead of compacting
# outweighs the work saved, so small layers keep the plain arithmetic.
COMPACT_MIN_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Box:
    """Axis-aligned input region [lower, upper]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64).copy()
        hi = np.asarray(self.upper, dtype=np.float64).copy()
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ContractError(f"box bounds must be equal-length vectors, got {lo.shape}, {hi.shape}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ContractError("box bounds must be finite")
        if np.any(lo > hi):
            bad = int(np.argmax(lo > hi))
            raise ContractError(f"box dimension {bad}: lower {lo[bad]} exceeds upper {hi[bad]}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.uniform(size=(n, self.dim))
        return self.lower + u * self.widths

    def corners(self, cap: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """All 2^d corners when they fit in cap, else cap random corners."""
        d = self.dim
        if d <= 30 and 2**d <= cap:
            bits = ((np.arange(2**d)[:, None] >> np.arange(d)[None, :]) & 1).astype(np.float64)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            bits = rng.integers(0, 2, size=(cap, d)).astype(np.float64)
        return self.lower + bits * self.widths


@dataclass(frozen=True)
class _Compacted:
    """A large hidden layer in backward form: its live neurons only.

    Built once, in the root pass, from the root's ranges, and shared by
    every leaf below it. order lists the neurons that are not dead at the
    root (hi > 0), the n_unstable unstable ones first, then the active ones.
    weight and bias are the layer's rows in that order; weight's columns
    follow below, the order of the compacted layer underneath, or the
    natural order when that layer is not compacted (below is None). A leaf
    relaxes the unstable slice with its own lines; the active neurons pass
    through, exact in every leaf, since the root proves them active on the
    whole box.
    """

    order: np.ndarray
    n_unstable: int
    weight: np.ndarray
    bias: np.ndarray
    below: np.ndarray | None


@dataclass
class _ReluRelaxation:
    """Per-neuron bounding lines over a pre-activation range [l, u].

    Upper line passes through (l, 0) and (u, u) when unstable; lower line has
    intercept 0 and CROWN's adaptive slope: 1 when u >= -l, else 0, whichever
    leaves the smaller area between line and ReLU. Stable neurons use the
    exact identity/zero lines. compact is the layer in backward form when it
    is large (see relax_layer), else None; a batch of leaves shares its root's.
    """

    slope_lo: np.ndarray
    slope_up: np.ndarray
    icpt_up: np.ndarray
    compact: _Compacted | None = None


def relu_relaxation(lo: np.ndarray, hi: np.ndarray) -> _ReluRelaxation:
    """The ReLU lines over [lo, hi], neuron by neuron; (B, n) ranges give (B, n) lines.

    The lower line of an unstable neuron is the adaptive one (see _ReluRelaxation).
    """
    deact = hi <= 0.0  # includes the degenerate l == u == 0 case
    act = (~deact) & (lo >= 0.0)
    unstable = ~(deact | act)
    slope_up = np.zeros_like(lo)
    slope_up[act] = 1.0
    denom = np.where(unstable, hi - lo, 1.0)
    slope_up = np.where(unstable, hi / denom, slope_up)
    icpt_up = np.where(unstable, -lo * hi / denom, 0.0)
    alpha = (hi >= -lo).astype(np.float64)
    slope_lo = np.where(unstable, alpha, np.where(act, 1.0, 0.0))
    return _ReluRelaxation(slope_lo, slope_up, icpt_up)


def _is_large(chain: Chain, k: int) -> bool:
    return k < chain.n_relu and chain.layers[k][0].size >= COMPACT_MIN_ENTRIES


def relax_layer(
    chain: Chain, k: int, lo: np.ndarray, hi: np.ndarray, relaxations: list
) -> _ReluRelaxation:
    """Hidden layer k's ReLU lines over (B, n) ranges, plus its backward form when large.

    relaxations holds the lines of layers 0..k-1. A layer with at least
    COMPACT_MIN_ENTRIES weights gets a _Compacted form: dead neurons
    contribute nothing to a backward pass and active ones pass their
    coefficients through unchanged, so only the unstable slice needs
    relu_backward and only live rows and columns take part in the product.
    A neuron is dead or active when it is so in every member.
    """
    r = relu_relaxation(lo, hi)
    if not _is_large(chain, k):
        return r
    W, b = chain.layers[k]
    dead = (hi <= 0.0).all(axis=0)
    unstable = ~dead & (lo < 0.0).any(axis=0)
    order = np.concatenate([np.flatnonzero(unstable), np.flatnonzero(~dead & ~unstable)])
    prev = relaxations[k - 1].compact if k > 0 else None
    below = None if prev is None else prev.order
    r.compact = _Compacted(
        order,
        int(unstable.sum()),
        W[order] if below is None else W[np.ix_(order, below)],
        b[order],
        below,
    )
    return r


@dataclass
class BoundsTable:
    """Pre-activation ranges per linear layer, in input-to-output order.

    lower/upper are keyed by linear layer id; linear_ids preserves order. The
    last entry doubles as the output range. For crown, a row of a large
    hidden layer (see COMPACT_MIN_ENTRIES) that the interval step already
    proves dead (hi <= 0) keeps its interval range: it skips the backward
    pass, which could only tighten a range that stays dead.
    """

    method: str
    linear_ids: list[int]
    lower: dict[int, np.ndarray]
    upper: dict[int, np.ndarray]

    def output_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        last = self.linear_ids[-1]
        return self.lower[last], self.upper[last]

    def pre_activation(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        lid = self.linear_ids[index]
        return self.lower[lid], self.upper[lid]

    def post_activation(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.pre_activation(index)
        return np.maximum(lo, 0.0), np.maximum(hi, 0.0)

    def rows(self) -> list[tuple[int, int, float, float, str]]:
        """CSV-ready (layer_index, neuron_index, lower, upper, method) rows."""
        out = []
        for k, lid in enumerate(self.linear_ids):
            lo, hi = self.lower[lid], self.upper[lid]
            for j in range(lo.shape[0]):
                out.append((k, j, float(lo[j]), float(hi[j]), self.method))
        return out


def clamp_to_signs(lo: np.ndarray, hi: np.ndarray, signs: np.ndarray):
    """Clamp pre-activation ranges to pinned signs: lo >= 0 where +1, hi <= 0 where -1.

    Returns (lo, hi, empty). empty is True when a pin contradicts its range
    (an active pin with hi < 0, an inactive one with lo > 0): no box point
    has that sign. Only a pin is trusted to prove this; an unpinned range can
    cross itself by a rounding error when it is a single point. For (B, n)
    ranges and signs, empty holds one flag per member.
    """
    empty = (((signs > 0) & (hi < 0.0)) | ((signs < 0) & (lo > 0.0))).any(axis=-1)
    lo = np.where(signs > 0, np.maximum(lo, 0.0), lo)
    return lo, np.where(signs < 0, np.minimum(hi, 0.0), hi), empty


def bound_layers(
    chain: Chain,
    box: Box,
    lower: list,
    upper: list,
    relaxations: list,
    start: int = 0,
    stop: int | None = None,
    signs=None,
    parent: tuple[list, list] | None = None,
) -> np.ndarray:
    """CROWN bounds of layers start..stop-1 of the chain for a batch of sign regions.

    Member b of every (B, n) array (ranges, lines, signs, parent ranges)
    meets member b of the others. lower/upper hold the ranges of layers
    0..start-1 and relaxations their ReLU lines; each new layer is appended
    in place. A layer's input range is the box, as a batch of one, for
    layer 0 and the ReLU of the previous range otherwise. The forward
    interval step and the backward pass are intersected, since the backward
    pass alone can lose to plain intervals in correlated corners.

    The root pass (start == 0) treats a large hidden layer (at least
    COMPACT_MIN_ENTRIES weights) apart: rows the forward step proves dead
    (hi <= 0) skip the backward pass and keep their interval range, and the
    layer's relaxation carries its compacted backward form (relax_layer),
    which every batch split from the root keeps; rows dead at the root stay
    dead in its parents, so they are never bounded again.

    signs, one int8 array per hidden layer, restricts the bounds to a sign
    region: +1 clamps a neuron's range to lo >= 0, -1 to hi <= 0. parent is
    the (lower, upper) of sign regions containing these; hidden rows that
    every parent has inactive (hi <= 0) keep the parents' ranges without
    being recomputed, because they stay inactive and feed nothing
    downstream. Returns one flag per member, False when a pinned neuron's
    bounds come out strictly on the other side of zero: then no box point
    has the member's pinned signs. Stops when every member is empty.
    """
    stop = len(chain.layers) if stop is None else stop
    ok = np.ones(lower[start - 1].shape[0] if start else 1, bool)
    for k in range(start, stop):
        W, b = chain.layers[k]
        hidden = k < chain.n_relu
        if k == 0:
            v_lo, v_hi = box.lower[None], box.upper[None]
        else:
            v_lo, v_hi = np.maximum(lower[k - 1], 0.0), np.maximum(upper[k - 1], 0.0)
        rows = None
        if parent is not None and hidden:
            dead = parent[1][k] <= 0.0
            if dead.any():  # bound the rows live in some member
                rows = np.flatnonzero(~dead.all(axis=0))
                W, b = W[rows], b[rows]
        lo, hi = kernels.interval_affine(W, b, v_lo, v_hi)
        live = None  # rows the backward pass bounds, when not all of them
        if start == 0 and _is_large(chain, k) and (hi <= 0.0).any():
            live = np.flatnonzero((hi > 0.0).any(axis=0))
            W, b = W[live], b[live]
        c_lo = _backward_from(chain, k, W, b, relaxations, box, upper_pass=False)
        c_hi = _backward_from(chain, k, W, b, relaxations, box, upper_pass=True)
        if live is None:
            lo, hi = np.maximum(c_lo, lo), np.minimum(c_hi, hi)
        else:
            lo[:, live] = np.maximum(c_lo, lo[:, live])
            hi[:, live] = np.minimum(c_hi, hi[:, live])
        if rows is not None:  # a bounded row may still be dead in some members' parents
            p_lo, p_hi = parent[0][k], parent[1][k]
            lo_all, hi_all = p_lo.copy(), p_hi.copy()
            lo_all[:, rows], hi_all[:, rows] = lo, hi
            lo, hi = np.where(dead, p_lo, lo_all), np.where(dead, p_hi, hi_all)
        if signs is not None and hidden:
            lo, hi, empty = clamp_to_signs(lo, hi, signs[k])
            ok = ok & ~empty
            if not ok.any():
                return ok
        lower.append(lo)
        upper.append(hi)
        if hidden:
            relaxations.append(relax_layer(chain, k, lo, hi, relaxations) if start == 0
                               else relu_relaxation(lo, hi))
    return ok


def interval_forward(net: Network, box: Box) -> BoundsTable:
    """Forward interval propagation; exact for the first linear layer."""
    return compute_bounds(net, box, "interval")


def _backward_from(chain: Chain, k: int, A, const, relaxations, box: Box, upper_pass: bool):
    """Push a coefficient row set from just after linear k down to the input box.

    A layer with a compacted form takes its step on the live neurons only:
    A's columns are gathered onto them (once, when the layer above was not
    compacted: its compacted weights already produce them), relu_backward
    runs on the leading unstable slice with the leaves' own lines, and the
    compacted weights do the rest. Neither A nor const is written to.

    The row set, A (m, n) and const (m,), is shared by the batch: it enters
    as a batch of one and meets each member's (B, n) lines, and the result
    is (B, m), or (1, m) with no layer to cross (k == 0).
    """
    A, const = A[None], const[None]
    cols = None  # the order A's columns follow; None is the natural order
    for j in range(k - 1, -1, -1):
        r = relaxations[j]
        c = r.compact
        if cols is not None and (c is None or cols is not c.order):
            raise InternalInvariantError(f"layer {j}: compacted columns out of order")
        if c is None:
            A, const = kernels.relu_backward(A, const, r.slope_lo, r.slope_up, r.icpt_up, upper_pass)
            W, b = chain.layers[j]
        else:
            if cols is None:  # shared rows become one row set per leaf
                A = np.broadcast_to(A, (len(r.slope_lo),) + A.shape[1:])[..., c.order]
            u = c.n_unstable
            if u:
                iu = c.order[:u]
                lines = r.slope_lo[..., iu], r.slope_up[..., iu], r.icpt_up[..., iu]
                A[..., :u], const = kernels.relu_backward(A[..., :u], const, *lines, upper_pass)
            W, b = c.weight, c.bias
        cols = None if c is None else c.below
        const = const + A @ b
        A = A @ W
    lo, hi = kernels.interval_affine(A, const, box.lower, box.upper)
    return hi if upper_pass else lo


def compute_bounds(net: Network, box: Box, method: str) -> BoundsTable:
    """Pre-activation bounds of every linear layer of a sequential network.

    method is 'interval' (the forward step alone, layer by layer) or 'crown'
    (bound_layers on the box as a batch of one); crown's lower ReLU line is
    the adaptive one (see _ReluRelaxation). Crown's first-layer bounds equal
    interval's.
    """
    if method not in ("interval", "crown"):
        raise ContractError(f"method must be 'interval' or 'crown', got {method!r}")
    seq = as_sequential(net)
    chain = Chain.of_view(seq)
    chain.check_box(box)
    lower, upper = [], []
    if method == "crown":
        bound_layers(chain, box, lower, upper, [])
        lower, upper = [a[0] for a in lower], [a[0] for a in upper]
    else:
        v_lo, v_hi = box.lower, box.upper
        for W, b in chain.layers:
            lo, hi = kernels.interval_affine(W, b, v_lo, v_hi)
            lower.append(lo)
            upper.append(hi)
            v_lo, v_hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    ids = [l.id for l in seq.linears]
    return BoundsTable(method, ids, dict(zip(ids, lower)), dict(zip(ids, upper)))


def chain_margin_lower_bounds(chain: Chain, box: Box, A, const, relaxations: list) -> np.ndarray:
    """CROWN lower bounds of A h + const, h the last hidden layer's post-ReLU values.

    relaxations are the hidden layers' (B, n) ReLU lines, as bound_layers
    fills them; A and const already fold in the readout layer. The result is
    (B, m), one row of margin bounds per member, or (1, m) for a chain with
    no hidden layer, whose one leaf is the root.
    """
    return _backward_from(chain, chain.n_relu, A, const, relaxations, box, upper_pass=False)

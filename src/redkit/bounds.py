"""Bound propagation over sequential ReLU networks.

Two methods share one table format: interval (forward ranges, cheap and
loose) and CROWN, a backward linear-relaxation pass (per-neuron
slope/intercept lines, tighter). Bounds are always sound: every concrete
pre-activation lies inside the reported range. The CROWN layer loop
(bound_layers) and the backward pass run on a batch of sign regions, every
array with a leading batch axis; the root pass over the whole box is a
batch of one, and branch and bound bounds its leaves in larger batches.

A backward pass ends in lines over the input (_backward_from): rows A and
offsets const with A x + const bounding the quantity for every x in the
input box. The box meets those rows in one place, kernels.concretize; the
layer loop and the margin bounds take the box as (1, d) or (B, d) ranges,
and the public entry points pass a Box as a batch of one.

On large layers CROWN applies the paper's reduction to itself. The root
pass classifies each neuron of a composed hidden layer (see
COMPACT_MIN_ENTRIES) as dead, active or unstable on the whole box: dead
ones drop out of every backward pass, and active ones, exact there, are
merged into the layer's pre-activation map over the input (or a plain
layer's post-ReLU values) and the unstable neurons of the composed layers
in between (_Composed). A backward pass then crosses such a layer with
relu_backward on its unstable neurons and one product with their rows.
The form holds in every branch-and-bound leaf, whose sign regions lie
inside the box, so the root builds it once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError, InternalInvariantError
from .netir import Chain, Network, as_sequential

# A hidden layer is composed (see relax_layer) when its weight matrix or its
# successor's has at least this many entries: the root pass bounds it without
# its interval-dead rows, and it enters backward passes in composed form.
# Below it, the per-call numpy overhead of composing outweighs the work
# saved, so small layers keep the plain arithmetic.
COMPACT_MIN_ENTRIES = 1 << 16

# An overflow widens a bound to +-inf (see kernels), so numpy's overflow and
# invalid-value warnings are off in the bound passes: each entry point runs
# under np.errstate(**_QUIET).
_QUIET = dict(over="ignore", invalid="ignore")


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
class _Composed:
    """A hidden layer in composed backward form: its live neurons over the columns below it.

    Built once, in the root pass, from the root's ranges, and shared by every
    leaf below it. unstable and active list the neurons that the root leaves
    unstable and proves active (lo >= 0), in natural order; the rest are dead
    at the root. weight and bias map the layer's columns below (the backward
    columns of the layer underneath, see _enter) to the pre-activations of
    the unstable neurons, then of the active ones. A leaf relaxes the
    unstable neurons with its own lines; the active ones are exact in every
    leaf, since the root proves them active on the whole box, so their rows
    replace them wherever a pass enters the layer.
    """

    unstable: np.ndarray
    active: np.ndarray
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class _ReluRelaxation:
    """Per-neuron bounding lines over a pre-activation range [l, u].

    Upper line passes through (l, 0) and (u, u) when unstable; lower line has
    intercept 0 and CROWN's adaptive slope: 1 when u >= -l, else 0, whichever
    leaves the smaller area between line and ReLU. Stable neurons use the
    exact identity/zero lines. composed is the layer's composed backward form
    when it is composed (see relax_layer), else None; a batch of leaves
    shares its root's.
    """

    slope_lo: np.ndarray
    slope_up: np.ndarray
    icpt_up: np.ndarray
    composed: _Composed | None = None


@np.errstate(**_QUIET)
def relu_relaxation(lo: np.ndarray, hi: np.ndarray) -> _ReluRelaxation:
    """The ReLU lines over [lo, hi], neuron by neuron; (B, n) ranges give (B, n) lines.

    The lower line of an unstable neuron is the adaptive one (see _ReluRelaxation).
    A neuron with hi <= 0, the degenerate l == u == 0 included, is inactive.
    An overflow can leave an unstable range with one infinite end; it takes
    the limiting lines: as hi -> +inf the upper line tends to slope 1 and
    intercept -lo (and the lower slope is 1), as lo -> -inf to slope 0 and
    intercept hi (and the lower slope is 0). A finite range whose product
    -lo * hi overflows takes the intercept -lo * slope, the same up to
    rounding; when its width hi - lo overflows too, the slope comes from the
    halved ends, (hi / 2) / (hi / 2 - lo / 2). With both ends infinite the
    lines are NaN, and every bound they meet widens to +-inf (see kernels).
    """
    live = hi > 0.0
    act = live & (lo >= 0.0)
    unstable = live ^ act
    denom = np.where(unstable, hi - lo, 1.0)
    slope_up = np.where(unstable, hi / denom, act)
    neg_lo = -lo
    icpt_up = np.where(unstable, neg_lo * hi / denom, 0.0)
    slope_lo = np.where(unstable, hi >= neg_lo, act).astype(np.float64)
    if not np.isfinite(icpt_up).all():
        hi_inf, lo_inf = hi == np.inf, lo == -np.inf
        slope_up = np.where(unstable & hi_inf & ~lo_inf, 1.0, slope_up)
        wide = unstable & (denom == np.inf) & ~(hi_inf | lo_inf)
        half_hi = 0.5 * hi
        slope_up = np.where(wide, half_hi / (half_hi - 0.5 * lo), slope_up)
        limit = unstable & ~np.isfinite(icpt_up) & (np.isfinite(denom) | wide | (hi_inf ^ lo_inf))
        icpt_up = np.where(limit, np.where(lo_inf, hi, neg_lo * slope_up), icpt_up)
    return _ReluRelaxation(slope_lo, slope_up, icpt_up)


def _is_composed(chain: Chain, k: int) -> bool:
    """Hidden layer k enters backward passes composed: its weight or its successor's is large."""
    return k < chain.n_relu and any(W.size >= COMPACT_MIN_ENTRIES for W, _ in chain.layers[k : k + 2])


def relax_layer(lo: np.ndarray, hi: np.ndarray, live, A, const) -> _ReluRelaxation:
    """A composed hidden layer's ReLU lines over (B, n) ranges, with its composed form.

    A and const are the rows the root pass bounded the layer from: its rows
    live (an index array, or None for every row) on the layer underneath's
    backward columns (see _enter). The composed form keeps the rows of the
    unstable and active neurons, which are all among them; dead neurons
    contribute nothing to a backward pass. A neuron is dead or active when
    it is so in every member.
    """
    r = relu_relaxation(lo, hi)
    if live is not None:
        lo, hi = lo[:, live], hi[:, live]
    dead = (hi <= 0.0).all(axis=0)
    unstable = ~dead & (lo < 0.0).any(axis=0)
    pick = np.concatenate([np.flatnonzero(unstable), np.flatnonzero(~dead & ~unstable)])
    neurons = pick if live is None else live[pick]
    u = int(unstable.sum())
    r.composed = _Composed(neurons[:u], neurons[u:], A[pick], const[pick])
    return r


@dataclass
class BoundsTable:
    """Pre-activation ranges per linear layer, in input-to-output order.

    lower/upper are keyed by linear layer id; linear_ids preserves order. The
    last entry doubles as the output range. For crown, a row of a composed
    hidden layer (see COMPACT_MIN_ENTRIES) that the interval step already
    proves dead (hi <= 0) keeps its interval range: it skips the backward
    pass, which could only tighten a range that stays dead. Every other row
    equals the plain backward pass's up to rounding: the composed form only
    reorders the same sums.
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


@np.errstate(**_QUIET)
def bound_layers(
    chain: Chain,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
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
    in place. A layer's input range is the input box [x_lo, x_hi], one
    (1, d) box or a (B, d) batch, for layer 0 and the ReLU of the previous
    range otherwise. The forward interval step and the backward pass are
    intersected, since the backward pass alone can lose to plain intervals
    in correlated corners.

    The root pass (start == 0, no parent) treats a composed hidden layer (see
    COMPACT_MIN_ENTRIES) apart: rows the forward step proves dead (hi <= 0)
    skip the backward pass and keep their interval range, and the layer's
    relaxation carries its composed backward form (relax_layer), which every
    batch split from the root keeps; rows dead at the root stay dead in its
    parents, so they are never bounded again. Each layer's rows enter the
    layer underneath's backward columns once (_enter), and the lower and the
    upper pass both start from them.

    signs, one int8 array per hidden layer, restricts the bounds to a sign
    region: +1 clamps a neuron's range to lo >= 0, -1 to hi <= 0. parent,
    which comes with signs, is the (lower, upper) of sign regions containing
    these, whose ranges hold on them too. One rule decides which hidden rows
    are bounded again, in every layer: a member's unpinned row that its
    parent proves stable (hi <= 0 or lo >= 0) keeps the parent's range,
    without any pass. The range holds, since the member's region lies inside
    the parent's, and the neuron stays stable in every descendant, so it is
    never split; a range bounded again could come out unstable, since the
    adaptive lower line is not monotone. Only the rows the parent leaves
    unstable, and pinned rows, whose range may show the member empty, go
    through the interval step and both backward passes. A kept active range
    still feeds the next layer's interval step, where a range bounded again
    under the new pins could be narrower: a child can come out slightly
    looser than a full re-bound. Only the rows that some member does not
    keep are bounded, and a layer without one runs no pass. Returns one flag
    per member, False when a pinned neuron's bounds come out strictly on the
    other side of zero: then no box point has the member's pinned signs.
    Stops when every member is empty.
    """
    stop = len(chain.layers) if stop is None else stop
    ok = np.ones(lower[start - 1].shape[0] if start else x_lo.shape[0], bool)
    for k in range(start, stop):
        W, b = chain.layers[k]
        hidden = k < chain.n_relu
        if k == 0:
            v_lo, v_hi = x_lo, x_hi
        else:
            v_lo, v_hi = np.maximum(lower[k - 1], 0.0), np.maximum(upper[k - 1], 0.0)
        keep = None  # (B, n): the rows that keep their parents' ranges
        if parent is not None and hidden:
            keep = ((parent[1][k] <= 0.0) | (parent[0][k] >= 0.0)) & (signs[k] == 0)
        composed = start == 0 and parent is None and _is_composed(chain, k)
        if keep is None or not keep.any():
            lo, hi, live, A, const = _crown_rows(chain, k, W, b, v_lo, v_hi, x_lo, x_hi,
                                                 relaxations, composed)
        else:  # bound the rows that some member does not keep
            rows = np.flatnonzero(~keep.all(axis=0))
            lo, hi = parent[0][k].copy(), parent[1][k].copy()
            if len(rows):
                r_lo, r_hi, *_ = _crown_rows(chain, k, W[rows], b[rows], v_lo, v_hi, x_lo, x_hi,
                                             relaxations, False)
                kept = keep[:, rows]
                lo[:, rows] = np.where(kept, lo[:, rows], r_lo)
                hi[:, rows] = np.where(kept, hi[:, rows], r_hi)
            live = A = const = None
        if signs is not None and hidden:
            lo, hi, empty = clamp_to_signs(lo, hi, signs[k])
            ok = ok & ~empty
            if not ok.any():
                return ok
        lower.append(lo)
        upper.append(hi)
        if hidden:
            relaxations.append(relax_layer(lo, hi, live, A, const) if composed
                               else relu_relaxation(lo, hi))
        del A, const  # a wide layer's rows: not held while the next layer is bounded
    return ok


def _crown_rows(chain: Chain, k: int, W, b, v_lo, v_hi, x_lo, x_hi, relaxations, composed: bool):
    """Ranges of the rows W, b of linear layer k: the interval step and both backward passes.

    v_lo, v_hi is the layer's input range and x_lo, x_hi the input box, as
    in bound_layers. On a composed layer, rows that the interval step proves
    dead (hi <= 0) skip the backward passes and keep their interval range.
    Returns the (B, m) ranges, the rows that the backward passes bounded
    (an index array, or None for all of them) and those rows moved onto the
    layer underneath's backward columns (_enter), which relax_layer keeps.
    """
    lo, hi = kernels.interval_affine(W, b, v_lo, v_hi)
    live = None
    if composed and (hi <= 0.0).any():
        live = np.flatnonzero((hi > 0.0).any(axis=0))
        W, b = W[live], b[live]
    A, const = _enter(relaxations, k - 1, W, b)
    # each pass's lines are concretized before the next pass runs, so one
    # pass's (B, m, d) rows are alive at a time
    c_lo = kernels.concretize(*_backward_from(chain, k, A, const, relaxations, False),
                              x_lo, x_hi, upper_pass=False)
    c_hi = kernels.concretize(*_backward_from(chain, k, A, const, relaxations, True),
                              x_lo, x_hi, upper_pass=True)
    if live is None:
        return np.maximum(c_lo, lo), np.minimum(c_hi, hi), live, A, const
    lo[:, live] = np.maximum(c_lo, lo[:, live])
    hi[:, live] = np.minimum(c_hi, hi[:, live])
    return lo, hi, live, A, const


def interval_forward(net: Network, box: Box) -> BoundsTable:
    """Forward interval propagation; exact for the first linear layer."""
    return compute_bounds(net, box, "interval")


def _enter(relaxations, k: int, A, const):
    """Rows over hidden layer k's post-ReLU values, moved onto its backward columns.

    A plain layer's backward columns are its post-ReLU values (the input's,
    for k == -1), so the rows stay as they are. A composed layer's are its
    composed weight's columns followed by its unstable neurons: each active
    neuron's column becomes its row of the composed form, whose offset goes
    into const, and each dead neuron's column is dropped. A (..., m, n) and
    const (..., m) are not written to.
    """
    c = relaxations[k].composed if k >= 0 else None
    if c is None:
        return A, const
    n_unstable = len(c.unstable)
    A_act = A[..., c.active]
    rows = np.concatenate([A_act @ c.weight[n_unstable:], A[..., c.unstable]], axis=-1)
    return rows, const + A_act @ c.bias[n_unstable:]


def _backward_from(chain: Chain, k: int, A, const, relaxations, upper_pass: bool):
    """Push a coefficient row set from just after linear k down to lines over the input.

    A (m, w) and const (m,) are over the backward columns of hidden layer
    k - 1 (see _enter). A plain layer takes relu_backward on all its
    neurons and a product with its weight, and the result enters the layer
    underneath. A composed layer takes relu_backward on its trailing
    unstable columns, with the leaves' own lines, and one product with
    those neurons' composed rows; the leading columns already are the layer
    underneath's backward columns. Neither A nor const is written to.

    The row set is shared by the batch: it enters as a batch of one and
    meets each member's (B, n) lines. Returns the lines over the input, rows
    (B, m, d) and offsets (B, m), or (1, m, d) and (1, m) with no layer to
    cross (k == 0): for every input x in member b's sign region, A[b] x +
    const[b] bounds the row set's quantity from below (above, for the upper
    pass). kernels.concretize takes their minimum (maximum) over a box.
    """
    A, const = A[None], const[None]
    for j in range(k - 1, -1, -1):
        r = relaxations[j]
        c = r.composed
        if c is None:
            A, const = kernels.relu_backward(A, const, r.slope_lo, r.slope_up, r.icpt_up, upper_pass)
            W, b = chain.layers[j]
            const = const + A @ b
            A, const = _enter(relaxations, j - 1, A @ W, const)
            continue
        n_unstable, w = len(c.unstable), c.weight.shape[1]
        if A.shape[-1] != w + n_unstable:
            raise InternalInvariantError(f"layer {j}: rows do not match its composed columns")
        lines = r.slope_lo[:, c.unstable], r.slope_up[:, c.unstable], r.icpt_up[:, c.unstable]
        A_u, const = kernels.relu_backward(A[..., w:], const, *lines, upper_pass)
        const = const + A_u @ c.bias[:n_unstable]
        A = A[..., :w] + A_u @ c.weight[:n_unstable]
    return A, const


@np.errstate(**_QUIET)
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
        bound_layers(chain, box.lower[None], box.upper[None], lower, upper, [])
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


@np.errstate(**_QUIET)
def chain_margin_lower_bounds(chain: Chain, x_lo, x_hi, A, const, relaxations: list) -> np.ndarray:
    """CROWN lower bounds of A h + const, h the last hidden layer's post-ReLU values.

    x_lo and x_hi are the input box, (1, d) or one (B, d) box per member;
    relaxations are the hidden layers' (B, n) ReLU lines, as bound_layers
    fills them; A and const already fold in the readout layer. The result is
    (B, m), one row of margin bounds per member, or (1, m) for a chain with
    no hidden layer and one box, whose one leaf is the root.
    """
    A, const = _enter(relaxations, chain.n_relu - 1, A, const)
    lines = _backward_from(chain, chain.n_relu, A, const, relaxations, upper_pass=False)
    return kernels.concretize(*lines, x_lo, x_hi, upper_pass=False)

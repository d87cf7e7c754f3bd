"""Bound propagation over sequential ReLU networks.

Two methods share one table format: interval (forward ranges, cheap and
loose) and a backward linear-relaxation pass (per-neuron slope/intercept
lines, tighter). Bounds are always sound: every concrete pre-activation lies
inside the reported range.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ContractError
from .netir import Network, SequentialView, as_sequential

ALPHA_RULES = ("adaptive", "zero", "one")


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


@dataclass
class _ReluRelaxation:
    """Per-neuron bounding lines over a pre-activation range [l, u].

    Upper line passes through (l, 0) and (u, u) when unstable; lower line has
    slope alpha in {0, 1} and intercept 0. Stable neurons use the exact
    identity/zero lines.
    """

    slope_lo: np.ndarray
    slope_up: np.ndarray
    icpt_up: np.ndarray


def relu_relaxation(lo: np.ndarray, hi: np.ndarray, alpha_rule: str) -> _ReluRelaxation:
    deact = hi <= 0.0  # includes the degenerate l == u == 0 case
    act = (~deact) & (lo >= 0.0)
    unstable = ~(deact | act)
    slope_up = np.zeros_like(lo)
    slope_up[act] = 1.0
    denom = np.where(unstable, hi - lo, 1.0)
    slope_up = np.where(unstable, hi / denom, slope_up)
    icpt_up = np.where(unstable, -lo * hi / denom, 0.0)
    if alpha_rule == "adaptive":
        alpha = (hi >= -lo).astype(np.float64)
    elif alpha_rule == "zero":
        alpha = np.zeros_like(lo)
    elif alpha_rule == "one":
        alpha = np.ones_like(lo)
    else:
        raise ContractError(f"alpha_rule must be one of {ALPHA_RULES}, got {alpha_rule!r}")
    slope_lo = np.where(unstable, alpha, np.where(act, 1.0, 0.0))
    return _ReluRelaxation(slope_lo, slope_up, icpt_up)


@dataclass
class BoundsTable:
    """Pre-activation ranges per linear layer, in input-to-output order.

    lower/upper are keyed by linear layer id; linear_ids preserves order. The
    last entry doubles as the output range.
    """

    method: str
    linear_ids: list[int]
    lower: dict[int, np.ndarray]
    upper: dict[int, np.ndarray]
    relaxations: list[_ReluRelaxation] = field(default_factory=list, repr=False)

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


@dataclass(frozen=True)
class Chain:
    """A sequential network as the (W, b) pairs of its linear layers.

    A ReLU follows each of the first n_relu layers (the hidden layers). The
    arrays are the network's own read-only ones, so building a chain copies
    nothing.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    n_relu: int

    @classmethod
    def of(cls, net: Network) -> Chain:
        return cls.of_view(as_sequential(net))

    @classmethod
    def of_view(cls, seq: SequentialView) -> Chain:
        return cls(tuple((l.weight, l.bias) for l in seq.linears), len(seq.relus))

    @property
    def input_width(self) -> int:
        return self.layers[0][0].shape[1]

    def affine_ended(self) -> Chain:
        """This chain, with an identity readout appended when it ends in a ReLU."""
        if self.n_relu < len(self.layers):
            return self
        width = self.layers[-1][0].shape[0]
        return Chain(self.layers + ((np.eye(width), np.zeros(width)),), self.n_relu)

    def check_box(self, box: Box):
        if box.dim != self.input_width:
            raise ContractError(
                f"box dimension {box.dim} does not match input width {self.input_width}"
            )


def clamp_to_signs(lo: np.ndarray, hi: np.ndarray, signs: np.ndarray):
    """Clamp pre-activation ranges to pinned signs: lo >= 0 where +1, hi <= 0 where -1.

    Returns None when a pin contradicts its range (an active pin with
    hi < 0, an inactive one with lo > 0): no box point has that sign. Only a
    pin is trusted to prove this; an unpinned range can cross itself by a
    rounding error when it is a single point.
    """
    if ((signs > 0) & (hi < 0.0)).any() or ((signs < 0) & (lo > 0.0)).any():
        return None
    return np.where(signs > 0, np.maximum(lo, 0.0), lo), np.where(signs < 0, np.minimum(hi, 0.0), hi)


def bound_layers(
    chain: Chain,
    box: Box,
    method: str,
    alpha_rule: str,
    lower: list,
    upper: list,
    relaxations: list,
    start: int = 0,
    stop: int | None = None,
    signs=None,
    parent: tuple[list, list] | None = None,
) -> bool:
    """Bound layers start..stop-1 of the chain on top of a bounded prefix.

    lower/upper hold the pre-activation ranges of layers 0..start-1 and
    relaxations the ReLU lines of those layers (crown only); each new layer
    is appended in place. A layer's input range is the box for layer 0 and
    the ReLU of the previous range otherwise. interval stops at that forward
    step; crown also runs the backward pass and intersects the two, since
    the backward pass alone can lose to plain intervals in correlated
    corners.

    signs, one int8 array per hidden layer, restricts the bounds to a sign
    region: +1 clamps a neuron's range to lo >= 0, -1 to hi <= 0. parent is
    the (lower, upper) of a sign region containing this one; hidden rows it
    already has inactive (hi <= 0) keep the parent's range without being
    recomputed, because they stay inactive and feed nothing downstream.
    Returns False, and stops, when a pinned neuron's bounds come out
    strictly on the other side of zero: then no box point has the pinned
    signs.
    """
    if method not in ("interval", "crown"):
        raise ContractError(f"method must be 'interval' or 'crown', got {method!r}")
    stop = len(chain.layers) if stop is None else stop
    for k in range(start, stop):
        W, b = chain.layers[k]
        hidden = k < chain.n_relu
        if k == 0:
            v_lo, v_hi = box.lower, box.upper
        else:
            v_lo, v_hi = np.maximum(lower[k - 1], 0.0), np.maximum(upper[k - 1], 0.0)
        rows = None
        if parent is not None and hidden and (parent[1][k] <= 0.0).any():
            rows = np.flatnonzero(parent[1][k] > 0.0)
            W, b = W[rows], b[rows]
        lo, hi = kernels.interval_affine(W, b, v_lo, v_hi)
        if method == "crown":
            lo = np.maximum(_backward_from(chain, k, W, b, relaxations, box, upper_pass=False), lo)
            hi = np.minimum(_backward_from(chain, k, W, b, relaxations, box, upper_pass=True), hi)
        if rows is not None:
            lo_all, hi_all = parent[0][k].copy(), parent[1][k].copy()
            lo_all[rows], hi_all[rows] = lo, hi
            lo, hi = lo_all, hi_all
        if signs is not None and hidden:
            clamped = clamp_to_signs(lo, hi, signs[k])
            if clamped is None:
                return False
            lo, hi = clamped
        lower.append(lo)
        upper.append(hi)
        if hidden and method == "crown":
            relaxations.append(relu_relaxation(lo, hi, alpha_rule))
    return True


def _table(net: Network, box: Box, method: str, alpha_rule: str) -> BoundsTable:
    seq = as_sequential(net)
    chain = Chain.of_view(seq)
    chain.check_box(box)
    lower: list = []
    upper: list = []
    relaxations: list = []
    bound_layers(chain, box, method, alpha_rule, lower, upper, relaxations)
    ids = [l.id for l in seq.linears]
    return BoundsTable(method, ids, dict(zip(ids, lower)), dict(zip(ids, upper)), relaxations)


def interval_forward(net: Network, box: Box) -> BoundsTable:
    """Forward interval propagation; exact for the first linear layer."""
    return _table(net, box, "interval", "adaptive")


def _backward_from(chain: Chain, k: int, A, const, relaxations, box: Box, upper_pass: bool):
    """Push a coefficient row set from just after linear k down to the input box."""
    for j in range(k - 1, -1, -1):
        r = relaxations[j]
        A, const = kernels.relu_backward(A, const, r.slope_lo, r.slope_up, r.icpt_up, upper_pass)
        W, b = chain.layers[j]
        const = const + A @ b
        A = A @ W
    lo, hi = kernels.interval_affine(A, const, box.lower, box.upper)
    return hi if upper_pass else lo


def crown_backward(net: Network, box: Box, alpha_rule: str = "adaptive") -> BoundsTable:
    """Progressive backward substitution with per-neuron linear relaxations.

    Layer k's bounds reuse the relaxations of layers 1..k-1, which were
    computed from their own (already final) bounds. Each layer is also
    intersected with the running interval bounds: both are sound, and the
    backward pass alone can lose to plain intervals in correlated corners.
    First-layer bounds coincide bit-for-bit with interval_forward.
    """
    return _table(net, box, "crown", alpha_rule)


def compute_bounds(net: Network, box: Box, method: str, alpha_rule: str = "adaptive") -> BoundsTable:
    return _table(net, box, method, alpha_rule)


def chain_margin_lower_bounds(
    chain: Chain, box: Box, A, const, method: str, lower: list, upper: list, relaxations: list
) -> np.ndarray:
    """Lower bounds of A h + const, h the last hidden layer's post-ReLU values.

    lower/upper/relaxations are the hidden layers' bounds of the same method,
    as bound_layers fills them; A and const already fold in the readout layer.
    """
    n = chain.n_relu
    if method == "crown" or n == 0:
        return _backward_from(chain, n, A, const, relaxations, box, upper_pass=False)
    v_lo, v_hi = np.maximum(lower[n - 1], 0.0), np.maximum(upper[n - 1], 0.0)
    lo, _ = kernels.interval_affine(A, const, v_lo, v_hi)
    return lo


def margin_lower_bounds(
    net: Network,
    box: Box,
    C,
    d=None,
    method: str = "crown",
    alpha_rule: str = "adaptive",
    table: BoundsTable | None = None,
) -> np.ndarray:
    """Sound lower bounds of the margins C y + d over the box.

    The margin rows are composed into the final linear layer before bounding;
    bounding outputs separately and then combining would discard correlations
    and is strictly looser.
    """
    chain = Chain.of(net)
    if chain.n_relu == len(chain.layers):
        raise ContractError("margins need an affine-ended network")
    chain.check_box(box)
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    W, b = chain.layers[-1]
    if C.shape[1] != W.shape[0]:
        raise ContractError(f"margin rows have {C.shape[1]} entries, output width is {W.shape[0]}")
    if method not in ("interval", "crown"):
        raise ContractError(f"method must be 'interval' or 'crown', got {method!r}")
    d = np.zeros(C.shape[0]) if d is None else np.asarray(d, dtype=np.float64).reshape(-1)
    lower, upper, relaxations = [], [], []
    n = chain.n_relu
    if n:
        need = n if method == "crown" else 0
        if table is None or table.method != method or len(table.relaxations) < need:
            table = _table(net, box, method, alpha_rule)
        lower = [table.pre_activation(k)[0] for k in range(n)]
        upper = [table.pre_activation(k)[1] for k in range(n)]
        relaxations = table.relaxations
    return chain_margin_lower_bounds(
        chain, box, C @ W, C @ b + d, method, lower, upper, relaxations
    )


def margin_lower_bound(
    net: Network,
    box: Box,
    c,
    d: float = 0.0,
    method: str = "crown",
    alpha_rule: str = "adaptive",
    table: BoundsTable | None = None,
) -> float:
    """Single-margin convenience wrapper around margin_lower_bounds."""
    v = margin_lower_bounds(net, box, np.atleast_2d(c), [d], method, alpha_rule, table)
    return float(v[0])

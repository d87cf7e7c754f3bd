"""Elimination of provably stable ReLU neurons from sequential networks.

Given pre-activation bounds, neurons that never activate are dropped and
neurons that always activate are folded into the following linear layer: the
activated block of X composes with the columns of Z it feeds, a bias shift
keeps the replacement pre-activations nonnegative (so the interposed ReLU is
the identity on them), and Z's bias absorbs the opposite shift. The result
computes the same function over the input box with fewer ReLU neurons.

The network is rewritten as a list of the (W, b) pairs of its linear layers
(netir.Chain) with a ReLU implied between each two neighbours. Every rewrite
keeps that alternation, so the result is again an alternating Linear/ReLU
chain.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .bounds import BoundsTable, Box, bound_layers, compute_bounds
from .errors import ContractError, InternalInvariantError
from .netir import KIND_LINEAR, KIND_RELU, Chain, Layer, Network, as_sequential


@dataclass(frozen=True)
class LayerPartition:
    """Index partition of one ReLU layer: deactivated / activated / unstable."""

    deactivated: np.ndarray
    activated: np.ndarray
    unstable: np.ndarray
    width: int

    def __post_init__(self):
        d = np.asarray(self.deactivated, dtype=np.int64)
        a = np.asarray(self.activated, dtype=np.int64)
        u = np.asarray(self.unstable, dtype=np.int64)
        object.__setattr__(self, "deactivated", d)
        object.__setattr__(self, "activated", a)
        object.__setattr__(self, "unstable", u)
        merged = np.concatenate([d, a, u])
        if len(np.unique(merged)) != self.width or len(merged) != self.width:
            raise ContractError("partition classes must cover each neuron exactly once")

    @property
    def n_stable(self) -> int:
        return len(self.deactivated) + len(self.activated)


def classify(table: BoundsTable) -> list[LayerPartition]:
    """Partition every hidden layer's neurons by pre-activation sign.

    Deactivation wins when a bound pair satisfies both tests (the l = u = 0
    case).
    """
    parts = []
    for k in range(len(table.linear_ids) - 1):
        lo, hi = table.pre_activation(k)
        idx = np.arange(lo.shape[0])
        deact = hi <= 0.0
        act = (~deact) & (lo >= 0.0)
        unstable = ~(deact | act)
        parts.append(LayerPartition(idx[deact], idx[act], idx[unstable], lo.shape[0]))
    return parts


@dataclass(frozen=True)
class ReductionPlan:
    """Everything needed to audit one layer's rewrite.

    merge_weight/merge_bias are the composed rows replacing the activated
    block (empty when merging was skipped); shift is the nonnegativity
    correction added to the new rows' biases and subtracted, through Z's
    columns, from Z's bias. kept lists surviving original neuron indices in
    their output order after the merged rows.
    """

    partition: LayerPartition
    merged: bool
    merge_weight: np.ndarray
    merge_bias: np.ndarray
    shift: np.ndarray
    kept: np.ndarray
    width_before: int
    width_after: int


def _interval_lower(W, b, v_lo, v_hi):
    lo, _ = kernels.interval_affine(W, b, v_lo, v_hi)
    return lo


def reduce_layer(
    x: Layer,
    y: Layer,
    z: Layer,
    part: LayerPartition,
    v_range: tuple[np.ndarray, np.ndarray],
    pre_lb: np.ndarray,
    merge_lower=None,
) -> tuple[Layer | None, Layer | None, Layer, ReductionPlan]:
    """Rewrite the block V -> X(linear) -> Y(relu) -> Z(linear).

    v_range bounds V's output (the box, or clamped bounds for a ReLU V);
    pre_lb is X's known pre-activation lower bound vector, used for in-place
    stabilization shifts when merging is skipped. merge_lower optionally
    supplies a tighter lower-bounding function for merged rows. Returns
    (X', Y', Z', plan); X' and Y' are None when the hidden layer vanished
    (caller splices a single linear computing the constant Z bias).
    """
    if x.kind != KIND_LINEAR or z.kind != KIND_LINEAR or y.kind != KIND_RELU:
        raise ContractError("reduce_layer expects linear, relu, linear layers")
    if part.width != x.width:
        raise ContractError(f"partition width {part.width} != layer width {x.width}")
    D, A, U = part.deactivated, part.activated, part.unstable
    n = z.width
    v_lo, v_hi = v_range
    if len(A) > n:
        merge_w = z.weight[:, A] @ x.weight[A, :]
        merge_b = z.weight[:, A] @ x.bias[A]
        if merge_lower is not None:
            lo = merge_lower(merge_w, merge_b)
        else:
            lo = _interval_lower(merge_w, merge_b, v_lo, v_hi)
        shift = np.maximum(0.0, -lo)
        new_w = np.vstack([merge_w, x.weight[U, :]])
        new_b = np.concatenate([merge_b + shift, x.bias[U]])
        z_w = np.hstack([np.eye(n), z.weight[:, U]])
        z_b = z.bias - shift
        plan = ReductionPlan(part, True, merge_w, merge_b, shift, np.sort(U), x.width, new_w.shape[0])
    else:
        kept = np.sort(np.concatenate([A, U])).astype(np.int64)
        shift_vec = np.zeros(len(kept))
        in_a = np.isin(kept, A)
        shift_vec[in_a] = np.maximum(0.0, -pre_lb[kept[in_a]])
        new_w = x.weight[kept, :]
        new_b = x.bias[kept] + shift_vec
        z_w = z.weight[:, kept]
        z_b = z.bias - z.weight[:, kept] @ shift_vec
        plan = ReductionPlan(
            part,
            False,
            np.empty((0, x.in_width)),
            np.empty(0),
            shift_vec,
            kept,
            x.width,
            len(kept),
        )
    if new_w.shape[0] == 0:
        z_only = Layer(z.id, KIND_LINEAR, n, np.zeros((n, x.in_width)), z_b)
        return None, None, z_only, plan
    x2 = Layer(x.id, KIND_LINEAR, new_w.shape[0], new_w, new_b)
    y2 = Layer(y.id, KIND_RELU, new_w.shape[0])
    z2 = Layer(z.id, KIND_LINEAR, n, z_w, z_b)
    return x2, y2, z2, plan


@dataclass
class ReductionReport:
    """Per-layer reduction audit plus totals; serializes to CSV."""

    method: str
    rows: list[dict] = field(default_factory=list)
    relu_before: int = 0
    relu_after: int = 0
    wall_time_s: float = 0.0

    def add_layer(self, index: int, plan: ReductionPlan):
        p = plan.partition
        self.rows.append(
            {
                "layer": index,
                "width_before": plan.width_before,
                "n_deactivated": len(p.deactivated),
                "n_activated": len(p.activated),
                "n_unstable": len(p.unstable),
                "width_after": plan.width_after,
                "merged": int(plan.merged),
            }
        )

    @property
    def ratio(self) -> float:
        """ReLU count before reduction over the count after; >= 1 on success."""
        return self.relu_before / self.relu_after if self.relu_after else float("inf")

    def to_csv(self) -> str:
        buf = io.StringIO()
        names = [
            "layer",
            "width_before",
            "n_deactivated",
            "n_activated",
            "n_unstable",
            "width_after",
            "merged",
        ]
        w = csv.DictWriter(buf, fieldnames=names)
        w.writeheader()
        for r in self.rows:
            w.writerow(r)
        buf.write(
            f"# totals: relu_before={self.relu_before} relu_after={self.relu_after} "
            f"ratio={self.ratio:.4f} method={self.method} wall_time_s={self.wall_time_s:.4f}\n"
        )
        return buf.getvalue()


def reduce_network(
    net: Network,
    box: Box,
    method: str = "crown",
    alpha_rule: str = "adaptive",
    shift_method: str = "interval",
    table: BoundsTable | None = None,
    partitions: list[LayerPartition] | None = None,
) -> tuple[Network, ReductionReport]:
    """Drop/merge every provably stable neuron; returns (network, report).

    Layers are processed from the last hidden layer backwards so each rewrite
    only touches the already-rewritten suffix, keeping earlier layers' bounds
    valid. shift_method 'crown' recomputes merged-row lower bounds with a
    backward pass over the prefix chain for smaller shifts; 'interval' uses
    the predecessor range directly.
    """
    if shift_method not in ("interval", "crown"):
        raise ContractError(f"shift_method must be 'interval' or 'crown', got {shift_method!r}")
    t0 = time.perf_counter()
    seq = as_sequential(net)
    if seq.ends_with_relu:
        raise ContractError("reduce_network expects an affine-ended sequential network")
    if table is None:
        table = compute_bounds(net, box, method, alpha_rule)
    if partitions is None:
        partitions = classify(table)
    n_hidden = len(seq.linears) - 1
    if len(partitions) != n_hidden:
        raise ContractError(f"expected {n_hidden} partitions, got {len(partitions)}")

    report = ReductionReport(method=method)
    report.relu_before = sum(l.width for l in seq.relus)

    # (W, b) of every linear layer; a ReLU sits between each two neighbours
    pairs = list(Chain.of_view(seq).layers)
    for k in range(n_hidden - 1, -1, -1):
        (Wx, bx), (Wz, bz) = pairs[k], pairs[k + 1]
        x = Layer(0, KIND_LINEAR, Wx.shape[0], Wx, bx)
        y = Layer(1, KIND_RELU, Wx.shape[0])
        z = Layer(2, KIND_LINEAR, Wz.shape[0], Wz, bz)
        if k == 0:
            v_range = (box.lower, box.upper)
        else:
            v_range = table.post_activation(k - 1)
        pre_lb = table.pre_activation(k)[0]
        merge_lower = None
        if shift_method == "crown" and k > 0:

            def merge_lower(mw, mb, _prefix=tuple(pairs[:k]), _k=k):
                lower: list = []
                chain = Chain(_prefix + ((mw, mb),), _k)
                bound_layers(chain, box, "crown", alpha_rule, lower, [], [])
                return lower[-1]

        x2, y2, z2, plan = reduce_layer(x, y, z, partitions[k], v_range, pre_lb, merge_lower)
        report.add_layer(k, plan)
        if x2 is None:
            pairs[k : k + 2] = [(z2.weight, z2.bias)]
        else:
            pairs[k : k + 2] = [(x2.weight, x2.bias), (z2.weight, z2.bias)]

    reduced = Chain(tuple(pairs), len(pairs) - 1).to_network()
    report.relu_after = sum(W.shape[0] for W, _ in pairs[:-1])
    if report.relu_after > report.relu_before:
        raise InternalInvariantError("reduction increased the ReLU count")
    report.wall_time_s = time.perf_counter() - t0
    return reduced, report

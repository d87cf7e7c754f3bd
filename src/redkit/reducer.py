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
from .bounds import BoundsTable, Box, compute_bounds
from .errors import ContractError, InternalInvariantError
from .netir import Chain, Network, as_sequential


def _indices(values, name: str) -> np.ndarray:
    """values as int64 neuron indices; a value that is not an integer is an error."""
    raw = np.asarray(values)
    integral = raw.dtype.kind in "iu" or (
        raw.dtype.kind == "f" and np.isfinite(raw).all() and (raw == np.trunc(raw)).all()
    )
    if raw.size and not integral:
        raise ContractError(f"{name} indices must be integers, got {raw.ravel()[:4]!r}")
    return raw.astype(np.int64)


@dataclass(frozen=True)
class LayerPartition:
    """Index partition of one ReLU layer: deactivated / activated / unstable."""

    deactivated: np.ndarray
    activated: np.ndarray
    unstable: np.ndarray
    width: int

    def __post_init__(self):
        for name in ("deactivated", "activated", "unstable"):
            object.__setattr__(self, name, _indices(getattr(self, name), name))
        merged = np.concatenate([self.deactivated, self.activated, self.unstable])
        if ((merged < 0) | (merged >= self.width)).any():
            raise ContractError(f"partition indices must lie in [0, {self.width})")
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


def reduce_layer(
    x: tuple[np.ndarray, np.ndarray],
    z: tuple[np.ndarray, np.ndarray],
    part: LayerPartition,
    v_range: tuple[np.ndarray, np.ndarray],
) -> tuple[list[tuple[np.ndarray, np.ndarray]], bool]:
    """Rewrite the block V -> X -> ReLU -> Z, given the (W, b) pairs of X and Z.

    The partition is trusted: its activated neurons must be nonnegative and
    its deactivated ones nonpositive over the region. v_range bounds V's
    output (the box, or clamped bounds for a ReLU V); the shift of merged
    rows is their interval lower bound over it. When merging is skipped, the
    activated rows are kept as they are. Returns (pairs, merged): pairs
    replaces [X, Z] and is [X', Z'], or the single pair [Z'] of a constant
    map when the hidden layer vanished; merged tells whether the activated
    block was folded into Z.
    """
    (Wx, bx), (Wz, bz) = x, z
    if part.width != Wx.shape[0]:
        raise ContractError(f"partition width {part.width} != layer width {Wx.shape[0]}")
    A, U = part.activated, part.unstable
    n = Wz.shape[0]
    merged = len(A) > n
    if merged:
        merge_w = Wz[:, A] @ Wx[A, :]
        merge_b = Wz[:, A] @ bx[A]
        lo, _ = kernels.interval_affine(merge_w, merge_b, *v_range)
        shift = np.maximum(0.0, -lo)
        new_w = np.vstack([merge_w, Wx[U, :]])
        new_b = np.concatenate([merge_b + shift, bx[U]])
        z_w = np.hstack([np.eye(n), Wz[:, U]])
        z_b = bz - shift
    else:
        kept = np.sort(np.concatenate([A, U]))
        new_w, new_b = Wx[kept, :], bx[kept]
        z_w, z_b = Wz[:, kept], bz
    if new_w.shape[0] == 0:
        return [(np.zeros((n, Wx.shape[1])), z_b)], merged
    return [(new_w, new_b), (z_w, z_b)], merged


def _check_proved(partitions: list[LayerPartition], table: BoundsTable):
    """Each activated neuron must have lo >= 0 and each deactivated one hi <= 0 in table."""
    for k, part in enumerate(partitions):
        lo, hi = table.pre_activation(k)
        if part.width != lo.shape[0]:
            raise ContractError(f"partition {k} has width {part.width}, its layer {lo.shape[0]}")
        for name, idx, bad in (
            ("activated", part.activated, lo[part.activated] < 0.0),
            ("deactivated", part.deactivated, hi[part.deactivated] > 0.0),
        ):
            if bad.any():
                raise ContractError(
                    f"partition {k}: {name} neurons {idx[bad].tolist()} are not proved "
                    "stable by the root bounds"
                )


@dataclass
class ReductionReport:
    """Per-layer reduction audit plus totals; serializes to CSV."""

    method: str
    rows: list[dict] = field(default_factory=list)
    relu_before: int = 0
    relu_after: int = 0
    wall_time_s: float = 0.0

    def add_layer(self, index: int, part: LayerPartition, merged: bool, width_after: int):
        """Append hidden layer index's row: its partition counts, merged flag and new width."""
        self.rows.append(
            {
                "layer": index,
                "width_before": part.width,
                "n_deactivated": len(part.deactivated),
                "n_activated": len(part.activated),
                "n_unstable": len(part.unstable),
                "width_after": width_after,
                "merged": int(merged),
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
    partitions: list[LayerPartition] | None = None,
) -> tuple[Network, ReductionReport]:
    """Drop/merge every provably stable neuron; returns (network, report).

    The root table is compute_bounds(net, box, method); the partitions
    default to its classification. Supplied ones must be proved by the
    table, though a stable neuron may be demoted to unstable. Layers are
    processed from the last hidden layer backwards, each rewrite splicing
    reduce_layer's pairs into the list of (W, b) pairs, so it only touches
    the already-rewritten suffix and earlier layers' bounds stay valid. A merged block's bias shift is its
    interval lower bound over the predecessor's range in the root table.
    """
    t0 = time.perf_counter()
    seq = as_sequential(net)
    if seq.ends_with_relu:
        raise ContractError("reduce_network expects an affine-ended sequential network")
    table = compute_bounds(net, box, method)
    n_hidden = len(seq.linears) - 1
    if partitions is None:
        partitions = classify(table)
    elif len(partitions) != n_hidden:
        raise ContractError(f"expected {n_hidden} partitions, got {len(partitions)}")
    else:
        _check_proved(partitions, table)

    report = ReductionReport(method=method)
    report.relu_before = sum(l.width for l in seq.relus)

    # (W, b) of every linear layer; a ReLU sits between each two neighbours
    pairs = list(Chain.of_view(seq).layers)
    for k in range(n_hidden - 1, -1, -1):
        if k == 0:
            v_range = (box.lower, box.upper)
        else:
            v_range = table.post_activation(k - 1)
        new, merged = reduce_layer(pairs[k], pairs[k + 1], partitions[k], v_range)
        report.add_layer(k, partitions[k], merged, new[0][0].shape[0] if len(new) == 2 else 0)
        pairs[k : k + 2] = new

    reduced = Chain(tuple(pairs), len(pairs) - 1).to_network()
    report.relu_after = sum(W.shape[0] for W, _ in pairs[:-1])
    if report.relu_after > report.relu_before:
        raise InternalInvariantError("reduction increased the ReLU count")
    report.wall_time_s = time.perf_counter() - t0
    return reduced, report

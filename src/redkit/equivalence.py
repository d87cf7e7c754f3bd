"""Input-output agreement checks between two networks over a box."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Box
from .errors import ContractError
from .netir import Network, forward_batch

CORNER_CAP = 4096
GRID_MAX_DIM = 4  # grid_equivalence's limit: a grid has points_per_dim**dim points


@dataclass
class EquivReport:
    samples: int
    max_abs_diff: float
    argmax_mismatches: int
    worst_input: np.ndarray

    def within(self, tol: float) -> bool:
        return self.max_abs_diff <= tol


def _compare(a: Network, b: Network, xs: np.ndarray) -> EquivReport:
    ya = forward_batch(a, xs)
    yb = forward_batch(b, xs)
    if ya.shape != yb.shape:
        raise ContractError(f"output shapes differ: {ya.shape} vs {yb.shape}")
    diff = np.abs(ya - yb)
    per_sample = diff.max(axis=1) if diff.size else np.zeros(len(xs))
    worst = int(np.argmax(per_sample))
    mism = int(np.sum(np.argmax(ya, axis=1) != np.argmax(yb, axis=1)))
    return EquivReport(len(xs), float(per_sample[worst]), mism, xs[worst].copy())


def sample_equivalence(
    a: Network, b: Network, box: Box, n: int = 1000, seed: int = 0
) -> EquivReport:
    """Compare on n uniform box samples plus corner points.

    Corners are enumerated exhaustively when 2^dim fits the corner cap, else
    a seeded random corner subset of cap size stands in (full enumeration is
    impossible in high dimensions).
    """
    if a.input_layer.width != b.input_layer.width:
        raise ContractError("networks have different input widths")
    if box.dim != a.input_layer.width:
        raise ContractError("box dimension does not match the networks")
    if n < 0:
        raise ContractError(f"the sample count must be nonnegative, got {n}")
    rng = np.random.default_rng(seed)
    xs = box.sample(n, rng)
    corners = box.corners(CORNER_CAP, rng)
    return _compare(a, b, np.vstack([xs, corners]))


def grid_equivalence(a: Network, b: Network, box: Box, points_per_dim: int) -> EquivReport:
    """Compare on a full per-dimension grid including the box faces.

    Refused above GRID_MAX_DIM dimensions: the grid has points_per_dim**dim
    entries, which stops being a check and becomes a memory bill.
    """
    d = box.dim
    if d > GRID_MAX_DIM:
        raise ContractError(
            f"grid_equivalence is limited to dimension <= {GRID_MAX_DIM}, got {d}; "
            "use sample_equivalence for wider inputs"
        )
    if points_per_dim < 2:
        raise ContractError("points_per_dim must be at least 2")
    axes = [np.linspace(box.lower[i], box.upper[i], points_per_dim) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([m.ravel() for m in mesh], axis=1)
    return _compare(a, b, xs)

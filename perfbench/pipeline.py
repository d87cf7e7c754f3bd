"""The two request paths and the correctness oracle.

Both paths call the public functions in the order `redkit verify` uses them.
Calls go through the `redkit` package namespace so a tracer that rebinds the
public functions sees them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import redkit as rk

REDUCED = "reduced"
ORIGINAL = "original"


@dataclass(frozen=True)
class Outcome:
    """What one path returned for one job, and how long it took."""

    status: str  # verified | falsified | unknown | timeout
    seconds: float
    relu_before: int
    relu_after: int
    bab_splits: int  # -1 when bab_verify was not called
    bab_note: str
    witness: np.ndarray | None
    reduced_model: bytes | None  # exported reduced model, reduced path only

    @property
    def decided(self) -> bool:
        return self.status in ("verified", "falsified")

    def signature(self) -> tuple:
        """The counts that must repeat exactly for the same job."""
        return (self.status, self.relu_after, self.bab_splits, self.bab_note)


def _chain(net, box):
    try:
        rk.as_sequential(net)
        return net
    except rk.StructuralError:
        return rk.simplify(net, box)[0]


def run_path(job, workload, path: str) -> Outcome:
    t0 = time.perf_counter()
    net, _ = rk.import_onnx(job.model)
    spec = rk.parse_vnnlib(job.vnnlib, name=job.name)
    net = _chain(net, spec.box)
    relu_before = relu_after = sum(l.width for l in net.relu_layers())
    reduced_model = None
    if path == REDUCED:
        reduced, report = rk.reduce_network(net, spec.box, method="crown")
        reduced_model = rk.export_onnx(reduced)
        net, _ = rk.import_onnx(reduced_model)
        relu_after = report.relu_after
    v = rk.verify_incomplete(net, spec)
    splits, note = -1, ""
    if not v.verified:
        v = rk.bab_verify(
            net, spec, timeout=workload.timeout_s, max_splits=workload.max_splits
        )
        splits, note = v.splits, v.note
    status, witness = v.status, None
    if status == "unknown":
        witness = rk.find_grid_counterexample(net, spec, budget=workload.falsify_budget)
        if witness is not None:
            status = "falsified"
    seconds = time.perf_counter() - t0
    return Outcome(status, seconds, relu_before, relu_after, splits, note, witness, reduced_model)


def check(job, workload, outcomes: dict, seed: int) -> list[str]:
    """Oracle for one job's first outcomes on both paths; returns violations."""
    problems = []
    original, _ = rk.import_onnx(job.model)
    spec = rk.parse_vnnlib(job.vnnlib, name=job.name)
    chain = _chain(original, spec.box)
    red = outcomes[REDUCED]
    reduced, _ = rk.import_onnx(red.reduced_model)
    eq = rk.sample_equivalence(original, reduced, spec.box, n=1000, seed=seed)
    ys = rk.forward_batch(original, spec.box.sample(64, np.random.default_rng(seed)))
    if not eq.within(1e-7 * max(1.0, float(np.abs(ys).max()))):
        problems.append(f"reduced model differs from the original by {eq.max_abs_diff:.3g}")
    problems += _root_bounds_contain_samples(chain, spec.box, seed)
    for path, out in outcomes.items():
        if out.status == "verified":
            if job.witness is not None:
                problems.append(f"{path}: verified a property with a planted witness")
            x = rk.find_grid_counterexample(
                original, spec, budget=workload.oracle_budget, seed=seed + 1
            )
            if x is not None:
                problems.append(f"{path}: verified, but a grid search finds a counterexample")
        elif out.status == "falsified":
            if not spec.box.contains(out.witness):
                problems.append(f"{path}: witness lies outside the box")
            elif not spec.is_counterexample(rk.forward(original, out.witness)):
                problems.append(f"{path}: witness does not break the property on the original")
        elif out.status == "timeout":
            problems.append(f"{path}: hit the {workload.timeout_s:g} s safety timeout")
    if outcomes[ORIGINAL].status == "verified" and red.status != "verified":
        problems.append("reduced path lost a verdict the original path reached")
    return problems


def _root_bounds_contain_samples(chain, box, seed, n=512) -> list[str]:
    table = rk.compute_bounds(chain, box, "crown")
    seq = rk.as_sequential(chain)
    xs = np.vstack([box.sample(n, np.random.default_rng(seed + 2)), box.lower, box.upper])
    h = xs
    for k, lin in enumerate(seq.linears):
        pre = h @ lin.weight.T + lin.bias
        lo, hi = table.pre_activation(k)
        slack = 1e-9 * (1.0 + np.abs(pre).max())
        if (pre < lo - slack).any() or (pre > hi + slack).any():
            return [f"root bounds of linear layer {k} miss a sampled pre-activation"]
        h = np.maximum(pre, 0.0)
    return []

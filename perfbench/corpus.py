"""Seeded job corpora for the three workloads.

A job is one user request: ONNX model bytes plus VNN-LIB text. Every input
is derived from the seed alone. Architectures come from fixed grids, and
planted stable fractions and slacks from strata that stay with their job, so
two seeds see the same mix of sizes; only the weights, centres, thresholds
and the draws inside each stratum differ. Calibration (thresholds, radii)
runs on the benchmark's own numpy forward and interval code, never on the
analysis code under test, so a change to the bounds or the verifier cannot
change the inputs.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import redkit as rk
from redkit import onnx_codec as oc


@dataclass(frozen=True)
class Job:
    name: str
    model: bytes
    vnnlib: str
    witness: np.ndarray | None  # a known counterexample, when one was planted
    plants: tuple  # ((layer, neuron), ...) planted stable neurons, chains only


@dataclass(frozen=True)
class Workload:
    """Per-workload verifier budgets; the same for both paths."""

    n_jobs: int
    max_splits: int
    falsify_budget: int  # samples for the pipeline's counterexample search
    oracle_budget: int  # larger search run by the oracle on `verified` jobs
    timeout_s: float  # safety net only; a job that hits it has failed


WORKLOADS = {
    "bab_tight": Workload(12, 40, 1024, 4096, 30.0),
    "robust_mix": Workload(60, 4, 1024, 4096, 30.0),
    "large_models": Workload(5, 4, 256, 1024, 60.0),
}


def corpus_digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.name.encode())
        h.update(hashlib.sha256(job.model).digest())
        h.update(hashlib.sha256(job.vnnlib.encode()).digest())
    return h.hexdigest()


def build(workload: str, seed: int) -> list[Job]:
    return _BUILDERS[workload](np.random.default_rng([seed, _SALT[workload]]))


# ---------------------------------------------------------------------------
# the benchmark's own dense-graph arithmetic: steps over named values


def _chain_wb(net) -> list:
    return [(np.array(l.weight), np.array(l.bias)) for l in rk.as_sequential(net).linears]


def _chain_steps(wb) -> list:
    steps, cur = [], "x"
    for k, (W, b) in enumerate(wb):
        steps.append(("affine", f"a{k}", cur, W, b))
        cur = f"a{k}"
        if k < len(wb) - 1:
            steps.append(("relu", f"r{k}", cur))
            cur = f"r{k}"
    steps.append(("add", "y", cur, None))
    return steps


def _forward(steps, xs, dtype=np.float64) -> np.ndarray:
    last_use = {}
    for k, (op, out, a, *rest) in enumerate(steps):
        last_use[a] = k
        if op == "add" and rest[0] is not None:
            last_use[rest[0]] = k
    vals = {"x": np.asarray(xs, dtype=dtype)}
    for k, (op, out, a, *rest) in enumerate(steps):
        if op == "affine":
            W, b = rest
            vals[out] = vals[a] @ np.asarray(W.T, dtype) + np.asarray(b, dtype)
        elif op == "relu":
            vals[out] = np.maximum(vals[a], 0.0)
        else:
            vals[out] = vals[a] if rest[0] is None else vals[a] + vals[rest[0]]
        for name in (a, rest[0] if op == "add" else None):
            if name is not None and last_use.get(name) == k:
                vals.pop(name, None)
    return vals["y"]


def _interval(steps, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    vals = {"x": (lo, hi)}
    for op, out, a, *rest in steps:
        l, u = vals[a]
        if op == "affine":
            W, b = rest
            Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
            vals[out] = (Wp @ l + Wn @ u + b, Wp @ u + Wn @ l + b)
        elif op == "relu":
            vals[out] = (np.maximum(l, 0.0), np.maximum(u, 0.0))
        elif rest[0] is None:
            vals[out] = (l, u)
        else:
            l2, u2 = vals[rest[0]]
            vals[out] = (l + l2, u + u2)
    return vals["y"]


def _strata(rng, n: int, lo: float, hi: float, key: int) -> np.ndarray:
    """One draw per equal-width stratum of [lo, hi].

    Which job gets which stratum is fixed by key, not by the seed, so a job
    keeps its place in the mix across seeds; the seed only jitters the draw
    inside the stratum.
    """
    order = np.random.default_rng(key).permutation(n)
    return lo + (hi - lo) * (order + rng.uniform(size=n)) / n


def _int_strata(rng, n: int, lo: int, hi: int, key: int) -> np.ndarray:
    return np.minimum(np.floor(_strata(rng, n, lo, hi + 1, key)), hi).astype(int)


def _plants(sidecar) -> tuple:
    return tuple((p["layer"], p["neuron"]) for p in sidecar["plants"])


# ---------------------------------------------------------------------------
# robustness radii


EPS_LADDER = 1e-5 * 2.0 ** (np.arange(0, 43) / 2.0)  # 1e-5 up to about 21, steps of sqrt(2)


def _robust_margin_lo(steps, box_lo, box_hi, label) -> float:
    lo, hi = _interval(steps, box_lo, box_hi)
    others = np.delete(np.arange(len(lo)), label)
    return float(lo[label] - hi[others].max())


def _largest_interval_radius(steps, c, label, cap) -> float | None:
    best = None
    for eps in EPS_LADDER[EPS_LADDER <= cap]:
        if _robust_margin_lo(steps, c - eps, c + eps, label) < 0.0:
            break
        best = float(eps)
    return best


def _falsifiable_radius(steps, c, label, start, cap, rng, hit_rate=0.02):
    """Scan the ladder above start with 1024 samples per radius.

    Returns the largest radius where no sample breaks the argmax, the
    smallest where at least hit_rate of them do, and one breaking sample.
    """
    d = len(c)
    clean = start
    for eps in EPS_LADDER[(EPS_LADDER > start) & (EPS_LADDER <= cap)]:
        xs = c + (rng.uniform(size=(1024, d)) * 2.0 - 1.0) * eps
        bad = _forward(steps, xs).argmax(axis=1) != label
        if bad.mean() >= hit_rate:
            return clean, float(eps), xs[int(np.argmax(bad))]
        if not bad.any():
            clean = float(eps)
    return clean, None, None


def _forward_batch_chunked(steps, xs, chunk=16_384, dtype=np.float64):
    return np.vstack([_forward(steps, xs[i : i + chunk], dtype) for i in range(0, len(xs), chunk)])


def _robust_vnnlib(c, eps, label, n_out, name) -> str:
    box = rk.Box(c - eps, c + eps)
    return rk.emit_vnnlib(rk.robustness_spec(box, label, n_out, name=name))


# ---------------------------------------------------------------------------
# bab_tight: one output, threshold below the sampled minimum


def _bab_tight(rng) -> list[Job]:
    spec = WORKLOADS["bab_tight"]
    n = spec.n_jobs
    # every (depth, width) pair of the grid once; BaB cost follows the size
    arch = [(3 + i % 4, (48, 88, 128)[i // 4]) for i in range(n)]
    fracs = _strata(rng, n, 0.3, 0.7, key=11)
    slacks = _strata(rng, n, 0.05, 0.30, key=12)
    d = 8
    box = rk.Box(np.zeros(d), np.ones(d))
    # the corners join the samples: a piecewise-linear net often bottoms out there
    xs = np.vstack([box.corners(2**d), box.sample(200_000, rng)])
    jobs = []
    for i, (depth, width) in enumerate(arch):
        net, sidecar = rk.generate_network(
            depth, width, d, 1, stable_fraction=float(fracs[i]), seed=int(rng.integers(2**31))
        )
        steps = _chain_steps(_chain_wb(net))
        ys = _forward_batch_chunked(steps, xs, dtype=np.float32)[:, 0].astype(np.float64)
        y_min, y_max = float(ys.min()), float(ys.max())
        span = y_max - y_min
        witness = None
        if i % 4 == i // 4:
            # a falsifiable share: t above the 5th-percentile sample, which is kept
            k = int(np.argmin(np.abs(ys - np.quantile(ys, 0.05))))
            witness = xs[k].copy()
            t = float(_forward(steps, witness[None, :])[0, 0]) + 0.02 * span
        else:
            t = y_min - float(slacks[i]) * span
        name = f"bab_tight_{i}"
        prop = rk.PropertySpec(box, np.array([[1.0]]), np.array([-t]), name=name)
        jobs.append(Job(name, rk.export_onnx(net), rk.emit_vnnlib(prop), witness, _plants(sidecar)))
    return jobs


# ---------------------------------------------------------------------------
# robust_mix: 10-output nets; three fifths of the eps-balls verify at the
# root, one fifth need splits and one fifth can be falsified


def _recentred(rng, wb, d, n_out):
    """Shift the output bias so the logits nearly tie at a random centre.

    Generated nets put one logit on top over the whole box; re-centring only
    the output bias moves the decision boundary next to the centre and leaves
    every hidden layer, and so every planted stable neuron, untouched.
    """
    for _ in range(50):
        c = rng.uniform(0.25, 0.75, size=d)
        y_c = _forward(_chain_steps(wb), c[None, :])[0]
        spread = _forward(_chain_steps(wb), rng.uniform(size=(256, d))).std(axis=0).mean()
        W_out, b_out = wb[-1]
        shifted = wb[:-1] + [(W_out, b_out - y_c + rng.uniform(size=n_out) * spread)]
        steps = _chain_steps(shifted)
        label = int(_forward(steps, c[None, :])[0].argmax())
        e_root = _largest_interval_radius(steps, c, label, 0.25)
        if e_root is None:
            continue
        e_clean, e_fal, x_bad = _falsifiable_radius(steps, c, label, e_root, 0.25, rng)
        if e_fal is not None:
            return shifted, c, label, e_root, e_clean, e_fal, x_bad
    raise RuntimeError("no centre with both a provable and a falsifiable radius")


def _robust_mix(rng) -> list[Job]:
    spec = WORKLOADS["robust_mix"]
    n = spec.n_jobs
    depths = _int_strata(rng, n, 2, 4, key=21)
    widths = _int_strata(rng, n, 32, 96, key=22)
    fracs = _strata(rng, n, 0.3, 0.7, key=23)
    d, n_out = 8, 10
    jobs = []
    for i in range(n):
        net, sidecar = rk.generate_network(
            int(depths[i]), int(widths[i]), d, n_out, stable_fraction=float(fracs[i]),
            seed=int(rng.integers(2**31)),
        )
        wb, c, label, e_root, e_clean, e_fal, x_bad = _recentred(rng, _chain_wb(net), d, n_out)
        kind = i % 5
        witness = None
        if kind < 3:  # interval arithmetic already proves it
            eps = e_root
        elif kind == 3:  # the widest radius where sampling finds no counterexample
            eps = e_clean
        else:
            eps, witness = e_fal, x_bad
        name = f"robust_mix_{i}"
        model = rk.export_onnx(rk.from_sequential(wb, d))
        jobs.append(
            Job(name, model, _robust_vnnlib(c, eps, label, n_out, name), witness, _plants(sidecar))
        )
    return jobs


# ---------------------------------------------------------------------------
# large_models: wide chains plus residual conv graphs, root-verifiable balls


RES_SHAPE = (3, 12, 12)
RES_CHANNELS = 8


def _tensor(name, arr) -> oc.TensorP:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return oc.TensorP(name=name, dims=list(a.shape), data_type=oc.DT_DOUBLE, raw_data=a.tobytes())


def _residual_model(rng, n_out: int) -> tuple[bytes, list]:
    """Two residual conv blocks, Flatten, Gemm; ONNX bytes and dense steps."""
    C, H, W = RES_SHAPE
    nodes, inits, steps = [], [], []
    cur = "x"
    for blk in range(2):
        k1 = rng.normal(scale=1.0 / np.sqrt(9 * C), size=(RES_CHANNELS, C, 3, 3))
        b1 = rng.normal(scale=0.1, size=RES_CHANNELS)
        k2 = rng.normal(scale=1.0 / np.sqrt(9 * RES_CHANNELS), size=(C, RES_CHANNELS, 3, 3))
        b2 = rng.normal(scale=0.1, size=C)
        names = [f"b{blk}_{s}" for s in ("k1", "b1", "k2", "b2")]
        for nm, arr in zip(names, (k1, b1, k2, b2)):
            inits.append(_tensor(nm, arr))
        pads = oc.AttrP("pads", oc.AT_INTS, ints=[1, 1, 1, 1])
        h, hr, h2, s, sr = (f"b{blk}_{s}" for s in ("h", "hr", "h2", "s", "sr"))
        nodes += [
            oc.NodeP("Conv", f"b{blk}_c1", [cur, names[0], names[1]], [h], {"pads": pads}),
            oc.NodeP("Relu", f"b{blk}_r1", [h], [hr]),
            oc.NodeP("Conv", f"b{blk}_c2", [hr, names[2], names[3]], [h2], {"pads": pads}),
            oc.NodeP("Add", f"b{blk}_add", [h2, cur], [s]),
            oc.NodeP("Relu", f"b{blk}_r2", [s], [sr]),
        ]
        M1, B1, mid = rk.conv_to_matrix(k1, b1, RES_SHAPE, pads=(1, 1, 1, 1))
        M2, B2, _ = rk.conv_to_matrix(k2, b2, mid, pads=(1, 1, 1, 1))
        steps += [
            ("affine", h, cur, M1, B1),
            ("relu", hr, h),
            ("affine", h2, hr, M2, B2),
            ("add", s, h2, cur),
            ("relu", sr, s),
        ]
        cur = sr
    size = C * H * W
    Wg = rng.normal(scale=1.0 / np.sqrt(size), size=(n_out, size))
    bg = rng.normal(scale=0.1, size=n_out)
    inits += [_tensor("gw", Wg), _tensor("gb", bg)]
    nodes += [
        oc.NodeP("Flatten", "flat", [cur], ["f"], {"axis": oc.AttrP("axis", oc.AT_INT, i=1)}),
        oc.NodeP("Gemm", "head", ["f", "gw", "gb"], ["y"],
                 {"transB": oc.AttrP("transB", oc.AT_INT, i=1)}),
    ]
    steps += [("affine", "y0", cur, Wg, bg), ("add", "y", "y0", None)]
    graph = oc.GraphP(
        name="residual", nodes=nodes, initializers=inits,
        inputs=[oc.ValueInfoP("x", oc.DT_DOUBLE, [1, *RES_SHAPE])],
        outputs=[oc.ValueInfoP("y", oc.DT_DOUBLE, [1, n_out])],
    )
    model = oc.ModelP(producer_name="perfbench", opset_imports=[("", 13)], graph=graph)
    return oc.encode_model(model), steps


LARGE_CHAINS = ((4, 1024), (5, 768), (6, 640))  # 6 x 1024 trips the generator's bias cap


def _large_models(rng) -> list[Job]:
    spec = WORKLOADS["large_models"]
    fracs = _strata(rng, len(LARGE_CHAINS), 0.3, 0.7, key=31)
    n_out = 10
    jobs = []
    for i in range(spec.n_jobs):
        plants = ()
        if i < len(LARGE_CHAINS):
            d = 16
            depth, width = LARGE_CHAINS[i]
            net, sidecar = rk.generate_network(
                depth, width, d, n_out, stable_fraction=float(fracs[i]),
                seed=int(rng.integers(2**31)),
            )
            model, steps = rk.export_onnx(net), _chain_steps(_chain_wb(net))
            plants = _plants(sidecar)
            del net
        else:
            d = int(np.prod(RES_SHAPE))
            model, steps = _residual_model(rng, n_out)
        for _ in range(50):
            c = rng.uniform(0.25, 0.75, size=d)
            label = int(_forward(steps, c[None, :])[0].argmax())
            eps = _largest_interval_radius(steps, c, label, 0.25)
            if eps is not None:
                break
        else:
            raise RuntimeError("no centre with a provable radius")
        name = f"large_models_{i}"
        jobs.append(Job(name, model, _robust_vnnlib(c, eps, label, n_out, name), None, plants))
    return jobs


_BUILDERS = {"bab_tight": _bab_tight, "robust_mix": _robust_mix, "large_models": _large_models}
_SALT = {"bab_tight": 1, "robust_mix": 2, "large_models": 3}

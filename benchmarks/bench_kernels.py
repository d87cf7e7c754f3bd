"""Compare the numba kernels against the pure-numpy fallback.

Times the two hot kernels (interval_affine, relu_backward) at several layer
sizes, then a full crown bound pass on generated networks before and after
reduction. Run it directly:

    python benchmarks/bench_kernels.py [--repeats N]

Backends are switched in process via redkit.kernels.set_backend, so one run
covers both; if numba is not importable the script reports numpy only.
"""

import argparse
import time

import numpy as np

from redkit import Box, compute_bounds, generate_network, reduce_network
from redkit.kernels import (
    _BACKENDS,
    active_backend,
    interval_affine,
    relu_backward,
    set_backend,
    warmup,
)

SIZES = [(64, 64), (256, 256), (1024, 512), (2048, 1024)]
NET_CONFIGS = [(4, 128), (5, 256), (4, 512)]  # (hidden layers, width)


def median_time(fn, repeats):
    fn()
    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


def bench_kernels(backend, repeats, rng):
    rows = []
    for m, n in SIZES:
        W = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        lo = -np.abs(rng.normal(size=n)) - 0.1
        hi = np.abs(rng.normal(size=n)) + 0.1
        t_ia = median_time(lambda: interval_affine(W, b, lo, hi), repeats)

        A = rng.normal(size=(m, n))
        const = rng.normal(size=m)
        s_lo = rng.uniform(0.0, 1.0, size=n)
        s_up = rng.uniform(0.0, 1.0, size=n)
        icpt = np.abs(rng.normal(size=n))
        t_rb = median_time(
            lambda: relu_backward(A, const, s_lo, s_up, icpt, True), repeats
        )
        rows.append((f"{m}x{n}", t_ia, t_rb))
    return rows


def bench_crown(backend, repeats):
    rows = []
    for depth, width in NET_CONFIGS:
        net, sidecar = generate_network(depth, width, 16, stable_fraction=0.7, seed=0)
        box = Box(np.asarray(sidecar["box"]["lower"]), np.asarray(sidecar["box"]["upper"]))
        reduced, _ = reduce_network(net, box, method="interval")
        t_full = median_time(lambda: compute_bounds(net, box, method="crown"), repeats)
        t_red = median_time(lambda: compute_bounds(reduced, box, method="crown"), repeats)
        rows.append((f"{depth}x{width}", t_full, t_red))
    return rows


def fmt(seconds):
    return f"{seconds * 1e3:9.3f} ms"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7, help="timing repeats per entry")
    args = ap.parse_args()

    backends = []
    for name in ("numpy", "numba"):
        if name in _BACKENDS:
            backends.append(name)
        else:
            print(f"backend {name!r} unavailable, skipping")
    results = {}
    for name in backends:
        set_backend(name)
        warmup()
        rng = np.random.default_rng(0)
        results[name] = {
            "kernels": bench_kernels(name, args.repeats, rng),
            "crown": bench_crown(name, args.repeats),
        }
    set_backend("auto")

    print(f"\nkernel timings (median of {args.repeats}):")
    header = f"{'size':>10} | " + " | ".join(
        f"{name} interval_affine | {name} relu_backward" for name in backends
    )
    print(header)
    print("-" * len(header))
    for idx, (label, *_rest) in enumerate(results[backends[0]]["kernels"]):
        cells = []
        for name in backends:
            _, t_ia, t_rb = results[name]["kernels"][idx]
            cells.append(f"{fmt(t_ia):>22} | {fmt(t_rb):>20}")
        print(f"{label:>10} | " + " | ".join(cells))

    print(f"\nfull crown pass (median of {args.repeats}):")
    header = f"{'net':>10} | " + " | ".join(f"{name} full | {name} reduced" for name in backends)
    print(header)
    print("-" * len(header))
    for idx, (label, *_rest) in enumerate(results[backends[0]]["crown"]):
        cells = []
        for name in backends:
            _, t_full, t_red = results[name]["crown"][idx]
            cells.append(f"{fmt(t_full):>15} | {fmt(t_red):>15}")
        print(f"{label:>10} | " + " | ".join(cells))

    if len(backends) == 2:
        ratios = []
        for idx in range(len(SIZES)):
            _, np_ia, np_rb = results["numpy"]["kernels"][idx]
            _, nb_ia, nb_rb = results["numba"]["kernels"][idx]
            ratios.extend([np_ia / nb_ia, np_rb / nb_rb])
        geo = float(np.exp(np.mean(np.log(ratios))))
        print(f"\nnumba vs numpy kernel geomean: {geo:.2f}x")
    print(f"active backend restored to: {active_backend()}")


if __name__ == "__main__":
    main()

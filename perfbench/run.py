"""Verdict benchmark: the reduced path against the original path.

    python3 perfbench/run.py --workload bab_tight --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the workload's jobs from the seed, runs
them in a closed loop (one client, one job at a time, both paths per job)
for --seconds, checks every distinct job with the correctness oracle, and
prints one JSON object as the last line of standard output. --trace 1 runs
one untraced and one traced pass over the jobs instead, reports the
per-layer metrics and writes the spans to .bench_out/. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cap_blas_threads():
    n = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "redkit" / "__init__.py").is_file():
        print(f"error: no redkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # noqa: E402 - needs the sys.path entry above

    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())

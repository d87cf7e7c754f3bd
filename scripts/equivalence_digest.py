#!/usr/bin/env python3
"""Digest of every result a refactor must keep, over the perfbench jobs.

    python3 scripts/equivalence_digest.py --seeds 1001 2003 > digest.txt

Run from the root of a checkout: it builds the perfbench jobs of each seed
and workload from perfbench/ and imports redkit from src/ of the same
checkout. For each job and path (original, then reduced, as
perfbench/pipeline.py prepares them) it prints one line per output:

- `chain` (original path only): sha256 of the shapes and bytes of the
  weights and biases of the chain that pipeline._chain returns, so a
  change to the importer or to simplify shows before any bound does;
- `interval` and `crown`: sha256 of the compute_bounds table's ranges;
- `incomplete` and `bab`: the verify_incomplete and bab_verify verdicts,
  the latter at the workload's split budget (or --max-splits): status,
  repr(bound), splits and note. bab_verify runs right after
  verify_incomplete on the same network, so it takes over that root;
- `bab_alone`: the `bab` verdict of bab_verify on a freshly imported
  network with no verify_incomplete before it, which bounds its own root,
  so each run shows whether a root taken over and a fresh one give the
  same verdict byte for byte;
- `onnx` (reduced path only): sha256 of the exported reduced model;
- `verdict`: both verdicts' status, splits and note, and the path's ReLU
  count (`relu_after`), with no float in it.

Two checkouts whose outputs agree bit for bit print the same lines, so
`diff` of two runs is the equivalence check. A change that moves bounds
only by rounding changes the hash and `repr(bound)` lines but should keep
every `verdict` line, so `grep ' verdict '` on both runs, then `diff`,
shows whether a verdict moved. --workloads and --jobs (a Python slice, as
in `0:2`) narrow the run. --max-splits N replaces every workload's split
budget, so a change to branch and bound can show its verdicts unchanged
beyond the benchmark's small budgets. Nothing under perfbench/ is written.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bab_tight", "robust_mix", "large_models")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1001, 2003])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--jobs", default=":", help="slice of each workload's jobs, as in 0:2")
    p.add_argument("--max-splits", type=int, help="bab_verify's split budget for every workload")
    args = p.parse_args(argv)
    if args.max_splits is not None and args.max_splits < 0:
        p.error(f"--max-splits must be nonnegative, got {args.max_splits}")
    try:
        args.jobs = slice(*(int(x) if x else None for x in args.jobs.split(":")))
    except (TypeError, ValueError):
        p.error(f"--jobs must be a slice such as 0:2, got {args.jobs!r}")
    return args


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _table(rk, net, box, method: str) -> str:
    table = rk.compute_bounds(net, box, method)
    return _sha(*(a.tobytes() for k in range(len(table.linear_ids)) for a in table.pre_activation(k)))


def _chain_sha(chain) -> str:
    return _sha(*(part for pair in chain.layers for a in pair for part in (repr(a.shape).encode(), a.tobytes())))


def _verdict(v) -> str:
    return f"{v.status} {v.bound!r} {v.splits} {v.note!r}"


def _decision(v) -> str:
    return f"{v.status} {v.splits} {v.note!r}"


def job_lines(rk, pipeline, job, workload, max_splits) -> list[tuple[str, str, str]]:
    """(path, output, digest) for one job, original path first, at max_splits splits."""
    out = []
    for path in (pipeline.ORIGINAL, pipeline.REDUCED):
        net, _ = rk.import_onnx(job.model)
        spec = rk.parse_vnnlib(job.vnnlib, name=job.name)
        net = pipeline._chain(net, spec.box)
        relu_after = sum(layer.width for layer in net.relu_layers())
        if path == pipeline.ORIGINAL:
            out.append((path, "chain", _chain_sha(rk.Chain.of(net))))
        if path == pipeline.REDUCED:
            reduced, report = rk.reduce_network(net, spec.box, method="crown")
            relu_after = report.relu_after
            model = rk.export_onnx(reduced)
            net, _ = rk.import_onnx(model)
        out.append((path, "interval", _table(rk, net, spec.box, "interval")))
        out.append((path, "crown", _table(rk, net, spec.box, "crown")))
        incomplete = rk.verify_incomplete(net, spec)
        out.append((path, "incomplete", _verdict(incomplete)))
        bab = rk.bab_verify(net, spec, timeout=workload.timeout_s, max_splits=max_splits)
        out.append((path, "bab", _verdict(bab)))
        fresh = rk.import_onnx(model if path == pipeline.REDUCED else job.model)[0]
        if path == pipeline.ORIGINAL:
            fresh = pipeline._chain(fresh, spec.box)
        alone = rk.bab_verify(fresh, spec, timeout=workload.timeout_s, max_splits=max_splits)
        out.append((path, "bab_alone", _verdict(alone)))
        if path == pipeline.REDUCED:
            out.append((path, "onnx", _sha(model)))
        out.append((path, "verdict",
                    f"incomplete {_decision(incomplete)} bab {_decision(bab)} relu_after {relu_after}"))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    n = str(min(2, len(os.sched_getaffinity(0))))  # perfbench's BLAS thread cap
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    import corpus  # noqa: E402 - needs the sys.path entries above
    import pipeline  # noqa: E402
    import redkit as rk  # noqa: E402

    for workload in args.workloads:
        for seed in args.seeds:
            jobs = corpus.build(workload, seed)
            spec = corpus.WORKLOADS[workload]
            max_splits = spec.max_splits if args.max_splits is None else args.max_splits
            for i in range(len(jobs))[args.jobs]:
                for path, output, digest in job_lines(rk, pipeline, jobs[i], spec, max_splits):
                    print(f"{workload} {seed} job {i} {path} {output} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

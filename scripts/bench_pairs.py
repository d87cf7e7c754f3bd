#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, recorded in a BENCH_*.json file.

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workload large_models --seeds 1001 2003 --pairs 10 --seconds 20 \\
        --out BENCH_7.json

For every seed, runs `python3 perfbench/run.py --workload W --seed S
--seconds T` in each checkout --pairs times, one process at a time. The side
that goes first alternates from pair to pair, so slow drift of the host
lands on both sides alike. Each run's end-to-end metrics, `correct`,
`failed`, `counts sha256` and a digest of its per-job lines with the timings
removed are recorded. Per metric, the summary gives both sides' median and
quartiles and the number of pairs the change wins, in the direction that
BENCHMARK.json (read from the change checkout) names as better.

An existing --out file is updated in place: other workloads and seeds in it
are kept, so one file can collect several invocations. Standard library
only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("base", "change")
_TIMING = re.compile(r"\d+\.\d+ s")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            p.error(f"--{side}: no perfbench/run.py under {getattr(args, side)}")
    return args


def _command(workload: str, seed: int, seconds: float) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}"]


def run_once(checkout: Path, cmd: list[str]) -> dict:
    """One perfbench run in checkout; its metrics and digests."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    record = {"exit": proc.returncode, "wall_s": round(wall, 3)}
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["error"] = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return record
    record["correct"] = last["correct"]
    record["attempted"] = last["attempted"]
    record["failed"] = last["failed"]
    record["metrics"] = {k: v["value"] for k, v in last["metrics"].items()}
    for line in lines:
        if line.startswith("counts sha256 "):
            record["counts_sha256"] = line.split()[-1]
    jobs = "\n".join(_TIMING.sub("", l) for l in lines if l.startswith("job "))
    record["jobs_sha256"] = hashlib.sha256(jobs.encode()).hexdigest()
    return record


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: dict, better: dict) -> dict:
    """Per metric: both sides' median and quartiles, and the change's pair wins."""
    out = {}
    pairs = list(zip(runs["base"], runs["change"]))
    names = sorted(set().union(*(r.get("metrics", {}) for side in SIDES for r in runs[side])))
    for name in names:
        have = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs
                if name in b.get("metrics", {}) and name in c.get("metrics", {})]
        if not have:
            continue
        row = {side: _quartiles([p[i] for p in have]) for i, side in enumerate(SIDES)}
        if name in better:
            sign = 1.0 if better[name] == "lower" else -1.0
            row["better"] = better[name]
            row["change_wins"] = sum(sign * (b - c) > 0 for b, c in have)
            base = row["base"]["median"]
            row["change_vs_base"] = row["change"]["median"] / base - 1.0 if base else None
        row["pairs"] = len(have)
        out[name] = row
    out["counts_match"] = all(
        b.get("counts_sha256") is not None and b.get("counts_sha256") == c.get("counts_sha256")
        for b, c in pairs
    )
    out["jobs_match"] = all(b.get("jobs_sha256") == c.get("jobs_sha256") for b, c in pairs)
    out["all_correct"] = all(r.get("correct") is True and r.get("failed") == 0
                             for side in SIDES for r in runs[side])
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.setdefault("host", {"cpus": os.cpu_count(), "platform": platform.platform(),
                            "python": platform.python_version()})
    doc.setdefault("workloads", {})
    entry = doc["workloads"].setdefault(args.workload, {"seeds": {}})
    for seed in args.seeds:
        cmd = _command(args.workload, seed, args.seconds)
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                rec = run_once(checkouts[side], cmd)
                rec["pair"] = i
                runs[side].append(rec)
                m = rec.get("metrics", {})
                print(f"{args.workload} seed {seed} pair {i} {side}: "
                      f"verdict_s_p50 {m.get('verdict_s_p50', float('nan')):.4f} "
                      f"verdict_orig_s_p50 {m.get('verdict_orig_s_p50', float('nan')):.4f} "
                      f"exit {rec['exit']}", file=sys.stderr, flush=True)
        entry["seeds"][str(seed)] = {
            "command": cmd,
            "pairs": args.pairs,
            "runs": runs,
            "summary": summarize(runs, better),
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

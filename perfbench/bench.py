"""Closed-loop measurement, traced breakdown and metric reporting."""
from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback

import corpus
import pipeline
import redkit as rk
from pipeline import ORIGINAL, REDUCED
from tracer import Tracer

N_SETUPS = 3
E2E_UNITS = {
    "setup_s": "s",
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "verdict_orig_s_p50": "s",
    "verdict_orig_s_tail": "s",
    "jobs_per_s": "1/s",
    "decided_frac": "ratio",
    "decided_orig_frac": "ratio",
    "relu_removed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def run(args, root) -> int:
    workload = corpus.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.trace:
        return _traced(args, workload, root / ".bench_out")
    return _measured(args, workload)


def _setup(args, problems: list) -> tuple[list, float]:
    """Build the jobs N_SETUPS times; the same seed must give the same bytes."""
    times, digests, jobs = [], set(), None
    for _ in range(N_SETUPS):
        jobs = None  # drop the previous build so memory holds one at a time
        t0 = time.perf_counter()
        jobs = corpus.build(args.workload, args.seed)
        times.append(time.perf_counter() - t0)
        digests.add(corpus.corpus_digest(jobs))
    if len(digests) != 1:
        problems.append(f"the same seed built {len(digests)} different input sets")
    print(f"inputs: {len(jobs)} jobs, sha256 {min(digests)}")
    return jobs, statistics.median(times)


class Ledger:
    """Every path execution, plus each job's first outcome per path."""

    def __init__(self, jobs, workload):
        self.jobs = jobs
        self.workload = workload
        self.first: dict[int, dict] = {i: {} for i in range(len(jobs))}
        self.runs: list[tuple[int, str, float | None, bool]] = []  # job, path, seconds, ok
        self.problems: dict[int, list[str]] = {}
        self.global_problems: list[str] = []

    def run_job(self, i: int, reduced_first: bool, on_start=None, on_done=None) -> float:
        """Both paths of job i; returns the seconds the two paths took."""
        spent = 0.0
        for path in (REDUCED, ORIGINAL) if reduced_first else (ORIGINAL, REDUCED):
            if on_start is not None:
                on_start(i, path)
            try:
                out = pipeline.run_path(self.jobs[i], self.workload, path)
            except Exception:  # noqa: BLE001 - a raising job is a failed job, not a crash
                traceback.print_exc(file=sys.stderr)
                self.runs.append((i, path, None, False))
                self._problem(i, f"{path}: raised")
                continue
            spent += out.seconds
            ok = out.status != "timeout"
            seen = self.first[i].setdefault(path, out)
            if seen.signature() != out.signature():
                ok = False
                self._problem(i, f"{path}: repeat gave {out.signature()}, "
                                 f"first gave {seen.signature()}")
            self.runs.append((i, path, out.seconds, ok))
            if on_done is not None:
                on_done(i, path, out)
        return spent

    def _problem(self, i, text):
        self.problems.setdefault(i, []).append(text)

    def check(self, seed: int):
        for i, outs in self.first.items():
            if len(outs) == 2:
                for text in pipeline.check(self.jobs[i], self.workload, outs, seed):
                    self._problem(i, text)

    def times(self, path) -> list[float]:
        return [s for _, p, s, _ in self.runs if p == path and s is not None]

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for i, _, _, ok in self.runs if not ok or i in self.problems)

    @property
    def correct(self) -> bool:
        return not self.problems and not self.global_problems and self.failed == 0

    def done(self) -> list[int]:
        return [i for i, outs in self.first.items() if len(outs) == 2]

    def frac_decided(self, path) -> float:
        done = self.done()
        return sum(self.first[i][path].decided for i in done) / max(len(done), 1)

    def relu_removed_frac(self) -> float:
        before = sum(self.first[i][REDUCED].relu_before for i in self.done())
        after = sum(self.first[i][REDUCED].relu_after for i in self.done())
        return 1.0 - after / before if before else 0.0

    def counts_digest(self) -> str:
        sig = [(i, p, outs[p].signature()) for i, outs in self.first.items() for p in sorted(outs)]
        return hashlib.sha256(repr(sig).encode()).hexdigest()

    def print_jobs(self):
        for i in self.done():
            red, orig = self.first[i][REDUCED], self.first[i][ORIGINAL]
            job = self.jobs[i]
            digest = corpus.corpus_digest([job])[:12]
            print(f"job {job.name} [{digest}]: relu {red.relu_before}->{red.relu_after}; "
                  f"reduced {red.status} {red.seconds:.4f} s {red.bab_splits} splits "
                  f"{red.bab_note!r}; original {orig.status} {orig.seconds:.4f} s "
                  f"{orig.bab_splits} splits {orig.bab_note!r}")

    def report_problems(self):
        for text in self.global_problems:
            print(f"CHECK FAILED: {text}", file=sys.stderr)
        for i, texts in sorted(self.problems.items()):
            for text in texts:
                print(f"CHECK FAILED: {self.jobs[i].name}: {text}", file=sys.stderr)


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with 10 values above it."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def _emit(ledger: Ledger, metrics: dict) -> int:
    ledger.report_problems()
    out = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if ledger.correct else 1


# ---------------------------------------------------------------------------
# end-to-end run


def _measured(args, workload) -> int:
    setup_problems: list[str] = []
    jobs, setup_s = _setup(args, setup_problems)
    ledger = Ledger(jobs, workload)
    ledger.global_problems += setup_problems
    n, passes = len(jobs), 0
    t_start = time.perf_counter()
    # whole passes only, so every job weighs the same; start one only if it fits
    while True:
        t_pass = time.perf_counter()
        for i in range(n):
            ledger.run_job(i, reduced_first=(passes + i) % 2 == 0)
        passes += 1
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > args.seconds:
            break
    loop_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.check(args.seed)
    ledger.print_jobs()
    red, orig = ledger.times(REDUCED), ledger.times(ORIGINAL)
    red_tail, red_p = tail(red)
    orig_tail, orig_p = tail(orig)
    print(f"loop: {passes} passes over {n} jobs in {loop_s:.2f} s")
    print(f"tails: reduced p{red_p:.1f} of {len(red)} jobs, "
          f"original p{orig_p:.1f} of {len(orig)} jobs")
    print(f"counts sha256 {ledger.counts_digest()}")
    values = {
        "setup_s": setup_s,
        "verdict_s_p50": statistics.median(red),
        "verdict_s_tail": red_tail,
        "verdict_orig_s_p50": statistics.median(orig),
        "verdict_orig_s_tail": orig_tail,
        "jobs_per_s": len(red) / sum(red),
        "decided_frac": ledger.frac_decided(REDUCED),
        "decided_orig_frac": ledger.frac_decided(ORIGINAL),
        "relu_removed_frac": ledger.relu_removed_frac(),
        "peak_rss_mb": peak_rss_mb,
    }
    for k, v in values.items():
        print(f"{k}: {v:.6g} {E2E_UNITS[k]}")
    return _emit(ledger, {k: (v, E2E_UNITS[k]) for k, v in values.items()})


# ---------------------------------------------------------------------------
# traced run


LEAVES = {
    "split budget exhausted": "budget_exhausted",
    "affine leaf bound is negative": "affine_leaf_negative",
}


class LayerStats:
    """Counters the tracer's listener fills in, read after each job."""

    def __init__(self):
        self.root_table = None  # (chain, box, crown table) of the current job
        self.simplify = {"constructions": 0, "linearizations": 0, "normalization_rewrites": 0}
        self.leaves = {k: 0 for k in ("verified", "budget_exhausted", "affine_leaf_negative",
                                      "timeout", "other")}
        self.bab_nodes = 0
        self.grid_hits = 0
        self.unstable = [0, 0]  # unstable, hidden neurons in root tables
        self.widths = [0.0, 0.0]  # summed crown, interval widths
        self.planted = [0, 0]  # found, planted

    def listen(self, name, parent, args, result):
        if name == "bounds.compute_bounds" and parent == "reducer.reduce_network":
            self.root_table = (args[0], args[1], result)
        elif name == "simplifier.simplify":
            stats = result[1]
            for k in self.simplify:
                self.simplify[k] += getattr(stats, k)
        elif name == "verify.bab_verify":
            if result.status == "verified":
                self.leaves["verified"] += 1
            elif result.status == "timeout":
                self.leaves["timeout"] += 1
            else:
                self.leaves[LEAVES.get(result.note, "other")] += 1
            self.bab_nodes += 1 + 2 * result.splits
        elif name == "verify.find_grid_counterexample" and result is not None:
            self.grid_hits += 1

    def after_job(self, job):
        """Root-table statistics, computed with the tracer paused."""
        if self.root_table is None:
            return
        chain, box, table = self.root_table
        self.root_table = None
        ivl = rk.interval_forward(chain, box)
        for k in range(len(table.linear_ids) - 1):
            lo, hi = table.pre_activation(k)
            ilo, ihi = ivl.pre_activation(k)
            self.unstable[0] += int(((lo < 0.0) & (hi > 0.0)).sum())
            self.unstable[1] += lo.shape[0]
            self.widths[0] += float((hi - lo).sum())
            self.widths[1] += float((ihi - ilo).sum())
        if job.plants:
            parts = rk.classify(table)
            stable = [set(p.deactivated.tolist()) | set(p.activated.tolist()) for p in parts]
            self.planted[0] += sum(1 for k, j in job.plants if j in stable[k])
            self.planted[1] += len(job.plants)


PER_LAYER_TIMES = (
    "onnx_codec.decode_model", "onnx_codec.encode_model", "onnx_bridge.import_onnx",
    "onnx_bridge.export_onnx", "simplifier.simplify", "specio.parse_vnnlib",
    "netir.as_sequential", "netir.forward_batch", "kernels.relu_backward",
    "kernels.interval_affine", "bounds.compute_bounds", "bounds.margin_lower_bounds",
    "reducer.reduce_network", "verify.verify_incomplete", "verify.bab_verify",
    "verify.force_split", "verify.find_grid_counterexample",
)
PER_LAYER_CALLS = (
    "netir.as_sequential", "kernels.relu_backward", "kernels.interval_affine",
    "bounds.compute_bounds", "bounds.margin_lower_bounds", "verify.force_split",
)


def _traced(args, workload, out_dir) -> int:
    stats = LayerStats()
    tracer = Tracer(listener=stats.listen)
    setup_problems: list[str] = []
    with tracer:
        jobs, _ = _setup(args, setup_problems)
    gen_s = tracer.total["generator.generate_network"] / N_SETUPS
    tracer = Tracer(listener=stats.listen)
    ledger = Ledger(jobs, workload)
    ledger.global_problems += setup_problems
    n = len(jobs)

    plain = Ledger(jobs, workload)
    untraced_s = sum(plain.run_job(i, reduced_first=i % 2 == 0) for i in range(n))

    def start(i, path):
        tracer.request = f"{jobs[i].name}/{path}"

    def after(i, path, out):
        if path == REDUCED:
            tracer.enabled = False
            stats.after_job(jobs[i])
            tracer.enabled = True

    traced_s = 0.0
    with tracer:
        for i in range(n):
            traced_s += ledger.run_job(i, reduced_first=i % 2 == 0, on_start=start, on_done=after)
    for i, texts in plain.problems.items():
        ledger.global_problems += [f"untraced pass: {jobs[i].name}: {t}" for t in texts]
    for i in range(n):  # both passes must agree exactly on the counts
        for path, out in plain.first[i].items():
            theirs = ledger.first[i].get(path)
            if theirs is not None and theirs.signature() != out.signature():
                ledger.global_problems.append(f"{jobs[i].name} {path}: traced and untraced "
                                              "passes disagree")
    ledger.check(args.seed)
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans)
    print(f"trace: {len(tracer.spans)} spans written to {spans}")
    for name in tracer.absent:
        print(f"trace: {name} is absent; its metrics read 0")

    m = {}
    for name in PER_LAYER_TIMES:
        m[f"{name}.s"] = (tracer.self_time[name], "s")
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in ("kernels.relu_backward", "kernels.interval_affine"):
        m[f"{name}.madds"] = (tracer.counts[f"{name}.madds"], "madds")
    decode_s = tracer.total["onnx_codec.decode_model"]
    decoded = tracer.counts["onnx_codec.decode_model.bytes"] / 1e6
    m["onnx_codec.decode.mb_per_s"] = (decoded / decode_s if decode_s else 0.0, "MB/s")
    for k, v in stats.simplify.items():
        m[f"simplifier.{k}"] = (v, "count")
    m["bounds.unstable_frac"] = (stats.unstable[0] / max(stats.unstable[1], 1), "ratio")
    m["bounds.crown_interval_width_ratio"] = (
        stats.widths[0] / stats.widths[1] if stats.widths[1] else 1.0, "ratio")
    m["reducer.relu_after"] = (sum(ledger.first[i][REDUCED].relu_after for i in ledger.done()),
                               "count")
    m["reducer.planted_found_frac"] = (stats.planted[0] / max(stats.planted[1], 1), "ratio")
    bab_s = tracer.total["verify.bab_verify"]
    m["verify.bab.nodes"] = (stats.bab_nodes, "count")
    m["verify.bab.nodes_per_s"] = (stats.bab_nodes / bab_s if bab_s else 0.0, "1/s")
    for k, v in stats.leaves.items():
        m[f"verify.bab.leaves.{k}"] = (v, "count")
    m["verify.find_grid_counterexample.hits"] = (stats.grid_hits, "count")
    m["generator.generate_network.s"] = (gen_s, "s")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    ratios = [plain.first[i][ORIGINAL].seconds / plain.first[i][REDUCED].seconds
              for i in plain.done()]
    m["reduction_speedup_geomean"] = (
        math.exp(statistics.fmean(math.log(r) for r in ratios)), "ratio")
    m["failed_frac"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    print(f"traced pass {traced_s:.2f} s, untraced pass {untraced_s:.2f} s over {n} jobs")
    print(f"counts sha256 {ledger.counts_digest()}")
    for k, (v, u) in m.items():
        print(f"{k}: {v:.6g} {u}")
    return _emit(ledger, m)

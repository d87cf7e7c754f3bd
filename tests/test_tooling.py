"""Checks on the benchmark tooling.

The benchmark scripts reach redkit only through `rk.<name>`; every such name
must exist. A public name deleted from redkit would otherwise surface only
when the benchmark runs, so this scan fails first. redkit.__all__ must list
every public name the package imports, each once, and each must resolve.
Every backticked dotted redkit name in README.md (`redkit.verify`,
`bounds.COMPACT_MIN_ENTRIES`) must resolve too, so a deleted name cannot
linger in the docs. So must every --flag on a `redkit <subcommand>` line of
README.md, against that subcommand's parser, and README's subcommand table
must list exactly the parser's subcommands. scripts/bench_pairs.py
summarizes paired runs; its direction-aware win count is checked on fixed
records. scripts/equivalence_digest.py runs on one job of one workload, and
its --max-splits replaces the split budget.
"""
import argparse
import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import redkit
from redkit import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_perfbench_rk_names_resolve():
    refs = {
        (path.name, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for name in re.findall(r"\brk\.(\w+)", path.read_text())
    }
    assert refs, f"no rk.<name> references found under {PERFBENCH}"
    missing = sorted((file, name) for file, name in refs if not hasattr(redkit, name))
    assert not missing, f"perfbench names absent from redkit: {missing}"


def test_all_names_resolve():
    listed = redkit.__all__
    assert len(listed) == len(set(listed)), "redkit.__all__ repeats a name"
    missing = [name for name in listed if not hasattr(redkit, name)]
    assert not missing, f"redkit.__all__ names absent from redkit: {missing}"
    tree = ast.parse(Path(redkit.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported, "no imports found in redkit/__init__.py"
    unlisted = sorted(imported - set(listed))
    assert not unlisted, f"imported by redkit/__init__.py but not in __all__: {unlisted}"


_MODULES = {m.name for m in pkgutil.iter_modules(redkit.__path__)}


def _resolves(dotted: str) -> bool:
    """Whether a dotted redkit name (redkit.<name>..., or <module>.<name>...) names something."""
    first, *rest = dotted.removeprefix("redkit.").split(".")
    if first in _MODULES:
        obj = importlib.import_module(f"redkit.{first}")
    elif hasattr(redkit, first):
        obj = getattr(redkit, first)
    else:
        return False
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_dotted_names_resolve():
    refs = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", (ROOT / "README.md").read_text()))
    names = {r for r in refs if r.startswith("redkit.") or r.split(".")[0] in _MODULES}
    assert {"bounds.COMPACT_MIN_ENTRIES", "redkit.verify"} <= names, "README names not found"
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"README.md names absent from redkit: {missing}"


def _subcommands() -> dict:
    top = cli._build_parser()
    return next(a for a in top._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_redkit_flags_exist():
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    commands = re.findall(r"^\s*(?:\$\s+)?redkit\s+(\w+)(.*)$", text, re.M)
    assert len(commands) >= 5, "no redkit command lines found in README.md"
    subs = _subcommands()
    unknown = sorted(
        (sub, flag)
        for sub, rest in commands
        for flag in re.findall(r"(?<!\S)--[\w-]+", rest)
        if sub not in subs or flag not in subs[sub]._option_string_actions
    )
    assert not unknown, f"README.md redkit flags the CLI does not accept: {unknown}"


def test_readme_subcommand_table_lists_the_parser_subcommands():
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| command "):].split("\n\n")[0]
    listed = re.findall(r"^\|\s*`(\w+)`\s*\|", table, re.M)
    assert len(listed) == len(set(listed)), f"README.md lists a subcommand twice: {listed}"
    assert sorted(listed) == sorted(_subcommands()), "README.md subcommand table is out of date"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_pairs_summary_counts_wins_in_each_direction():
    bp = _bench_pairs()

    def run(t, rate, counts="c"):
        return {"metrics": {"verdict_s_p50": t, "jobs_per_s": rate}, "correct": True,
                "failed": 0, "counts_sha256": counts, "jobs_sha256": "j"}

    runs = {
        "base": [run(1.0, 1.0), run(2.0, 2.0), run(3.0, 3.0), run(4.0, 4.0)],
        "change": [run(0.5, 2.0), run(2.5, 1.0), run(1.0, 4.0), run(4.0, 5.0)],
    }
    out = bp.summarize(runs, {"verdict_s_p50": "lower", "jobs_per_s": "higher"})
    assert out["verdict_s_p50"]["change_wins"] == 2  # the tie counts for neither side
    assert out["jobs_per_s"]["change_wins"] == 3
    assert out["verdict_s_p50"]["base"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert out["counts_match"] and out["jobs_match"] and out["all_correct"]
    runs["change"][1] = run(2.5, 1.0, counts="other")
    assert not bp.summarize(runs, {})["counts_match"]


def test_equivalence_digest_prints_every_output_of_a_job():
    # large_models job 3 is a residual graph, so the run goes through simplify
    before = sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))
    cmd = [sys.executable, "scripts/equivalence_digest.py", "--workloads", "large_models",
           "--seeds", "1001", "--jobs", "3:4"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" ", 6) for line in proc.stdout.splitlines()]
    assert [r[:5] for r in rows] == [["large_models", "1001", "job", "3", path]
                                     for path in ["original"] * 7 + ["reduced"] * 7]
    outputs = ["interval", "crown", "incomplete", "bab", "bab_alone"]
    assert [r[5] for r in rows] == ["chain"] + outputs + ["verdict"] + outputs + ["onnx", "verdict"]
    verdicts, bab = {}, {}
    for _, _, _, _, path, output, digest in rows:
        if output in ("incomplete", "bab", "bab_alone"):
            status, bound, splits, note = digest.split(" ", 3)
            assert status in ("verified", "unknown") and float(bound) == float(bound)
            assert int(splits) >= 0 and note[0] == note[-1] == "'"
            if output == "bab_alone":  # a fresh root gives the taken-over root's verdict
                assert digest == bab[path]
                continue
            bab[path] = digest
            verdicts.setdefault(path, []).append(f"{output} {status} {splits} {note}")
        elif output == "verdict":
            # both verdicts without their bounds, then the path's ReLU count
            head, relu_after = digest.rsplit(" relu_after ", 1)
            assert head == " ".join(verdicts[path]) and int(relu_after) > 0
        else:
            assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*")) == before
    bad = subprocess.run(cmd[:-1] + ["x"], cwd=ROOT, capture_output=True, text=True)
    assert bad.returncode == 2 and "--jobs" in bad.stderr


def test_equivalence_digest_max_splits_replaces_the_split_budget():
    # bab_tight's job 0 needs more than its 40-split budget, so bab_verify
    # stops at whatever budget the flag sets, on both paths
    cmd = [sys.executable, "scripts/equivalence_digest.py", "--workloads", "bab_tight",
           "--seeds", "1001", "--jobs", "0:1", "--max-splits", "2"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" ", 6) for line in proc.stdout.splitlines()]
    bab = [r[6].split(" ", 3) for r in rows if r[5] == "bab"]
    assert [(b[0], b[2], b[3]) for b in bab] == [("unknown", "2", "'split budget exhausted'")] * 2
    verdicts = [r[6] for r in rows if r[5] == "verdict"]
    assert len(verdicts) == 2 and all(" bab unknown 2 " in v for v in verdicts)
    bad = subprocess.run(cmd[:-1] + ["-1"], cwd=ROOT, capture_output=True, text=True)
    assert bad.returncode == 2 and "--max-splits" in bad.stderr

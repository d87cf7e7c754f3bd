"""The benchmark scripts reach redkit only through `rk.<name>`; every such name must exist.

A public name deleted from redkit would otherwise surface only when the
benchmark runs, so this scan fails first.
"""
import re
from pathlib import Path

import redkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_rk_names_resolve():
    refs = {
        (path.name, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for name in re.findall(r"\brk\.(\w+)", path.read_text())
    }
    assert refs, f"no rk.<name> references found under {PERFBENCH}"
    missing = sorted((file, name) for file, name in refs if not hasattr(redkit, name))
    assert not missing, f"perfbench names absent from redkit: {missing}"

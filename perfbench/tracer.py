"""In-memory span tracer that rebinds public redkit functions.

install() replaces each target function in every `redkit.*` namespace that
holds it (the defining module and every module that imported it by name)
with a wrapper that records a span, and uninstall() puts the originals back.
A target that no longer exists is reported as absent instead of failing, so
the tracer keeps working while functions are deleted or renamed.

A span's self time is its duration minus the time covered by its child
spans. Spans stay in memory; write_spans() dumps them as JSON lines.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs; a span is named "<module>.<function>"
TARGETS = (
    ("generator", "generate_network"),
    ("onnx_codec", "decode_model"),
    ("onnx_codec", "encode_model"),
    ("onnx_bridge", "import_onnx"),
    ("onnx_bridge", "export_onnx"),
    ("specio", "parse_vnnlib"),
    ("simplifier", "simplify"),
    ("netir", "as_sequential"),
    ("netir", "forward_batch"),
    ("kernels", "interval_affine"),
    ("kernels", "relu_backward"),
    ("bounds", "compute_bounds"),
    ("bounds", "margin_lower_bounds"),
    ("reducer", "reduce_network"),
    ("verify", "verify_incomplete"),
    ("verify", "bab_verify"),
    ("verify", "force_split"),
    ("verify", "find_grid_counterexample"),
)


def _madds_interval_affine(args, kwargs):
    W = args[0] if args else kwargs["W"]
    shape = getattr(W, "shape", ())
    return 4 * shape[0] * shape[1] if len(shape) == 2 else 0


def _madds_relu_backward(args, kwargs):
    A = args[0] if args else kwargs["A"]
    shape = getattr(A, "shape", ())
    return 2 * shape[0] * shape[1] if len(shape) == 2 else 0


def _decoded_bytes(args, kwargs):
    data = args[0] if args else kwargs["data"]
    return len(data)


# extra per-call counters: span name -> (counter, fn(args, kwargs) -> int)
COUNTERS = {
    "kernels.interval_affine": ("madds", _madds_interval_affine),
    "kernels.relu_backward": ("madds", _madds_relu_backward),
    "onnx_codec.decode_model": ("bytes", _decoded_bytes),
}


class Tracer:
    def __init__(self, listener=None):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, request)
        self.absent: list[str] = []
        self.request = ""
        self.enabled = True
        self._stack: list[list] = []  # [span id, time covered by children, name]
        self._next_id = 0
        self._patched: list[tuple] = []  # (module, attribute, original)
        self._listener = listener  # fn(name, parent name, args, result)

    def install(self):
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"redkit.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "redkit" or mname.startswith("redkit.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0, name]
            self._next_id += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                self.spans.append(
                    (frame[0], parent[0] if parent else None, name, t0, t1, self.request)
                )
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs)
            if self._listener is not None:
                self._listener(name, parent[2] if parent else None, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, request in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "request": request}) + "\n")

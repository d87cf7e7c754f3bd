"""Synthetic fully-connected ReLU networks with planted stable neurons.

Stability is planted against the declared input box using interval
arithmetic, which the analysis side also uses as its coarsest method; the
planted neurons are therefore detectable by construction, and remain so on
any sub-box (interval bounds only tighten when the region shrinks). Each
planted pre-activation clears zero by at least the requested margin.

Weights are Gaussian with 1/sqrt(fan_in) scale so activations neither decay
nor explode across depth; biases for unplanted neurons are centered to keep
them unstable, giving the planted fraction direct control over how much of
the network a reduction can remove.
"""
from __future__ import annotations

import json

import numpy as np

from .bounds import Box
from .errors import GenerationError, ParseError
from .kernels import interval_affine
from .netir import Network, from_sequential
from .onnx_bridge import export_onnx

BIAS_CAP = 1e6


def generate_network(
    n_hidden: int,
    width: int,
    input_dim: int,
    output_dim: int = 2,
    stable_fraction: float = 0.5,
    margin: float = 0.5,
    seed: int = 0,
    box: Box | None = None,
) -> tuple[Network, dict]:
    """Build the network and a sidecar dict recording what was planted."""
    if n_hidden < 1 or width < 1 or input_dim < 1 or output_dim < 1:
        raise GenerationError("depth, width and dimensions must be positive")
    if not 0.0 <= stable_fraction <= 1.0:
        raise GenerationError(f"stable_fraction {stable_fraction} outside [0, 1]")
    if margin <= 0.0:
        raise GenerationError(f"margin must be positive, got {margin}")
    if box is None:
        box = Box(np.zeros(input_dim), np.ones(input_dim))
    if box.dim != input_dim:
        raise GenerationError(f"box has dimension {box.dim}, expected {input_dim}")

    rng = np.random.default_rng(seed)
    v_lo, v_hi = box.lower.copy(), box.upper.copy()
    wb = []
    plants = []
    n_stable = int(round(stable_fraction * width))
    for k in range(n_hidden):
        fan_in = input_dim if k == 0 else width
        W = rng.normal(0.0, 1.0, size=(width, fan_in)) / np.sqrt(fan_in)
        bias = rng.normal(0.0, 0.1, size=width)
        lo0, hi0 = interval_affine(W, np.zeros(width), v_lo, v_hi)
        chosen = np.sort(rng.choice(width, size=n_stable, replace=False))
        planted = set()
        for pos, j in enumerate(chosen):
            if pos % 2 == 0:
                bias[j] = -lo0[j] + margin
                plants.append({"layer": k, "neuron": int(j), "kind": "activated"})
            else:
                bias[j] = -hi0[j] - margin
                plants.append({"layer": k, "neuron": int(j), "kind": "deactivated"})
            planted.add(int(j))
        for j in range(width):
            if j in planted:
                continue
            w_span = hi0[j] - lo0[j]
            if w_span <= 0.0:
                raise GenerationError(f"layer {k} neuron {j} has a degenerate pre-activation")
            # center the interval on zero with a small jitter: guaranteed unstable
            bias[j] = -(lo0[j] + hi0[j]) / 2.0 + rng.uniform(-0.3, 0.3) * (w_span / 2.0)
        if np.abs(bias).max() > BIAS_CAP:
            raise GenerationError(
                f"layer {k}: planted bias exceeds {BIAS_CAP:g}; the requested geometry "
                "makes intervals blow up, reduce depth or width"
            )
        wb.append((W, bias))
        pre_lo, pre_hi = interval_affine(W, bias, v_lo, v_hi)
        v_lo, v_hi = np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
    W_out = rng.normal(0.0, 1.0, size=(output_dim, width)) / np.sqrt(width)
    b_out = rng.normal(0.0, 0.1, size=output_dim)
    wb.append((W_out, b_out))
    net = from_sequential(wb, input_dim)
    sidecar = {
        "seed": seed,
        "box": {"lower": box.lower.tolist(), "upper": box.upper.tolist()},
        "stable_fraction": stable_fraction,
        "margin": margin,
        "input_dim": input_dim,
        "output_dim": output_dim,
        "hidden_widths": [width] * n_hidden,
        "plants": plants,
    }
    return net, sidecar


def save_model(net: Network, sidecar: dict, model_path, sidecar_path=None) -> str:
    """Write the model plus its sidecar json; returns the sidecar path."""
    data = export_onnx(net)
    with open(model_path, "wb") as fh:
        fh.write(data)
    if sidecar_path is None:
        sidecar_path = str(model_path) + ".json"
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(sidecar_path)


def load_sidecar(path) -> tuple[Box, dict]:
    """The box and metadata that save_model wrote; ParseError naming a malformed file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        sidecar = json.loads(data.decode("utf-8"))
        lower, upper = (np.array(sidecar["box"][k], dtype=np.float64) for k in ("lower", "upper"))
    except (ValueError, KeyError, TypeError) as e:
        raise ParseError(f"{path}: no numeric box in sidecar ({type(e).__name__}: {e})") from None
    return Box(lower, upper), sidecar

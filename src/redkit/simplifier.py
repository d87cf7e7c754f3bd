"""Flattening branched Linear/ReLU/Sum networks into sequential chains.

One pass in topological order keeps every value as an affine form over its
sources, the input and the ReLU layers: a list of (source, matrix) terms and
a bias. A source's own term is the identity, kept symbolic (matrix None). A
Linear multiplies each term by its weight, so a run of linears folds left to
right (W2 W1, W2 b1 + b2). A Sum adds its operands' terms from one source
into one matrix, so a form holds each source once and a Linear multiplies
each source's matrix once, however many branches rejoin.

Each ReLU then gets the latest stage its readers allow, one less than the
earliest stage that reads it, and the output reads one stage after the last.
Chain layer t fires the ReLUs of stage t, in ascending id, over the sources
of stage t-1, and below them passes every source still read after t through
as an identity. A carried ReLU output is nonnegative already; the input is
carried shifted by max(0, -box.lower), and each later row that reads it
takes its block times the shift off its bias. The chain has one hidden layer
per ReLU on the network's longest ReLU path and computes the network's
function over the box (everywhere, when the input is never carried).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Box
from .errors import ContractError, StructuralError
from .netir import (
    KIND_INPUT, KIND_LINEAR, KIND_RELU, Chain, Network, feeds_output, reaches_from_input, topo_order,
)


@dataclass
class SimplifyStats:
    """What one simplify call did.

    constructions: chain layers that carry a source next to the ReLUs they
    fire; linearizations: network Linear layers folded into a chain layer;
    normalization_rewrites: same-source terms a Sum adds into one matrix;
    layer_budget: the input network's layer count |V|.
    """

    constructions: int = 0
    linearizations: int = 0
    normalization_rewrites: int = 0
    layer_budget: int = 0


def _forms(net: Network, order: list[int], stats: SimplifyStats):
    """Each value's (terms, bias) over the sources, and each ReLU's pre-activation form."""
    forms: dict[int, tuple[list, np.ndarray | None]] = {}
    pre: dict[int, tuple[list, np.ndarray | None]] = {}
    for i in order:
        layer, preds = net.by_id[i], net.preds[i]
        if layer.kind == KIND_INPUT:
            forms[i] = ([(i, None)], None)
        elif layer.kind == KIND_RELU:
            if net.by_id[preds[0]].kind in (KIND_INPUT, KIND_RELU):
                raise StructuralError(f"layer {i}: relu not preceded by a linear layer")
            pre[i] = forms[preds[0]]
            forms[i] = ([(i, None)], None)
        elif layer.kind == KIND_LINEAR:
            terms, c = forms[preds[0]]
            W = layer.weight
            forms[i] = (
                [(s, W if M is None else W @ M) for s, M in terms],
                layer.bias if c is None else W @ c + layer.bias,
            )
        else:
            biases = [forms[p][1] for p in preds if forms[p][1] is not None]
            bias = sum(biases[1:], biases[0]) if biases else None
            merged: dict[int, np.ndarray | None] = {}
            for s, M in (t for p in preds for t in forms[p][0]):
                stats.normalization_rewrites += s in merged
                merged[s] = _plus(merged[s], M, net.by_id[s].width) if s in merged else M
            forms[i] = (list(merged.items()), bias)
    return forms, pre


def _plus(A, B, w: int) -> np.ndarray:
    """A + B as a fresh matrix; None is the w x w identity, added by indexing."""
    dense = [M for M in (A, B) if M is not None]
    out = dense[0] + dense[1] if len(dense) == 2 else dense[0].copy() if dense else np.zeros((w, w))
    for _ in range(2 - len(dense)):
        _identity(out, 0, 0, w)
    return out


def _stages(net: Network, order: list[int], pre: dict, out_form) -> tuple[dict, dict, int]:
    """The stage each source fires at (the input's is 0), the last stage reading it, and T.

    T is the number of hidden stages; a ReLU output fires at T, any other
    output reads at T + 1.
    """
    out = net.output_id
    relu_out = net.by_id[out].kind == KIND_RELU
    readers: dict[int, list[int]] = {}
    for q, (terms, _) in list(pre.items()) + ([] if relu_out else [(out, out_form)]):
        for s, _ in terms:
            readers.setdefault(s, []).append(q)
    height = {} if relu_out else {out: 0}  # stages from a layer's own to the output's read
    for r in reversed(order):
        if r in pre:
            height[r] = 1 if r == out else max(height[q] for q in readers[r]) + 1
    top = max(height.values()) + 1
    stage = {i: top - h for i, h in height.items()}
    stage[net.input_id] = 0
    last_read = {s: max(stage[q] for q in qs) for s, qs in readers.items()}
    return stage, last_read, top - 1


def _emit(groups, carried, cols: dict, x: int, shift, t: int) -> tuple:
    """Chain layer t: the row groups (width, terms, bias), then the carried sources.

    cols maps each source to its (offset, width) column block. A lone group
    with one term over every column adopts that term's arrays as they are
    (from stage 2 on, a ReLU block is among the columns, so that term is
    never the input's). From stage 2 on, the input's columns hold x + shift,
    so a row group that reads them takes its block times shift off its bias.
    """
    n_cols = sum(w for _, w in cols.values())
    if len(groups) == 1 and not carried and len(groups[0][1]) == 1:
        width, ((_, M),), bias = groups[0]
        if M is not None and M.shape[1] == n_cols:
            return M, np.zeros(width) if bias is None else bias
    n_rows = sum(g[0] for g in groups) + sum(cols[s][1] for s in carried)
    W, b = np.zeros((n_rows, n_cols)), np.zeros(n_rows)
    r0 = 0
    for width, terms, bias in groups:
        rows = slice(r0, r0 + width)
        for s, M in terms:
            c0, w = cols[s]
            if M is None:
                _identity(W, r0, c0, w)
            else:
                W[rows, c0 : c0 + w] += M
        if bias is not None:
            b[rows] += bias
        if t > 1 and any(s == x for s, _ in terms):
            c0, w = cols[x]
            b[rows] -= W[rows, c0 : c0 + w] @ shift
        r0 += width
    for s in carried:
        c0, w = cols[s]
        _identity(W, r0, c0, w)
        if s == x and t == 1:
            b[r0 : r0 + w] += shift
        r0 += w
    return W, b


def _identity(W: np.ndarray, r0: int, c0: int, w: int):
    """Add a w x w identity into W at row r0, column c0, by indexing."""
    idx = np.arange(w)
    W[r0 + idx, c0 + idx] += 1.0


def simplify(net: Network, box: Box | None = None) -> tuple[Network, SimplifyStats]:
    """Flatten any supported network into an alternating Linear/ReLU chain.

    The box is needed only when the input itself is carried past a hidden
    layer; a ReLU right after the input or after another ReLU, and a layer
    off the input-to-output path, raise StructuralError. A box whose
    dimension is not the input width raises ContractError, whether or not
    the input is carried.
    """
    if box is not None and box.dim != net.input_layer.width:
        raise ContractError(f"box dimension {box.dim} does not match input width {net.input_layer.width}")
    n_linear = sum(layer.kind == KIND_LINEAR for layer in net.layers)
    stats = SimplifyStats(linearizations=n_linear, layer_budget=len(net.layers))
    order = topo_order(net)
    left = sorted(set(net.by_id) - (reaches_from_input(net, order) & feeds_output(net)))
    if left:
        raise StructuralError(f"layers {left} are not on the input-to-output path")
    out, x = net.output_id, net.input_id
    if out == x:
        raise StructuralError("sequential network needs at least one linear layer")
    forms, pre = _forms(net, order, stats)
    stage, last_read, n_hidden = _stages(net, order, pre, forms[out])
    width = {i: net.by_id[i].width for i in stage}
    cols, shift, layers = {x: (0, width[x])}, None, []
    for t in range(1, n_hidden + 1 + (out not in pre)):
        fired = sorted(r for r in pre if stage[r] == t)
        carried = sorted(s for s in last_read if stage[s] < t < last_read[s])
        if x in carried and shift is None:
            if box is None:
                raise ContractError(
                    "the input layer feeds a residual block; an input box is required "
                    "to shift its passthrough into the nonnegative range"
                )
            shift = np.maximum(0.0, -box.lower)
        groups = [(width[r], *pre[r]) for r in fired] if t <= n_hidden else [(width[out], *forms[out])]
        stats.constructions += bool(carried)
        layers.append(_emit(groups, carried, cols, x, shift, t))
        cols, r0 = {}, 0
        for s in fired + carried:
            cols[s] = (r0, width[s])
            r0 += width[s]
    for pair in layers:  # fresh or already frozen: the layers adopt them uncopied
        for a in pair:
            a.flags.writeable = False
    return Chain(tuple(layers), n_hidden).to_network(), stats

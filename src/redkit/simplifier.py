"""Rewriting branched Linear/ReLU/Sum graphs into sequential chains.

The pass works on blocks: a Sum layer fed exclusively by Linear layers whose
only consumer it is. Every network is first encoded into such blocks, then
blocks are eliminated back-to-front. A block whose inputs are all distinct
non-Sum layers either dissolves (single input) or is replaced by one
selector-Linear/ReLU/Linear triple that concatenates its input signals:
blocked ReLU layers contribute their pre-activations (their ReLU moves into
the new layer), passthrough layers contribute their outputs, shifted into the
nonnegative range when they come straight from the input box.

The Sum-free graph left over is read straight into a netir.Chain, composing
each run of linear layers into one, so the result computes the same function
over the given input region and is a plain alternating Linear/ReLU chain.

The identity arcs and construction selectors the pass adds are 0/1 row
selectors; composing through one gathers rows or columns instead of
running a matrix product, with the same bytes as the product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import Box
from .errors import ContractError, InternalInvariantError, StructuralError
from .netir import KIND_INPUT, KIND_LINEAR, KIND_RELU, KIND_SUM, Chain, Network


@dataclass
class SimplifyStats:
    constructions: int = 0
    linearizations: int = 0
    normalization_rewrites: int = 0
    layer_budget: int = 0


class _Graph:
    """Mutable scratch representation used by the rewriting passes.

    sel holds the row index of each selector: a linear layer the passes
    themselves add (an identity arc, a construction's input selector) whose
    weight has at most one 1 in each row and column and zeros elsewhere.
    Row i of its weight is one-hot at column sel[i], or zero where sel[i] is
    -1. _normalize composes through a selector by indexing (see _compose);
    a layer that stops being one (a merge of two members) drops its index.
    """

    def __init__(self):
        self.kind: dict[int, str] = {}
        self.width: dict[int, int] = {}
        self.weight: dict[int, np.ndarray] = {}
        self.bias: dict[int, np.ndarray] = {}
        self.sel: dict[int, np.ndarray] = {}
        self.preds: dict[int, list[int]] = {}
        self.input_id: int | None = None
        self.output_id: int | None = None
        self._next = 0

    @classmethod
    def from_network(cls, net: Network) -> "_Graph":
        """Share the network's read-only arrays; rewrites replace arrays, never write them."""
        g = cls()
        for l in net.layers:
            g.kind[l.id] = l.kind
            g.width[l.id] = l.width
            if l.kind == KIND_LINEAR:
                g.weight[l.id] = l.weight
                g.bias[l.id] = l.bias
            g.preds[l.id] = list(net.preds[l.id])
        g.input_id = net.input_id
        g.output_id = net.output_id
        g._next = max(g.kind) + 1
        return g

    def add(self, kind, width, weight=None, bias=None, preds=(), sel=None) -> int:
        i = self._next
        self._next += 1
        self.kind[i] = kind
        self.width[i] = int(width)
        if kind == KIND_LINEAR:
            self.weight[i] = np.asarray(weight, dtype=np.float64)
            self.bias[i] = np.asarray(bias, dtype=np.float64)
        if sel is not None:
            self.sel[i] = sel
        self.preds[i] = list(preds)
        return i

    def add_selector(self, rows, in_width: int, bias, pred: int) -> int:
        """A selector linear over pred's in_width values; rows is its row index."""
        rows = np.asarray(rows, dtype=np.intp)
        hit = rows >= 0
        W = np.zeros((len(rows), in_width))
        W[np.nonzero(hit)[0], rows[hit]] = 1.0
        return self.add(KIND_LINEAR, len(rows), W, bias, preds=[pred], sel=rows)

    def remove(self, i: int):
        del self.kind[i], self.width[i], self.preds[i]
        self.weight.pop(i, None)
        self.bias.pop(i, None)
        self.sel.pop(i, None)

    def succs_map(self) -> dict[int, list[int]]:
        s: dict[int, list[int]] = {i: [] for i in self.kind}
        for i in sorted(self.kind):
            for p in self.preds[i]:
                s[p].append(i)
        return s

    def consumers(self, i: int) -> list[int]:
        return [c for c in sorted(self.kind) if i in self.preds[c]]

    def replace_pred(self, consumer: int, old: int, new_ids: list[int]):
        out: list[int] = []
        for p in self.preds[consumer]:
            if p == old:
                out.extend(new_ids)
            else:
                out.append(p)
        self.preds[consumer] = out

    def sums(self) -> list[int]:
        return sorted(i for i, k in self.kind.items() if k == KIND_SUM)


def _initialize(g: _Graph):
    """Encode every layer into block form.

    Original Sum layers get an identity Linear per incoming arc; every Linear
    then gets a private trailing Sum that takes over its consumers.
    """
    original_sums = g.sums()
    original_linears = sorted(i for i, k in g.kind.items() if k == KIND_LINEAR)
    for sid in original_sums:
        w = g.width[sid]
        new_preds = []
        for p in g.preds[sid]:
            new_preds.append(g.add_selector(np.arange(w), w, np.zeros(w), p))
        g.preds[sid] = new_preds
    for lid in original_linears:
        s = g.add(KIND_SUM, g.width[lid], preds=[lid])
        for c in g.consumers(lid):
            if c != s:
                g.replace_pred(c, lid, [s])
        if g.output_id == lid:
            g.output_id = s


def _last_block(g: _Graph) -> int:
    """The unique block with no path to another block; asserted unique."""
    sums = g.sums()
    succs = g.succs_map()
    last = []
    for sid in sums:
        seen = set()
        stack = list(succs[sid])
        reaches_sum = False
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            if g.kind[i] == KIND_SUM:
                reaches_sum = True
                break
            stack.extend(succs[i])
        if not reaches_sum:
            last.append(sid)
    if len(last) != 1:
        raise InternalInvariantError(f"expected exactly one final block, found {last}")
    return last[0]


def _compose(M, m_rows, X, x_rows=None):
    """M @ X, and the product's selector index when both factors are selectors.

    m_rows and x_rows are the factors' selector indices, or None for a
    general matrix; X may be a vector. A selector factor is applied by
    indexing: M's selector gathers rows of X, X's selector places columns of
    M. For finite entries the result has the product's bytes, since each
    entry is one entry of the other factor or a sum of zeros.
    """
    if m_rows is not None:
        out = np.zeros((len(m_rows),) + X.shape[1:])
        hit = m_rows >= 0
        out[hit] = X[m_rows[hit]]
        rows = None if x_rows is None else np.where(hit, x_rows[m_rows], -1)
    elif x_rows is not None:
        out = np.zeros((M.shape[0], X.shape[1]))
        hit = x_rows >= 0
        out[:, x_rows[hit]] = M[:, hit]
        rows = None
    else:
        return M @ X, None
    out += 0.0  # a product's sum of zeros is +0.0 where the copied entry may be -0.0
    return out, rows


def _normalize(g: _Graph, sid: int) -> int:
    """Rewrite the block until its linears have pairwise-distinct non-Sum preds.

    A member whose predecessor is another block's Sum is replaced by one
    composed Linear per inner member (weights M_outer @ M_inner; the outer
    bias rides on the first); inner blocks left without consumers are
    deleted. Members sharing a predecessor are merged by summing parameters,
    and the merged member is no longer a selector.
    """
    rewrites = 0
    while True:
        target = None
        for l in g.preds[sid]:
            p = g.preds[l][0]
            if g.kind[p] == KIND_SUM:
                target = (l, p)
                break
        if target is not None:
            l, p = target
            Mj, Bj, rows = g.weight[l], g.bias[l], g.sel.get(l)
            inner = list(g.preds[p])
            new_ids = []
            for i, il in enumerate(inner):
                Wn, Wn_rows = _compose(Mj, rows, g.weight[il], g.sel.get(il))
                Bn = _compose(Mj, rows, g.bias[il])[0] + (Bj if i == 0 else 0.0)
                new_ids.append(
                    g.add(KIND_LINEAR, Wn.shape[0], Wn, Bn, preds=[g.preds[il][0]], sel=Wn_rows)
                )
            g.replace_pred(sid, l, new_ids)
            g.remove(l)
            if not g.succs_map().get(p):
                for il in inner:
                    g.remove(il)
                g.remove(p)
            rewrites += 1
            continue
        seen: dict[int, int] = {}
        merged = False
        for l in list(g.preds[sid]):
            p = g.preds[l][0]
            if p in seen:
                keep = seen[p]
                g.weight[keep] = g.weight[keep] + g.weight[l]
                g.bias[keep] = g.bias[keep] + g.bias[l]
                g.sel.pop(keep, None)
                g.preds[sid] = [q for q in g.preds[sid] if q != l]
                g.remove(l)
                merged = True
                rewrites += 1
            else:
                seen[p] = l
        if not merged:
            return rewrites


def _rewire_consumers(g: _Graph, old: int, new: int):
    for c in g.consumers(old):
        g.replace_pred(c, old, [new])
    if g.output_id == old:
        g.output_id = new


def _construct(g: _Graph, sid: int, box: Box | None):
    """Replace a multi-input block by a selector Linear, ReLU, Linear triple."""
    members = list(g.preds[sid])
    by_pred: dict[int, int] = {}
    for l in members:
        p = g.preds[l][0]
        if p in by_pred:
            raise InternalInvariantError(f"block {sid} not normalized: duplicate predecessor {p}")
        by_pred[p] = l
    ins = list(by_pred)
    if len(ins) <= 1:
        raise ContractError(f"block {sid} has a single input; it dissolves instead")
    succs = g.succs_map()
    member_set = set(members)
    blocked = [
        p
        for p in ins
        if g.kind[p] == KIND_RELU and all(c in member_set for c in succs[p])
    ]
    passthrough = [p for p in ins if p not in blocked]
    for p in passthrough:
        if g.kind[p] not in (KIND_RELU, KIND_INPUT):
            raise InternalInvariantError(f"block {sid}: unexpected input kind {g.kind[p]}")
    if not blocked:
        raise InternalInvariantError(f"block {sid}: no blocked relu among inputs {ins}")
    order = sorted(blocked) + sorted(passthrough)
    widths = [g.width[q] for q in order]
    total = int(sum(widths))
    offsets = np.concatenate([[0], np.cumsum(widths)]).astype(int)
    shift_all = np.zeros(total)
    sel_ids = []
    for pos, q in enumerate(order):
        off, w = offsets[pos], widths[pos]
        if q in blocked:
            src = g.preds[q][0]
        else:
            src = q
        rows = np.full(total, -1)
        rows[off : off + w] = np.arange(w)
        sb = np.zeros(total)
        if q not in blocked and g.kind[q] == KIND_INPUT:
            if box is None:
                raise ContractError(
                    "the input layer feeds a residual block; an input box is required "
                    "to shift its passthrough into the nonnegative range"
                )
            sh = np.maximum(0.0, -box.lower)
            sb[off : off + w] = sh
            shift_all[off : off + w] = sh
        sel_ids.append(g.add_selector(rows, g.width[src], sb, src))
    new_sum = g.add(KIND_SUM, total, preds=sel_ids)
    new_relu = g.add(KIND_RELU, total, preds=[new_sum])
    out_w = g.width[sid]
    Ml = np.zeros((out_w, total))
    Bl = np.zeros(out_w)
    for pos, q in enumerate(order):
        off, w = offsets[pos], widths[pos]
        m = by_pred[q]
        Ml[:, off : off + w] = g.weight[m]
        Bl += g.bias[m]
    Bl -= Ml @ shift_all
    new_lin = g.add(KIND_LINEAR, out_w, Ml, Bl, preds=[new_relu])
    _rewire_consumers(g, sid, new_lin)
    for l in members:
        g.remove(l)
    g.remove(sid)
    for r in blocked:
        g.remove(r)


def _linearize(g: _Graph, sid: int):
    """Dissolve a single-input block: its lone linear takes the Sum's place."""
    members = g.preds[sid]
    if len(members) != 1:
        raise ContractError(f"block {sid} has {len(members)} members; only one dissolves")
    _rewire_consumers(g, sid, members[0])
    g.remove(sid)


def _read_chain(g: _Graph) -> Chain:
    """Read a Sum-free graph into a Chain, walking from the input.

    Each run of linear layers is composed left to right (W2 W1, W2 b1 + b2).
    A ReLU right after the input or another ReLU, a layer that fans out and
    a layer left off the chain all raise StructuralError.
    """
    succs = g.succs_map()
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    n_relu = 0
    cur, after_linear = g.input_id, False
    on_chain = {cur}
    while cur != g.output_id:
        if len(succs[cur]) != 1:
            raise StructuralError(f"layer {cur} has {len(succs[cur])} consumers; not a chain")
        cur = succs[cur][0]
        on_chain.add(cur)
        kind = g.kind[cur]
        if kind == KIND_LINEAR:
            W, b = g.weight[cur], g.bias[cur]
            if after_linear:
                W1, b1 = pairs[-1]
                pairs[-1] = (W @ W1, W @ b1 + b)
            else:
                pairs.append((W, b))
        elif kind == KIND_RELU:
            if not after_linear:
                raise StructuralError(f"layer {cur}: relu not preceded by a linear layer")
            n_relu += 1
        else:
            raise StructuralError(f"layer {cur}: kind {kind} not allowed in a chain")
        after_linear = kind == KIND_LINEAR
    if len(on_chain) != len(g.kind):
        left = sorted(set(g.kind) - on_chain)
        raise StructuralError(f"layers {left} are not on the input-to-output chain")
    if not pairs:
        raise StructuralError("sequential network needs at least one linear layer")
    return Chain(tuple(pairs), n_relu)


def simplify(net: Network, box: Box | None = None) -> tuple[Network, SimplifyStats]:
    """Flatten any supported network into an alternating Linear/ReLU chain.

    Works back-to-front: the final block is normalized, then constructed away
    (several inputs) or dissolved (one input). Termination is budgeted by the
    encoded network's layer count; exceeding it is a bug, not an input error.
    The box is only needed when the input layer itself feeds a block through
    a passthrough path. Equivalence holds over the box (everywhere, when no
    input passthrough occurred).
    """
    g = _Graph.from_network(net)
    _initialize(g)
    stats = SimplifyStats(layer_budget=len(g.kind))
    while True:
        if not g.sums():
            break
        sid = _last_block(g)
        stats.normalization_rewrites += _normalize(g, sid)
        members = g.preds[sid]
        ins = {g.preds[l][0] for l in members}
        if len(ins) > 1:
            _construct(g, sid, box)
            stats.constructions += 1
            if stats.constructions > stats.layer_budget:
                raise InternalInvariantError(
                    f"construction count {stats.constructions} exceeded the layer "
                    f"budget {stats.layer_budget}"
                )
        else:
            _linearize(g, sid)
            stats.linearizations += 1
    chain = _read_chain(g)
    for pair in chain.layers:  # the pass is done with them: the layers adopt them uncopied
        for a in pair:
            a.flags.writeable = False
    return chain.to_network(), stats

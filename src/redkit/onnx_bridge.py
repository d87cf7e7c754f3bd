"""Lowering ONNX models to the Linear/ReLU/Sum IR and exporting back.

Feed-forward piecewise-linear ops only. Convolutions become explicit dense
matrices over the row-major-flattened tensor, pooling becomes trees of
pairwise max gadgets (max(x,y) = ReLU(x-y) + ReLU(y) - ReLU(-y), so no range
knowledge is needed), shape-only ops are pure bookkeeping. reference_forward
is an independent per-op evaluator over the decoded node list, used as the
import-equivalence oracle; it deliberately shares no code with the lowering.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import onnx_codec as oc
from .errors import UnsupportedModelError
from .netir import KIND_LINEAR, Network, NetworkBuilder, as_sequential, feeds_output

# the fewest inputs each supported op reads by position; every op writes an output
_MIN_INPUTS = {
    "Gemm": 2,
    "MatMul": 2,
    "Conv": 2,
    "BatchNormalization": 5,
    "Add": 2,
    "Sub": 2,
    "Concat": 1,
    "Reshape": 2,
    "Flatten": 1,
    "Squeeze": 1,
    "Unsqueeze": 1,
    "Split": 1,
    "Relu": 1,
    "MaxPool": 1,
    "Identity": 1,
    "Constant": 0,
}
SUPPORTED_OPS = frozenset(_MIN_INPUTS)


@dataclass
class ImportReport:
    input_shape: tuple
    flattening_order: str = "row-major"
    present_ops: list[str] = field(default_factory=list)
    unsupported_ops: list[tuple[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class _Val:
    lid: int
    shape: tuple[int, ...]
    batched: bool = False  # the model sees a leading batch dim of 1 before shape

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def full(self) -> tuple[int, ...]:
        """The shape as the model's ops see it, batch dim included."""
        return (1,) * self.batched + tuple(self.shape)


def _strip(full, batched: bool) -> tuple[tuple[int, ...], bool]:
    """The tracked shape and batched flag of a shape op's result, given its shape
    as the model sees it: a batched source's result drops its leading 1 again."""
    full = tuple(int(d) for d in full)
    if batched and len(full) >= 2 and full[0] == 1:
        return full[1:], True
    return full, False


def _strip_batch(dims) -> tuple[tuple, tuple[int, ...]]:
    full = tuple(dims)
    rest = dims
    if len(dims) >= 2 and (isinstance(dims[0], str) or dims[0] in (None, 0, 1)):
        rest = dims[1:]
    shape = []
    for d in rest:
        if not isinstance(d, int) or d <= 0:
            raise UnsupportedModelError(f"input shape {full} has a non-concrete dimension {d!r}")
        shape.append(d)
    return full, tuple(shape)


def conv_to_matrix(weight, bias, in_shape, strides=(1, 1), pads=(0, 0, 0, 0), dilations=(1, 1)):
    """Unroll a 2-D convolution into a dense matrix over the flattened input.

    weight is (F, C, kh, kw); in_shape is (C, H, W); pads is
    (top, left, bottom, right). Returns (M, b, out_shape) with M of shape
    (F*oh*ow, C*H*W), acting on the row-major flattened tensor.
    """
    weight = np.asarray(weight, dtype=np.float64)
    F, C, kh, kw = weight.shape
    Ci, H, W = in_shape
    if Ci != C:
        raise UnsupportedModelError(f"conv weight expects {C} channels, input has {Ci}")
    sh, sw = strides
    pt, pl, pb, pr = pads
    dh, dw = dilations
    oh = (H + pt + pb - (dh * (kh - 1) + 1)) // sh + 1
    ow = (W + pl + pr - (dw * (kw - 1) + 1)) // sw + 1
    if oh <= 0 or ow <= 0:
        raise UnsupportedModelError(f"conv output is empty for input {in_shape}")
    M = np.zeros((F * oh * ow, C * H * W))
    b = np.zeros(F * oh * ow)
    if bias is not None:
        b = np.repeat(np.asarray(bias, dtype=np.float64), oh * ow)
    oy = np.arange(oh)
    ox = np.arange(ow)
    # every filter's and every channel's block offset, broadcast against one
    # tap's pixel pairs: one assignment per (ky, kx) fills all F * C blocks
    f_off = (np.arange(F) * (oh * ow))[:, None, None]
    c_off = (np.arange(C) * (H * W))[None, :, None]
    for ky in range(kh):
        iy = oy * sh - pt + ky * dh
        my = (iy >= 0) & (iy < H)
        if not my.any():
            continue
        for kx in range(kw):
            ix = ox * sw - pl + kx * dw
            mx = (ix >= 0) & (ix < W)
            if not mx.any():
                continue
            rows = (oy[my][:, None] * ow + ox[mx][None, :]).ravel()
            cols = (iy[my][:, None] * W + ix[mx][None, :]).ravel()
            M[f_off + rows, c_off + cols] = weight[:, :, ky, kx, None]
    return M, b, (F, oh, ow)


def _check_window(n: oc.NodeP, kernel, strides, pads, dilations):
    """A 2-D window: two positive sizes, strides and dilations, four nonnegative pads."""
    lengths = (len(kernel), len(strides), len(pads), len(dilations))
    if lengths != (2, 2, 4, 2) or min(*kernel, *strides, *dilations) < 1 or min(pads) < 0:
        raise UnsupportedModelError(
            f"{n.op_type} node {n.name!r}: bad window, kernel {kernel} strides {strides} "
            f"pads {pads} dilations {dilations}"
        )


def _pool_windows(in_shape, kernel, strides, pads):
    """Flat input index lists per pooled output position; padding is excluded.

    Short border windows are padded by repeating their first element, which
    leaves the max unchanged but aligns all windows to one length.
    """
    C, H, W = in_shape
    kh, kw = kernel
    sh, sw = strides
    pt, pl, pb, pr = pads
    oh = (H + pt + pb - kh) // sh + 1
    ow = (W + pl + pr - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise UnsupportedModelError(f"pool output is empty for input {in_shape}")
    windows = []
    for c in range(C):
        for y in range(oh):
            for x in range(ow):
                idx = []
                for ky in range(kh):
                    iy = y * sh - pt + ky
                    if not 0 <= iy < H:
                        continue
                    for kx in range(kw):
                        ix = x * sw - pl + kx
                        if 0 <= ix < W:
                            idx.append(c * H * W + iy * W + ix)
                if not idx:
                    raise UnsupportedModelError("pool window fully inside the padding")
                windows.append(idx)
    k_max = max(len(w) for w in windows)
    for w in windows:
        while len(w) < k_max:
            w.append(w[0])
    return np.asarray(windows, dtype=np.int64), (C, oh, ow)


def _axis(n: oc.NodeP, axis: int, rank: int) -> int:
    """axis as an index into rank dimensions; ONNX allows [-rank, rank - 1]."""
    if not -rank <= axis < rank:
        raise UnsupportedModelError(
            f"{n.op_type} node {n.name!r}: axis {axis} is outside [{-rank}, {rank - 1}]"
        )
    return axis % rank


def _selector(rows_idx, total, width):
    sel = np.zeros((len(rows_idx), width))
    sel[np.arange(len(rows_idx)), rows_idx] = 1.0
    return sel


def _emit_window_max(b: NetworkBuilder, src: _Val, windows: np.ndarray, out_shape) -> _Val:
    """Chain of pairwise max gadgets computing each window's maximum."""
    p, k = windows.shape
    w_in = src.size
    if k == 1:
        lid = b.add_linear(src.lid, _selector(windows[:, 0], p, w_in), np.zeros(p))
        return _Val(lid, tuple(out_shape), src.batched)
    recomb = np.hstack([np.eye(p), np.eye(p), -np.eye(p)])
    s0 = _selector(windows[:, 0], p, w_in)
    s1 = _selector(windows[:, 1], p, w_in)
    pre = b.add_linear(src.lid, np.vstack([s0 - s1, s1, -s1]), np.zeros(3 * p))
    r = b.add_relu(pre, 3 * p)
    m = b.add_linear(r, recomb, np.zeros(p))
    for t in range(2, k):
        st = _selector(windows[:, t], p, w_in)
        from_m = b.add_linear(m, np.vstack([np.eye(p), np.zeros((2 * p, p))]), np.zeros(3 * p))
        from_v = b.add_linear(src.lid, np.vstack([-st, st, -st]), np.zeros(3 * p))
        s = b.add_sum([from_m, from_v], 3 * p)
        r = b.add_relu(s, 3 * p)
        m = b.add_linear(r, recomb, np.zeros(p))
    return _Val(m, tuple(out_shape), src.batched)


class _Importer:
    """Lowers a decoded graph node by node.

    Initializers enter consts as read-only views of the model bytes, and the
    lowerings read them without copying (astype(..., copy=False)); the one
    copy of a weight is the one its Layer makes. A lowering that writes into
    a constant must copy it first.
    """

    def __init__(self, graph: oc.GraphP):
        self.g = graph
        self.b = NetworkBuilder()
        self.consts: dict[str, np.ndarray] = {}
        self.vals: dict[str, _Val] = {}
        self.notes: list[str] = []

    def const(self, name: str) -> np.ndarray:
        if name not in self.consts:
            raise UnsupportedModelError(f"tensor {name!r} must be a constant here")
        return self.consts[name]

    def val(self, name: str) -> _Val:
        if name in self.vals:
            return self.vals[name]
        raise UnsupportedModelError(f"tensor {name!r} is not defined before use")

    def is_const(self, name: str) -> bool:
        return name in self.consts

    def run(self) -> tuple[Network, ImportReport]:
        g = self.g
        for t in g.initializers:
            self.consts[t.name] = t.to_array()
        init_names = set(self.consts)
        real_inputs = [vi for vi in g.inputs if vi.name not in init_names]
        if len(real_inputs) != 1:
            raise UnsupportedModelError(
                f"expected exactly one graph input, found {[vi.name for vi in real_inputs]}"
            )
        if len(g.outputs) != 1:
            raise UnsupportedModelError(
                f"expected exactly one graph output, found {[vi.name for vi in g.outputs]}"
            )
        bad = [(n.name, n.op_type) for n in g.nodes if n.op_type not in SUPPORTED_OPS]
        if bad:
            listing = ", ".join(f"{nm or '<unnamed>'}:{op}" for nm, op in bad)
            raise UnsupportedModelError(f"unsupported operations: {listing}", nodes=bad)
        vi = real_inputs[0]
        full_shape, shape = _strip_batch(vi.dims)
        iid = self.b.add_input(int(np.prod(shape)))
        self.vals[vi.name] = _Val(iid, shape, len(shape) < len(full_shape))
        for node in g.nodes:
            self.lower(node)
        out_name = g.outputs[0].name
        if out_name not in self.vals:
            raise UnsupportedModelError(f"graph output {out_name!r} is constant or undefined")
        net = self.b.build(output_id=self.vals[out_name].lid)
        feeds = feeds_output(net)
        if len(feeds) < len(net.layers):
            self.notes.append(
                f"dropped {len(net.layers) - len(feeds)} layer(s) that cannot reach the graph output"
            )
            layers = [l for l in net.layers if l.id in feeds]
            net = Network(layers, [a for a in net.arcs if a[1] in feeds], net.input_id, net.output_id)
        for layer in net.layers:
            if layer.kind == KIND_LINEAR and not (
                np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()
            ):
                raise UnsupportedModelError(
                    f"linear layer {layer.id} has non-finite weight or bias entries"
                )
        report = ImportReport(
            input_shape=full_shape,
            present_ops=sorted({n.op_type for n in g.nodes}),
            unsupported_ops=[],
            notes=self.notes,
        )
        return net, report

    # --- op lowering -------------------------------------------------------

    def lower(self, n: oc.NodeP):
        handler = getattr(self, f"_op_{n.op_type.lower()}", None)
        if handler is None:
            raise UnsupportedModelError(f"node {n.name!r}: no handler for {n.op_type}")
        if len(n.inputs) < _MIN_INPUTS[n.op_type] or not n.outputs:
            raise UnsupportedModelError(
                f"{n.op_type} node {n.name!r}: needs {_MIN_INPUTS[n.op_type]} inputs and an "
                f"output, has {len(n.inputs)} and {len(n.outputs)}"
            )
        handler(n)

    def _op_constant(self, n: oc.NodeP):
        a = n.attributes
        if "value" in a and a["value"].t is not None:
            arr = a["value"].t.to_array()
        elif "value_float" in a:
            arr = np.asarray(a["value_float"].f, dtype=np.float64)
        elif "value_int" in a:
            arr = np.asarray(a["value_int"].i, dtype=np.int64)
        elif "value_floats" in a:
            arr = np.asarray(a["value_floats"].floats, dtype=np.float64)
        elif "value_ints" in a:
            arr = np.asarray(a["value_ints"].ints, dtype=np.int64)
        else:
            raise UnsupportedModelError(f"Constant node {n.name!r} has no supported payload")
        self.consts[n.outputs[0]] = arr

    def _op_identity(self, n: oc.NodeP):
        src = n.inputs[0]
        if self.is_const(src):
            self.consts[n.outputs[0]] = self.consts[src]
        else:
            self.vals[n.outputs[0]] = self.val(src)

    def _op_relu(self, n: oc.NodeP):
        v = self.val(n.inputs[0])
        rid = self.b.add_relu(v.lid, v.size)
        self.vals[n.outputs[0]] = _Val(rid, v.shape, v.batched)

    def _op_gemm(self, n: oc.NodeP):
        if self.is_const(n.inputs[0]) or not self.is_const(n.inputs[1]):
            raise UnsupportedModelError(
                f"Gemm node {n.name!r}: expected dynamic A and constant B"
            )
        if n.attr_i("transA", 0):
            raise UnsupportedModelError(f"Gemm node {n.name!r}: transA is not supported")
        v = self.val(n.inputs[0])
        B = self.const(n.inputs[1]).astype(np.float64, copy=False)
        alpha = n.attr_f("alpha", 1.0)
        beta = n.attr_f("beta", 1.0)
        W = B if n.attr_i("transB", 0) else B.T
        if alpha != 1.0:
            W = W * alpha
        if W.ndim != 2 or W.shape[1] != v.size:
            raise UnsupportedModelError(
                f"Gemm node {n.name!r}: weight of shape {B.shape} does not take a value of "
                f"width {v.size}"
            )
        bias = np.zeros(W.shape[0])
        if len(n.inputs) > 2 and n.inputs[2]:
            bias = self.const(n.inputs[2]).astype(np.float64, copy=False).ravel()
            if beta != 1.0:
                bias = bias * beta
            if bias.shape[0] != W.shape[0]:
                raise UnsupportedModelError(f"Gemm node {n.name!r}: bias width mismatch")
        lid = self.b.add_linear(v.lid, W, bias)
        self.vals[n.outputs[0]] = _Val(lid, (W.shape[0],), v.batched)

    def _op_matmul(self, n: oc.NodeP):
        a, bb = n.inputs[0], n.inputs[1]
        if not self.is_const(a) and self.is_const(bb):
            v, B = self.val(a), self.const(bb).astype(np.float64, copy=False)
            if B.ndim != 2 or B.shape[0] != v.size:
                raise UnsupportedModelError(f"MatMul node {n.name!r}: shape mismatch")
            lid = self.b.add_linear(v.lid, B.T, np.zeros(B.shape[1]))
            self.vals[n.outputs[0]] = _Val(lid, (B.shape[1],), v.batched)
        elif self.is_const(a) and not self.is_const(bb):
            A, v = self.const(a).astype(np.float64, copy=False), self.val(bb)
            if A.ndim != 2 or A.shape[1] != v.size:
                raise UnsupportedModelError(f"MatMul node {n.name!r}: shape mismatch")
            lid = self.b.add_linear(v.lid, A, np.zeros(A.shape[0]))
            self.vals[n.outputs[0]] = _Val(lid, (A.shape[0],), v.batched)
        else:
            raise UnsupportedModelError(
                f"MatMul node {n.name!r}: needs one dynamic and one constant operand"
            )

    def _op_conv(self, n: oc.NodeP):
        v = self.val(n.inputs[0])
        W = self.const(n.inputs[1]).astype(np.float64, copy=False)
        bias = None
        if len(n.inputs) > 2 and n.inputs[2]:
            bias = self.const(n.inputs[2]).astype(np.float64, copy=False)
        if n.attr_i("group", 1) != 1:
            raise UnsupportedModelError(f"Conv node {n.name!r}: grouped convolution not supported")
        ap = n.attributes.get("auto_pad")
        if ap is not None and ap.s not in (b"", b"NOTSET"):
            raise UnsupportedModelError(f"Conv node {n.name!r}: auto_pad is not supported")
        if W.ndim != 4 or len(v.shape) != 3:
            raise UnsupportedModelError(
                f"Conv node {n.name!r}: only 2-D convolution over (C,H,W) is supported"
            )
        kh, kw = W.shape[2], W.shape[3]
        strides = n.attr_ints("strides", [1, 1])
        pads = n.attr_ints("pads", [0, 0, 0, 0])
        dil = n.attr_ints("dilations", [1, 1])
        ks = n.attr_ints("kernel_shape", [kh, kw])
        if tuple(ks) != (kh, kw):
            raise UnsupportedModelError(f"Conv node {n.name!r}: kernel_shape disagrees with weight")
        _check_window(n, ks, strides, pads, dil)
        M, b, out_shape = conv_to_matrix(W, bias, v.shape, strides, pads, dil)
        M.flags.writeable = False  # frozen, the layer keeps this matrix instead of a copy
        lid = self.b.add_linear(v.lid, M, b)
        self.vals[n.outputs[0]] = _Val(lid, out_shape, v.batched)

    def _op_batchnormalization(self, n: oc.NodeP):
        v = self.val(n.inputs[0])
        scale, beta, mean, var = (
            self.const(n.inputs[i]).astype(np.float64, copy=False) for i in range(1, 5)
        )
        eps = n.attr_f("epsilon", 1e-5)
        C = v.shape[0]
        if scale.shape != (C,):
            raise UnsupportedModelError(f"BatchNormalization node {n.name!r}: channel mismatch")
        per = int(np.prod(v.shape[1:])) if len(v.shape) > 1 else 1
        s = scale / np.sqrt(var + eps)
        diag = np.repeat(s, per)
        bias = np.repeat(beta - mean * s, per)
        lid = self.b.add_linear(v.lid, np.diag(diag), bias)
        self.vals[n.outputs[0]] = _Val(lid, v.shape, v.batched)

    def _add_sub(self, n: oc.NodeP, sign: float):
        a, bb = n.inputs[0], n.inputs[1]
        out = n.outputs[0]
        if self.is_const(a) and self.is_const(bb):
            self.consts[out] = self.consts[a] + sign * self.consts[bb]
            return
        if not self.is_const(a) and not self.is_const(bb):
            va, vb = self.val(a), self.val(bb)
            if va.shape != vb.shape:
                raise UnsupportedModelError(
                    f"node {n.name!r}: elementwise operands have shapes "
                    f"{va.shape} and {vb.shape}; broadcasting dynamic values is not supported"
                )
            rhs = vb.lid
            if sign < 0:
                rhs = self.b.add_linear(vb.lid, -np.eye(vb.size), np.zeros(vb.size))
            sid = self.b.add_sum([va.lid, rhs], va.size)
            self.vals[out] = _Val(sid, va.shape, va.batched)
            return
        if self.is_const(a):
            v = self.val(bb)
            c = np.broadcast_to(self.consts[a].astype(np.float64, copy=False), v.shape).ravel()
            lid = self.b.add_linear(v.lid, sign * np.eye(v.size), c)
        else:
            v = self.val(a)
            c = sign * np.broadcast_to(self.consts[bb].astype(np.float64, copy=False), v.shape).ravel()
            lid = self.b.add_linear(v.lid, np.eye(v.size), c)
        self.vals[out] = _Val(lid, v.shape, v.batched)

    def _op_add(self, n: oc.NodeP):
        self._add_sub(n, 1.0)

    def _op_sub(self, n: oc.NodeP):
        self._add_sub(n, -1.0)

    def _op_concat(self, n: oc.NodeP):
        parts = []
        for name in n.inputs:
            if self.is_const(name):
                parts.append(("c", self.consts[name].astype(np.float64, copy=False)))
            else:
                parts.append(("v", self.val(name)))
        shapes = [p.full if tag == "v" else p.shape for tag, p in parts]
        rank = len(shapes[0])
        axis = _axis(n, n.attr_i("axis"), rank)
        out_shape = list(shapes[0])
        out_shape[axis] = sum(s[axis] for s in shapes)
        for s in shapes:
            if len(s) != rank or any(s[i] != out_shape[i] for i in range(rank) if i != axis):
                raise UnsupportedModelError(f"Concat node {n.name!r}: incompatible shapes {shapes}")
        src_id = np.concatenate(
            [np.full(s, k, dtype=np.int64) for k, s in enumerate(shapes)], axis=axis
        ).ravel()
        src_pos = np.concatenate(
            [np.arange(int(np.prod(s)), dtype=np.int64).reshape(s) for s in shapes], axis=axis
        ).ravel()
        total = src_id.shape[0]
        const_bias = np.zeros(total)
        dyn = []
        for k, (tag, p) in enumerate(parts):
            rows = np.nonzero(src_id == k)[0]
            if tag == "c":
                const_bias[rows] = p.ravel()[src_pos[rows]]
            else:
                dyn.append((p, rows))
        if not dyn:
            self.consts[n.outputs[0]] = np.concatenate([p for _, p in parts], axis=axis)
            return
        sel_ids = []
        for j, (p, rows) in enumerate(dyn):
            E = np.zeros((total, p.size))
            E[rows, src_pos[rows]] = 1.0
            # constant slices ride on the first selector's bias
            bias = const_bias if j == 0 else np.zeros(total)
            sel_ids.append(self.b.add_linear(p.lid, E, bias))
        out_id = sel_ids[0] if len(sel_ids) == 1 else self.b.add_sum(sel_ids, total)
        self.vals[n.outputs[0]] = _Val(out_id, *_strip(out_shape, any(p.batched for p, _ in dyn)))

    def _reshape_like(self, n: oc.NodeP, new_shape, batched: bool = False):
        src = n.inputs[0]
        if self.is_const(src):
            self.consts[n.outputs[0]] = self.consts[src].reshape(new_shape)
            return
        v = self.val(src)
        if int(np.prod(new_shape)) != v.size:
            raise UnsupportedModelError(
                f"node {n.name!r}: reshape to {tuple(new_shape)} changes element count"
            )
        self.vals[n.outputs[0]] = _Val(v.lid, tuple(int(d) for d in new_shape), batched)

    @staticmethod
    def _resolve_shape(target, src_shape):
        size = int(np.prod(src_shape))
        shp = [src_shape[i] if d == 0 and i < len(src_shape) else d for i, d in enumerate(target)]
        if shp.count(-1) > 1:
            return None
        if -1 in shp:
            known = int(np.prod([d for d in shp if d != -1]))
            if known == 0 or size % known:
                return None
            shp = [size // known if d == -1 else d for d in shp]
        return shp if int(np.prod(shp)) == size else None

    def _op_reshape(self, n: oc.NodeP):
        target = [int(x) for x in self.const(n.inputs[1]).ravel()]
        src_shape = (
            self.consts[n.inputs[0]].shape
            if self.is_const(n.inputs[0])
            else self.val(n.inputs[0]).shape
        )
        # tracked shapes have their batch dim stripped, but the model's shape
        # constant still speaks batched; try that reading first, then the
        # batchless one (0 copies a source dim, -1 is inferred)
        batched = self._resolve_shape(target, (1,) + tuple(src_shape))
        if batched is not None and len(batched) > 1 and batched[0] == 1:
            self._reshape_like(n, batched[1:], batched=True)
            return
        plain = self._resolve_shape(target, tuple(src_shape))
        if plain is None:
            raise UnsupportedModelError(
                f"Reshape node {n.name!r}: cannot apply shape {target} to {tuple(src_shape)}"
            )
        self._reshape_like(n, plain)

    def _op_flatten(self, n: oc.NodeP):
        src = n.inputs[0]
        if self.is_const(src):
            self._reshape_like(n, [self.consts[src].size])
            return
        v = self.val(src)
        full, axis = v.full, n.attr_i("axis", 1)
        if not -len(full) <= axis <= len(full):
            raise UnsupportedModelError(
                f"Flatten node {n.name!r}: axis {axis} is outside [{-len(full)}, {len(full)}]"
            )
        lead = int(np.prod(full[:axis]))
        self._reshape_like(n, *_strip((lead, v.size // lead), True))

    def _full_shape(self, name: str) -> tuple[tuple[int, ...], bool]:
        """A tensor's shape as the model sees it, and whether its value is batched."""
        if self.is_const(name):
            return self.consts[name].shape, False
        v = self.val(name)
        return v.full, v.batched

    def _op_squeeze(self, n: oc.NodeP):
        src_shape, batched = self._full_shape(n.inputs[0])
        axes = None
        if len(n.inputs) > 1 and n.inputs[1]:
            axes = [int(a) for a in self.const(n.inputs[1]).ravel()]
        elif "axes" in n.attributes:
            axes = n.attr_ints("axes")
        if axes is None:
            shp = [d for d in src_shape if d != 1]
        else:
            drop = {_axis(n, a, len(src_shape)) for a in axes}
            if any(src_shape[a] != 1 for a in drop):
                raise UnsupportedModelError(
                    f"Squeeze node {n.name!r}: axes {axes} of shape {tuple(src_shape)} "
                    "are not all of size 1"
                )
            shp = [d for i, d in enumerate(src_shape) if i not in drop]
        self._reshape_like(n, *_strip(shp or [1], batched))

    def _op_unsqueeze(self, n: oc.NodeP):
        src_shape, batched = self._full_shape(n.inputs[0])
        if len(n.inputs) > 1 and n.inputs[1]:
            axes = [int(a) for a in self.const(n.inputs[1]).ravel()]
        else:
            axes = n.attr_ints("axes")
        out_rank = len(src_shape) + len(axes)
        axes = sorted(_axis(n, a, out_rank) for a in axes)
        shp = list(src_shape)
        for a in axes:
            shp.insert(a, 1)
        self._reshape_like(n, *_strip(shp, batched))

    def _op_split(self, n: oc.NodeP):
        v = self.val(n.inputs[0])
        full = v.full
        rank = len(full)
        axis = _axis(n, n.attr_i("axis", 0), rank)
        if len(n.inputs) > 1 and n.inputs[1]:
            sizes = [int(x) for x in self.const(n.inputs[1]).ravel()]
        elif "split" in n.attributes:
            sizes = n.attr_ints("split")
        else:
            k = len(n.outputs)
            if full[axis] % k:
                raise UnsupportedModelError(f"Split node {n.name!r}: uneven default split")
            sizes = [full[axis] // k] * k
        if sum(sizes) != full[axis]:
            raise UnsupportedModelError(f"Split node {n.name!r}: split sizes do not cover the axis")
        if "split gadget (experimental)" not in self.notes:
            self.notes.append("split gadget (experimental)")
        pos = np.arange(v.size, dtype=np.int64).reshape(full)
        start = 0
        for out_name, sz in zip(n.outputs, sizes):
            sl = [slice(None)] * rank
            sl[axis] = slice(start, start + sz)
            take = pos[tuple(sl)].ravel()
            E = np.zeros((take.size, v.size))
            E[np.arange(take.size), take] = 1.0
            lid = self.b.add_linear(v.lid, E, np.zeros(take.size))
            out_shape = list(full)
            out_shape[axis] = sz
            self.vals[out_name] = _Val(lid, *_strip(out_shape, v.batched))
            start += sz

    def _op_maxpool(self, n: oc.NodeP):
        v = self.val(n.inputs[0])
        if len(v.shape) != 3:
            raise UnsupportedModelError(
                f"MaxPool node {n.name!r}: only 2-D pooling over (C,H,W) is supported"
            )
        if len(n.outputs) > 1:
            raise UnsupportedModelError(f"MaxPool node {n.name!r}: indices output not supported")
        kernel = n.attr_ints("kernel_shape")
        strides = n.attr_ints("strides", [1, 1])
        pads = n.attr_ints("pads", [0, 0, 0, 0])
        if n.attr_i("ceil_mode", 0):
            raise UnsupportedModelError(f"MaxPool node {n.name!r}: ceil_mode not supported")
        if any(d != 1 for d in n.attr_ints("dilations", [1, 1])):
            raise UnsupportedModelError(f"MaxPool node {n.name!r}: dilations not supported")
        _check_window(n, kernel, strides, pads, [1, 1])
        ap = n.attributes.get("auto_pad")
        if ap is not None and ap.s not in (b"", b"NOTSET"):
            raise UnsupportedModelError(f"MaxPool node {n.name!r}: auto_pad not supported")
        windows, out_shape = _pool_windows(v.shape, kernel, strides, pads)
        self.vals[n.outputs[0]] = _emit_window_max(self.b, v, windows, out_shape)


def import_onnx(data: bytes) -> tuple[Network, ImportReport]:
    """Decode and lower a model; raises UnsupportedModelError naming offenders."""
    model = oc.decode_model(data)
    return _Importer(model.graph).run()


# ---------------------------------------------------------------------------
# independent reference evaluation of the decoded node list


def reference_forward(graph: oc.GraphP, x: np.ndarray) -> np.ndarray:
    """Evaluate the original ops directly with numpy; oracle for the importer.

    x is given flat; it is reshaped to the declared input shape (batch dim
    restored if declared). Returns the flattened graph output. Implementations
    here are naive on purpose and share nothing with the lowering path.
    """
    env: dict[str, np.ndarray] = {t.name: t.to_array() for t in graph.initializers}
    inp = [vi for vi in graph.inputs if vi.name not in env][0]
    dims = [1 if isinstance(d, str) or d in (None, 0) else int(d) for d in inp.dims]
    env[inp.name] = np.asarray(x, dtype=np.float64).reshape(dims)
    for n in graph.nodes:
        _ref_op(n, env)
    return env[graph.outputs[0].name].ravel()


def _ref_op(n: oc.NodeP, env: dict):
    op = n.op_type
    A = env.get(n.inputs[0]) if n.inputs else None
    if op == "Constant":
        a = n.attributes
        if "value" in a and a["value"].t is not None:
            env[n.outputs[0]] = a["value"].t.to_array()
        elif "value_float" in a:
            env[n.outputs[0]] = np.asarray(a["value_float"].f)
        elif "value_int" in a:
            env[n.outputs[0]] = np.asarray(a["value_int"].i)
        elif "value_floats" in a:
            env[n.outputs[0]] = np.asarray(a["value_floats"].floats)
        else:
            env[n.outputs[0]] = np.asarray(a["value_ints"].ints)
    elif op == "Identity":
        env[n.outputs[0]] = A
    elif op == "Relu":
        env[n.outputs[0]] = np.maximum(A, 0.0)
    elif op == "Gemm":
        B, C = env[n.inputs[1]], env[n.inputs[2]] if len(n.inputs) > 2 and n.inputs[2] else 0.0
        a2 = A.reshape(1, -1) if A.ndim == 1 else A
        if n.attr_i("transA", 0):
            a2 = a2.T
        b2 = B.T if n.attr_i("transB", 0) else B
        env[n.outputs[0]] = n.attr_f("alpha", 1.0) * (a2 @ b2) + n.attr_f("beta", 1.0) * C
    elif op == "MatMul":
        env[n.outputs[0]] = A @ env[n.inputs[1]]
    elif op == "Add":
        env[n.outputs[0]] = A + env[n.inputs[1]]
    elif op == "Sub":
        env[n.outputs[0]] = A - env[n.inputs[1]]
    elif op == "Concat":
        env[n.outputs[0]] = np.concatenate([env[i] for i in n.inputs], axis=n.attr_i("axis"))
    elif op == "Reshape":
        target = [int(v) for v in env[n.inputs[1]].ravel()]
        shp = [A.shape[i] if d == 0 else d for i, d in enumerate(target)]
        env[n.outputs[0]] = A.reshape(shp)
    elif op == "Flatten":
        ax = n.attr_i("axis", 1)
        lead = int(np.prod(A.shape[:ax])) if ax else 1
        env[n.outputs[0]] = A.reshape(lead, -1)
    elif op == "Squeeze":
        if len(n.inputs) > 1 and n.inputs[1]:
            axes = tuple(int(a) for a in env[n.inputs[1]].ravel())
        elif "axes" in n.attributes:
            axes = tuple(n.attr_ints("axes"))
        else:
            axes = tuple(i for i, d in enumerate(A.shape) if d == 1)
        env[n.outputs[0]] = np.squeeze(A, axis=axes)
    elif op == "Unsqueeze":
        if len(n.inputs) > 1 and n.inputs[1]:
            axes = [int(a) for a in env[n.inputs[1]].ravel()]
        else:
            axes = n.attr_ints("axes")
        out = A
        for a in sorted(a % (A.ndim + len(axes)) for a in axes):
            out = np.expand_dims(out, a)
        env[n.outputs[0]] = out
    elif op == "Split":
        rank = A.ndim
        axis = n.attr_i("axis", 0) % rank
        if len(n.inputs) > 1 and n.inputs[1]:
            sizes = [int(v) for v in env[n.inputs[1]].ravel()]
        elif "split" in n.attributes:
            sizes = n.attr_ints("split")
        else:
            sizes = [A.shape[axis] // len(n.outputs)] * len(n.outputs)
        start = 0
        for out_name, sz in zip(n.outputs, sizes):
            sl = [slice(None)] * rank
            sl[axis] = slice(start, start + sz)
            env[out_name] = A[tuple(sl)]
            start += sz
    elif op == "BatchNormalization":
        scale, beta, mean, var = (env[n.inputs[i]] for i in range(1, 5))
        eps = n.attr_f("epsilon", 1e-5)
        shp = [1] * A.ndim
        ch_axis = 1 if A.ndim > 1 else 0
        shp[ch_axis] = -1
        s = (scale / np.sqrt(var + eps)).reshape(shp)
        env[n.outputs[0]] = A * s + (beta - mean * scale / np.sqrt(var + eps)).reshape(shp)
    elif op == "Conv":
        env[n.outputs[0]] = _ref_conv(n, A, env)
    elif op == "MaxPool":
        env[n.outputs[0]] = _ref_maxpool(n, A)
    else:
        raise UnsupportedModelError(f"reference evaluator: unsupported op {op}")


def _ref_conv(n: oc.NodeP, A: np.ndarray, env: dict) -> np.ndarray:
    W = env[n.inputs[1]]
    bias = env[n.inputs[2]] if len(n.inputs) > 2 and n.inputs[2] else np.zeros(W.shape[0])
    x = A[0] if A.ndim == 4 else A
    F, C, kh, kw = W.shape
    sh, sw = n.attr_ints("strides", [1, 1])
    pt, pl, pb, pr = n.attr_ints("pads", [0, 0, 0, 0])
    dh, dw = n.attr_ints("dilations", [1, 1])
    _, H, Wd = x.shape
    oh = (H + pt + pb - (dh * (kh - 1) + 1)) // sh + 1
    ow = (Wd + pl + pr - (dw * (kw - 1) + 1)) // sw + 1
    out = np.zeros((F, oh, ow))
    for f in range(F):
        for y in range(oh):
            for xo in range(ow):
                acc = bias[f]
                for c in range(C):
                    for ky in range(kh):
                        iy = y * sh - pt + ky * dh
                        if not 0 <= iy < H:
                            continue
                        for kx in range(kw):
                            ix = xo * sw - pl + kx * dw
                            if 0 <= ix < Wd:
                                acc += W[f, c, ky, kx] * x[c, iy, ix]
                out[f, y, xo] = acc
    return out[None] if A.ndim == 4 else out


def _ref_maxpool(n: oc.NodeP, A: np.ndarray) -> np.ndarray:
    x = A[0] if A.ndim == 4 else A
    kh, kw = n.attr_ints("kernel_shape")
    sh, sw = n.attr_ints("strides", [1, 1])
    pt, pl, pb, pr = n.attr_ints("pads", [0, 0, 0, 0])
    C, H, W = x.shape
    oh = (H + pt + pb - kh) // sh + 1
    ow = (W + pl + pr - kw) // sw + 1
    out = np.full((C, oh, ow), -np.inf)
    for c in range(C):
        for y in range(oh):
            for xo in range(ow):
                for ky in range(kh):
                    iy = y * sh - pt + ky
                    if not 0 <= iy < H:
                        continue
                    for kx in range(kw):
                        ix = xo * sw - pl + kx
                        if 0 <= ix < W:
                            out[c, y, xo] = max(out[c, y, xo], x[c, iy, ix])
    return out[None] if A.ndim == 4 else out


# ---------------------------------------------------------------------------
# export


def export_onnx(net: Network, graph_name: str = "redkit") -> bytes:
    """Serialize a sequential network as Gemm/Relu nodes with float64 tensors.

    Double precision keeps the round trip exact: merged layers can carry
    weights large enough that a float32 narrowing already costs more than
    1e-6 on the outputs. Layer names follow red_linear_{i} / red_relu_{i};
    the graph has one input ("input", shape [1, width]) and one output
    ("output").
    """
    seq = as_sequential(net)
    g = oc.GraphP(name=graph_name)
    g.inputs.append(oc.ValueInfoP("input", oc.DT_DOUBLE, [1, seq.input.width]))
    out_width = seq.linears[-1].width if not seq.ends_with_relu else seq.relus[-1].width
    g.outputs.append(oc.ValueInfoP("output", oc.DT_DOUBLE, [1, out_width]))
    cur = "input"
    n_lin = len(seq.linears)
    for i, lin in enumerate(seq.linears):
        w64 = np.ascontiguousarray(lin.weight, dtype=np.float64)
        b64 = np.ascontiguousarray(lin.bias, dtype=np.float64)
        wname, bname = f"red_linear_{i}_weight", f"red_linear_{i}_bias"
        g.initializers.append(
            oc.TensorP(name=wname, dims=list(w64.shape), data_type=oc.DT_DOUBLE, raw_data=w64.tobytes())
        )
        g.initializers.append(
            oc.TensorP(name=bname, dims=list(b64.shape), data_type=oc.DT_DOUBLE, raw_data=b64.tobytes())
        )
        is_last = i == n_lin - 1 and not seq.ends_with_relu
        lin_out = "output" if is_last else f"red_linear_{i}_out"
        node = oc.NodeP(op_type="Gemm", name=f"red_linear_{i}", inputs=[cur, wname, bname], outputs=[lin_out])
        node.attributes["alpha"] = oc.AttrP("alpha", oc.AT_FLOAT, f=1.0)
        node.attributes["beta"] = oc.AttrP("beta", oc.AT_FLOAT, f=1.0)
        node.attributes["transB"] = oc.AttrP("transB", oc.AT_INT, i=1)
        g.nodes.append(node)
        cur = lin_out
        if i < len(seq.relus):
            is_last_relu = seq.ends_with_relu and i == len(seq.relus) - 1
            relu_out = "output" if is_last_relu else f"red_relu_{i}_out"
            g.nodes.append(
                oc.NodeP(op_type="Relu", name=f"red_relu_{i}", inputs=[cur], outputs=[relu_out])
            )
            cur = relu_out
    model = oc.ModelP(
        ir_version=8,
        producer_name="redkit",
        producer_version="0.1.0",
        opset_imports=[("", 13)],
        graph=g,
    )
    return oc.encode_model(model)

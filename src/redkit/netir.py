"""Graph IR for ReLU networks.

Layers are immutable values; a Network is a DAG over them with ordered arcs.
Transformations elsewhere in the package never mutate a Network, they build a
new one (usually through NetworkBuilder).

A sequential network also has a flat form, Chain: the (W, b) pairs of its
linear layers with a ReLU after each hidden one. Bounds, the verifier and the
reducer work on chains; Chain.to_network is the one way back to a Network.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, StructuralError

KIND_INPUT = "input"
KIND_LINEAR = "linear"
KIND_RELU = "relu"
KIND_SUM = "sum"

_KINDS = (KIND_INPUT, KIND_LINEAR, KIND_RELU, KIND_SUM)


def freeze_array(a, dtype=np.float64) -> np.ndarray:
    """A C-contiguous read-only array of dtype.

    An input that already is one and owns its data (it is not a view of
    another buffer) is returned as it is, so layers can share frozen arrays;
    anything else, writeable arrays included, is copied.
    """
    if (
        type(a) is np.ndarray
        and a.dtype == dtype
        and a.flags.c_contiguous
        and not a.flags.writeable
        and a.flags.owndata
    ):
        return a
    arr = np.array(a, dtype=dtype, order="C", copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Layer:
    """One node of the graph.

    kind is one of input/linear/relu/sum; only linear layers carry a weight
    matrix (width x in_width) and a bias vector (width).
    """

    id: int
    kind: str
    width: int
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractError(f"unknown layer kind {self.kind!r}")
        if self.width <= 0:
            raise ContractError(f"layer {self.id}: width must be positive, got {self.width}")
        if self.kind == KIND_LINEAR:
            if self.weight is None or self.bias is None:
                raise ContractError(f"linear layer {self.id} needs weight and bias")
            object.__setattr__(self, "weight", freeze_array(self.weight))
            object.__setattr__(self, "bias", freeze_array(self.bias))
            if self.weight.ndim != 2 or self.bias.ndim != 1:
                raise ContractError(f"linear layer {self.id}: weight must be 2-D, bias 1-D")
            if self.weight.shape[0] != self.width or self.bias.shape[0] != self.width:
                raise ContractError(
                    f"linear layer {self.id}: width {self.width} does not match "
                    f"weight {self.weight.shape} / bias {self.bias.shape}"
                )
        elif self.weight is not None or self.bias is not None:
            raise ContractError(f"{self.kind} layer {self.id} must not carry parameters")

    @property
    def in_width(self) -> int:
        if self.kind != KIND_LINEAR:
            raise ContractError("in_width is only defined for linear layers")
        return self.weight.shape[1]


class Network:
    """Immutable DAG of layers with ordered arcs.

    Predecessor order is the arc insertion order; Sum layers rely on it for a
    fixed (hence reproducible) accumulation order.
    """

    def __init__(self, layers, arcs, input_id: int, output_id: int):
        layers = tuple(layers)
        ids = [l.id for l in layers]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ContractError(f"duplicate layer ids {dupes}")
        self.layers = layers
        self.by_id = {l.id: l for l in layers}
        self.arcs = tuple((int(a), int(b)) for a, b in arcs)
        preds: dict[int, list[int]] = {l.id: [] for l in layers}
        succs: dict[int, list[int]] = {l.id: [] for l in layers}
        for src, dst in self.arcs:
            if src not in self.by_id or dst not in self.by_id:
                raise ContractError(f"arc ({src}, {dst}) references a missing layer")
            preds[dst].append(src)
            succs[src].append(dst)
        self.preds = {k: tuple(v) for k, v in preds.items()}
        self.succs = {k: tuple(v) for k, v in succs.items()}
        if input_id not in self.by_id or output_id not in self.by_id:
            raise ContractError("input_id/output_id must name existing layers")
        self.input_id = int(input_id)
        self.output_id = int(output_id)

    @property
    def input_layer(self) -> Layer:
        return self.by_id[self.input_id]

    @property
    def output_layer(self) -> Layer:
        return self.by_id[self.output_id]

    def relu_layers(self) -> list[Layer]:
        return [l for l in self.layers if l.kind == KIND_RELU]

    def __repr__(self):
        kinds = {}
        for l in self.layers:
            kinds[l.kind] = kinds.get(l.kind, 0) + 1
        return f"Network({len(self.layers)} layers: {kinds}, {len(self.arcs)} arcs)"


class NetworkBuilder:
    """Incremental construction helper; every add_* returns the new layer id."""

    def __init__(self, first_id: int = 0):
        self._layers: list[Layer] = []
        self._arcs: list[tuple[int, int]] = []
        self._next = first_id
        self._input_id: int | None = None

    def _fresh(self) -> int:
        i = self._next
        self._next += 1
        return i

    def add_input(self, width: int) -> int:
        i = self._fresh()
        self._layers.append(Layer(i, KIND_INPUT, width))
        if self._input_id is None:
            self._input_id = i
        return i

    def add_linear(self, pred: int, weight, bias) -> int:
        i = self._fresh()
        w = np.asarray(weight, dtype=np.float64)
        self._layers.append(Layer(i, KIND_LINEAR, w.shape[0], w, bias))
        self._arcs.append((pred, i))
        return i

    def add_relu(self, pred: int, width: int) -> int:
        i = self._fresh()
        self._layers.append(Layer(i, KIND_RELU, width))
        self._arcs.append((pred, i))
        return i

    def add_sum(self, preds, width: int) -> int:
        i = self._fresh()
        self._layers.append(Layer(i, KIND_SUM, width))
        for p in preds:
            self._arcs.append((p, i))
        return i

    def build(self, output_id: int | None = None) -> Network:
        if self._input_id is None:
            raise ContractError("network has no input layer")
        if output_id is None:
            have_succ = {a for a, _ in self._arcs}
            sinks = [l.id for l in self._layers if l.id not in have_succ]
            if len(sinks) != 1:
                raise ContractError(f"output layer ambiguous, sinks = {sinks}")
            output_id = sinks[0]
        return Network(self._layers, self._arcs, self._input_id, output_id)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str):
        self.violations.append(msg)

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(self.violations)


def validate(net: Network) -> ValidationReport:
    """Check every structural rule; collects all violations instead of raising."""
    rep = ValidationReport()
    for l in net.layers:
        p = net.preds[l.id]
        if l.kind == KIND_INPUT:
            if l.id != net.input_id:
                rep.add(f"layer {l.id}: extra input layer (input is {net.input_id})")
            if p:
                rep.add(f"layer {l.id}: input layer has predecessors {list(p)}")
        elif l.kind in (KIND_LINEAR, KIND_RELU):
            if len(p) != 1:
                rep.add(f"layer {l.id} ({l.kind}): needs exactly one predecessor, has {len(p)}")
            elif l.kind == KIND_LINEAR:
                if net.by_id[p[0]].width != l.in_width:
                    rep.add(
                        f"layer {l.id} (linear): weight expects input width "
                        f"{l.in_width}, predecessor {p[0]} has width {net.by_id[p[0]].width}"
                    )
            elif net.by_id[p[0]].width != l.width:
                rep.add(
                    f"layer {l.id} (relu): width {l.width} differs from "
                    f"predecessor {p[0]} width {net.by_id[p[0]].width}"
                )
        elif l.kind == KIND_SUM:
            if len(p) < 1:
                rep.add(f"layer {l.id} (sum): has no predecessors")
            for q in p:
                if net.by_id[q].width != l.width:
                    rep.add(
                        f"layer {l.id} (sum): width {l.width} differs from "
                        f"predecessor {q} width {net.by_id[q].width}"
                    )
        if l.kind == KIND_LINEAR:
            if not (np.all(np.isfinite(l.weight)) and np.all(np.isfinite(l.bias))):
                rep.add(f"layer {l.id} (linear): non-finite parameter entries")
    if net.by_id[net.input_id].kind != KIND_INPUT:
        rep.add(f"designated input layer {net.input_id} has kind {net.by_id[net.input_id].kind}")
    if net.succs[net.output_id]:
        rep.add(
            f"output layer {net.output_id} has successors {list(net.succs[net.output_id])}; "
            "output must be a sink"
        )
    try:
        order = topo_order(net)
    except StructuralError as e:
        rep.add(str(e))
        return rep
    reach_fwd = reaches_from_input(net, order)
    reach_bwd = feeds_output(net)
    for l in net.layers:
        if l.id not in reach_fwd:
            rep.add(f"layer {l.id}: unreachable from input")
        elif l.id not in reach_bwd:
            rep.add(f"layer {l.id}: cannot reach output")
    return rep


def topo_order(net: Network) -> list[int]:
    """Deterministic topological order (ties broken by ascending layer id)."""
    indeg = {l.id: len(net.preds[l.id]) for l in net.layers}
    ready = [i for i, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for s in net.succs[i]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) != len(net.layers):
        left = {i for i, d in indeg.items() if d > 0}
        arc = next((a, b) for a, b in net.arcs if a in left and b in left)
        raise StructuralError(f"cycle detected: arc {arc[0]} -> {arc[1]} is on a cycle")
    return order


def reaches_from_input(net: Network, order: list[int] | None = None) -> set[int]:
    """Ids of the layers with a path from the input layer, the input included."""
    reach = {net.input_id}
    for i in order if order is not None else topo_order(net):
        if i in reach:
            reach.update(net.succs[i])
    return reach


def feeds_output(net: Network) -> set[int]:
    """Ids of the layers with a path to the output layer, the output included."""
    feeds = {net.output_id}
    for i in reversed(topo_order(net)):
        if i in feeds:
            feeds.update(net.preds[i])
    return feeds


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the network on a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ContractError(f"forward expects a 1-D input, got shape {x.shape}")
    return forward_batch(net, x[None, :])[0]


def forward_batch(net: Network, xs) -> np.ndarray:
    """Evaluate on a batch (rows are samples). Pure: equal inputs, identical bits."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ContractError(f"forward_batch expects a 2-D batch, got shape {xs.shape}")
    if xs.shape[1] != net.input_layer.width:
        raise ContractError(
            f"input width mismatch: network expects {net.input_layer.width}, got {xs.shape[1]}"
        )
    values: dict[int, np.ndarray] = {}
    for i in topo_order(net):
        layer = net.by_id[i]
        if layer.kind == KIND_INPUT:
            values[i] = xs
        elif layer.kind == KIND_LINEAR:
            values[i] = values[net.preds[i][0]] @ layer.weight.T + layer.bias
        elif layer.kind == KIND_RELU:
            values[i] = np.maximum(values[net.preds[i][0]], 0.0)
        else:
            acc = values[net.preds[i][0]].copy()
            for q in net.preds[i][1:]:
                acc += values[q]
            values[i] = acc
    return values[net.output_id]


@dataclass(frozen=True)
class SequentialView:
    """Flattened chain form: input, then linears[0], relus[0], linears[1], ...

    relus has either the same length as linears (trailing ReLU) or one less
    (the usual affine-ended network).
    """

    input: Layer
    linears: tuple[Layer, ...]
    relus: tuple[Layer, ...]

    @property
    def ends_with_relu(self) -> bool:
        return len(self.relus) == len(self.linears)


@dataclass(frozen=True)
class Chain:
    """A sequential network as the (W, b) pairs of its linear layers.

    A ReLU follows each of the first n_relu layers (the hidden layers, or
    every layer when the network ends in a ReLU). A chain read from a network
    holds the network's own read-only arrays, so building one copies nothing.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    n_relu: int

    @classmethod
    def of(cls, net: Network) -> Chain:
        return cls.of_view(as_sequential(net))

    @classmethod
    def of_view(cls, seq: SequentialView) -> Chain:
        return cls(tuple((l.weight, l.bias) for l in seq.linears), len(seq.relus))

    @property
    def input_width(self) -> int:
        return self.layers[0][0].shape[1]

    def affine_ended(self) -> Chain:
        """This chain, with an identity readout appended when it ends in a ReLU."""
        if self.n_relu < len(self.layers):
            return self
        width = self.layers[-1][0].shape[0]
        return Chain(self.layers + ((np.eye(width), np.zeros(width)),), self.n_relu)

    def check_box(self, box):
        if box.dim != self.input_width:
            raise ContractError(
                f"box dimension {box.dim} does not match input width {self.input_width}"
            )

    def to_network(self) -> Network:
        """Input -> Linear -> ReLU -> ... with a ReLU after each of the first n_relu layers."""
        b = NetworkBuilder()
        cur = b.add_input(self.input_width)
        for k, (W, bias) in enumerate(self.layers):
            cur = b.add_linear(cur, W, bias)
            if k < self.n_relu:
                cur = b.add_relu(cur, W.shape[0])
        return b.build()


def as_sequential(net: Network) -> SequentialView:
    """View a chain-shaped network as alternating Linear/ReLU; raise otherwise."""
    order = topo_order(net)
    if order[0] != net.input_id:
        raise StructuralError("first layer in topological order is not the input")
    linears: list[Layer] = []
    relus: list[Layer] = []
    prev = net.input_id
    for i in order[1:]:
        layer = net.by_id[i]
        if net.preds[i] != (prev,):
            raise StructuralError(
                f"layer {i} does not chain onto layer {prev}; network is not sequential"
            )
        if len(net.succs[prev]) != 1:
            raise StructuralError(f"layer {prev} fans out; network is not sequential")
        if layer.kind == KIND_LINEAR:
            if len(linears) != len(relus):
                raise StructuralError(f"layer {i}: consecutive linear layers")
            linears.append(layer)
        elif layer.kind == KIND_RELU:
            if len(linears) != len(relus) + 1:
                raise StructuralError(f"layer {i}: relu not preceded by a linear layer")
            relus.append(layer)
        else:
            raise StructuralError(f"layer {i}: kind {layer.kind} not allowed in a sequential net")
        prev = i
    if not linears:
        raise StructuralError("sequential network needs at least one linear layer")
    return SequentialView(net.input_layer, tuple(linears), tuple(relus))


def from_sequential(weights_biases, input_width: int) -> Network:
    """Build Input -> Linear -> ReLU -> ... -> Linear from a list of (W, b)."""
    if len(weights_biases) == 0:
        raise ContractError("need at least one linear layer")
    layers = tuple(
        (np.asarray(w, dtype=np.float64), np.asarray(bias, dtype=np.float64))
        for w, bias in weights_biases
    )
    if layers[0][0].ndim != 2 or layers[0][0].shape[1] != input_width:
        raise ContractError(
            f"first weight has shape {layers[0][0].shape}, input width is {input_width}"
        )
    for k, (w, bias) in enumerate(layers):
        if not (np.isfinite(w).all() and np.isfinite(bias).all()):
            raise ContractError(f"linear layer {k} has non-finite weight or bias entries")
    return Chain(layers, len(layers) - 1).to_network()

"""redkit: make ReLU networks smaller on a region, then verify them faster.

Given a network and an input box, neurons whose pre-activation sign is fixed
over the box behave linearly, so they can be deleted or folded into their
neighbors without changing any output on that box. The package bundles the
graph IR, bound propagation, the reduction itself, a graph-to-chain
simplifier, ONNX and property I/O, and a small verifier to measure the
effect end to end.
"""

from .bounds import (
    BoundsTable,
    Box,
    compute_bounds,
    interval_forward,
)
from .equivalence import EquivReport, grid_equivalence, sample_equivalence
from .errors import (
    ContractError,
    GenerationError,
    InternalInvariantError,
    ParseError,
    RedkitError,
    StructuralError,
    UnsupportedModelError,
)
from .generator import generate_network, load_sidecar, save_model
from .netir import (
    Chain,
    Layer,
    Network,
    NetworkBuilder,
    as_sequential,
    forward,
    forward_batch,
    from_sequential,
    topo_order,
    validate,
)
from .onnx_bridge import (
    ImportReport,
    conv_to_matrix,
    export_onnx,
    import_onnx,
    reference_forward,
)
from .reducer import (
    LayerPartition,
    ReductionReport,
    classify,
    reduce_layer,
    reduce_network,
)
from .simplifier import SimplifyStats, simplify
from .specio import (
    PropertySpec,
    emit_vnnlib,
    epsilon_ball,
    load_center,
    load_vnnlib,
    parse_vnnlib,
    robustness_spec,
    save_vnnlib,
)
from .verify import (
    LeafBatch,
    Verdict,
    bab_verify,
    find_grid_counterexample,
    root_leaf,
    split_leaf,
    verify_incomplete,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsTable",
    "Box",
    "Chain",
    "ContractError",
    "EquivReport",
    "GenerationError",
    "ImportReport",
    "InternalInvariantError",
    "Layer",
    "LayerPartition",
    "LeafBatch",
    "Network",
    "NetworkBuilder",
    "ParseError",
    "PropertySpec",
    "RedkitError",
    "ReductionReport",
    "SimplifyStats",
    "StructuralError",
    "UnsupportedModelError",
    "Verdict",
    "as_sequential",
    "bab_verify",
    "classify",
    "compute_bounds",
    "conv_to_matrix",
    "emit_vnnlib",
    "epsilon_ball",
    "export_onnx",
    "find_grid_counterexample",
    "forward",
    "forward_batch",
    "from_sequential",
    "generate_network",
    "grid_equivalence",
    "import_onnx",
    "interval_forward",
    "load_center",
    "load_sidecar",
    "load_vnnlib",
    "parse_vnnlib",
    "reduce_layer",
    "reduce_network",
    "reference_forward",
    "robustness_spec",
    "root_leaf",
    "sample_equivalence",
    "save_model",
    "save_vnnlib",
    "simplify",
    "split_leaf",
    "topo_order",
    "validate",
    "verify_incomplete",
    "__version__",
]

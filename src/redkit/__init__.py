"""redkit: make ReLU networks smaller on a region, then verify them faster.

Given a network and an input box, neurons whose pre-activation sign is fixed
over the box behave linearly, so they can be deleted or folded into their
neighbors without changing any output on that box. The package bundles the
graph IR, bound propagation, the reduction itself, a graph-to-chain
simplifier, ONNX and property I/O, and a small verifier to measure the
effect end to end.
"""

from .bounds import (
    ALPHA_RULES,
    BoundsTable,
    Box,
    Chain,
    compute_bounds,
    crown_backward,
    interval_forward,
    margin_lower_bound,
    margin_lower_bounds,
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
    lower_maxpool,
    reference_forward,
)
from .reducer import (
    LayerPartition,
    ReductionPlan,
    ReductionReport,
    classify,
    collapse_adjacent_linear,
    reduce_layer,
    reduce_network,
)
from .simplifier import (
    SimplifyStats,
    find_blocks,
    initialization,
    last_block,
    linear_layer_construction,
    linearize,
    normalize_block,
    simplify,
)
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
    Leaf,
    Verdict,
    bab_verify,
    bench_pair,
    find_grid_counterexample,
    root_leaf,
    split_leaf,
    verify_incomplete,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_RULES",
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
    "Leaf",
    "Network",
    "NetworkBuilder",
    "ParseError",
    "PropertySpec",
    "RedkitError",
    "ReductionPlan",
    "ReductionReport",
    "SimplifyStats",
    "StructuralError",
    "UnsupportedModelError",
    "Verdict",
    "as_sequential",
    "bab_verify",
    "bench_pair",
    "classify",
    "collapse_adjacent_linear",
    "compute_bounds",
    "conv_to_matrix",
    "crown_backward",
    "emit_vnnlib",
    "epsilon_ball",
    "export_onnx",
    "find_blocks",
    "find_grid_counterexample",
    "forward",
    "forward_batch",
    "from_sequential",
    "generate_network",
    "grid_equivalence",
    "import_onnx",
    "initialization",
    "interval_forward",
    "last_block",
    "linear_layer_construction",
    "linearize",
    "load_center",
    "load_sidecar",
    "load_vnnlib",
    "lower_maxpool",
    "margin_lower_bound",
    "margin_lower_bounds",
    "normalize_block",
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

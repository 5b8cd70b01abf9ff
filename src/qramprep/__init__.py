"""Classical simulation and verification of QRAM-backed amplitude encoding.

Pipeline: load a complex matrix, aggregate its squared moduli into a weight
tree, precompute the splitting angles and leaf phases (or signs), pack them
into fixed-point memory cells, then run the magnitude-then-phase preparation
procedure on an exact sparse statevector and verify the result against an
independent oracle, the precision budget, and closed-form resource counts.
"""
from . import errors
from .angles import (
    ComplexAngleTree,
    build_angle_structures,
    build_angle_tree,
    build_phase_layer,
    build_sign_layer,
    splitting_angle,
)
from .fixedpoint import (
    FixedAngle,
    FixedPhase,
    decode_magnitude_angle,
    decode_phase,
    encode_magnitude_angle,
    encode_phase,
    phase_distance,
)
from .matrix import (
    ComplexMatrix,
    flat_index,
    frobenius_norm,
    load_matrix,
    random_matrix,
    squared_moduli,
    unflat_index,
)
from .memory import (
    MemoryImage,
    QueryLedger,
    build_memory_image,
    layout_complex,
    layout_real_signed,
    query,
)
from .simulator import (
    BranchState,
    circular_shift,
    controlled_z_sign,
    dump_state,
    init_state,
    marker_check,
    phase_cascade,
    prepare_complex,
    prepare_real,
    ry_cascade,
    ry_cascade_by_gates,
)
from .verify import (
    ErrorBudget,
    ResourceReport,
    error_bound,
    oracle_state,
    precision_sweep,
    resource_report,
    run_preparation,
    state_error,
    sweep_csv,
)
from .weight_tree import WeightTree, build_weight_tree, level_position, sibling_weights

__version__ = "0.1.0"

__all__ = [
    "BranchState",
    "ComplexAngleTree",
    "ComplexMatrix",
    "ErrorBudget",
    "FixedAngle",
    "FixedPhase",
    "MemoryImage",
    "QueryLedger",
    "ResourceReport",
    "WeightTree",
    "build_angle_structures",
    "build_angle_tree",
    "build_memory_image",
    "build_phase_layer",
    "build_sign_layer",
    "build_weight_tree",
    "circular_shift",
    "controlled_z_sign",
    "decode_magnitude_angle",
    "decode_phase",
    "dump_state",
    "encode_magnitude_angle",
    "encode_phase",
    "error_bound",
    "errors",
    "flat_index",
    "frobenius_norm",
    "init_state",
    "layout_complex",
    "layout_real_signed",
    "level_position",
    "load_matrix",
    "marker_check",
    "oracle_state",
    "phase_cascade",
    "phase_distance",
    "precision_sweep",
    "prepare_complex",
    "prepare_real",
    "query",
    "random_matrix",
    "resource_report",
    "run_preparation",
    "ry_cascade",
    "ry_cascade_by_gates",
    "sibling_weights",
    "splitting_angle",
    "squared_moduli",
    "state_error",
    "sweep_csv",
    "unflat_index",
]

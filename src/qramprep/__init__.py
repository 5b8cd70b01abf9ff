"""Classical simulation and verification of QRAM-backed amplitude encoding.

Pipeline: load a complex matrix, aggregate its squared moduli into a weight
tree, precompute the splitting angles and leaf phases (0 or pi for real data),
pack them into fixed-point memory cells, then run the magnitude-then-phase
preparation procedure on an exact sparse statevector and verify the result
against an independent oracle, the precision budget, and closed-form resource
counts.

The package namespace holds that pipeline; the step functions are imported
from their own modules (``qramprep.angles``, ``qramprep.simulator``, ...).
"""
from . import errors
from .angles import ComplexAngleTree, build_angle_structures
from .matrix import ComplexMatrix, load_matrix, random_matrix
from .memory import MemoryImage, QueryLedger, build_memory_image
from .simulator import BranchState, dump_state, prepare_complex, prepare_real
from .verify import (
    ResourceReport,
    error_bound,
    oracle_state,
    precision_sweep,
    resource_report,
    run_preparation,
    state_error,
    sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BranchState",
    "ComplexAngleTree",
    "ComplexMatrix",
    "MemoryImage",
    "QueryLedger",
    "ResourceReport",
    "build_angle_structures",
    "build_memory_image",
    "dump_state",
    "error_bound",
    "errors",
    "load_matrix",
    "oracle_state",
    "precision_sweep",
    "prepare_complex",
    "prepare_real",
    "random_matrix",
    "resource_report",
    "run_preparation",
    "state_error",
    "sweep_csv",
]

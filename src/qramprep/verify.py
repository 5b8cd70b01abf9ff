"""Oracle state construction, error measurement, and resource accounting.

The oracle is the directly normalized entry vector a_z / ||A||_F, computed
with compensated summation and no simulation machinery, so simulator output
can be checked against an independent path. Quantized runs are judged
against the precision budget

    error <= k * delta_theta / 2 + delta_phi = (k + pi) * 2**(-t)

where delta_theta = 2**(1-t) and delta_phi = pi * 2**(-t) are the worst-case
grid roundings (cascades are exact unitaries here, so both cascade error
terms are zero). Acceptance checks allow a slack factor of 4 on this budget.
That check cannot see a cascade that is slightly wrong. The quantized
oracle can: it is the state the image's decoded cells define, built level by
level from the cells alone, and a fixed run must match it to round-off.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .angles import build_angle_structures
from .errors import (
    DirtyStateError,
    InvalidAmplitudeError,
    LengthMismatchError,
    NotPowerOfTwoError,
    PrecisionOutOfRangeError,
    WrongModeError,
    is_cell_count,
    is_int,
    number_array,
)
from .fixedpoint import MAX_PRECISION, check_precision, magnitude_grid, phase_grid
from .matrix import ComplexMatrix, scaled_entries
from .memory import MemoryImage, QueryLedger, build_memory_image, cell_width, layout_image
from .simulator import BranchState, prepare_complex, prepare_real

SIM_MODES = ("fixed", "ideal")
ERROR_SLACK = 4.0


def oracle_state(m: ComplexMatrix) -> np.ndarray:
    """Normalized target amplitudes a_z / ||A||_F, length K, unit l2 norm.

    Entries and norm are both taken scaled by the same power of two, which
    changes no quotient, so the oracle exists even where ||A||_F overflows.
    """
    ent, _ = scaled_entries(m)
    return ent / math.sqrt(math.fsum((ent.real ** 2 + ent.imag ** 2).tolist()))


def level_amplitudes(half: np.ndarray, phases: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the node amplitudes of tree levels h = 1..k, then the leaf vector.

    From K half-angles in cell order (entry 0 unused) and K leaf phases: node
    (h, p) gets the product of cos (left turn) or sin (right turn) of the
    half-angles along its root path, and leaf z then e^{i phi_z}. Both must
    be 1-d arrays of one length K = 2**k >= 2, checked before the first level
    is yielded: numpy would otherwise broadcast one phase onto every leaf.
    """
    if np.ndim(half) != 1 or not is_cell_count(np.size(half)):
        raise NotPowerOfTwoError(
            f"half-angles must be K = 2**k >= 2 values, got shape {np.shape(half)}"
        )
    if np.shape(phases) != np.shape(half):
        raise LengthMismatchError(f"{np.size(half)} half-angles, phases shape {np.shape(phases)}")
    cos, sin = np.cos(half), np.sin(half)
    amp = np.ones(1)
    while amp.size < half.size:
        n = amp.size  # cells n..2n-1 split the n nodes of this level
        amp = np.stack((amp * cos[n:2 * n], amp * sin[n:2 * n]), axis=1).reshape(-1)
        yield amp
    del cos, sin  # the leaf step, the peak, needs neither
    yield amp * np.exp(1j * phases)


def quantized_oracle(img: MemoryImage) -> np.ndarray:
    """Address amplitudes a fixed run from ``img`` must produce, length K.

    The leaves of the image's angle fields decoded on the magnitude grid and
    phase fields on the phase grid (a one-bit field holds phi / pi).
    """
    angle, aux = img.field_arrays
    for amp in level_amplitudes(0.5 * magnitude_grid(img.t) * angle,
                                phase_grid(img.aux_width) * aux):
        pass
    return amp


def address_amplitudes(state: BranchState) -> np.ndarray:
    """Address-register amplitude vector; requires clean work and v = 1."""
    if not state.work_clean():
        raise DirtyStateError("work registers are not zero")
    if not state.marker_set():
        raise DirtyStateError("marker qubit is not set on every branch")
    vec = np.zeros(1 << state.k, dtype=np.complex128)
    vec[state.addr] = state.amp
    return vec


def state_error(prepared: BranchState, oracle: np.ndarray) -> float:
    """l2 distance between the prepared address amplitudes and the oracle.

    No global phase is factored out: the procedure applies each leaf phase
    absolutely, so the prepared state must match the oracle outright.
    """
    return _vector_error(address_amplitudes(prepared), oracle)


def _vector_error(vec: np.ndarray, oracle) -> float:
    """l2 distance between an address amplitude vector and the oracle."""
    return float(np.linalg.norm(vec - _oracle_vector(oracle, vec.size)))


def _oracle_vector(oracle, size: int) -> np.ndarray:
    """``oracle`` as ``size`` finite complex128 numbers; a complex128 vector is used as is."""
    arr = number_array(oracle, np.complex128, InvalidAmplitudeError, "oracle entries")
    if arr.ndim != 1 or arr.size != size:
        raise LengthMismatchError(f"state has {size} cells, oracle shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidAmplitudeError("oracle entries must be finite numbers")
    return arr


def error_bound(k: int, t: int) -> float:
    """Worst-case quantization error (k + pi) * 2**(-t) for exact cascades."""
    if not is_int(k) or k < 1:
        raise NotPowerOfTwoError(f"k must be a positive integer, got {k!r}")
    # a numpy k would make the bound a numpy float, written into sweep CSVs by its repr
    return (int(k) + math.pi) * 2.0 ** -check_precision(t)


@dataclass(frozen=True)
class ResourceReport:
    """Closed-form register, memory, and query accounting for one run shape.

    ``qpu_qubits`` is k + 2t + 1 in complex mode (address, two t-bit work
    registers, marker) and k + t + 2 in real_signed mode (the phase register
    is one bit, phi in {0, pi}; the magnitude loop alone would need k + t + 1).
    """

    mode: str
    K: int
    k: int
    t: int
    qpu_qubits: int
    cell_width_bits: int
    memory_bits: int
    query_count: int
    routing_time: int
    preprocessing_ops: int


def resource_report(K: int, t: int, mode: str = "complex") -> ResourceReport:
    """Resource counts for preparing K = 2**k amplitudes at precision t."""
    if not is_int(K) or not is_cell_count(K):
        raise NotPowerOfTwoError(f"K must be a power of two >= 2, got {K!r}")
    K, t = int(K), check_precision(t)  # numpy ints in the fields would not serialize to JSON
    k = K.bit_length() - 1
    cell = cell_width(t, mode)  # refuses an unknown mode
    queries = 2 * k + 2
    return ResourceReport(
        mode=mode,
        K=K,
        k=k,
        t=t,
        qpu_qubits=k + cell + 1,  # address, both work registers, marker
        cell_width_bits=cell,
        memory_bits=cell * K,
        query_count=queries,
        routing_time=queries * k,
        preprocessing_ops=2 * K - 1,
    )


def _prepare(
    img: MemoryImage, on_iteration=None, access_log: bool = True
) -> tuple[BranchState, QueryLedger]:
    """Run the preparation procedure that matches the image's mode."""
    prepare = prepare_complex if img.mode == "complex" else prepare_real
    return prepare(img, on_iteration=on_iteration, access_log=access_log)


def run_preparation(
    m: ComplexMatrix,
    t: int,
    mode: str = "complex",
    sim: str = "fixed",
    on_iteration=None,
) -> tuple[BranchState, QueryLedger, MemoryImage]:
    """Preprocess a matrix and run the full procedure in one call; return the image it ran.

    A fixed run reads the t-bit image. An ideal run checks ``t`` and reads the
    t = 62 image instead, whose angles and phases are float64 values to
    within 2**-60: its error is round-off, not quantization.
    """
    if sim not in SIM_MODES:
        raise WrongModeError(f"sim must be one of {SIM_MODES}, got {sim!r}")
    t = check_precision(t)
    # the run reads only the image: the angle structure is freed before it
    img = build_memory_image(m, MAX_PRECISION if sim == "ideal" else t, mode)[0]
    state, ledger = _prepare(img, on_iteration)
    return state, ledger, img


@dataclass(frozen=True)
class SweepRow:
    t: int
    measured_error: float
    bound: float


def precision_sweep(
    m: ComplexMatrix, t_values, mode: str = "complex"
) -> list[SweepRow]:
    """Quantized-run error against the budget for each precision, sorted by t.

    The angle structure is built once; only the layout and the run repeat per t.
    A row reads only the state, so each run counts its queries and keeps no
    address log.
    """
    if not isinstance(t_values, Iterable):
        raise PrecisionOutOfRangeError(f"t_values must be iterable, got {t_values!r}")
    t_values = sorted(set(map(check_precision, t_values)))
    oracle = oracle_state(m)
    gamma = build_angle_structures(m, mode)
    rows = []
    for t in t_values:
        # keep neither the state nor the query ledger alive into the next run
        error = state_error(_prepare(layout_image(gamma, t), access_log=False)[0], oracle)
        rows.append(SweepRow(t=t, measured_error=error, bound=error_bound(m.depth, t)))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    """CSV text for a sweep: header plus one full-precision row per t."""
    lines = ["t,measured_error,bound"]
    lines.extend(f"{r.t},{r.measured_error!r},{r.bound!r}" for r in rows)
    return "\n".join(lines) + "\n"

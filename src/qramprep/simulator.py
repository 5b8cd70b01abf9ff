"""Exact sparse statevector simulation of the two-step preparation procedure.

A branch is one basis state of four registers,

    [ w_angle : t bits | w_aux : t or 1 bits | v : 1 bit | a : k bits ]

stored structure-of-arrays: ``BranchState`` keeps one array per register, the
index registers ``addr`` and ``v`` as intp and the work registers ``w_angle``
and ``w_aux`` as uint64, and an amplitude array ``amp``, entry i of each
describing branch i. Every register is at most 62 bits wide (a state refuses
wider k, t and aux_width), so no packed label is ever formed while simulating.
The magnitude loop's rotations are real, so ``amp`` is float64 from
``init_state`` through the k iterations, with no complex casts or zero
imaginary parts to carry; the phase cascade makes it complex128. A state
loaded from labels holds complex128 amplitudes.
The state stays sparse: after every uncompute the work registers are zero on all
branches and at most 2**k branches remain, whatever t is. A dense vector over
k + 2t + 1 qubits would be hopeless for t = 32; the branch arrays are exact
and cheap.

Every operation is a whole-array pass. A query gathers the addressed cell
fields and XORs them into the work registers; the y-rotation cascade rotates
every (v=0, v=1) branch pair at once; the circular shift is bit arithmetic on
the address and marker; the phase cascade is one elementwise pass that
multiplies the marked amplitudes by their leaf phases. So a step costs a
fixed few numpy calls, a few hundred ns each, plus its per-branch work, and
the fixed part dominates while a state holds few branches. The four steps
stay separate functions called through this module's globals: the acceptance
suite and the benchmark's tracer name them, so a fused kernel would be a
second path.

Before every rotation of the loop no branch has v = 1, so the rotation builds
no pairing: each branch is the v = 0 half of its own pair. It writes the two
halves of branch i to 2i and 2i + 1 of one output, and the shift maps (a, v)
to 2a | v, so the branches stay sorted by address from the first step to the
last, and every query gathers the cell arrays in order. Only a state holding
both v = 0 and v = 1 branches (the bit-by-bit reference cascade) is sorted to
find its pairs.

The procedure is one loop for both modes: k iterations of query -> y-rotation
cascade -> uncompute query -> circular shift, threading a single marker bit
through the address register, then one final query pair around the phase
cascade. The phase register is t bits wide in complex mode and one bit in
real_signed mode, where every leaf phase is 0 or pi: real data is the
one-bit phase case, not a separate path. Total queries: 2k + 2. No branch is
dropped for being small; only amplitudes that a rotation makes exactly zero
are left out.

Every angle and phase comes from the image's cells; nothing here reads an
angle structure. An ideal run (``verify.run_preparation(..., sim="ideal")``)
is this same loop on the matrix's t = 62 image, whose quantization budget
(k + pi) * 2**-62 lies below float64 round-off.

Cascades are applied as the composed single-qubit unitary per branch pair,
which is mathematically identical to the bit-by-bit product of controlled
rotations (the rotations commute and their angles sum to the decoded register
value); :func:`ry_cascade_by_gates` keeps the bit-by-bit form as a reference
for equivalence tests.

``state.branches`` presents the arrays as a read-only mapping from the packed
label (address in the low bits, a_{k-1} most significant inside its field) to
the amplitude, built on first use. The constructor, ``dataclasses.replace(state,
branches=...)`` and ``state.branches = ...`` all load the arrays from a
mapping's labels in one place, once the widths are set. A load refuses a value
that is not a mapping, a label that is not an int of k + 1 + aux_width + t bits
and an amplitude that is not a finite number.

State dump wire format: {"branches": [{"address": a, "amp": [re, im], "v":
bit}], "k": k}, rows sorted by address, a real amplitude written as [re, 0.0];
dumping demands clean work registers.
"""
from __future__ import annotations

import cmath
import gc
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DirtyStateError,
    DirtyWorkRegistersError,
    IndexOutOfRangeError,
    InvalidAmplitudeError,
    WidthMismatchError,
    WrongModeError,
    is_int,
    is_number,
)
from .fixedpoint import check_precision, magnitude_grid, phase_grid
from .memory import MemoryImage, QueryLedger, _frozen, cell_width, checked_width, query
from .weight_tree import WeightTree

# the index registers are intp, so a gather by address needs no cast copy
_DTYPES = {"addr": np.intp, "v": np.intp, "w_angle": np.uint64, "w_aux": np.uint64}


class _BranchView(Mapping):
    """``state.branches``: packed label -> amplitude over the state's arrays.

    ``len`` reads the array length. Reading a label builds the label dict
    once per state.
    """

    __slots__ = ("_state",)

    def __init__(self, state: "BranchState"):
        self._state = state

    def __len__(self) -> int:
        return self._state.amp.size

    def __getitem__(self, label):
        return self._state._label_dict()[label]

    def __iter__(self):
        return iter(self._state._label_dict())

    def __repr__(self) -> str:
        return repr(self._state._label_dict())


class _Branches:
    """Descriptor behind the ``branches`` field: a view on read, the state's one loader on write."""

    def __get__(self, state, owner=None):
        if state is None:
            raise AttributeError("branches")  # no default for the dataclass field
        return _BranchView(state)

    def __set__(self, state, branches) -> None:
        if not isinstance(branches, Mapping):
            raise WidthMismatchError(f"branches must be a mapping, got {type(branches).__name__}")
        state._load_labels(dict(branches))


@dataclass(init=False)
class BranchState:
    """Sparse register state: one entry per branch in each register array.

    ``amp`` is float64 through the magnitude loop and complex128 from the
    phase cascade on, and in a state loaded from labels; ``branches`` maps
    each label to a Python complex either way.
    """

    branches: Mapping[int, complex] = _Branches()
    t: int
    aux_width: int
    k: int

    def __init__(self, branches, t: int, aux_width: int, k: int):
        self.k = checked_width(k, "address width k")
        self.t = check_precision(t)
        self.aux_width = checked_width(aux_width, "aux_width")
        self.branches = branches

    def _load_labels(self, branches: dict) -> None:
        """Load the arrays from a label -> amplitude dict, each pair checked first.

        A refused dict leaves the state as it was.
        """
        width = self.angle_shift + self.t
        for label, amp in branches.items():
            if type(label) is not int or not 0 <= label < 1 << width:
                raise WidthMismatchError(f"label {label!r} is not an int in [0, 2**{width})")
            if not _finite_number(amp):
                raise InvalidAmplitudeError(
                    f"amplitude of label {label} is not a finite number: {amp!r}"
                )
        self._labels = branches
        labels = np.array(list(branches), dtype=object)  # Python ints of any width
        fields = {
            "addr": labels & self.addr_mask,
            "v": (labels >> self.k) & 1,
            "w_angle": labels >> self.angle_shift,
            "w_aux": (labels >> self.aux_shift) & ((1 << self.aux_width) - 1),
        }
        for name, field in fields.items():
            setattr(self, name, _frozen(field.astype(_DTYPES[name])))
        self.amp = _frozen(
            np.fromiter(branches.values(), dtype=np.complex128, count=len(branches))
        )

    def _label_dict(self) -> dict[int, complex]:
        if self._labels is None:
            labels = (
                (self.w_angle.astype(object) << self.angle_shift)
                | (self.w_aux.astype(object) << self.aux_shift)
                | (self.v.astype(object) << self.k)
                | self.addr.astype(object)
            )
            amps = self.amp.astype(np.complex128, copy=False).tolist()
            self._labels = dict(zip(labels.tolist(), amps))
        return self._labels

    def _evolve(self, **arrays: np.ndarray) -> "BranchState":
        """A state of the same widths with the named register or ``amp`` arrays replaced."""
        fields = {**self.__dict__, **arrays, "_labels": None}
        for array in arrays.values():
            array.setflags(False)  # read-only, as _frozen makes it, without the call
        out = object.__new__(BranchState)
        out.__dict__ = fields
        return out

    @property
    def addr_mask(self) -> int:
        return (1 << self.k) - 1

    @property
    def aux_shift(self) -> int:
        return self.k + 1

    @property
    def angle_shift(self) -> int:
        return self.k + 1 + self.aux_width

    def work_clean(self) -> bool:
        return not (np.count_nonzero(self.w_angle) or np.count_nonzero(self.w_aux))

    def marker_set(self) -> bool:
        """True iff v = 1 on every branch, as after the magnitude loop."""
        return bool((self.v == 1).all())

    def norm(self) -> float:
        # numpy's pairwise sum: its error, ~1e-15 at K = 2**22, is far below
        # the 1e-12 a norm check allows, and it builds no list of K floats
        amp = self.amp
        return math.sqrt(float((amp.real * amp.real + amp.imag * amp.imag).sum()))


def _finite_number(amp) -> bool:
    if not is_number(amp):
        return False
    try:
        return cmath.isfinite(amp)
    except (TypeError, ValueError, OverflowError):  # e.g. an int past float range
        return False


def init_state(k: int, t: int, mode: str = "complex") -> BranchState:
    """Single branch, all work registers zero, address 0...01, amplitude 1."""
    t = check_precision(t)
    state = object.__new__(BranchState)
    state.t, state.aux_width = t, cell_width(t, mode) - t
    state.k = checked_width(k, "address width k")
    zero = np.zeros(1, np.uint64)
    return state._evolve(addr=np.ones(1, np.intp), v=np.zeros(1, np.intp), w_angle=zero,
                         w_aux=zero, amp=np.ones(1))


def _half_angle_cos_sin(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # exact at full and zero splits so zero-weight branches never materialize:
    # cos(0) = 1, sin(0) = 0 and sin(pi/2) = 1 already are, cos(pi/2) is not
    half = 0.5 * theta
    cos = np.cos(half)
    cos[theta == math.pi] = 0.0
    return cos, np.sin(half, out=half)


def _rotate_pairs(state: BranchState, theta: np.ndarray) -> BranchState:
    """Rotate the marker of every branch pair by ``theta`` (one angle per branch).

    A pair is the v = 0 and v = 1 branch with equal address and work
    registers; a branch without a partner pairs with amplitude 0. When no
    branch has v = 1, as before every rotation of the preparation loop, each
    branch is the v = 0 half of its own pair and nothing is paired: its halves
    are cos * a and sin * a. Otherwise a sort on (address, w_angle, w_aux)
    finds the pairs. The two halves of pair i land at 2i + v of one
    interleaved output in the amplitudes' dtype, so a state sorted by address
    stays sorted and real amplitudes stay real. Exactly zero results are
    dropped.
    """
    amp = state.amp
    if np.count_nonzero(state.v):
        _, rep, group = np.unique(
            np.stack((state.addr.astype(np.uint64), state.w_angle, state.w_aux), axis=1),
            axis=0, return_index=True, return_inverse=True,
        )
        pair = np.zeros((rep.size, 2), dtype=amp.dtype)
        pair[group.reshape(-1), state.v] = amp  # numpy 2.0.0 gives a 2-d inverse
        theta, amp, a1 = theta[rep], pair[:, 0], pair[:, 1]
    else:
        # a1 = 0: its terms only set the signs of zero parts, as the full 2x2
        # product does. That matters for complex amplitudes alone, since a
        # real zero is dropped
        rep, a1 = None, (0.0 if amp.dtype.kind == "c" else None)
    c, s = _half_angle_cos_sin(theta)
    rotated = np.empty((amp.size, 2), dtype=amp.dtype)
    n0, n1 = rotated[:, 0], rotated[:, 1]
    np.multiply(c, amp, out=n0)
    np.multiply(s, amp, out=n1)
    if a1 is not None:
        n0 -= s * a1
        n1 += c * a1
    rotated = rotated.reshape(-1)
    # nonzero of the bool mask is ~2x faster than of the floats, and drops the same zeros
    keep = (rotated != 0.0).nonzero()[0]
    src = keep >> 1 if rep is None else rep[keep >> 1]
    return state._evolve(
        addr=state.addr[src],
        v=keep & 1,
        w_angle=state.w_angle[src],
        w_aux=state.w_aux[src],
        amp=rotated[keep],
    )


def ry_cascade(state: BranchState) -> BranchState:
    """Rotate the marker qubit of every branch by the angle in its w_angle register."""
    return _rotate_pairs(state, state.w_angle * magnitude_grid(state.t))


def ry_cascade_by_gates(state: BranchState) -> BranchState:
    """Reference cascade: one controlled y-rotation by 2**(j+2-t) per register bit j."""
    current = state
    for j in range(state.t):
        control = (current.w_angle >> j) & 1
        current = _rotate_pairs(current, control * magnitude_grid(state.t - j))
    return current


_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def phase_cascade(state: BranchState) -> BranchState:
    """Multiply every marked branch (v = 1) by e^{i phi}, phi from its w_aux register.

    The register holds phi / (2*pi) in ``aux_width`` bits: t bits in complex
    mode, one bit (phi in {0, pi}) in real_signed mode. One elementwise pass:
    a phase on the quarter-turn grid is an exact unit (so pi is an exact sign
    flip), and only the marked branches off the grid cost a cosine and a sine.
    Real amplitudes, as the magnitude loop leaves them, come out complex. When
    every branch is marked, as in the preparation loop, the products are the
    result; otherwise the unmarked amplitudes are copied back over theirs.
    """
    width = state.aux_width
    # phi is a whole number of quarter turns iff 2**width divides 4 * bits;
    # 4 * bits fits uint64 for width <= 62
    quarters = state.w_aux << 2
    off_grid = quarters & ((1 << width) - 1)
    unmarked = None
    if np.count_nonzero(state.v) < state.v.size:
        unmarked = (state.v == 0).nonzero()[0]
        off_grid[unmarked] = 0  # an unmarked branch costs no cosine
    off = off_grid.nonzero()[0]
    del off_grid  # 8 B/branch freed before the 16 B units: the step peaks at ~56 B/branch
    quarters >>= width
    phi = state.w_aux[off] * phase_grid(width)
    units = _QUARTER_TURNS.take(quarters & 3)  # take casts a uint64 index ~2x faster than []
    units.real[off] = np.cos(phi)
    units.imag[off] = np.sin(phi)
    np.multiply(state.amp, units, out=units)
    if unmarked is not None:
        units[unmarked] = state.amp[unmarked]
    return state._evolve(amp=units)


def circular_shift(state: BranchState) -> BranchState:
    """Left circular shift on (v, a_{k-1}, ..., a_0): v enters as the new a_0."""
    if not state.work_clean():
        raise DirtyWorkRegistersError(
            "shift with nonzero work registers: uncompute did not run or failed"
        )
    word = (state.addr << 1) | state.v  # (v, a) rotated left: bit k is the new v
    return state._evolve(addr=word & ((1 << state.k) - 1), v=word >> state.k)


def _prepare(
    img: MemoryImage,
    mode: str,
    on_iteration: Callable[[int, BranchState], None] | None,
    access_log: bool,
) -> tuple[BranchState, QueryLedger]:
    if img.mode != mode:
        raise WrongModeError(f"need a {mode} image, got {img.mode}")
    state = init_state(img.k, img.t, mode)
    ledger = QueryLedger(img.k, reached=[] if access_log else None)
    for h in range(1, img.k + 1):
        state = query(img, state, ledger)
        state = ry_cascade(state)
        state = query(img, state, ledger)
        state = circular_shift(state)
        if on_iteration is not None:
            on_iteration(h, state)
    state = query(img, state, ledger)
    state = phase_cascade(state)
    state = query(img, state, ledger)
    return state, ledger


def prepare_complex(
    img: MemoryImage,
    *,
    on_iteration: Callable[[int, BranchState], None] | None = None,
    access_log: bool = True,
) -> tuple[BranchState, QueryLedger]:
    """Run the full magnitude-then-phase procedure against a complex image.

    ``on_iteration(h, state)`` fires after each magnitude iteration's shift.
    Returns the final state (work clean, v = 1 everywhere, address register
    holding the normalized entries) and the query ledger (2k + 2 queries).
    With ``access_log=False`` the ledger counts the queries but keeps no
    per-query address bitmap, as ``verify.precision_sweep`` runs it; the
    state is the same.
    """
    return _prepare(img, "complex", on_iteration, access_log)


def prepare_real(
    img: MemoryImage,
    *,
    on_iteration: Callable[[int, BranchState], None] | None = None,
    access_log: bool = True,
) -> tuple[BranchState, QueryLedger]:
    """Same loop against a real_signed image, whose phase register is one bit (0 or pi)."""
    return _prepare(img, "real_signed", on_iteration, access_log)


def marker_check(state: BranchState, h: int, wt: WeightTree) -> bool:
    """True iff the state has the depth-h routing-marker form.

    After iteration h < k every branch must read v = 0, address
    0^{k-h-1} 1 bin_h(p), work clean, with |amplitude| = sqrt(T_{h,p}) / ||A||
    to within k half magnitude-grid steps (plus 1e-10); after h = k the
    marker sits in v = 1 and the address is bin_k(p).
    """
    k = state.k
    if not is_int(h) or not 1 <= h <= k:
        raise IndexOutOfRangeError(f"iteration {h!r} outside [1, {k}]")
    if wt.depth != k:
        raise IndexOutOfRangeError(f"tree depth {wt.depth} != address width {k}")
    tol = k * magnitude_grid(state.t) / 2 + 1e-10
    root = wt.total
    if root <= 0.0:
        return False
    if not state.work_clean():
        return False
    if h == k:
        if not state.marker_set():
            return False
    elif np.any(state.v != 0) or np.any(state.addr >> h != 1):
        return False
    amps = np.zeros(1 << h, dtype=np.complex128)
    amps[state.addr & ((1 << h) - 1)] = state.amp
    want = np.sqrt(np.asarray(wt.levels[h], dtype=np.float64)) / math.sqrt(root)
    return not np.any(np.abs(np.abs(amps) - want) > tol)


def dump_state(state: BranchState) -> dict:
    """JSON-ready dict of the state; requires all work registers zero."""
    if not state.work_clean():
        raise DirtyStateError("cannot dump a state with nonzero work registers")
    order = np.lexsort((state.v, state.addr))
    # the rows are acyclic, so the cyclic collector would only rescan them
    # as they accumulate; pause it, and restore the caller's setting
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows = [
            {"address": a, "amp": pair, "v": v}  # wire order: sort_keys finds it sorted
            for a, v, pair in zip(
                state.addr[order].tolist(),
                state.v[order].tolist(),
                state.amp[order].astype(np.complex128, copy=False).view(np.float64)
                .reshape(-1, 2).tolist(),
            )
        ]
    finally:
        if gc_was_enabled:
            gc.enable()
    return {"branches": rows, "k": state.k}

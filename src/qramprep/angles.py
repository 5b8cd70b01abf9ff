"""Splitting angles and leaf phases derived from a matrix.

The angle at memory index z rotates probability weight between the two child
subtrees under node z of the weight tree:

    theta_z = 2 * atan2(sqrt(T_R), sqrt(T_L))    (0 when both children are 0)

so that a y-rotation by theta_z maps |0> to sqrt(T_L / (T_L + T_R)) |0> +
sqrt(T_R / (T_L + T_R)) |1>. It equals 2 * arcsin(sqrt(T_R / (T_L + T_R)))
mathematically, but stays well conditioned over all of [0, pi]: the ratio
form rounds R / (L + R) to 1 once T_L is below ~2^-53 of T_R, and so drops
the lighter child. All theta_z are unsigned magnitudes in [0, pi];
sign and phase information lives only in the per-entry leaf layer of
phases phi_z = atan2(im, re) reduced to [0, 2*pi), 0 for zero entries. Real
data is the one-bit case of the same layer: every phase is 0 or pi.

The angles are computed one tree level at a time: the children at height
h + 1 split into left ``[0::2]`` and right ``[1::2]`` halves and the formula
runs over the whole level as array operations, so the K-1 angles cost k
array passes (the Grover-Rudolph / Kerenidis-Prakash norm tree). The levels,
concatenated from the root down, are ordered by memory index z = 1..K-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    LengthMismatchError,
    NotPowerOfTwoError,
    NotRealMatrixError,
    WrongModeError,
)
from .fixedpoint import _as_floats, _first_bad
from .matrix import ComplexMatrix, scaled_moduli
from .weight_tree import WeightTree, build_weight_tree

MODES = ("complex", "real_signed")


@dataclass(frozen=True, eq=False)  # it holds arrays: equal and hashed by identity
class ComplexAngleTree:
    """Angle tree plus leaf layer: the one checked hand-off to memory layouts.

    ``thetas[z - 1]`` is the splitting angle at memory index z (z = 1..K-1),
    in [0, pi]; ``phases[z]`` the leaf phase of entry z, in [0, 2*pi), which
    is 0 or pi in real_signed mode. Both are kept as read-only 1-d float64
    arrays (any other input is copied once). Refused: an unknown mode, K not
    a power of two >= 2, other than K-1 angles, a real_signed phase other
    than 0 or pi, and an angle or phase out of range (NaN too).
    """

    thetas: np.ndarray
    phases: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise WrongModeError(f"mode must be one of {MODES}, got {self.mode!r}")
        theta, phi = _frozen_floats(self.thetas, "theta"), _frozen_floats(self.phases, "phase")
        object.__setattr__(self, "thetas", theta)
        object.__setattr__(self, "phases", phi)
        n = phi.size
        if n < 2 or n & (n - 1):
            raise NotPowerOfTwoError(f"need 2**k phases (k >= 1), got {n}")
        if theta.size != n - 1:
            raise LengthMismatchError(f"need K-1 angles for K phases, got {theta.size} and {n}")
        if self.mode == "real_signed" and not np.all((phi == 0.0) | (phi == math.pi)):
            raise NotRealMatrixError("real_signed phases must be 0 or pi")
        _first_bad(~((theta >= 0.0) & (theta <= math.pi)), theta, "theta", "lie in [0, pi]")
        _first_bad(~((phi >= 0.0) & (phi < math.tau)), phi, "phase", "lie in [0, 2*pi)")

    @property
    def size(self) -> int:
        return len(self.phases)


def _frozen_floats(x, what: str) -> np.ndarray:
    """``x`` as a read-only 1-d float64 array: ``x`` itself if it is one, else a copy."""
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1 and not x.flags.writeable:
        return x
    out = _as_floats(x, what).copy()  # never freeze the caller's array
    out.flags.writeable = False
    return out


def _split_angles(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """2 * atan2(sqrt(R), sqrt(L)) for each sibling pair; 0 where L and R are both 0.

    Mathematically 2 * arcsin(sqrt(R / (L + R))), but well conditioned over all
    of [0, pi]: no ratio rounds a tiny sibling away, and L = 0 or R = 0 gives
    exactly pi or 0. Computed in place, so a level holds two temporaries.
    """
    theta, root_left = np.sqrt(right), np.sqrt(left)
    root_left += 0.0  # -0.0 to +0.0: atan2(0, -0) is pi
    np.arctan2(theta, root_left, out=theta)
    theta *= 2.0
    return theta


def splitting_angle(z: int, tree: WeightTree) -> float:
    """Rotation angle that splits the weight reaching node z between its children.

    Node z >= 1 sits at level l = floor(log2 z) + 1, position z - 2**(l-1);
    its children are entries 2p and 2p + 1 of ``tree.levels[l]``.
    """
    if isinstance(z, bool) or not isinstance(z, Integral) or not 1 <= z < tree.size:
        raise IndexOutOfRangeError(f"memory index {z!r} outside [1, {tree.size - 1}]")
    level = int(z).bit_length()
    pos = int(z) - (1 << (level - 1))
    children = tree.levels[level][2 * pos:2 * pos + 2]
    return float(_split_angles(children[:1], children[1:])[0])


def build_angle_tree(tree: WeightTree) -> np.ndarray:
    """All K-1 splitting angles, ordered by memory index z = 1..K-1."""
    out = np.concatenate(
        [_split_angles(children[0::2], children[1::2]) for children in tree.levels[1:]]
    )
    out.setflags(write=False)
    return out


def build_phase_layer(m: ComplexMatrix) -> np.ndarray:
    """Leaf phases atan2(im, re) mod 2*pi; zero entries get phase 0."""
    ent = m.entries
    phases = np.arctan2(ent.imag, ent.real)
    phases = np.where(ent == 0, 0.0, phases)
    phases = np.where(phases < 0.0, phases + math.tau, phases)
    phases[phases >= math.tau] = 0.0  # tiny negatives can round up to 2*pi
    phases.setflags(write=False)
    return phases


def build_angle_structures(m: ComplexMatrix, mode: str = "complex") -> ComplexAngleTree:
    """Full preprocessing: weight tree, splitting angles, and leaf phases."""
    if mode == "real_signed" and np.any(m.entries.imag != 0.0):
        raise NotRealMatrixError("matrix has nonzero imaginary parts")
    tree = build_weight_tree(scaled_moduli(m)[0])
    return ComplexAngleTree(
        thetas=build_angle_tree(tree),
        phases=build_phase_layer(m),
        mode=mode,
    )

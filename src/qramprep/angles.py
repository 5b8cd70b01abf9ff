"""Splitting angles and leaf phases derived from a matrix.

The angle at memory index z rotates probability weight between the two child
subtrees under node z of the weight tree:

    theta_z = 2 * arcsin(sqrt(T_R / (T_L + T_R)))    (0 when both children are 0)

so that a y-rotation by theta_z maps |0> to sqrt(T_L / (T_L + T_R)) |0> +
sqrt(T_R / (T_L + T_R)) |1>. All theta_z are unsigned magnitudes in [0, pi];
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

from .errors import IndexOutOfRangeError, NotRealMatrixError, WrongModeError
from .matrix import ComplexMatrix, scaled_moduli
from .weight_tree import WeightTree, build_weight_tree

MODES = ("complex", "real_signed")


@dataclass(frozen=True)
class ComplexAngleTree:
    """Angle tree plus leaf layer: everything written into memory cells.

    ``thetas[z - 1]`` is the splitting angle at memory index z (z = 1..K-1);
    ``phases[z]`` the leaf phase of entry z, which is 0 or pi in real_signed
    mode.
    """

    thetas: np.ndarray
    phases: np.ndarray
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise WrongModeError(f"mode must be one of {MODES}, got {self.mode!r}")
        if len(self.phases) != len(self.thetas) + 1:
            raise IndexOutOfRangeError(
                f"need K-1 angles for K phases, got {len(self.thetas)} and {len(self.phases)}"
            )

    @property
    def size(self) -> int:
        return len(self.phases)

    @property
    def preprocessing_ops(self) -> int:
        """Angle evaluations (K-1) plus leaf evaluations (K)."""
        return 2 * self.size - 1


def _split_angles(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """2 * arcsin(sqrt(R / (L + R))) for each sibling pair; 0 where L + R is 0."""
    total = left + right
    ratio = np.divide(right, total, out=np.zeros_like(total), where=total > 0.0)
    # clip guards against ratios like 1 + 1e-17 from the division
    root = np.sqrt(np.clip(ratio, 0.0, 1.0))
    # math.asin, not np.arcsin: SIMD builds of np.arcsin can differ in the
    # last ulps, which moves rounded cells at high t
    return 2.0 * np.fromiter(map(math.asin, root.tolist()), dtype=np.float64, count=root.size)


def splitting_angle(z: int, tree: WeightTree) -> float:
    """Rotation angle that splits the weight reaching node z between its children.

    Node z >= 1 sits at level l = floor(log2 z) + 1, position z - 2**(l-1);
    its children are entries 2p and 2p + 1 of ``tree.levels[l]``.
    """
    if not isinstance(z, Integral) or not 1 <= z < tree.size:
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

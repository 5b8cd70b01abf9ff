"""Complete binary aggregation tree over per-entry squared moduli.

``levels[h]`` holds the 2**h node weights at height h: ``levels[0]`` is the
root (the squared Frobenius norm) and ``levels[depth]`` are the per-entry
weights. Every parent is the sum of its two children, so the build is one
pairwise-summation pass per level, O(K) total.

Memory indices z >= 1 address sibling pairs: node z sits at level
l(z) = floor(log2 z) + 1, position d(z) = z - 2**floor(log2 z), and its
children are the weights consumed by the splitting angle at z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroWeightsError,
    InvalidWeightsError,
    NotPowerOfTwoError,
    is_cell_count,
    number_array,
)


@dataclass(frozen=True, eq=False)  # it holds arrays: equal and hashed by identity
class WeightTree:
    """Immutable tree of subtree weight sums; ``levels[h][p]`` is node (h, p)."""

    levels: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def size(self) -> int:
        """Leaf count K = 2**depth."""
        return 1 << self.depth

    @property
    def total(self) -> float:
        """Root weight: the squared Frobenius norm."""
        return float(self.levels[0][0])


def build_weight_tree(moduli_sq) -> WeightTree:
    """Aggregate K = 2**k squared moduli bottom-up into a WeightTree."""
    leaves = number_array(moduli_sq, np.float64, InvalidWeightsError, "weights").reshape(-1)
    size = leaves.size
    if not is_cell_count(size):
        raise NotPowerOfTwoError(f"need a power-of-two length >= 2, got {size}")
    if not np.all(np.isfinite(leaves) & (leaves >= 0)):
        raise InvalidWeightsError("squared moduli must be finite and non-negative")
    if not leaves.any():
        raise AllZeroWeightsError("all weights are zero")
    levels = [leaves]
    with np.errstate(over="ignore"):  # an overflowing sum reaches the root, checked below
        while levels[-1].size > 1:
            prev = levels[-1]
            levels.append(prev[0::2] + prev[1::2])
    # the leaves are non-negative, so a finite root bounds every partial sum
    if not np.isfinite(levels[-1][0]):
        raise InvalidWeightsError("the sum of the squared moduli overflows a float")
    for lvl in levels:
        lvl.setflags(write=False)
    return WeightTree(levels=tuple(reversed(levels)))

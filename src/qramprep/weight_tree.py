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
from numbers import Real

import numpy as np

from .errors import AllZeroWeightsError, InvalidWeightsError, NotPowerOfTwoError


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
    leaves = _real_leaves(moduli_sq)
    size = leaves.size
    if size < 2 or size & (size - 1):
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


def _real_leaves(values) -> np.ndarray:
    """``values`` as a flat float64 array; bools, complex numbers and strings are refused.

    A float64 array is used as is. Any other input has each element checked,
    since numpy reads ``True`` next to a float as 1.0; ints of any size load.
    """
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:  # a ragged nesting
        raise InvalidWeightsError("weights must be a regular array of real numbers") from exc
    if arr.dtype.kind not in "iufO":
        raise InvalidWeightsError(f"weights must be real numbers, got dtype {arr.dtype}")
    if arr.dtype == object or not isinstance(values, np.ndarray):
        for x in np.asarray(values, dtype=object).reshape(-1):
            if type(x) is bool or not isinstance(x, Real):
                raise InvalidWeightsError(f"weights must be real numbers, got {x!r}")
    try:
        return np.ascontiguousarray(arr, dtype=np.float64).reshape(-1)
    except OverflowError as exc:  # an int past the float range
        raise InvalidWeightsError("squared moduli must be finite and non-negative") from exc

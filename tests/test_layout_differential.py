"""Vectorized layouts against a per-cell reference layout, bit for bit.

The reference below walks the weight tree one memory index at a time with
scalar calls and the half-up rounding rule, the way cells were built before
the writer path was vectorized. It lives here only. Its angle is
2 atan2(sqrt(R), sqrt(L)) on numpy float64 scalars, not ``math.atan2``, and
leaf phases come from ``build_phase_layer`` in both paths: numpy's SIMD
arctan2 and libm's atan2 can differ in the last ulp, which shows in the
angle and phase fields at t = 62.
"""
import math

import numpy as np
import pytest

from qramprep.angles import build_phase_layer
from qramprep.matrix import random_matrix, squared_moduli
from qramprep.memory import build_memory_image
from qramprep.weight_tree import build_weight_tree
from test_simulator_differential import acceptance_matrices


def reference_angle(tree, z: int) -> float:
    level = z.bit_length()
    pos = z - (1 << (level - 1))
    left = tree.levels[level][2 * pos]
    right = tree.levels[level][2 * pos + 1]
    return float(2 * np.arctan2(np.sqrt(right), np.sqrt(left)))


def reference_phase_bits(phi: float, t: int) -> int:
    reduced = phi % math.tau
    if reduced >= math.tau:
        reduced = 0.0
    return math.floor(reduced / (math.tau / (1 << t)) + 0.5) % (1 << t)


def reference_cells(m, t: int, mode: str) -> tuple[int, ...]:
    tree = build_weight_tree(squared_moduli(m))
    phases = build_phase_layer(m).tolist()
    cells = []
    for z, entry in enumerate(m.entries.tolist()):
        angle = 0 if z == 0 else math.floor(reference_angle(tree, z) / 2.0 ** (2 - t) + 0.5)
        if mode == "complex":
            cells.append((angle << t) | reference_phase_bits(phases[z], t))
        else:
            cells.append((angle << 1) | int(entry.real < 0.0))
    return tuple(cells)


def random_k10_matrices():
    yield "dense-complex", random_matrix(32, 32, seed=1), "complex"
    yield "real-signed", random_matrix(32, 32, seed=2, real=True), "real_signed"
    half_zero = random_matrix(32, 32, seed=3, real=True, zero_fraction=0.5)
    yield "half-zero-real", half_zero, "real_signed"
    yield "half-zero-complex", random_matrix(32, 32, seed=4, zero_fraction=0.5), "complex"
    yield "ninety-percent-zero", random_matrix(32, 32, seed=5, zero_fraction=0.9), "complex"


CASES = [
    pytest.param(m, mode, t, id=f"{name}-t{t}")
    for name, m, mode in [*acceptance_matrices(), *random_k10_matrices()]
    for t in (2, 16, 32, 62)
]


@pytest.mark.parametrize("m,mode,t", CASES)
def test_cells_match_per_cell_reference(m, mode, t):
    img, _ = build_memory_image(m, t, mode)
    assert img.cells == reference_cells(m, t, mode)
    assert all(type(c) is int for c in img.cells)


def test_reference_sees_every_level():
    # the comparison is only as strong as the cells it covers: real angles on every level
    m = random_matrix(32, 32, seed=1)
    img, gamma = build_memory_image(m, 32, "complex")
    assert np.count_nonzero(gamma.thetas) == m.size - 1
    assert len(set(img.cells)) == m.size

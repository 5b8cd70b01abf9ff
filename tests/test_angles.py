import math

import numpy as np
import pytest

from qramprep.angles import (
    ComplexAngleTree,
    build_angle_structures,
    build_angle_tree,
    build_phase_layer,
    splitting_angle,
)
from qramprep.errors import IndexOutOfRangeError, NotRealMatrixError, WrongModeError
from qramprep.matrix import ComplexMatrix, random_matrix, squared_moduli
from qramprep.weight_tree import build_weight_tree

# recorded to three decimals; z = 1..7
EXAMPLE_ANGLES = [1.357, math.pi / 2, 1.648, math.pi / 2, 0.644, 1.911, 1.128]
# signed representatives; stored values are these mod 2*pi
EXAMPLE_PHASES = [0.464, 2.034, 0.0, -math.pi / 2, -0.785, math.pi / 2, 2.678, 0.785]


@pytest.fixture
def example_tree(example):
    return build_weight_tree(squared_moduli(example))


class TestSplittingAngle:
    def test_root_split(self, example_tree):
        theta = splitting_angle(1, example_tree)
        assert math.isclose(theta, 2 * math.asin(math.sqrt(13 / 33)), rel_tol=1e-15)
        assert abs(theta - 1.357) <= 1e-3

    def test_equal_split_is_right_angle(self, example_tree):
        assert math.isclose(splitting_angle(2, example_tree), math.pi / 2, rel_tol=1e-12)

    def test_leaf_split(self, example_tree):
        assert abs(splitting_angle(5, example_tree) - 0.644) <= 1e-3

    def test_zero_weight_pair_gives_zero(self):
        tree = build_weight_tree([1.0, 0.0, 0.0, 0.0])
        assert splitting_angle(3, tree) == 0.0

    def test_range(self):
        m = random_matrix(8, 8, seed=21, zero_fraction=0.4)
        tree = build_weight_tree(squared_moduli(m))
        for z in range(1, tree.size):
            assert 0.0 <= splitting_angle(z, tree) <= math.pi

    @pytest.mark.parametrize("z", [0, 8, -1, 1.0, 2.5, "1"])
    def test_out_of_range(self, example_tree, z):
        # z outside [1, K-1] or not an integer
        with pytest.raises(IndexOutOfRangeError):
            splitting_angle(z, example_tree)


class TestAngleTree:
    def test_example_values(self, example_tree):
        thetas = build_angle_tree(example_tree)
        assert len(thetas) == 7
        for got, expected in zip(thetas, EXAMPLE_ANGLES):
            assert abs(float(got) - expected) <= 1e-3

    def test_uniform_weights_all_right_angles(self):
        thetas = build_angle_tree(build_weight_tree([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(thetas, math.pi / 2, rtol=1e-12)

    def test_matches_scalar_path_exactly(self):
        m = random_matrix(8, 8, seed=5, zero_fraction=0.3)
        tree = build_weight_tree(squared_moduli(m))
        thetas = build_angle_tree(tree)
        for z in range(1, tree.size):
            assert float(thetas[z - 1]) == splitting_angle(z, tree)

    def test_reconstruction_identity(self):
        # the angle must reproduce the child weight ratio it encodes
        m = random_matrix(8, 8, seed=13)
        tree = build_weight_tree(squared_moduli(m))
        thetas = build_angle_tree(tree)
        for z in range(1, 64):
            level = z.bit_length()
            pos = z - (1 << (level - 1))
            left, right = tree.levels[level][2 * pos], tree.levels[level][2 * pos + 1]
            total = left + right
            if total == 0:
                continue
            theta = float(thetas[z - 1])
            assert math.isclose(math.sin(theta / 2) ** 2 * total, right, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(math.cos(theta / 2) ** 2 * total, left, rel_tol=1e-12, abs_tol=1e-12)


class TestPhaseLayer:
    def test_example_values(self, example):
        phases = build_phase_layer(example)
        for got, expected in zip(phases, EXAMPLE_PHASES):
            d = abs(float(got) - expected % math.tau)
            assert min(d, math.tau - d) <= 1e-3

    def test_range(self):
        m = random_matrix(16, 16, seed=3, zero_fraction=0.3)
        phases = build_phase_layer(m)
        assert np.all(phases >= 0.0) and np.all(phases < math.tau)

    def test_positive_real_entry(self):
        m = ComplexMatrix.from_array([[1.0, 2.0]])
        assert build_phase_layer(m).tolist() == [0.0, 0.0]

    def test_negative_real_axis(self):
        m = ComplexMatrix.from_array([[-3.0, 1.0]])
        assert build_phase_layer(m)[0] == math.pi

    def test_zero_entry_phase_zero(self):
        m = ComplexMatrix.from_array([[0.0, 1.0]])
        assert build_phase_layer(m)[0] == 0.0

    def test_polar_round_trip(self):
        m = random_matrix(8, 8, seed=17)
        phases = build_phase_layer(m)
        for a, phi in zip(map(complex, m.entries), phases):
            if a == 0:
                continue
            rebuilt = abs(a) * complex(math.cos(phi), math.sin(phi))
            assert abs(rebuilt - a) <= 1e-12 * abs(a)


class TestRealSignedPhases:
    """Real data is the one-bit case of the phase layer: every phase is 0 or pi."""

    def test_indicator(self):
        m = ComplexMatrix.from_array([[1.0, -2.0, 0.0, 3.0]])
        assert build_angle_structures(m, "real_signed").phases.tolist() == [0, math.pi, 0, 0]

    def test_all_negative(self):
        m = ComplexMatrix.from_array([[-1.0, -1.0]])
        assert build_angle_structures(m, "real_signed").phases.tolist() == [math.pi, math.pi]

    def test_negative_zero_imaginary_parts(self):
        m = ComplexMatrix.from_array([[complex(1.0, -0.0), complex(-2.0, -0.0)]])
        assert build_angle_structures(m, "real_signed").phases.tolist() == [0, math.pi]

    def test_same_layer_in_both_modes(self):
        m = random_matrix(8, 8, seed=23, real=True, zero_fraction=0.25)
        phases = build_angle_structures(m, "real_signed").phases
        assert np.array_equal(phases, build_angle_structures(m, "complex").phases)
        assert np.array_equal(phases == math.pi, m.entries.real < 0.0)
        assert np.all((phases == 0.0) | (phases == math.pi))


class TestComplexAngleTree:
    def test_build_complex(self, example):
        gamma = build_angle_structures(example)
        assert gamma.mode == "complex"
        assert gamma.size == 8
        assert gamma.preprocessing_ops == 15

    def test_needs_one_angle_fewer_than_phases(self):
        with pytest.raises(IndexOutOfRangeError):
            ComplexAngleTree(thetas=np.zeros(2), phases=np.zeros(4), mode="real_signed")

    def test_real_signed_build(self):
        m = ComplexMatrix.from_array([[1.0, -2.0, 0.0, 3.0]])
        gamma = build_angle_structures(m, "real_signed")
        assert gamma.phases.tolist() == [0, math.pi, 0, 0]

    def test_real_signed_rejects_complex_matrix(self, example):
        with pytest.raises(NotRealMatrixError):
            build_angle_structures(example, "real_signed")

    def test_bad_mode(self, example):
        with pytest.raises(WrongModeError):
            build_angle_structures(example, "octonion")


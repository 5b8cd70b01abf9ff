import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qramprep.angles import (
    ComplexAngleTree,
    _split_angles,
    build_angle_structures,
    build_angle_tree,
    build_phase_layer,
    splitting_angle,
)
from qramprep.errors import (
    AngleOutOfRangeError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NotPowerOfTwoError,
    NotRealMatrixError,
    WrongModeError,
)
from qramprep.matrix import ComplexMatrix, random_matrix, squared_moduli
from qramprep.memory import build_memory_image
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

    # finite weights whose pairwise sums stay finite, as build_weight_tree guarantees
    weights = st.floats(0.0, sys.float_info.max / 2, allow_subnormal=True)

    @given(st.lists(st.tuples(weights, weights), min_size=1, max_size=50))
    def test_matches_scalar_atan2_form(self, pairs):
        # the level pass is the scalar 2 atan2(sqrt(R), sqrt(L)) per pair, bit for bit
        left, right = (np.array(side, dtype=np.float64) for side in zip(*pairs))
        scalar = [2 * np.arctan2(np.sqrt(np.float64(r)), np.sqrt(np.float64(l))) for l, r in pairs]
        assert _split_angles(left, right).tobytes() == np.array(scalar).tobytes()

    @given(st.floats(2.0 ** -20, 2.0 ** 20), st.floats(1e-300, 1.0))
    def test_tiny_sibling_keeps_its_weight(self, right, ratio):
        # cos(theta/2) sqrt(L + R) = sqrt(L) to a few ulps, for L/R down to 1e-300;
        # 2 asin(sqrt(R / (L + R))) rounds the ratio to 1 below L/R ~ 2^-53 and loses sqrt(L)
        left = ratio * right
        theta = _split_angles(np.array([left]), np.array([right]))[0]
        norm = np.sqrt(left + right)
        assert abs(np.cos(theta / 2) * norm - np.sqrt(left)) <= 4 * np.spacing(norm)

    def test_negative_zero_weights_split_like_zero(self):
        # atan2(0, -0) is pi: a -0.0 weight must still give the zero-pair angle 0
        thetas = build_angle_tree(build_weight_tree([-0.0, 0.0, 1.0, 0.0]))
        assert thetas.tolist() == [math.pi, 0.0, 0.0]


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

    def test_zero_entries_of_any_sign_get_phase_zero(self):
        # atan2 gives pi for complex(-0.0, 0.0) and -pi for complex(-0.0, -0.0)
        zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        m = ComplexMatrix.from_array([zeros + [1.0, -1.0, 2.0, -2.0]])
        assert np.signbit(m.entries.real[:4]).tolist() == [False, True, False, True]
        assert build_phase_layer(m).tolist() == [0.0] * 4 + [0.0, math.pi, 0.0, math.pi]
        for mode, t in [("complex", 16), ("real_signed", 16), ("complex", 62)]:
            img, _ = build_memory_image(m, t, mode)
            half_turn = 1 << (img.aux_width - 1)  # phi = pi in a t-bit or one-bit field
            assert img.field_arrays[1].tolist() == [0] * 5 + [half_turn, 0, half_turn], mode

    def test_results_are_read_only(self, example):
        thetas = build_angle_tree(build_weight_tree(squared_moduli(example)))
        for array in (thetas, build_phase_layer(example)):
            assert not array.flags.writeable

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

    def test_needs_one_angle_fewer_than_phases(self):
        with pytest.raises(LengthMismatchError):
            ComplexAngleTree(thetas=np.zeros(2), phases=np.zeros(4), mode="real_signed")

    @pytest.mark.parametrize("k_cells", [0, 1, 3, 6])
    def test_cell_count_must_be_power_of_two(self, k_cells):
        with pytest.raises(NotPowerOfTwoError):
            ComplexAngleTree(thetas=np.zeros(max(k_cells - 1, 0)), phases=np.zeros(k_cells),
                             mode="complex")

    # checked before the range tests: NaN, 2*pi and -pi name the mode, not the range
    @pytest.mark.parametrize("phase", [1.0, math.pi / 2, 2 * math.pi, -math.pi, math.nan])
    def test_real_signed_phase_must_be_zero_or_pi(self, phase):
        with pytest.raises(NotRealMatrixError):
            ComplexAngleTree(thetas=[1.0], phases=[0.0, phase], mode="real_signed")

    def test_stores_read_only_float64(self):
        gamma = ComplexAngleTree(thetas=[1], phases=[[0.0], [math.pi]], mode="real_signed")
        for arr in (gamma.thetas, gamma.phases):
            assert arr.dtype == np.float64 and arr.ndim == 1 and not arr.flags.writeable
        assert gamma.phases.tolist() == [0.0, math.pi]

    def test_read_only_input_kept_writable_input_copied(self):
        thetas, phases = np.array([1.0]), np.array([0.0, 1.0])
        thetas.flags.writeable = False
        gamma = ComplexAngleTree(thetas=thetas, phases=phases, mode="complex")
        assert gamma.thetas is thetas
        phases[1] = 7.0  # out of range, but the tree holds its own copy
        assert gamma.phases.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("bad", [["x"], [None], [[1.0], [2.0, 3.0]]])
    def test_non_numbers_refused(self, bad):
        with pytest.raises(AngleOutOfRangeError):
            ComplexAngleTree(thetas=bad, phases=[0.0, 0.0], mode="complex")

    @pytest.mark.parametrize(
        "theta,phase",
        [(-1e-300, 0.0), (np.nextafter(math.pi, 4.0), 0.0), (5.0, 0.0), (math.nan, 0.0),
         (0.0, -1e-300), (0.0, -0.5 * math.pi), (0.0, math.tau), (0.0, 2.5 * math.pi),
         # the ideal phase step would read these as whole quarter turns and give the unit 1
         (0.0, 2.0 ** 60), (0.0, 1e300), (0.0, math.inf), (0.0, math.nan)],
    )
    def test_angle_or_phase_out_of_range_refused(self, theta, phase):
        with pytest.raises(AngleOutOfRangeError):
            ComplexAngleTree(thetas=np.array([theta]), phases=np.array([phase, 0.0]), mode="complex")

    def test_range_ends_accepted(self):
        below_tau = np.nextafter(math.tau, 0.0)
        ComplexAngleTree(thetas=np.array([0.0, math.pi, 1.0]),
                         phases=np.array([0.0, below_tau, math.pi, 1.0]), mode="complex")

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



@pytest.mark.parametrize("build", [
    lambda: random_matrix(2, 4, seed=1),
    lambda: build_weight_tree([1.0, 2.0, 3.0, 4.0]),
    lambda: build_angle_structures(random_matrix(2, 4, seed=1)),
], ids=["ComplexMatrix", "WeightTree", "ComplexAngleTree"])
def test_array_holders_compare_and_hash_by_identity(build):
    # a generated __eq__ would compare the arrays and raise on their truth value
    x = build()
    assert x == x and x != build()
    assert hash(x) == hash(x) and x in {x}

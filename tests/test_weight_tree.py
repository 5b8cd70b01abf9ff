import math

import numpy as np
import pytest

from qramprep.errors import AllZeroWeightsError, InvalidWeightsError, NotPowerOfTwoError
from qramprep.matrix import random_matrix, squared_moduli
from qramprep.weight_tree import build_weight_tree

EXAMPLE_WEIGHTS = [5.0, 5.0, 9.0, 1.0, 2.0, 4.0, 5.0, 2.0]


class TestBuild:
    def test_example_levels(self):
        tree = build_weight_tree(EXAMPLE_WEIGHTS)
        assert tree.levels[0].tolist() == [33]
        assert tree.levels[1].tolist() == [20, 13]
        assert tree.levels[2].tolist() == [10, 10, 6, 7]
        assert tree.levels[3].tolist() == EXAMPLE_WEIGHTS
        assert tree.depth == 3 and tree.size == 8
        assert tree.total == 33

    def test_two_leaves(self):
        tree = build_weight_tree([1.0, 0.0])
        assert tree.total == 1.0
        assert tree.levels[1].tolist() == [1.0, 0.0]

    def test_matches_brute_force_range_sums(self):
        rng = np.random.default_rng(9)
        for size in (1024, 4096):
            weights = rng.random(size)
            tree = build_weight_tree(weights)
            k = tree.depth
            for h in range(k + 1):
                width = size >> h
                for p in range(1 << h):
                    direct = math.fsum(weights[p * width : (p + 1) * width].tolist())
                    assert math.isclose(tree.levels[h][p], direct, rel_tol=1e-12)

    def test_parent_child_relation_exact(self):
        tree = build_weight_tree(np.random.default_rng(4).random(256))
        for h in range(tree.depth):
            parents = tree.levels[h]
            children = tree.levels[h + 1]
            assert np.array_equal(parents, children[0::2] + children[1::2])

    def test_per_level_conservation(self):
        m = random_matrix(16, 16, seed=1, zero_fraction=0.2)
        tree = build_weight_tree(squared_moduli(m))
        total = math.fsum(squared_moduli(m).tolist())
        for level in tree.levels:
            assert math.isclose(math.fsum(level.tolist()), total, rel_tol=1e-12)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0], [], [1.0] * 6])
    def test_not_power_of_two(self, weights):
        with pytest.raises(NotPowerOfTwoError):
            build_weight_tree(weights)

    def test_smallest_size_two(self):
        # K = 2 (k = 1) is the smallest tree; K = 1 is refused
        tree = build_weight_tree([1.0, 3.0])
        assert tree.depth == 1 and tree.total == 4.0
        with pytest.raises(NotPowerOfTwoError):
            build_weight_tree([4.0])

    def test_all_zero(self):
        with pytest.raises(AllZeroWeightsError):
            build_weight_tree([0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_rejected(self, bad):
        with pytest.raises(InvalidWeightsError):
            build_weight_tree([1.0, bad])

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [1e308, 0.0, 0.0, 1e308]])
    def test_overflowing_sum_rejected(self, weights):
        # every leaf is finite, but the root is not
        with pytest.raises(InvalidWeightsError, match="overflows"):
            build_weight_tree(weights)

    def test_largest_finite_sum_accepted(self):
        half = np.finfo(np.float64).max / 2
        tree = build_weight_tree([half, half])
        assert tree.total == np.finfo(np.float64).max

    def test_levels_read_only(self):
        tree = build_weight_tree(EXAMPLE_WEIGHTS)
        with pytest.raises(ValueError):
            tree.levels[0][0] = 0


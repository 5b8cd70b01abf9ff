import math

import numpy as np

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
        # K = 2 (k = 1) is the smallest tree
        tree = build_weight_tree([1.0, 0.0])
        assert tree.depth == 1 and tree.total == 1.0
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

    def test_largest_finite_sum_accepted(self):
        half = np.finfo(np.float64).max / 2
        tree = build_weight_tree([half, half])
        assert tree.total == np.finfo(np.float64).max

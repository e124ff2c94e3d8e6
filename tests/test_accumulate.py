"""Stage 3: leaf-value loads and accumulation, read through the fused path.

Every strategy runs the indexed load of its leaf-precision family, so each
strategy is held bit-equal (on uint64 views) to its family's scalar oracle
and to the plain load of its family.
"""

from __future__ import annotations

import numpy as np
import pytest

from obtree import (
    EvalConfig,
    FeatureMatrix,
    FloatFeatureBorders,
    Layout,
    LeafPrecision,
    LeafStrategy,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    SyntheticSpec,
    evaluate,
    evaluate_scalar,
    generate_feature_matrix,
    generate_synthetic_model,
    permute_group_count,
)


def bits(scores: np.ndarray) -> np.ndarray:
    return scores.view(np.uint64)


def scores(model, matrix, strategy=LeafStrategy.NAIVE):
    """Fused-path scores, checked bit-equal to the family's scalar oracle."""
    got = evaluate(model, matrix, EvalConfig(strategy=strategy))
    oracle = evaluate_scalar(model, matrix, strategy.precision)
    assert np.array_equal(bits(got), bits(oracle)), strategy
    return got


def one_tree_model(leaves, n_features=None):
    """Depth-log2(len(leaves)) tree splitting feature d at 0.5 on depth d."""
    depth = len(leaves).bit_length() - 1
    n_features = n_features or depth
    features = tuple(
        FloatFeatureBorders(i, np.array([0.5], dtype=np.float32)) for i in range(n_features)
    )
    tree = ObliviousTree(
        depth=depth,
        splits=tuple(SplitCondition(d, 0) for d in range(depth)),
        leaf_values=np.asarray(leaves, dtype=np.float64),
    )
    return ObliviousModel(float_features=features, trees=(tree,), scale=1.0, bias=0.0)


def rows_for_index(index, depth, n_objects):
    """Objects whose conditions spell ``index`` for ``one_tree_model``."""
    row = [1.0 if index >> d & 1 else 0.0 for d in range(depth)]
    return FeatureMatrix(np.array([row] * n_objects, dtype=np.float32), Layout.OBJECT_MAJOR)


def random_setup(seed, depth, n_objects=53, n_trees=1):
    model = generate_synthetic_model(SyntheticSpec(2, 3, n_trees, depth, seed=seed))
    matrix = generate_feature_matrix(n_objects, 2, seed=seed + 5000, nan_fraction=0.05)
    return model, matrix


class TestNaive:
    def test_constant_leaf_table(self):
        model = one_tree_model([2.5] * 4)
        matrix = generate_feature_matrix(6, 2, seed=1, lo=0.0, hi=1.0)
        assert np.all(scores(model, matrix) == 2.5)

    def test_degenerate_all_zero_indices(self):
        model = one_tree_model([7.0, -1.0])
        assert np.all(scores(model, rows_for_index(0, 1, 8)) == 7.0)

    def test_matches_per_object_oracle(self):
        model, matrix = random_setup(1, depth=6)
        tree = model.trees[0]
        got = scores(model, matrix)
        for o in range(matrix.n_objects):
            index = 0
            for d, split in enumerate(tree.splits):
                border = model.float_features[split.feature_index].borders[split.border_ordinal]
                if matrix.values[o, split.feature_index] > border:
                    index |= 1 << d
            assert got[o] == tree.leaf_values[index] * model.scale + model.bias

    def test_identical_indices_equal_broadcast_add(self):
        leaves = np.linspace(-1.0, 1.0, 16)
        model = one_tree_model(leaves)
        got = scores(model, rows_for_index(11, 4, 24))
        assert np.all(got == leaves[11])


class TestPermute64:
    def test_depth6_needs_eight_vectors(self):
        # 64 leaves at 8 binary64 lanes per vector: the whole table fits in
        # 8 vectors per tree.
        assert permute_group_count(6, 8) == 8

    def test_depth3_single_vector_lane_select(self):
        leaves = np.arange(20.0, 28.0)
        model = one_tree_model(leaves)
        assert scores(model, rows_for_index(5, 3, 1), LeafStrategy.PERMUTE64)[0] == leaves[5]

    @pytest.mark.parametrize("depth", [1, 3, 6, 8])
    def test_matches_naive(self, depth):
        model, matrix = random_setup(7 + depth, depth=depth)
        naive = scores(model, matrix)
        permute = scores(model, matrix, LeafStrategy.PERMUTE64)
        assert np.array_equal(bits(naive), bits(permute))


class TestPermute16:
    def test_depth6_needs_two_vectors_of_32(self):
        # 64 half-precision leaves at 32 lanes per vector: 2 vectors per
        # tree, objects processed 32 at a time.
        assert permute_group_count(6, 32) == 2

    def test_exactly_representable_leaves_match_binary64_path(self):
        model = one_tree_model(np.arange(16, dtype=np.float64) / 4.0)  # all binary16-exact
        matrix = generate_feature_matrix(32, 4, seed=31, lo=0.0, hi=1.0)
        wide = scores(model, matrix)
        half = scores(model, matrix, LeafStrategy.PERMUTE16)
        assert np.array_equal(bits(half), bits(wide))

    @pytest.mark.parametrize("depth", [1, 5, 6, 8])
    def test_matches_scalar_half_oracle(self, depth):
        model, matrix = random_setup(60 + depth, depth=depth)
        got = evaluate(model, matrix, EvalConfig(strategy=LeafStrategy.PERMUTE16))
        expected = evaluate_scalar(model, matrix, LeafPrecision.BINARY16)
        assert np.array_equal(bits(got), bits(expected))


class TestIndexSplit:
    def test_exhaustive_for_all_depths(self):
        for depth in range(1, 9):
            g64 = permute_group_count(depth, 8)
            g16 = permute_group_count(depth, 32)
            for i in range(1 << depth):
                assert (i >> 3) < g64
                assert (i & 7) < 8
                assert (i >> 5) < g16
                assert (i & 31) < 32

    def test_masks_partition_each_object(self):
        # Across the merge steps exactly one vector ordinal matches.
        for depth in range(1, 9):
            for lanes, bits in ((8, 3), (32, 5)):
                groups = permute_group_count(depth, lanes)
                for i in range(1 << depth):
                    matches = sum(1 for g in range(groups) if (i >> bits) == g)
                    assert matches == 1


class TestAccumulator:
    def test_precision_rule(self):
        # The binary16 family adds in binary32, tree by tree: 2**15 + 2**-9 is
        # a tie at binary32 precision and rounds back to 2**15, twice.  One
        # rounding of the exact sum would give 2**15 + 2**-8 instead, which
        # is what binary64 sums hold.
        small, big = 2.0**-9, 2.0**15  # both exact in binary16
        features = (FloatFeatureBorders(0, np.array([0.5], dtype=np.float32)),)
        trees = tuple(
            ObliviousTree(depth=1, splits=(SplitCondition(0, 0),), leaf_values=np.array([v, v]))
            for v in (big, small, small)
        )
        model = ObliviousModel(float_features=features, trees=trees, scale=1.0, bias=0.0)
        matrix = generate_feature_matrix(5, 1, seed=3)
        assert np.all(scores(model, matrix) == big + 2 * small)
        assert np.all(scores(model, matrix, LeafStrategy.PERMUTE16) == big)

    def test_strategy_families(self):
        assert [s.value for s in LeafStrategy] == ["naive", "permute64", "permute16"]
        assert LeafStrategy.NAIVE.precision is LeafPrecision.BINARY64
        assert LeafStrategy.PERMUTE64.precision is LeafPrecision.BINARY64
        assert LeafStrategy.PERMUTE16.precision is LeafPrecision.BINARY16

    def test_object_groups(self):
        # Objects per 512-bit vector group, as the paper's kernels plan tails.
        assert LeafStrategy.PERMUTE64.object_group == 8
        assert LeafStrategy.PERMUTE16.object_group == 32
        assert LeafStrategy.NAIVE.object_group == 64

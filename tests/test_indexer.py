"""Stage 2: leaf index assembly from condition bits, read through the fused path.

A tree whose leaf values are 0, 1, ..., 2**depth - 1 scores every object with
its leaf index, so evaluating a one-tree model built that way shows the index
the fused kernel assembled.  Each such evaluation is also held bit-equal to
the scalar oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from obtree import (
    EvalConfig,
    FeatureMatrix,
    FloatFeatureBorders,
    Layout,
    LeafStrategy,
    ModelTables,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    SyntheticSpec,
    evaluate,
    evaluate_scalar,
    generate_synthetic_model,
    quantize_block,
)
from obtree.evaluate import _leaf_index_panel

from conftest import quantize_value

# These tests read the numpy stages' index panels, and the index the numpy
# fold assembles; the native kernels are held to the oracle elsewhere.
pytestmark = pytest.mark.usefixtures("numpy_backend")


def features_for(borders):
    return tuple(FloatFeatureBorders(i, b) for i, b in enumerate(borders))


def leaf_indices(features, splits, matrix, strategy=LeafStrategy.NAIVE):
    """Per-object leaf index of the tree with ``splits``, via ``evaluate``."""
    tree = ObliviousTree(
        depth=len(splits),
        splits=tuple(splits),
        leaf_values=np.arange(1 << len(splits), dtype=np.float64),
    )
    model = ObliviousModel(float_features=features, trees=(tree,), scale=1.0, bias=0.0)
    scores = evaluate(model, matrix, EvalConfig(strategy=strategy))
    oracle = evaluate_scalar(model, matrix, strategy.precision)
    assert np.array_equal(scores.view(np.uint64), oracle.view(np.uint64))
    return scores.astype(np.int64)


def condition_bits(features, split, matrix):
    """0/1 per object: the split's condition, as a depth-1 tree's leaf index."""
    return leaf_indices(features, [split], matrix)


def test_root_true_mid_false_deep_true_gives_five():
    # Condition values (root, depth 1, depth 2) = (1, 0, 1) must address
    # leaf 101 in binary, i.e. leaf 5, with the root in the low bit.
    features = features_for([np.array([0.5], dtype=np.float32)] * 3)
    matrix = FeatureMatrix(np.array([[1.0, 0.0, 1.0]], dtype=np.float32), Layout.OBJECT_MAJOR)
    splits = [SplitCondition(0, 0), SplitCondition(1, 0), SplitCondition(2, 0)]
    for strategy in LeafStrategy:
        assert leaf_indices(features, splits, matrix, strategy)[0] == 5


def test_all_conditions_false_gives_zero():
    features = features_for([np.array([0.5], dtype=np.float32)] * 2)
    matrix = FeatureMatrix(np.zeros((3, 2), dtype=np.float32), Layout.OBJECT_MAJOR)
    splits = [SplitCondition(0, 0), SplitCondition(1, 0)]
    assert np.all(leaf_indices(features, splits, matrix) == 0)


def random_case(seed, n_objects=90, n_features=7, borders=9, depth=6):
    model = generate_synthetic_model(SyntheticSpec(n_features, borders, 1, depth, seed=seed))
    rng = np.random.default_rng(seed + 1000)
    raw = rng.uniform(-0.2, 1.2, (n_objects, n_features)).astype(np.float32)
    matrix = FeatureMatrix(raw, Layout.OBJECT_MAJOR)
    border_list = [ff.borders for ff in model.float_features]
    return model, matrix, border_list, raw


def scalar_index_oracle(tree, raw_row, borders):
    """Assemble the leaf index per object from scratch via quantize_value."""
    index = 0
    for d, split in enumerate(tree.splits):
        q = quantize_value(float(raw_row[split.feature_index]), borders[split.feature_index])
        if q > split.border_ordinal:
            index |= 1 << d
    return index


def test_against_scalar_recomputation():
    for seed in range(6):
        model, matrix, borders, raw = random_case(seed)
        tree = model.trees[0]
        expected = [scalar_index_oracle(tree, raw[o], borders) for o in range(matrix.n_objects)]
        for strategy in LeafStrategy:
            got = leaf_indices(model.float_features, tree.splits, matrix, strategy)
            assert got.tolist() == expected, (seed, strategy)


def test_composition_of_condition_bits():
    model, matrix, _, _ = random_case(9)
    tree = model.trees[0]
    combined = np.zeros(matrix.n_objects, dtype=np.int64)
    for d, split in enumerate(tree.splits):
        combined |= condition_bits(model.float_features, split, matrix) << d
    assert np.array_equal(combined, leaf_indices(model.float_features, tree.splits, matrix))


def test_condition_bits_boundary_cases():
    features = features_for([np.array([0.5], dtype=np.float32)])
    matrix = FeatureMatrix(np.array([[0.2], [0.9]], dtype=np.float32), Layout.OBJECT_MAJOR)
    bits = condition_bits(features, SplitCondition(0, 0), matrix)
    assert bits[0] == 0  # quantile 0, ordinal 0: nothing crossed
    assert bits[1] == 1  # quantile 1, ordinal 0: first border crossed


def condition_panel(tables, matrix, width):
    """Stage 1's numpy panel of the whole batch, ``width`` columns wide."""
    panel = np.full((tables.cond_border.size, width), 0xA5, dtype=np.uint8)
    quantize_block(matrix, (0, matrix.n_objects), tables, panel)
    return panel


def test_condition_bits_match_byte_comparison():
    model, matrix, _, _ = random_case(4)
    tables = ModelTables(model)
    panel = condition_panel(tables, matrix, 128)
    for k, split in enumerate(model.trees[0].splits):
        bits = condition_bits(model.float_features, split, matrix)
        assert np.array_equal(bits, panel[tables.tree_cond[0, k], : matrix.n_objects])


def test_live_indices_below_leaf_count_and_padding_zero():
    for seed, depth in enumerate(np.random.default_rng(0).integers(1, 9, 4).tolist()):
        model, matrix, _, _ = random_case(seed + 50, n_objects=45, depth=depth)
        tree = model.trees[0]
        assert leaf_indices(model.float_features, tree.splits, matrix).max() < (1 << depth)
        # The panel's cleared padding fails every split: index 0 past the
        # live objects.
        tables = ModelTables(model)
        panel = _leaf_index_panel(tables, condition_panel(tables, matrix, 64))
        assert np.all(panel[:, 45:] == 0)


def test_quantile_bits_equal_raw_value_bits():
    # The split test through the fused path must agree with comparing raw
    # feature values against the border that the ordinal names.
    for seed in range(5):
        model, matrix, borders, raw = random_case(seed + 20)
        for split in model.trees[0].splits:
            via_evaluate = condition_bits(model.float_features, split, matrix)
            border = borders[split.feature_index][split.border_ordinal]
            via_raw = (raw[:, split.feature_index] > border).astype(np.int64)
            assert np.array_equal(via_evaluate, via_raw)


def test_each_distinct_condition_is_tested_once():
    features = features_for([np.array([0.1, 0.4, 0.7], dtype=np.float32)] * 3)
    a, b, c = SplitCondition(0, 1), SplitCondition(2, 0), SplitCondition(1, 2)
    raw = np.array([[x, (x * 7) % 1, (x * 3) % 1] for x in np.linspace(0, 1, 37)], np.float32)
    matrix = FeatureMatrix(raw, Layout.OBJECT_MAJOR)
    for tree_splits, sentinel in (
        ([[a, b, c], [b, a, c], [c, b, a]], 0),
        ([[a, b, c], [c], [b, a], [a, c, b]], 1),
    ):
        trees = tuple(
            ObliviousTree(len(sp), tuple(sp), np.zeros(1 << len(sp))) for sp in tree_splits
        )
        model = ObliviousModel(float_features=features, trees=trees, scale=1.0, bias=0.0)
        tables = ModelTables(model)
        assert tables.cond_feature.size == 3 + sentinel
        assert tables.tree_cond.shape == (len(trees), 8)
        panel = _leaf_index_panel(tables, condition_panel(tables, matrix, 40))
        for t, splits in enumerate(tree_splits):
            expected = leaf_indices(features, splits, matrix)
            assert panel[t, : matrix.n_objects].tolist() == expected.tolist(), (sentinel, t)

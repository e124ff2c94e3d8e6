"""Scalar oracle, deviation metrics, classification flips."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    classification_flip_count,
    deserialize_model,
    deviation_metrics,
    evaluate,
    evaluate_scalar,
    generate_feature_matrix,
    generate_synthetic_model,
    serialize_model,
)
from obtree.model import build_leaf_bank
from obtree.oracle import binary16_leaves


@pytest.mark.parametrize("precision", ["binary64", LeafStrategy.NAIVE, None])
def test_precision_of_another_type_is_refused(precision):
    """Anything but a ``LeafPrecision`` is refused by name, not read as binary16."""
    model = generate_synthetic_model(SyntheticSpec(3, 4, 2, 2, seed=1))
    matrix = generate_feature_matrix(5, 3, seed=1)
    with pytest.raises(TypeError, match=re.escape(
            f"leaf_precision: {precision!r} is not a LeafPrecision")):
        evaluate_scalar(model, matrix, precision)


def test_oracle_walks_a_loaded_model_without_building_its_trees():
    model = generate_synthetic_model(SyntheticSpec(3, 4, 5, 3, seed=2))
    loaded = deserialize_model(serialize_model(model))
    matrix = generate_feature_matrix(17, 3, seed=2)
    for precision in LeafPrecision:
        scores = evaluate_scalar(loaded, matrix, precision)
        assert "trees" not in vars(loaded)  # the cached ObliviousTree objects
        expected = evaluate_scalar(model, matrix, precision)
        assert scores.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_zero_tree_model_gives_bias():
    model = ObliviousModel(
        float_features=(FloatFeatureBorders(0, np.array([0.5], dtype=np.float32)),),
        trees=(),
        scale=2.0,
        bias=0.75,
    )
    matrix = generate_feature_matrix(5, 1, seed=0)
    assert np.all(evaluate_scalar(model, matrix) == 0.75)


def test_depth3_fixture_selects_leaf_five():
    # Condition values (1, 0, 1) down the tree land on leaf 5; the
    # prediction is leaf_values[5] * scale + bias.
    features = tuple(
        FloatFeatureBorders(i, np.array([0.5], dtype=np.float32)) for i in range(3)
    )
    tree = ObliviousTree(
        depth=3,
        splits=(SplitCondition(0, 0), SplitCondition(1, 0), SplitCondition(2, 0)),
        leaf_values=np.arange(10.0, 18.0),
    )
    model = ObliviousModel(float_features=features, trees=(tree,), scale=2.0, bias=1.0)
    matrix = FeatureMatrix(np.array([[1.0, 0.0, 1.0]], dtype=np.float32), Layout.OBJECT_MAJOR)
    assert evaluate_scalar(model, matrix)[0] == 15.0 * 2.0 + 1.0
    assert evaluate(model, matrix)[0] == 15.0 * 2.0 + 1.0


def test_oracle_agrees_with_pipeline_on_random_inputs():
    for seed in range(8):
        model = generate_synthetic_model(SyntheticSpec(7, 11, 25, 1 + seed % 8, seed=seed))
        matrix = generate_feature_matrix(
            61, 7, seed=seed + 100, nan_fraction=0.05, inf_fraction=0.02
        )
        assert np.array_equal(evaluate(model, matrix), evaluate_scalar(model, matrix))
        preds16 = evaluate(model, matrix, EvalConfig(strategy=LeafStrategy.PERMUTE16))
        assert np.array_equal(preds16, evaluate_scalar(model, matrix, LeafPrecision.BINARY16))


def test_feature_mismatch_rejected():
    model = generate_synthetic_model(SyntheticSpec(3, 2, 1, 1, seed=1))
    with pytest.raises(ValueError, match="features"):
        evaluate_scalar(model, generate_feature_matrix(4, 5, seed=2))


class TestDeviationMetrics:
    def test_identical_vectors(self):
        m = deviation_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert (m.max_abs, m.mean_abs, m.median_abs, m.rms) == (0.0, 0.0, 0.0, 0.0)

    def test_single_element(self):
        m = deviation_metrics(np.array([1.0]), np.array([1.5]))
        assert (m.max_abs, m.mean_abs, m.median_abs, m.rms) == (0.5, 0.5, 0.5, 0.5)

    def test_two_element_fixture(self):
        # |diffs| = [3, 4]: max 4, mean 3.5, median 3 (lower middle),
        # rms = sqrt((9 + 16) / 2) = sqrt(12.5).
        m = deviation_metrics(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert m.max_abs == 4.0
        assert m.mean_abs == 3.5
        assert m.median_abs == 3.0
        assert m.rms == pytest.approx(math.sqrt(12.5), rel=0, abs=1e-15)

    def test_metric_orderings(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(101)
        b = a + rng.standard_normal(101) * 0.1
        m = deviation_metrics(a, b)
        assert 0.0 <= m.mean_abs <= m.max_abs
        assert 0.0 <= m.median_abs <= m.max_abs
        assert 0.0 <= m.rms <= m.max_abs

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            deviation_metrics(np.zeros(2), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            deviation_metrics(np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_named(self, bad):
        # Unchecked, a NaN gives NaN max, mean and rms next to a finite median.
        with pytest.raises(ValueError, match=r"^a\[0\] is "):
            deviation_metrics([bad, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match=r"^b\[2\] is "):
            deviation_metrics([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, bad, bad])


class TestClassificationFlips:
    def test_identical_vectors(self):
        v = np.array([0.5, -0.5, 2.0])
        assert classification_flip_count(v, v, 0.0) == 0

    def test_sign_flip_counted(self):
        assert classification_flip_count(np.array([0.1]), np.array([-0.1]), 0.0) == 1

    def test_threshold_shifts_classes(self):
        a = np.array([0.4, 0.6])
        b = np.array([0.45, 0.55])
        assert classification_flip_count(a, b, 0.0) == 0
        assert classification_flip_count(a, b, 0.5) == 0
        assert classification_flip_count(a, b, 0.58) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classification_flip_count(np.zeros(1), np.zeros(2), 0.0)

    def test_nan_threshold_named(self):
        # Unchecked, every score is a flip against itself: NaN != NaN.
        v = np.array([1.0, -2.0])
        for threshold in (math.nan, np.float64("nan")):
            with pytest.raises(ValueError, match=r"^threshold is nan"):
                classification_flip_count(v, v, threshold)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_named(self, bad):
        # Unchecked, a NaN score counts as a flip.
        with pytest.raises(ValueError, match=r"^a\[0\] is "):
            classification_flip_count([bad], [1.0], 0.0)
        with pytest.raises(ValueError, match=r"^b\[1\] is "):
            classification_flip_count([1.0, 1.0], [1.0, bad], 0.0)


# Signed zeros, binary16 subnormals (the smallest, a tie to even, the
# largest), the largest finite binary16, the last values that round down to
# it, the first that overflow, and far out of range.
_EDGE_LEAVES = [0.0, 2.0**-24, 2.0**-25, 3 * 2.0**-25, 2.0**-14 - 2.0**-24, 65504.0,
                65519.99, 65520.0, 1e6]
_EDGE_LEAVES += [-x for x in _EDGE_LEAVES]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda depth: st.lists(
    st.sampled_from(_EDGE_LEAVES) | st.floats(-1e6, 1e6), min_size=1 << depth,
    max_size=1 << depth)))
def test_oracle_leaves_equal_the_bank_bit_for_bit(leaves):
    # The oracle converts the leaves itself; the engine reads the bank.
    depth = len(leaves).bit_length() - 1
    tree = ObliviousTree(depth, tuple(SplitCondition(d, 0) for d in range(depth)),
                         np.array(leaves))
    features = tuple(FloatFeatureBorders(d, np.zeros(1, np.float32)) for d in range(depth))
    model = ObliviousModel(features, (tree,), scale=1.0, bias=0.0)
    bank = build_leaf_bank(model, LeafPrecision.BINARY16)
    assert np.array_equal(binary16_leaves(model.leaves).view(np.uint16),
                          bank.values.view(np.uint16))
    # Object i takes leaf i: its value of feature d is +1 where bit d of i is set.
    bits = np.arange(1 << depth)[:, None] >> np.arange(depth) & 1
    matrix = FeatureMatrix(bits * 2 - 1, Layout.OBJECT_MAJOR)
    expected = evaluate(model, matrix, EvalConfig(LeafStrategy.PERMUTE16))
    assert np.array_equal(evaluate_scalar(model, matrix, LeafPrecision.BINARY16).view(np.uint64),
                          expected.view(np.uint64))

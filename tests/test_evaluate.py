"""Pipeline orchestration: block planning, the tail plan, invariances."""

from __future__ import annotations

import ctypes
import dataclasses
import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtree import (
    EvalConfig,
    EvalStats,
    FeatureMatrix,
    Layout,
    LeafPrecision,
    LeafStrategy,
    SplitCondition,
    SyntheticSpec,
    TailPolicy,
    apply_tail_policy,
    evaluate,
    evaluate_scalar,
    generate_feature_matrix,
    generate_synthetic_model,
    plan_blocks,
)
from obtree.evaluate import _ROW_ORDER_REDUCE, Evaluator, ModelTables, _widen_binary16
from obtree.model import ObliviousModel, ObliviousTree, FloatFeatureBorders
from obtree.native import run_bounds


def corpus_model(seed, n_features=10, borders=12, trees=40, depth=6):
    return generate_synthetic_model(SyntheticSpec(n_features, borders, trees, depth, seed))


class TestPlanBlocks:
    def test_exact_multiple(self):
        blocks = plan_blocks(1024, 128)
        assert blocks == [(i * 128, (i + 1) * 128) for i in range(8)]

    def test_single_partial_block(self):
        assert plan_blocks(100, 128) == [(0, 100)]

    def test_minimal_spill(self):
        assert plan_blocks(129, 128) == [(0, 128), (128, 129)]

    def test_cover_disjoint_ordered(self):
        for n in (1, 63, 64, 65, 511, 512, 1000):
            for bs in (64, 128, 256, 512):
                blocks = plan_blocks(n, bs)
                assert blocks[0][0] == 0 and blocks[-1][1] == n
                for (a0, a1), (b0, b1) in zip(blocks, blocks[1:]):
                    assert a1 == b0 and a1 - a0 == bs
                assert all(e > b for b, e in blocks)

    def test_empty_batch(self):
        assert plan_blocks(0, 128) == []


class TestTailPolicy:
    def test_scalar_tail_example(self):
        plan = apply_tail_policy(TailPolicy.SCALAR_TAIL, 32, 100)
        assert (plan.vector_groups, plan.scalar_remainder, plan.padded_lanes) == (3, 4, 0)

    def test_exhaustive_plan_arithmetic(self):
        for group in (8, 16, 32, 64):
            for live in range(1, 193):
                st = apply_tail_policy(TailPolicy.SCALAR_TAIL, group, live)
                assert st.vector_groups * group + st.scalar_remainder == live
                assert 0 <= st.scalar_remainder < group
                assert st.padded_lanes == 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            apply_tail_policy(TailPolicy.SCALAR_TAIL, 0, 10)
        with pytest.raises(ValueError):
            apply_tail_policy(TailPolicy.SCALAR_TAIL, 8, -1)


class TestEvalConfig:
    def test_defaults_follow_baseline(self):
        # The strategy is the only setting; block size and tail policy are constants.
        cfg = EvalConfig()
        assert [f.name for f in dataclasses.fields(EvalConfig)] == ["strategy"]
        assert cfg.block_size == EvalConfig.block_size == 128
        assert cfg.strategy is LeafStrategy.NAIVE
        assert cfg.tail_policy is EvalConfig.tail_policy is TailPolicy.SCALAR_TAIL
        assert list(TailPolicy) == [TailPolicy.SCALAR_TAIL]

    @pytest.mark.parametrize("strategy", ["permute16", LeafPrecision.BINARY16, None])
    def test_strategy_of_another_type_is_refused(self, strategy):
        with pytest.raises(TypeError, match=re.escape(
                f"strategy: {strategy!r} is not a LeafStrategy")):
            EvalConfig(strategy)

    @pytest.mark.parametrize("config", [LeafStrategy.PERMUTE16, "permute16"])
    def test_evaluator_refuses_a_config_of_another_type(self, config):
        model = walk_model([2])
        with pytest.raises(TypeError, match=re.escape(f"config: {config!r} is not an EvalConfig")):
            Evaluator(model, config)
        assert Evaluator(model, None).config == EvalConfig()


class TestEvaluateBasics:
    def test_zero_trees_gives_bias(self):
        model = ObliviousModel(
            float_features=(FloatFeatureBorders(0, np.array([0.5], dtype=np.float32)),),
            trees=(),
            scale=3.0,
            bias=-1.25,
        )
        matrix = generate_feature_matrix(17, 1, seed=1)
        assert np.all(evaluate(model, matrix) == -1.25)

    def test_affine_application(self):
        # One depth-1 tree whose both leaves are 2.0: sum is 2.0 for every
        # object, so the prediction is 2.0 * 0.5 + 1.0 = 2.0.
        tree = ObliviousTree(
            depth=1, splits=(SplitCondition(0, 0),), leaf_values=np.array([2.0, 2.0])
        )
        model = ObliviousModel(
            float_features=(FloatFeatureBorders(0, np.array([0.5], dtype=np.float32)),),
            trees=(tree,),
            scale=0.5,
            bias=1.0,
        )
        matrix = generate_feature_matrix(9, 1, seed=2)
        assert np.all(evaluate(model, matrix) == 2.0)

    @pytest.mark.parametrize("strategy", [LeafStrategy.NAIVE, LeafStrategy.PERMUTE16])
    def test_explicit_loop_fold_matches_oracle(self, strategy, monkeypatch, numpy_backend):
        # The row loop runs only where the import-time probe finds that
        # np.add.reduce(axis=0) does not add rows in order; force it for
        # both sum dtypes.  The last of three b128 blocks has 44 live
        # objects in a 48-column panel, so the loop's slicing is covered too.
        for dtype in list(_ROW_ORDER_REDUCE):
            monkeypatch.setitem(_ROW_ORDER_REDUCE, dtype, False)
        model = corpus_model(11, trees=30)
        matrix = generate_feature_matrix(300, model.n_features, seed=3)
        evaluator = Evaluator(model, EvalConfig(strategy))
        assert evaluator.backend == "numpy"
        preds = evaluator.predict(matrix)
        oracle = evaluate_scalar(model, matrix, strategy.precision)
        assert np.array_equal(preds.view(np.uint64), oracle.view(np.uint64))

    def test_prediction_length_never_leaks_padding(self):
        model = corpus_model(5, trees=8)
        for n in list(range(1, 8)) + [31, 32, 33, 63, 64, 65, 100]:
            matrix = generate_feature_matrix(n, model.n_features, seed=n)
            for cfg in (EvalConfig(), EvalConfig(strategy=LeafStrategy.PERMUTE16)):
                assert evaluate(model, matrix, cfg).shape == (n,)

    def test_empty_batch(self):
        model = corpus_model(6, trees=3)
        matrix = generate_feature_matrix(0, model.n_features, seed=1)
        assert evaluate(model, matrix).shape == (0,)

    def test_feature_count_mismatch(self):
        model = corpus_model(7)
        matrix = generate_feature_matrix(4, model.n_features + 1, seed=1)
        with pytest.raises(ValueError, match="features"):
            evaluate(model, matrix)

    def test_invalid_model_rejected(self):
        bad = ObliviousModel(float_features=(), trees=(), scale=1.0, bias=0.0)
        with pytest.raises(ValueError, match="invalid model"):
            Evaluator(bad)

    @pytest.mark.parametrize("kind", ["matrix", "stats"])
    def test_argument_of_another_type_refused_before_any_stage(self, each_backend, monkeypatch,
                                                               kind):
        module = importlib.import_module("obtree.evaluate")
        blocks = []
        monkeypatch.setattr(module, "quantize_block", lambda *args: blocks.append(args))
        model = corpus_model(7)
        matrix = generate_feature_matrix(3, model.n_features, seed=1)
        args, message = {
            "matrix": ((matrix.values,), "matrix must be a FeatureMatrix, got ndarray"),
            "stats": ((matrix, object()), "stats must be an EvalStats or None, got object"),
        }[kind]
        for evaluator in each_backend(model):
            with pytest.raises(TypeError, match=message):
                evaluator.predict(*args)
        assert blocks == []


class TestInvariances:
    def setup_method(self):
        self.model = corpus_model(11, n_features=8, borders=20, trees=30, depth=5)
        self.tables = ModelTables(self.model)
        self.matrix = generate_feature_matrix(
            257, 8, seed=3, nan_fraction=0.03, inf_fraction=0.01
        )

    def test_layout_independence(self):
        transposed = self.matrix.transposed()
        for strategy in (LeafStrategy.NAIVE, LeafStrategy.PERMUTE16):
            evaluator = Evaluator(self.tables, EvalConfig(strategy))
            assert np.array_equal(evaluator.predict(self.matrix), evaluator.predict(transposed))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
def test_quantize_block_runs_once_per_block(each_backend, monkeypatch, n):
    # A benchmark may time stage 1 by wrapping quantize_block in this
    # module's namespace, so predict calls it there once per block.
    module = importlib.import_module("obtree.evaluate")
    quantize_block = module.quantize_block
    ranges = []

    def counting(matrix, span, *rest):
        ranges.append(span)
        return quantize_block(matrix, span, *rest)

    monkeypatch.setattr(module, "quantize_block", counting)
    model = corpus_model(13, trees=5)
    matrix = generate_feature_matrix(n, model.n_features, seed=n)
    for evaluator in each_backend(model):
        ranges.clear()
        evaluator.predict(matrix)
        assert ranges == plan_blocks(n, EvalConfig.block_size), evaluator.backend


def test_parallel_evaluations_share_the_model_read_only():
    # The model and tables are immutable; independent evaluations on
    # distinct batches may run in parallel threads.
    import threading

    model = corpus_model(40, trees=25)
    tables = ModelTables(model)
    matrices = [generate_feature_matrix(97, model.n_features, seed=s) for s in range(6)]
    expected = [Evaluator(tables, EvalConfig()).predict(m) for m in matrices]

    results = [None] * len(matrices)

    def work(i):
        results[i] = Evaluator(tables, EvalConfig()).predict(matrices[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(matrices))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


def compose_one_tree_at_a_time(model, matrix, config):
    """Reference: one-tree evaluations folded in tree order in the family's
    precision, then scale and bias.  With scale 1 and bias 0 a one-tree
    score is the tree's leaf value exactly."""
    dtype = np.float64 if config.strategy.precision is LeafPrecision.BINARY64 else np.float32
    acc = np.zeros(matrix.n_objects, dtype=dtype)
    for tree in model.trees:
        single = ObliviousModel(model.float_features, (tree,), scale=1.0, bias=0.0)
        acc += evaluate(single, matrix, config).astype(dtype)
    return acc.astype(np.float64) * model.scale + model.bias


def assert_bits_equal(a, b, context=None):
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), context


class TestCompositionEquivalence:
    """The fused path, folding all trees at once, must equal the fold of
    one-tree evaluations and the scalar oracle, bit for bit."""

    @pytest.mark.parametrize("strategy", list(LeafStrategy))
    def test_fused_equals_unit_composition(self, strategy):
        model = corpus_model(21, n_features=6, borders=9, trees=14, depth=6)
        matrix = generate_feature_matrix(150, 6, seed=33, nan_fraction=0.02)
        cfg = EvalConfig(strategy)
        fused = evaluate(model, matrix, cfg)
        assert_bits_equal(fused, compose_one_tree_at_a_time(model, matrix, cfg))
        assert_bits_equal(fused, evaluate_scalar(model, matrix, strategy.precision))

    @pytest.mark.parametrize(
        "strategy", [LeafStrategy.NAIVE, LeafStrategy.PERMUTE64, LeafStrategy.PERMUTE16]
    )
    def test_mixed_depth_trees(self, strategy):
        # Trees of different depths in one model exercise the padded
        # condition rows of the fused kernel: a shallow tree's leaf index
        # must stay inside its own table.
        rng_models = [corpus_model(s, trees=3, depth=d) for s, d in ((31, 8), (32, 4), (33, 1))]
        features = rng_models[0].float_features
        trees = tuple(t for m in rng_models for t in m.trees)
        model = ObliviousModel(float_features=features, trees=trees, scale=1.0, bias=0.0)
        matrix = generate_feature_matrix(90, model.n_features, seed=1)
        assert_bits_equal(
            evaluate(model, matrix, EvalConfig(strategy)),
            evaluate_scalar(model, matrix, strategy.precision),
        )


@pytest.mark.parametrize("precision", list(LeafPrecision))
def test_every_batch_size_to_130_matches_oracle(each_backend, precision):
    """Both precisions on every batch size from 1 to 130: whole, partial and
    one-object 64-object groups, over trees of every depth from 1 to 8."""
    parts = [corpus_model(40 + d, trees=2, depth=d) for d in range(1, 9)]
    trees = tuple(t for m in parts for t in m.trees)
    model = ObliviousModel(parts[0].float_features, trees, scale=0.75, bias=-1.5)
    matrix = generate_feature_matrix(130, model.n_features, seed=9, nan_fraction=0.02)
    oracle = evaluate_scalar(model, matrix, precision)
    strategy = LeafStrategy.NAIVE if precision is LeafPrecision.BINARY64 else LeafStrategy.PERMUTE16
    for evaluator in each_backend(model, EvalConfig(strategy)):
        for n in range(1, 131):
            got = evaluator.predict(FeatureMatrix(matrix.values[:n], Layout.OBJECT_MAJOR))
            assert_bits_equal(got, oracle[:n])


class TestBinary16Widening:
    def test_every_finite_pattern_equals_astype(self):
        half = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
        half = half[np.isfinite(half)].reshape(8, -1)
        assert half.size == 63488
        expected = half.astype(np.float32)
        wide = np.full(half.shape, np.nan, dtype=np.float32)
        _widen_binary16(half, wide)
        assert np.array_equal(wide.view(np.uint32), expected.view(np.uint32))

    def test_predict_over_subnormal_zero_and_saturated_leaves(self):
        # Quantiles 0, 1, 2, 3 reach leaves 0, 1, 3 and 7 of both trees, so
        # each object's sum is one small leaf plus a zero, or a saturated
        # leaf plus a small one.
        splits = tuple(SplitCondition(0, k) for k in range(3))
        small = [2.0**-24, -3 * 2.0**-20, 0.0, -1e6, 0.0, 0.0, 0.0, 3 * 2.0**-24]
        large = [-0.0, 0.0, 0.0, 5 * 2.0**-24, 0.0, 0.0, 0.0, 1e6]
        model = ObliviousModel(
            float_features=(FloatFeatureBorders(0, np.array([0.5, 1.5, 2.5], np.float32)),),
            trees=tuple(ObliviousTree(3, splits, np.array(leaves)) for leaves in (small, large)),
            scale=1.0,
            bias=0.0,
        )
        matrix = FeatureMatrix(np.arange(4, dtype=np.float32)[:, None], Layout.OBJECT_MAJOR)
        preds = Evaluator(model, EvalConfig(strategy=LeafStrategy.PERMUTE16)).predict(matrix)
        assert_bits_equal(preds, evaluate_scalar(model, matrix, LeafPrecision.BINARY16))
        assert preds.tolist() == [2.0**-24, -3 * 2.0**-20, -65504.0, 65504.0]
        assert ModelTables(model).bank(LeafPrecision.BINARY16).saturation_count == 2

    def test_stats_count_the_banks_saturated_leaves(self, each_backend):
        # The trees of the test above: -1e6 and 1e6 clamp to -+65504 in the
        # binary16 bank, and no binary64 leaf is clamped.
        splits = tuple(SplitCondition(0, k) for k in range(3))
        small = [2.0**-24, -3 * 2.0**-20, 0.0, -1e6, 0.0, 0.0, 0.0, 3 * 2.0**-24]
        large = [-0.0, 0.0, 0.0, 5 * 2.0**-24, 0.0, 0.0, 0.0, 1e6]
        model = ObliviousModel(
            float_features=(FloatFeatureBorders(0, np.array([0.5, 1.5, 2.5], np.float32)),),
            trees=tuple(ObliviousTree(3, splits, np.array(leaves)) for leaves in (small, large)),
            scale=1.0,
            bias=0.0,
        )
        matrix = FeatureMatrix(np.arange(4, dtype=np.float32)[:, None], Layout.OBJECT_MAJOR)
        for strategy, saturated in ((LeafStrategy.PERMUTE16, 2), (LeafStrategy.NAIVE, 0)):
            for evaluator in each_backend(model, EvalConfig(strategy)):
                stats = EvalStats()
                evaluator.predict(matrix, stats)
                assert stats.saturated_leaves == saturated, (strategy, evaluator.backend)


_VALUE_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, float(np.float32(1e-45)), 1.0]


@st.composite
def evaluation_cases(draw):
    """A valid model of 0-8 trees of mixed depths 1-8, a batch, a configuration."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_features = draw(st.integers(1, 4))
    rows = []
    for _ in range(n_features):
        pool = np.concatenate([rng.normal(0.0, 2.0, 32), [-0.0, math.inf, -math.inf]])
        pool = np.unique(pool.astype(np.float32))  # -0.0 == 0.0: kept once
        rows.append(np.sort(rng.choice(pool, size=draw(st.integers(1, 12)), replace=False)))
    features = tuple(FloatFeatureBorders(i, row) for i, row in enumerate(rows))

    trees = []
    for depth in draw(st.lists(st.integers(1, 8), max_size=8)):
        splits = []
        for _ in range(depth):
            f = int(rng.integers(n_features))
            splits.append(SplitCondition(f, int(rng.integers(rows[f].size))))
        # Ordinary magnitudes, exact binary16 values, +-0.0, subnormals and
        # values past the binary16 range, which the binary16 bank saturates.
        leaves = rng.choice(
            np.concatenate([
                rng.normal(0.0, 1.0, 16),
                np.arange(-8, 8) / 4.0,
                [0.0, -0.0, 5e-324, -2.0**-1074 * 3, 1e5, -7e4, 1e300, -1e300],
            ]),
            size=1 << depth,
        )
        trees.append(ObliviousTree(depth, tuple(splits), leaves))
    scale = draw(st.sampled_from([1.0, -0.5, 3.0]))
    model = ObliviousModel(features, tuple(trees), scale, draw(st.sampled_from([0.0, -1.25])))

    n_objects = draw(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 256, 300]) | st.integers(0, 300))
    raw = np.empty((n_objects, n_features), dtype=np.float32)
    for f, row in enumerate(rows):
        # Values on a border, one ulp to either side, NaN, +-inf and +-0.0.
        pool = np.concatenate([
            row,
            np.nextafter(row, np.float32(np.inf)),
            np.nextafter(row, np.float32(-np.inf)),
            np.array(_VALUE_EDGES, dtype=np.float32),
        ])
        raw[:, f] = rng.choice(pool, size=n_objects)
    layout = draw(st.sampled_from(Layout))
    matrix = FeatureMatrix(raw if layout is Layout.OBJECT_MAJOR else raw.T, layout)
    return model, raw, matrix, EvalConfig(draw(st.sampled_from(LeafStrategy)))


class TestWholeEvaluationMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(evaluation_cases())
    def test_predict_equals_evaluate_scalar(self, each_backend, case):
        model, raw, matrix, config = case
        oracle = evaluate_scalar(
            model, FeatureMatrix(raw, Layout.OBJECT_MAJOR), config.strategy.precision
        )
        for evaluator in each_backend(model, config):
            assert_bits_equal(evaluator.predict(matrix), oracle, (evaluator.backend, config))


# Runs of equal depth as the fold walks them: runs of one tree, depth 8
# straight after shallower trees, and a depth that recurs after others.
_WALK_DEPTHS = [8, 8, 3, 3, 3, 8, 1, 6, 6, 7, 2]


def walk_model(depths=_WALK_DEPTHS, scale=1.0, bias=0.0) -> ObliviousModel:
    rng = np.random.default_rng(len(depths))
    borders = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
    features = tuple(FloatFeatureBorders(i, borders) for i in range(4))
    trees = tuple(
        ObliviousTree(depth, tuple(SplitCondition(int(rng.integers(4)), int(rng.integers(9)))
                                   for _ in range(depth)), rng.normal(0.0, 3.0, 1 << depth))
        for depth in depths
    )
    return ObliviousModel(features, trees, scale, bias)


class TestTreeWalk:
    """The trees as both backends walk them: one condition row per tree
    (``tree_cond``), and for the native fold runs of equal depth (the bound
    struct's ``depth_runs``)."""

    @pytest.mark.parametrize("depths, sentinel", [
        (_WALK_DEPTHS, True), ([3, 1, 3], True), ([2, 2], False), ([], False),
    ])
    def test_tree_cond_rows_hold_each_trees_splits(self, depths, sentinel):
        model = walk_model(depths)
        tables = ModelTables(model)
        assert tables.tree_cond.dtype == np.int32 and tables.tree_cond.flags.c_contiguous
        assert tables.tree_cond.shape == (len(depths), 8)
        never = np.flatnonzero(tables.cond_border == np.inf)
        cond_bits = tables.cond_border.view(np.uint32)
        assert never.size == sentinel
        deepest = max(depths, default=0)
        for t, tree in enumerate(model.trees):
            row = tables.tree_cond[t]
            for k, split in enumerate(tree.splits):
                c = row[k]
                assert tables.cond_feature[c] == split.feature_index, (t, k)
                # Feature and border bits name the condition: borders are distinct.
                borders = model.float_features[split.feature_index].borders.view(np.uint32)
                assert cond_bits[c] == borders[split.border_ordinal], (t, k)
            assert row[tree.depth : deepest].tolist() == never.tolist() * (deepest - tree.depth)
            assert row[deepest:].tolist() == [-1] * (8 - deepest)

    def test_depth_runs_are_the_run_bounds_of_the_depths(self):
        """The runs the kernels bound to a model walk, read back through the
        struct's pointers: trees of one depth, and conditions of one feature
        and of one 16-feature tile."""
        if Evaluator(walk_model()).backend == "numpy":
            pytest.skip("no avx512 backend on this host")

        def bound_runs(depths):
            model = Evaluator(walk_model(depths))._native._model
            return {name: np.ctypeslib.as_array(
                (ctypes.c_int64 * (getattr(model, f"n_{name}") + 1)).from_address(
                    getattr(model, name))).tolist()
                for name in ("depth_runs", "feature_runs", "tile_runs")}

        runs = bound_runs(_WALK_DEPTHS)
        assert runs["depth_runs"] == run_bounds(np.array(_WALK_DEPTHS)).tolist()
        assert runs["depth_runs"] == [0, 2, 5, 6, 7, 9, 10, 11]
        cond_feature = ModelTables(walk_model()).cond_feature
        assert runs["feature_runs"] == run_bounds(cond_feature).tolist()
        assert runs["tile_runs"] == [0, cond_feature.size]
        assert bound_runs([])["depth_runs"] == [0]

    @pytest.mark.parametrize("precision", list(LeafPrecision))
    def test_runs_of_mixed_depths_match_oracle(self, each_backend, precision):
        model = walk_model(scale=-0.75, bias=0.5)
        source = generate_feature_matrix(1000, model.n_features, seed=4, nan_fraction=0.02)
        oracle = evaluate_scalar(model, source, precision)
        strategy = (LeafStrategy.NAIVE if precision is LeafPrecision.BINARY64
                    else LeafStrategy.PERMUTE16)
        for evaluator in each_backend(model, EvalConfig(strategy)):
            for n in (1, 63, 64, 65, 127, 128, 129, 1000):
                prefix = FeatureMatrix(source.values[:n], Layout.OBJECT_MAJOR)
                for matrix in (prefix, prefix.transposed()):
                    assert_bits_equal(evaluator.predict(matrix), oracle[:n],
                                      (evaluator.backend, n, matrix.layout))


class TestInputCounts:
    """``EvalStats.nan_inputs`` and ``inf_inputs``."""

    @staticmethod
    def planted():
        raw = generate_feature_matrix(300, 4, seed=3).values.copy()
        cells = np.random.default_rng(8).choice(raw.size, 16, replace=False)
        flat = raw.reshape(-1)
        flat[cells[:7]] = np.nan
        flat[cells[7:12]] = np.inf
        flat[cells[12:]] = -np.inf
        return raw

    def test_stats_count_planted_nan_and_inf_without_changing_bits(self, each_backend):
        model = walk_model()
        raw = self.planted()
        source = FeatureMatrix(raw, Layout.OBJECT_MAJOR)
        for strategy in (LeafStrategy.NAIVE, LeafStrategy.PERMUTE16):
            oracle = evaluate_scalar(model, source, strategy.precision)
            for evaluator in each_backend(model, EvalConfig(strategy)):
                for matrix in (source, source.transposed()):
                    stats = EvalStats()
                    context = (strategy, evaluator.backend, matrix.layout)
                    assert_bits_equal(evaluator.predict(matrix, stats), oracle, context)
                    assert_bits_equal(evaluator.predict(matrix), oracle, context)
                    assert (stats.nan_inputs, stats.inf_inputs) == (7, 9), context
                # No value that is not finite, and -inf alone: the count of
                # NaN runs only when some value is not finite.
                finite = generate_feature_matrix(300, 4, seed=4).values
                minus_inf = finite.copy()
                cells = np.random.default_rng(9).choice(finite.size, 5, replace=False)
                minus_inf.reshape(-1)[cells] = -np.inf
                for values, counts in ((finite, (0, 0)), (minus_inf, (0, 5))):
                    other = FeatureMatrix(values, Layout.OBJECT_MAJOR)
                    for matrix in (other, other.transposed()):
                        stats = EvalStats()
                        context = (strategy, evaluator.backend, matrix.layout, counts)
                        assert_bits_equal(evaluator.predict(matrix, stats),
                                          evaluator.predict(matrix), context)
                        assert (stats.nan_inputs, stats.inf_inputs) == counts, context

    def test_a_call_without_stats_does_not_count(self, each_backend, monkeypatch):
        model = walk_model()
        matrix = FeatureMatrix(self.planted(), Layout.OBJECT_MAJOR)
        evaluators = each_backend(model)

        def refuse(*args, **kwargs):
            raise AssertionError("counted without stats")

        monkeypatch.setattr(np, "isnan", refuse)
        monkeypatch.setattr(np, "isinf", refuse)
        monkeypatch.setattr(np, "isfinite", refuse)
        for evaluator in evaluators:
            evaluator.predict(matrix)
            with pytest.raises(AssertionError, match="counted without stats"):
                evaluator.predict(matrix, EvalStats())

"""Acceptance suite: one test per criterion, with stated runtime budgets.

Criteria 3, 4 and 5 share a single corpus sweep (100 randomized models,
8 batch sizes, every strategy in both layouts, on every backend the host
runs) computed once per session.  Run verbosely
to see the per-criterion lines:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import argparse
import math
import time
from dataclasses import dataclass, field

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
    TailPolicy,
    apply_tail_policy,
    deserialize_model,
    deviation_metrics,
    classification_flip_count,
    evaluate,
    evaluate_scalar,
    generate_feature_matrix,
    generate_synthetic_model,
    serialize_model,
)
from obtree.bench import build_cases, format_json, run_matrix
from obtree.evaluate import ModelTables
from obtree.model import MAX_DEPTH

from conftest import quantize_value, random_specs

BATCH_SIZES = (1, 7, 31, 32, 33, 100, 128, 257)

CONFIG_MATRIX = [EvalConfig(strategy) for strategy in LeafStrategy]


def bits_differ(a: np.ndarray, b: np.ndarray) -> bool:
    """True unless the score vectors are equal bit for bit (NaN included)."""
    return not np.array_equal(a.view(np.uint64), b.view(np.uint64))


@dataclass
class SweepOutcome:
    elapsed_s: float = 0.0
    n_models: int = 0
    depths: set = field(default_factory=set)
    n_evals: int = 0
    backends: set = field(default_factory=set)
    # (model, batch, layout, backend, strategy) of each evaluation differing in any bit.
    oracle_mismatches: list = field(default_factory=list)
    cross_mismatches: list = field(default_factory=list)
    fp16_checks: list = field(default_factory=list)  # (model idx, max_abs, bound, metrics)


@pytest.fixture(scope="module")
def corpus_sweep(each_backend) -> SweepOutcome:
    outcome = SweepOutcome()
    started = time.perf_counter()

    # 1-50 features, 1-64 borders, 1-200 trees and depth 1-8.
    corpus = random_specs(90125, 100, (50, 64, 200, 8), lows=(1, 1, 1, 1), first_seed=31_000)
    for index, spec in enumerate(corpus):
        model = generate_synthetic_model(spec)
        tables = ModelTables(model)
        evaluators = [(cfg, ev) for cfg in CONFIG_MATRIX for ev in each_backend(tables, cfg)]
        outcome.backends.update(ev.backend for _, ev in evaluators)

        for batch in BATCH_SIZES:
            om = generate_feature_matrix(
                batch, model.n_features, seed=spec.seed * 13 + batch,
                nan_fraction=0.02, inf_fraction=0.01,
            )
            fm = om.transposed()
            oracle = {
                LeafPrecision.BINARY64: evaluate_scalar(model, om),
                LeafPrecision.BINARY16: evaluate_scalar(model, om, LeafPrecision.BINARY16),
            }
            family_ref: dict = {}
            for layout, matrix in ((Layout.OBJECT_MAJOR, om), (Layout.FEATURE_MAJOR, fm)):
                for cfg, evaluator in evaluators:
                    preds = evaluator.predict(matrix)
                    outcome.n_evals += 1
                    family = cfg.strategy.precision
                    where = (index, batch, layout.value, evaluator.backend, cfg.strategy.value)
                    if bits_differ(preds, oracle[family]):
                        outcome.oracle_mismatches.append(where)

                    if family in family_ref:
                        if bits_differ(preds, family_ref[family]):
                            outcome.cross_mismatches.append(where)
                    else:
                        family_ref[family] = preds

        # Half-precision trade-off, measured at the largest corpus batch.
        big = generate_feature_matrix(257, model.n_features, seed=spec.seed * 7 + 1)
        preds64 = evaluate(model, big, EvalConfig(strategy=LeafStrategy.NAIVE))
        preds16 = evaluate(model, big, EvalConfig(strategy=LeafStrategy.PERMUTE16))
        metrics = deviation_metrics(preds64, preds16)
        bank = tables.bank(LeafPrecision.BINARY16)
        bound = abs(model.scale) * model.n_trees * bank.max_abs_leaf * 2.0**-10
        outcome.fp16_checks.append((index, metrics.max_abs, bound, metrics))
        outcome.n_models += 1
        outcome.depths.add(spec.depth)

    outcome.elapsed_s = time.perf_counter() - started
    return outcome


def test_criterion_01_quantization_oracle():
    # 10,000 randomized (value, borders) cases, including NaN, infinities
    # and exact-border hits, against brute-force border counting.  Budget: 1 s.
    rng = np.random.default_rng(40001)
    pools = []
    for count in [254] * 3 + rng.integers(1, 65, 47).tolist():
        distinct = np.unique(rng.uniform(-2.0, 2.0, 2 * count).astype(np.float32))
        pools.append(np.sort(rng.choice(distinct, count, replace=False)).tolist())
    picks, rolls = rng.integers(0, len(pools), 10_000).tolist(), rng.integers(0, 10, 10_000).tolist()
    hits = rng.random(10_000).tolist()
    draws = rng.uniform(-3.0, 3.0, 10_000).astype(np.float32).tolist()
    specials = (math.nan, math.inf, -math.inf)

    started = time.perf_counter()
    for i in range(10_000):
        borders = pools[picks[i]]
        if rolls[i] == 0:
            value = specials[i % 3]
        elif rolls[i] == 1:
            value = borders[int(hits[i] * len(borders))]  # exact border hit
        else:
            value = draws[i]
        assert quantize_value(value, borders) == sum(1 for b in borders if value > b)
    elapsed = time.perf_counter() - started

    assert elapsed < 1.0, f"quantization oracle took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: 10000 quantize_value cases exact in {elapsed:.2f}s")


def test_criterion_02_depth3_index_fixture():
    # Condition values (root, d1, d2) = (1, 0, 1) address leaf 101b = 5.
    features = tuple(
        FloatFeatureBorders(i, np.array([0.5], dtype=np.float32)) for i in range(3)
    )
    tree = ObliviousTree(
        depth=3,
        splits=(SplitCondition(0, 0), SplitCondition(1, 0), SplitCondition(2, 0)),
        leaf_values=np.arange(20.0, 28.0),
    )
    model = ObliviousModel(float_features=features, trees=(tree,), scale=1.0, bias=0.0)
    matrix = FeatureMatrix(np.array([[1.0, 0.0, 1.0]], dtype=np.float32), Layout.OBJECT_MAJOR)

    assert tree.leaf_values[5] == 25.0
    for strategy in LeafStrategy:
        scores = evaluate(model, matrix, EvalConfig(strategy=strategy))
        oracle = evaluate_scalar(model, matrix, strategy.precision)
        assert scores[0] == 25.0, strategy
        assert not bits_differ(scores, oracle), strategy
    print("\nACCEPTANCE 2 PASS: condition bits (1,0,1) select leaf 5 (value 25) under every strategy")


def test_criterion_03_end_to_end_equivalence(corpus_sweep: SweepOutcome):
    expected_evals = 100 * len(BATCH_SIZES) * len(CONFIG_MATRIX) * 2 * len(corpus_sweep.backends)
    assert corpus_sweep.n_models == 100
    assert corpus_sweep.depths == set(range(1, MAX_DEPTH + 1)), sorted(corpus_sweep.depths)
    assert corpus_sweep.n_evals == expected_evals
    assert corpus_sweep.oracle_mismatches == [], corpus_sweep.oracle_mismatches[:5]
    assert corpus_sweep.elapsed_s < 300.0, f"sweep took {corpus_sweep.elapsed_s:.0f}s"
    print(
        f"\nACCEPTANCE 3 PASS: {corpus_sweep.n_evals} evaluations on backends "
        f"{sorted(corpus_sweep.backends)} bit-identical to the scalar oracle of their "
        f"leaf-precision family in {corpus_sweep.elapsed_s:.0f}s"
    )


def test_criterion_04_cross_config_invariance(corpus_sweep: SweepOutcome):
    assert corpus_sweep.cross_mismatches == [], corpus_sweep.cross_mismatches[:5]
    print(
        "\nACCEPTANCE 4 PASS: predictions bit-identical across backends, strategies "
        "and layouts within each leaf-precision family"
    )


def test_criterion_05_fp16_error_bound(corpus_sweep: SweepOutcome):
    worst_frac = 0.0
    for index, max_abs, bound, metrics in corpus_sweep.fp16_checks:
        assert max_abs <= bound, (index, max_abs, bound)
        assert metrics.rms <= metrics.max_abs + 1e-300
        assert metrics.mean_abs <= metrics.max_abs + 1e-300
        if bound > 0:
            worst_frac = max(worst_frac, max_abs / bound)

    fixture = deviation_metrics(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert fixture.max_abs == 4.0
    assert fixture.mean_abs == 3.5
    assert fixture.median_abs == 3.0
    assert abs(fixture.rms - math.sqrt(12.5)) < 1e-15
    print(
        f"\nACCEPTANCE 5 PASS: fp16 deviation within the closed-form bound on all "
        f"{len(corpus_sweep.fp16_checks)} models (worst at {worst_frac:.1%} of bound)"
    )


def test_criterion_06_classification_flip_parity():
    # A two-class model whose score margin dwarfs the fp16 bound: every
    # tree's sign is keyed to the root condition (feature 0 above its
    # median border), with mild magnitude noise on the leaves.
    rng = np.random.default_rng(60606)
    n_trees, depth = 80, 5
    features = tuple(
        FloatFeatureBorders(i, np.array([0.25, 0.5, 0.75], dtype=np.float32)) for i in range(6)
    )
    split_features = rng.integers(1, 6, (n_trees, depth - 1)).tolist()
    split_ordinals = rng.integers(0, 3, (n_trees, depth - 1)).tolist()
    signs = np.where(np.arange(1 << depth) & 1, 1.0, -1.0)
    leaves = signs * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, (n_trees, 1 << depth)))
    trees = []
    for t in range(n_trees):
        splits = [SplitCondition(0, 1)]  # root: feature 0 > 0.5
        splits += map(SplitCondition, split_features[t], split_ordinals[t])
        trees.append(ObliviousTree(depth=depth, splits=tuple(splits), leaf_values=leaves[t]))
    model = ObliviousModel(float_features=features, trees=tuple(trees), scale=1.0, bias=0.0)

    matrix = generate_feature_matrix(500, 6, seed=123, lo=0.0, hi=1.0)
    preds64 = evaluate(model, matrix, EvalConfig(strategy=LeafStrategy.NAIVE))
    preds16 = evaluate(model, matrix, EvalConfig(strategy=LeafStrategy.PERMUTE16))

    from obtree import build_leaf_bank

    bank = build_leaf_bank(model, LeafPrecision.BINARY16)
    bound = abs(model.scale) * n_trees * bank.max_abs_leaf * 2.0**-10
    margin = float(np.min(np.abs(preds64)))
    assert (preds64 > 0).any() and (preds64 < 0).any()  # both classes present
    assert margin >= 10.0 * bound, (margin, bound)
    flips = classification_flip_count(preds64, preds16, 0.0)
    assert flips == 0
    print(
        f"\nACCEPTANCE 6 PASS: 0 class flips on 500 objects "
        f"(margin {margin:.2f} vs fp16 bound {bound:.4f})"
    )


def test_criterion_07_model_round_trip():
    for i, spec in enumerate(random_specs(70707, 1000, (6, 10, 7, 4), first_seed=50_000)):
        model = generate_synthetic_model(spec)
        restored = deserialize_model(serialize_model(model))
        assert restored == model, f"round trip diverged for model {i}"
    print("\nACCEPTANCE 7 PASS: 1000 serialize/deserialize round trips bit-exact")


def test_criterion_08_bench_harness(capsys):
    # The desk preset's full default matrix: every strategy in both layouts,
    # batch 1024, 50 repetitions.
    from obtree.bench import PRESETS

    args = argparse.Namespace(
        layout="both", strategy="all", batch=[1024], reps=50,
    )
    cases = build_cases(args)
    model = generate_synthetic_model(PRESETS["desk"])

    started = time.perf_counter()
    report = run_matrix(model, cases)
    elapsed = time.perf_counter() - started

    assert len(report.rows) == len(cases)
    assert report.all_verified
    baseline_row = next(r for r in report.rows if r.case.case_id == report.baseline_id)
    assert baseline_row.d == 0.0
    assert elapsed < 600.0, f"desk matrix took {elapsed:.0f}s"

    with capsys.disabled():
        print(f"\nACCEPTANCE 8 PASS: desk matrix, {len(cases)} cases verified and timed "
              f"in {elapsed:.0f}s (the times and d below are hardware facts, not assertions)")
        print(format_json(report))


def test_criterion_09_tail_policy_structure():
    for group in (8, 16, 32, 64):
        for live in range(1, 193):
            scalar = apply_tail_policy(TailPolicy.SCALAR_TAIL, group, live)
            assert scalar.vector_groups == live // group
            assert scalar.scalar_remainder == live % group
            assert scalar.vector_groups * group + scalar.scalar_remainder == live
            assert scalar.padded_lanes == 0
    print("\nACCEPTANCE 9 PASS: tail plans exact for live 1..192 x groups {8,16,32,64}")

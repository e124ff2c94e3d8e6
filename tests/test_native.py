"""The stages 1-3 backends: selection, fallback, packaging and the native kernels' reads."""

from __future__ import annotations

import ctypes
import dataclasses
import importlib.resources
import logging
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from obtree import (
    EvalConfig,
    EvalStats,
    FeatureMatrix,
    FloatFeatureBorders,
    Layout,
    LeafPrecision,
    LeafStrategy,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    SyntheticSpec,
    build_leaf_bank,
    evaluate_scalar,
    generate_feature_matrix,
    generate_synthetic_model,
    native,
    plan_blocks,
)
from obtree.evaluate import Evaluator

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(native.__file__).resolve().parent


def two_tree_model(last_depth: int) -> ObliviousModel:
    """A depth-8 tree, then a tree of ``last_depth`` whose table ends the bank."""
    borders = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
    features = tuple(FloatFeatureBorders(i, borders) for i in range(3))
    rng = np.random.default_rng(last_depth)
    trees = []
    for depth in (8, last_depth):
        splits = tuple(
            SplitCondition(int(rng.integers(3)), int(rng.integers(borders.size)))
            for _ in range(depth)
        )
        trees.append(ObliviousTree(depth, splits, rng.normal(0.0, 3.0, 1 << depth)))
    return ObliviousModel(features, tuple(trees), scale=1.0, bias=0.0)


def cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.partition(":")[2].split())
    except OSError:
        pass
    return set()


def test_avx512_backend_where_the_compiler_and_cpu_allow():
    if shutil.which(native.COMPILER) is None or not set(native.CPU_FLAGS) <= cpu_flags():
        pytest.skip("no C compiler or no AVX-512 flags on this host")
    assert Evaluator(two_tree_model(3)).backend == "avx512"


@pytest.mark.parametrize(
    "patch, reason",
    [
        ({"COMPILER": "obtree-no-such-compiler"}, "no C compiler"),
        ({"COMPILER": "false"}, "failed to build"),
        ({"CPU_FLAGS": native.CPU_FLAGS + ("obtree-no-such-flag",)}, "lacks obtree-no-such-flag"),
    ],
    ids=["no-compiler", "failed-build", "missing-isa"],
)
def test_build_or_isa_failure_falls_back_to_numpy(patch, reason, monkeypatch, caplog):
    if patch.get("COMPILER") == "false" and shutil.which("false") is None:
        pytest.skip("no `false` command")
    if "CPU_FLAGS" in patch and shutil.which(native.COMPILER) is None:
        pytest.skip("no C compiler to build the CPU check")
    model = two_tree_model(5)
    matrix = generate_feature_matrix(150, model.n_features, seed=4, nan_fraction=0.05)
    config = EvalConfig(strategy=LeafStrategy.PERMUTE16)
    chosen = Evaluator(model, config)

    for name, value in patch.items():
        monkeypatch.setattr(native, name, value)
    monkeypatch.setattr(native, "kernels", native.load_kernels)  # a fresh build attempt
    with caplog.at_level(logging.WARNING, logger="obtree"):
        fallback = Evaluator(model, config)

    assert fallback.backend == "numpy"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any(reason in message for message in warnings), warnings
    oracle = evaluate_scalar(model, matrix, config.strategy.precision).view(np.uint64)
    assert np.array_equal(fallback.predict(matrix).view(np.uint64), oracle)
    assert np.array_equal(chosen.predict(matrix).view(np.uint64), oracle)


@pytest.mark.parametrize("symbol",
                         ["obtree_binarize", "obtree_fold_binary16", "obtree_fold_binary64"])
def test_library_lacking_a_kernel_falls_back_naming_it(symbol, monkeypatch, caplog, tmp_path):
    """Each kernel ``load_kernels`` sets up, when missing, sends every precision to numpy."""
    if shutil.which(native.COMPILER) is None:
        pytest.skip("no C compiler")
    source = tmp_path / "native.c"
    text = (PACKAGE / "native.c").read_text(encoding="utf-8")
    assert text.count(f"void {symbol}(") == 1
    source.write_text(text.replace(f"void {symbol}(", "void obtree_renamed_kernel("),
                      encoding="utf-8")
    lib = tmp_path / "libobtree.so"
    subprocess.run(
        [native.COMPILER, *native.CFLAGS, "-o", str(lib), str(source)],
        check=True, capture_output=True, timeout=native.BUILD_TIMEOUT_S,
    )
    monkeypatch.setattr(native, "_build", lambda: ctypes.CDLL(str(lib)))
    monkeypatch.setattr(native, "kernels", native.load_kernels)
    with caplog.at_level(logging.WARNING, logger="obtree"):
        assert Evaluator(two_tree_model(4)).backend == "numpy"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any(symbol in message for message in warnings), warnings


@pytest.mark.parametrize("flag, bit", [("avx512vbmi", 8), ("gfni", 16)],
                         ids=["avx512vbmi", "gfni"])
def test_cpu_without_vbmi_or_gfni_falls_back_naming_it(flag, bit, monkeypatch, caplog, tmp_path):
    """A CPU with AVX-512 but without VBMI (Skylake-SP, Cascade Lake), or
    without GFNI, runs numpy."""
    if shutil.which(native.COMPILER) is None:
        pytest.skip("no C compiler")
    source = tmp_path / "native.c"
    checked = f'(__builtin_cpu_supports("{flag}") ? {bit} : 0)'
    text = (PACKAGE / "native.c").read_text(encoding="utf-8")
    assert checked in text
    source.write_text(text.replace(checked, "0"), encoding="utf-8")
    lib = tmp_path / "libobtree.so"
    subprocess.run(
        [native.COMPILER, *native.CFLAGS, "-o", str(lib), str(source)],
        check=True, capture_output=True, timeout=native.BUILD_TIMEOUT_S,
    )
    monkeypatch.setattr(native, "_build", lambda: ctypes.CDLL(str(lib)))
    monkeypatch.setattr(native, "kernels", native.load_kernels)
    model = two_tree_model(7)
    with caplog.at_level(logging.WARNING, logger="obtree"):
        evaluator = Evaluator(model)
    assert evaluator.backend == "numpy"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any(f"lacks {flag}" in message for message in warnings), warnings
    matrix = generate_feature_matrix(70, model.n_features, seed=2)
    assert np.array_equal(evaluator.predict(matrix).view(np.uint64),
                          evaluate_scalar(model, matrix).view(np.uint64))


# (scale, bias): a negative scale, scale 0, bias -0.0, a bias that swamps
# the sum and a subnormal scale.
_EDGE_SCALES = [(1.0, 0.0), (-1.75, 0.25), (0.0, 3.5), (0.6, -0.0), (1.3, 1e300), (3e-310, 0.0)]


def mixed_depth_trees() -> tuple:
    """Three features and nine trees, of every depth the fold handles."""
    borders = np.linspace(-1.0, 1.0, 9, dtype=np.float32)
    features = tuple(FloatFeatureBorders(i, borders) for i in range(3))
    rng = np.random.default_rng(5)
    trees = tuple(
        ObliviousTree(depth, tuple(SplitCondition(int(rng.integers(3)), int(rng.integers(9)))
                                   for _ in range(depth)), rng.normal(0.0, 3.0, 1 << depth))
        for depth in (8, 1, 6, 7, 3, 8, 5, 2, 4)
    )
    return features, trees


def call_into(bound: native.BoundKernels, matrix: FeatureMatrix, out: np.ndarray) -> native.Call:
    """A call of ``bound`` over ``matrix`` whose kernels write the scores
    into ``out``, a float64 window of a larger buffer, in place of the array
    the call allocated: so that a test sees every byte around the scores."""
    call = bound.call(matrix)
    assert out.dtype == np.float64 and out.flags.c_contiguous and out.size == call.out.size
    call.out, call._out_at = out, out.ctypes.data
    return call


@pytest.mark.parametrize("precision", [LeafPrecision.BINARY64, LeafPrecision.BINARY16],
                         ids=["binary64", "binary16"])
def test_fold_writes_the_scores_of_its_range_only(precision):
    """``fold(begin, end)`` writes ``float64(sum) * scale + bias`` into
    ``out[begin:end]``, as the numpy finalize computes it, and leaves every
    other byte of ``out`` as it was: the lanes past the live objects of a
    partial group are computed but never stored."""
    features, trees = mixed_depth_trees()
    rng = np.random.default_rng(5)
    strategy, dtype = ((LeafStrategy.NAIVE, np.float64) if precision is LeafPrecision.BINARY64
                       else (LeafStrategy.PERMUTE16, np.float32))
    matrix = generate_feature_matrix(200, 3, seed=6, nan_fraction=0.05)
    # Tree t's leaf for every object, exactly: the oracle of the tree alone.
    leaves = [
        evaluate_scalar(ObliviousModel(features, (tree,), 1.0, 0.0), matrix, precision).astype(dtype)
        for tree in trees
    ]
    for scale, bias in _EDGE_SCALES:
        evaluator = Evaluator(ObliviousModel(features, trees, scale, bias), EvalConfig(strategy))
        if evaluator.backend == "numpy":
            pytest.skip("no avx512 backend on this host")
        for begin, end in ((0, 1), (0, 63), (0, 64), (5, 70), (64, 192), (199, 200)):
            sentinel = rng.integers(0, 256, 200 * 8, dtype=np.uint8).view(np.float64)
            out = sentinel.copy()
            call = call_into(evaluator._native, matrix, out)
            call.binarize(begin, end)
            call.fold(begin, end)
            sums = np.zeros(end - begin, dtype=dtype)
            for leaf in leaves:
                sums += leaf[begin:end]
            expected = sentinel.copy()
            finished = sums.astype(np.float64)
            finished *= scale
            finished += bias
            expected[begin:end] = finished
            assert np.array_equal(out.view(np.uint8), expected.view(np.uint8)), \
                (scale, bias, begin, end)


def wide_mixed_depth_trees() -> tuple:
    """260 features of 8 borders and trees of every depth the fold handles,
    whose splits use every (feature, border) pair once: 2,080 conditions and
    the sentinel, past the 2,048 whose 16-group masks fit the budget."""
    borders = np.linspace(-1.0, 1.0, 8, dtype=np.float32)
    features = tuple(FloatFeatureBorders(i, borders) for i in range(260))
    rng = np.random.default_rng(6)
    pairs = rng.permutation(260 * 8)
    cycle = (8, 1, 6, 7, 3, 8, 5, 2, 4)
    trees, first = [], 0
    while first < pairs.size:
        depth = min(cycle[len(trees) % len(cycle)], pairs.size - first)
        splits = tuple(SplitCondition(int(k) // 8, int(k) % 8) for k in pairs[first:first + depth])
        trees.append(ObliviousTree(depth, splits, rng.normal(0.0, 3.0, 1 << depth)))
        first += depth
    return features, tuple(trees)


def run_passes(bound: native.BoundKernels, binarize, fold, n: int, block: int) -> None:
    """As ``predict`` runs them: binarize each block of ``block`` objects and
    fold each pass of ``bound.groups`` groups once it fills or the batch ends."""
    span = 64 * bound.groups
    for begin, end in plan_blocks(n, block):
        binarize(begin, end)
        if end == n or end % span == 0:
            fold(begin - begin % span, end)


# Batch sizes around the 64-object group, the 128-object block and the
# 1024-object pass of 16 groups.
_BATCH_SIZES = [0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000,
                1023, 1024, 1025, 2047, 2048, 2049]


@pytest.mark.parametrize("precision", [LeafPrecision.BINARY64, LeafPrecision.BINARY16],
                         ids=["binary64", "binary16"])
def test_blocks_write_the_scores_of_the_batch_only(precision):
    """Block by block and pass by pass, as ``predict`` runs them, the kernels
    write the oracle's scores into ``out[0:n]``, bit for bit, in both
    layouts, and no byte around ``out``: on mixed-depth trees whose masks the
    rule folds 16 groups at a time, and on wider ones it folds a block's
    groups at a time, for blocks of 2 and of 4 groups."""
    strategy = LeafStrategy.NAIVE if precision is LeafPrecision.BINARY64 else LeafStrategy.PERMUTE16
    rng = np.random.default_rng(5)
    for features, trees in (mixed_depth_trees(), wide_mixed_depth_trees()):
        source = generate_feature_matrix(max(_BATCH_SIZES), len(features), seed=6,
                                         nan_fraction=0.05)
        narrow = len(features) == 3
        for scale, bias in _EDGE_SCALES:
            model = ObliviousModel(features, trees, scale, bias)
            evaluator = Evaluator(model, EvalConfig(strategy))
            if evaluator.backend == "numpy":
                pytest.skip("no avx512 backend on this host")
            oracle = evaluate_scalar(model, source, precision).view(np.uint64)
            for groups in (2, 4):
                bound = native.BoundKernels(native.kernels(), evaluator.tables, evaluator.bank,
                                            groups)
                assert bound.groups == (native.PASS_GROUPS if narrow else groups)
                for n in _BATCH_SIZES:
                    prefix = FeatureMatrix(source.values[:n], Layout.OBJECT_MAJOR)
                    for matrix in (prefix, prefix.transposed()):
                        sentinel = rng.integers(0, 256, (n + 16) * 8, dtype=np.uint8).view(np.float64)
                        buffer = sentinel.copy()
                        out = buffer[8:8 + n]
                        call = call_into(bound, matrix, out)
                        assert call.masks.shape == (bound.groups,
                                                    evaluator.tables.cond_border.size)
                        run_passes(bound, call.binarize, call.fold, n, 64 * groups)
                        context = (scale, bias, groups, n, matrix.layout)
                        assert np.array_equal(out.view(np.uint64), oracle[:n]), context
                        expected = sentinel.copy()
                        expected[8:8 + n] = out
                        assert np.array_equal(buffer.view(np.uint8), expected.view(np.uint8)), \
                            context
                        if groups == 2:
                            scores = evaluator.predict(matrix).view(np.uint64)
                            assert np.array_equal(scores, oracle[:n]), context


def trees_of_depths(depths) -> ObliviousModel:
    """A model of one tree per entry of ``depths``, over 12 features of 9
    borders each, so that a tree's conditions lie far apart in a group's masks."""
    borders = np.linspace(-0.2, 1.2, 9, dtype=np.float32)  # inside the batches' values
    features = tuple(FloatFeatureBorders(i, borders) for i in range(12))
    rng = np.random.default_rng(len(depths))
    trees = tuple(
        ObliviousTree(depth, tuple(SplitCondition(int(rng.integers(12)), int(rng.integers(9)))
                                   for _ in range(depth)), rng.normal(0.0, 3.0, 1 << depth))
        for depth in depths
    )
    return ObliviousModel(features, trees, scale=0.75, bias=-0.5)


# The fold builds a tree's leaf indices while the tree before it in its run
# of equal depth selects: each run's first tree is built ahead of the run,
# its last builds none.  Runs of 5 trees of every depth, runs of length 1,
# runs of 2-3, and a model of one tree.
_RUNS = {
    **{f"depth{d}": (d,) * 5 for d in range(1, 9)},
    "runs-of-1": (3, 8, 1, 7, 2, 6, 4, 5, 8, 1, 8),
    "runs-of-2-3": (5, 5, 8, 8, 8, 2, 2, 7, 7, 7, 1, 1, 6, 6, 6, 8, 8),
    "one-tree": (8,),
}


@pytest.mark.parametrize("depths", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize("strategy", [LeafStrategy.NAIVE, LeafStrategy.PERMUTE16],
                         ids=["binary64", "binary16"])
def test_fold_runs_of_every_length_match_the_oracle(depths, strategy):
    """Each tree's leaf indices, built a tree ahead within its run, give the
    oracle's bits on batches around the 64-object group and the block, and
    on last groups around the binary64 gather counts, alone in their pass
    and after a whole group."""
    model = trees_of_depths(depths)
    evaluator = Evaluator(model, EvalConfig(strategy))
    if evaluator.backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    for n in (1, 2, 3, 4, 5, 16, 17, 24, 25, 63, 64, 65, 67, 69, 80, 81, 88, 89, 128, 129):
        matrix = generate_feature_matrix(n, 12, seed=n, nan_fraction=0.05)
        oracle = evaluate_scalar(model, matrix, strategy.precision).view(np.uint64)
        assert np.array_equal(evaluator.predict(matrix).view(np.uint64), oracle), n


def gather_limits(precision: LeafPrecision) -> tuple[int, ...]:
    """The fold's gather rule: by tree depth (0-8), the most live objects
    of a group whose leaves it gathers from the bank's values, not selects
    from the byte planes.  Binary16 never gathers."""
    return native.GATHER_LIMITS if precision is LeafPrecision.BINARY64 else (0,) * 9


def test_a_model_gathers_up_to_the_least_count_of_its_depths():
    assert len(native.GATHER_LIMITS) == 9 and native.GATHER_LIMITS[0] == 0
    assert all(1 <= limit < 64 for limit in native.GATHER_LIMITS[1:])
    if native.kernels() is None:
        pytest.skip("no native kernels on this host")
    for depths, limit in (((6,), 16), ((8,), 2), ((3, 5, 3), 16), ((1, 8, 5), 2), ((), 0)):
        for strategy in (LeafStrategy.NAIVE, LeafStrategy.PERMUTE16):
            bound = Evaluator(trees_of_depths(depths), EvalConfig(strategy))._native
            expected = limit if strategy is LeafStrategy.NAIVE else 0
            assert bound._model.gather_limit == expected, (depths, strategy)


@pytest.mark.parametrize("depth", range(1, 9))
@pytest.mark.parametrize("strategy", [LeafStrategy.NAIVE, LeafStrategy.PERMUTE16],
                         ids=["binary64", "binary16"])
def test_every_live_count_matches_the_oracle(depth, strategy):
    """Every live count of the last group, 1 to 64, alone in its pass (1-64
    objects) and after a whole group (65-128), and batches of 1025 and 1089
    objects, whose last pass ends in a group of one object, at each depth:
    the oracle's bits in both layouts, with NaN and +/-inf inputs."""
    model = trees_of_depths((depth,) * 6)
    evaluator = Evaluator(model, EvalConfig(strategy))
    if evaluator.backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    source = with_inf(generate_feature_matrix(1089, 12, seed=depth, nan_fraction=0.05), depth)
    oracle = evaluate_scalar(model, source, strategy.precision).view(np.uint64)
    for n in [*range(1, 129), 1025, 1089]:
        prefix = FeatureMatrix(source.values[:n], Layout.OBJECT_MAJOR)
        for matrix in (prefix, prefix.transposed()):
            scores = evaluator.predict(matrix).view(np.uint64)
            assert np.array_equal(scores, oracle[:n]), (n, matrix.layout)


def poisoned_kernels(evaluator: Evaluator, poison: str) -> native.BoundKernels:
    """The kernels bound to a copy of ``evaluator``'s bank whose ``values``,
    or whose byte planes, are then overwritten with NaN: a group that loads
    its leaves from them scores NaN."""
    bank = dataclasses.replace(evaluator.bank, values=evaluator.bank.values.copy())
    bound = native.BoundKernels(native.kernels(), evaluator.tables, bank, 2)
    if poison == "values":
        bank.values[:] = np.nan
    else:
        (planes,) = [held for held in bound._held if isinstance(held, np.ndarray)
                     and held.ctypes.data == bound._model.planes]
        planes[:] = 0xFF  # every leaf's bytes: NaN in either precision
    return bound


@pytest.mark.parametrize("strategy", [LeafStrategy.NAIVE, LeafStrategy.PERMUTE16],
                         ids=["binary64", "binary16"])
def test_last_group_gathers_at_most_the_rules_count(strategy):
    """At each depth, a pass's last group gathers its leaves from the bank's
    values where it holds at most the rule's count of objects, and selects
    them from the byte planes where it holds one more, alone in its pass or
    after whole groups; every other group selects.  Which load each group
    got shows by poisoning one source: its objects score NaN, and the
    others keep the oracle's bits."""
    precision = strategy.precision
    limits = gather_limits(precision)
    for depth in range(1, 9):
        model = trees_of_depths((depth,) * 6)
        evaluator = Evaluator(model, EvalConfig(strategy))
        if evaluator.backend == "numpy":
            pytest.skip("no avx512 backend on this host")
        source = generate_feature_matrix(1089, 12, seed=depth)
        oracle = evaluate_scalar(model, source, precision).view(np.uint64)
        limit = limits[depth]
        sizes = {limit, limit + 1, 64 + limit, 64 + limit + 1, 1025, 1089} - {0, 64}
        poisoned = {poison: poisoned_kernels(evaluator, poison) for poison in ("values", "planes")}
        assert poisoned["values"].groups == native.PASS_GROUPS
        for n in sorted(sizes):
            last = (n - 1) // 64 * 64  # the first object of the last group
            gathered = np.zeros(n, dtype=bool)
            gathered[last:] = n - last <= limit
            matrix = FeatureMatrix(source.values[:n], Layout.OBJECT_MAJOR)
            for poison, bound in poisoned.items():
                evaluator._native = bound
                scores = evaluator.predict(matrix)
                loaded = gathered if poison == "values" else ~gathered
                context = (depth, n, poison)
                assert np.isnan(scores[loaded]).all(), context
                assert np.array_equal(scores[~loaded].view(np.uint64), oracle[:n][~loaded]), context


# Besides its arrays, a predict's traced peak holds a few KB of Python
# objects, which scratch_bytes does not count.
_PYTHON_OBJECTS = 8192


def traced_peak(evaluator: Evaluator, matrix: FeatureMatrix, stats: EvalStats | None = None) -> int:
    """The tracemalloc peak of ``evaluator.predict(matrix, stats)``, less its scores."""
    tracemalloc.start()
    try:
        scores = evaluator.predict(matrix, stats)
        return tracemalloc.get_traced_memory()[1] - scores.nbytes
    finally:
        tracemalloc.stop()


# The Python objects of a predict call without stats, besides its scores'
# data: the scores' array, the ctypes views that give the matrix's and the
# scores' addresses, and the bound methods it calls.  A call read 900 bytes
# in either layout with CPython 3.11 and numpy 2.4; with the closures and
# tuples it made before, 1,928.
_CALL_OBJECTS = 1024


@pytest.mark.parametrize("strategy", [LeafStrategy.NAIVE, LeafStrategy.PERMUTE16],
                         ids=["binary64", "binary16"])
def test_a_small_predict_allocates_only_its_scores(strategy):
    """A one-object and a 64-object call on avx512 peak at the scores'
    bytes and a few objects of its own, in both layouts: the mask buffer is
    held from bind time, and a call makes no other array."""
    model = generate_synthetic_model(SyntheticSpec(50, 16, 100, 6, seed=3))
    evaluator = Evaluator(model, EvalConfig(strategy))
    if evaluator.backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    for n in (1, 64):
        source = generate_feature_matrix(n, 50, seed=n)
        for matrix in (source, source.transposed()):
            evaluator.predict(matrix)
            peak = traced_peak(evaluator, matrix)
            assert peak <= _CALL_OBJECTS, (n, matrix.layout, peak)


def with_inf(matrix: FeatureMatrix, seed: int) -> FeatureMatrix:
    """``matrix`` with about 2% of its values set to +inf or -inf."""
    values = matrix.values.copy()
    rng = np.random.default_rng(seed)
    cells = rng.choice(values.size, values.size // 50, replace=False)
    values.reshape(-1)[cells] = np.where(rng.random(cells.size) < 0.5, np.inf, -np.inf)
    return FeatureMatrix(values, matrix.layout)


@pytest.mark.parametrize("n", _BATCH_SIZES)
def test_stats_report_the_call_without_changing_its_bits(each_backend, n):
    """``predict(matrix, stats)`` gives the bits of ``predict(matrix)`` and
    reports one block per ``plan_blocks`` block, the groups of a fold pass,
    stage times within the call's, and the scratch: on ``avx512`` of the
    pass's first ``ceil(n / 64)`` groups, their masks and their fold sums,
    which the held mask buffer keeps out of the traced peak; on numpy at least the traced
    peak of a call, less its Python objects, and at most twice that peak;
    on both, plus the largest block's boolean temporary of the input counts.
    On both, with NaN and inf in the input, the traced peak of a call with
    stats is at most the scratch plus the call's Python objects."""
    model = two_tree_model(6)
    matrix = with_inf(generate_feature_matrix(n, 3, seed=n, nan_fraction=0.05), seed=n)
    counts = min(n, EvalConfig.block_size) * 3
    for strategy in (LeafStrategy.NAIVE, LeafStrategy.PERMUTE16):
        oracle = evaluate_scalar(model, matrix, strategy.precision).view(np.uint64)
        for evaluator in each_backend(model, EvalConfig(strategy)):
            stats = EvalStats()
            started = time.perf_counter()
            scores = evaluator.predict(matrix, stats)
            elapsed = time.perf_counter() - started
            assert np.array_equal(scores.view(np.uint64), oracle)
            assert np.array_equal(evaluator.predict(matrix).view(np.uint64), oracle)
            assert (stats.backend, stats.objects) == (evaluator.backend, n)
            assert stats.blocks == len(plan_blocks(n, EvalConfig.block_size))
            assert stats.fold_groups == (EvalConfig.block_size // 64 if evaluator._native is None
                                         else evaluator._native.groups)
            assert 0.0 <= stats.stage1_s and 0.0 <= stats.fold_s
            assert stats.stage1_s + stats.fold_s <= elapsed
            assert (stats.nan_inputs, stats.inf_inputs) == (
                np.isnan(matrix.values).sum(), np.isinf(matrix.values).sum())
            assert traced_peak(evaluator, matrix, EvalStats()) <= (
                stats.scratch_bytes + _PYTHON_OBJECTS)
            if evaluator.backend == "numpy":
                peak = traced_peak(evaluator, matrix)
                assert peak - _PYTHON_OBJECTS <= stats.scratch_bytes - counts <= 2 * peak
                continue
            sums = 64 * (8 if strategy.precision is LeafPrecision.BINARY64 else 4)
            assert stats.fold_groups == native.PASS_GROUPS
            groups = min(native.PASS_GROUPS, -(-n // 64))
            assert stats.scratch_bytes - counts == groups * (
                8 * evaluator.tables.cond_border.size + sums)


def test_input_counts_take_one_block_of_scratch(each_backend):
    """On a 1024 x 500 batch with NaN and inf, the counts of a call with
    stats hold one block's boolean temporary at a time, 64 KB, not the
    whole matrix's 512 KB: the call's traced peak stays within its scratch
    plus its Python objects."""
    model = generate_synthetic_model(SyntheticSpec(500, 8, 40, 6, seed=5))
    source = with_inf(generate_feature_matrix(1024, 500, seed=7, nan_fraction=0.01), seed=7)
    for matrix in (source, source.transposed()):
        for evaluator in each_backend(model, EvalConfig(LeafStrategy.PERMUTE16)):
            stats = EvalStats()
            evaluator.predict(matrix, stats)
            assert stats.nan_inputs > 0 and stats.inf_inputs > 0
            peak = traced_peak(evaluator, matrix, EvalStats())
            assert peak <= stats.scratch_bytes + _PYTHON_OBJECTS, (evaluator.backend, peak)


@pytest.mark.parametrize("strategy", [LeafStrategy.NAIVE, LeafStrategy.PERMUTE16])
def test_numpy_scratch_bytes_bound_the_traced_peak(numpy_backend, strategy):
    """On a model whose arrays outweigh the call's Python objects, the numpy
    scratch is within a factor of 2 of the traced peak: its arrays are
    summed, though not all are live at once."""
    model = generate_synthetic_model(SyntheticSpec(64, 16, 300, 6, seed=5))
    evaluator = Evaluator(model, EvalConfig(strategy))
    for n in (1, 100, 300):
        matrix = generate_feature_matrix(n, model.n_features, seed=n)
        stats = EvalStats()
        evaluator.predict(matrix, stats)
        peak = traced_peak(evaluator, matrix)
        assert peak - _PYTHON_OBJECTS <= stats.scratch_bytes <= 2 * peak, n
    assert peak > 50 * _PYTHON_OBJECTS


def test_numpy_evaluator_never_calls_the_native_quantizer(each_backend, monkeypatch):
    """Stage 1 of the numpy backend never reaches the native binarizer."""
    model = two_tree_model(6)
    matrix = generate_feature_matrix(300, model.n_features, seed=8, nan_fraction=0.05)
    evaluators = each_backend(model)

    def refuse(self, *args):
        raise AssertionError("native binarizer called")

    monkeypatch.setattr(native.BoundKernels, "call", refuse)
    forced = evaluators[-1]
    assert forced.backend == "numpy"
    oracle = evaluate_scalar(model, matrix).view(np.uint64)
    assert np.array_equal(forced.predict(matrix).view(np.uint64), oracle)
    if len(evaluators) > 1:
        with pytest.raises(AssertionError, match="native binarizer called"):
            evaluators[0].predict(matrix)


def test_bound_closures_refuse_other_arrays_and_ranges():
    """Both kernels of a call (``Call.binarize`` and ``Call.fold``) write
    only the objects its masks and the batch hold: a range starts at its
    first object's row of a 16-group pass and may not run past the pass's
    last row."""
    lib = native.kernels()
    if lib is None:
        pytest.skip("no native kernels on this host")
    model = two_tree_model(6)
    evaluator = Evaluator(model)
    matrix = generate_feature_matrix(1100, model.n_features, seed=2)
    bound = native.BoundKernels(lib, evaluator.tables, evaluator.bank, 2)
    assert bound.groups == native.PASS_GROUPS
    call = bound.call(matrix)
    for kernel in (call.binarize, call.fold):
        for begin, end in ((0, 1025), (960, 1089), (1000, 1100), (1024, 1101)):
            with pytest.raises(ValueError, match="outside the masks or the batch"):
                kernel(begin, end)
    call.binarize(1024, 1100)
    call.fold(1024, 1100)


def c_declarators(declaration: str) -> list[tuple[str, str]]:
    """(name, kind) of each name a C declaration declares: kind ``pointer``, or its type."""
    base, names = declaration.replace("const", "").split(None, 1)
    return [(name.strip(" *\n"), "pointer" if "*" in name else base) for name in names.split(",")]


_CTYPES_KINDS = {ctypes.c_void_p: "pointer", ctypes.c_int64: "int64_t",
                 ctypes.c_double: "double"}


def test_ctypes_mirrors_match_the_c_source():
    """``native._Model`` lists the fields of ``obtree_model`` in order, with
    their names and kinds, and ``native.KERNEL_ARGS`` the parameters of each
    kernel ``native.c`` exports: a mismatch reads the wrong fields or
    arguments without an error."""
    source = (PACKAGE / "native.c").read_text(encoding="utf-8")
    body = re.search(r"typedef struct \{(.*?)\} obtree_model;", source, re.S).group(1)
    fields = [field for declaration in filter(str.strip, body.split(";"))
              for field in c_declarators(declaration)]
    assert fields == [(name, _CTYPES_KINDS[kind]) for name, kind in native._Model._fields_]

    exported = {}
    for returns, name, params in re.findall(
            r"^(?:KERNEL )?(\w+) (obtree_\w+)\(([^)]*)\)", source, re.M):
        kinds = [c_declarators(p)[0][1] for p in params.split(",") if p.strip() != "void"]
        exported[name] = (returns, kinds)
    assert exported.pop("obtree_cpu_flags") == ("int", [])
    assert exported == {
        name: ("void", [_CTYPES_KINDS[arg] for arg in args])
        for name, args in native.KERNEL_ARGS.items()
    }


def test_c_source_builds_without_warnings(tmp_path):
    if shutil.which("gcc") is None:
        pytest.skip("no gcc")
    result = subprocess.run(
        ["gcc", *native.CFLAGS, "-Wall", "-Wextra", "-Wvla", "-Wstack-usage=16384", "-Werror", "-o", str(tmp_path / "lib.so"),
         str(PACKAGE / "native.c")],
        capture_output=True, text=True, timeout=native.BUILD_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr


def test_build_leaves_no_file(monkeypatch, tmp_path):
    if shutil.which(native.COMPILER) is None:
        pytest.skip("no C compiler")
    package_files = sorted(p.name for p in PACKAGE.iterdir() if p.name != "__pycache__")
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    native.load_kernels()
    assert list(tmp_path.iterdir()) == []
    assert sorted(p.name for p in PACKAGE.iterdir() if p.name != "__pycache__") == package_files


def test_c_source_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    assert importlib.resources.files("obtree").joinpath("native.c").is_file()
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "native.c" in pyproject["tool"]["setuptools"]["package-data"]["obtree"]
    assert pyproject["project"]["dependencies"] == ["numpy>=1.23"]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 1000])
def test_mask_buffer_holds_only_the_groups_a_block_fills(n):
    """A call gets the held buffer of one pass; its blocks write only the
    rows of the groups they fill, and ``predict`` gives the buffer back."""
    evaluator = Evaluator(two_tree_model(2))
    if evaluator.backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    bound = evaluator._native
    matrix = generate_feature_matrix(n, 3, seed=n)
    (held,) = bound._spare
    masks = held.masks
    call = bound.call(matrix)
    assert call is held and bound._spare == []
    assert masks.shape == (native.PASS_GROUPS, evaluator.tables.cond_border.size)
    # While this call holds it, another call gets a buffer of its own.
    other = bound.call(matrix)
    assert other is not held and other.masks is not masks and other.masks.shape == masks.shape
    masks[:] = np.uint64(0xA5A5A5A5A5A5A5A5)
    for begin, end in plan_blocks(n, EvalConfig.block_size):
        call.binarize(begin, end)
    filled = -(-n // 64)
    assert (masks[filled:] == np.uint64(0xA5A5A5A5A5A5A5A5)).all()
    assert not (masks[:filled] == np.uint64(0xA5A5A5A5A5A5A5A5)).all(axis=1).any()
    bound.release(call)
    assert call.out is None and call._values is None
    evaluator.predict(matrix)
    assert bound._spare == [held] and bound._spare[0].masks is masks


def test_block_fold_rejects_objects_outside_its_block():
    """Where the rule folds one block's 2 groups at a time, a range may not
    run past them."""
    features, trees = wide_mixed_depth_trees()
    evaluator = Evaluator(ObliviousModel(features, trees, 1.0, 0.0))
    if evaluator.backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    matrix = generate_feature_matrix(300, 260, seed=1)
    call = evaluator._native.call(matrix)
    assert call.masks.shape == (2, evaluator.tables.cond_border.size)
    for begin, end in ((0, 129), (256, 301)):
        with pytest.raises(ValueError, match="outside"):
            call.fold(begin, end)
        with pytest.raises(ValueError, match="outside"):
            call.binarize(begin, end)
    # A call binds only a C-contiguous binary32 matrix of its objects and
    # of the model's features.
    strided = FeatureMatrix(np.zeros((300, 520), dtype=np.float32), Layout.OBJECT_MAJOR)
    strided.values, strided.n_features = strided.values[:, ::2], 260
    with pytest.raises(ValueError, match="C-contiguous"):
        evaluator._native.call(strided)
    short = generate_feature_matrix(300, 260, seed=1)
    short.n_objects = 301
    with pytest.raises(ValueError, match="for 260 features"):
        evaluator._native.call(short)
    with pytest.raises(ValueError, match="for 260 features"):
        evaluator._native.call(generate_feature_matrix(300, 261, seed=1))


def depth1_model(n_cond: int) -> ObliviousModel:
    """``n_cond`` depth-1 trees over features of 8 borders, one tree per
    distinct condition: a model of exactly ``n_cond`` conditions."""
    borders = np.linspace(-1.0, 1.0, 8, dtype=np.float32)
    features = tuple(FloatFeatureBorders(i, borders) for i in range(-(-n_cond // 8)))
    trees = tuple(ObliviousTree(1, (SplitCondition(k // 8, k % 8),), np.array([0.5, -0.25]))
                  for k in range(n_cond))
    return ObliviousModel(features, trees, 1.0, 0.0)


def test_pass_takes_16_groups_while_their_masks_fit_the_budget():
    """The rule: 16 groups where 16 x 8 bytes x conditions fit 256 KB, that
    is up to 2,048 conditions, else the block's groups; and ``predict``
    reports the pass it ran."""
    lib = native.kernels()
    if lib is None:
        pytest.skip("no native kernels on this host")
    assert native.PASS_GROUPS * 8 * 2048 == native.MASK_BUDGET
    for n_cond, groups in ((1, 16), (2048, 16), (2049, 2)):
        tables = Evaluator(depth1_model(n_cond), EvalConfig(LeafStrategy.PERMUTE16)).tables
        assert tables.cond_border.size == n_cond
        bound = native.BoundKernels(lib, tables, tables.bank(LeafPrecision.BINARY16), 2)
        assert bound.groups == groups, n_cond
        assert [call.masks.shape for call in bound._spare] == [(groups, n_cond)]
        stats = EvalStats()
        Evaluator(tables, EvalConfig(LeafStrategy.PERMUTE16)).predict(
            generate_feature_matrix(10, tables.model.n_features, seed=1), stats)
        assert stats.fold_groups == groups, n_cond


def test_concurrent_predicts_on_one_evaluator_match_the_oracle():
    """Two threads call ``predict`` on one ``Evaluator`` at once, many
    times: ctypes releases the GIL in the kernels, so the calls overlap, and
    a call that finds the held mask buffer taken must use its own."""
    model = generate_synthetic_model(SyntheticSpec(16, 16, 300, 8, seed=4))
    matrices = [generate_feature_matrix(1500, 16, seed=k, nan_fraction=0.01) for k in (1, 2)]
    for strategy in (LeafStrategy.PERMUTE16, LeafStrategy.NAIVE):
        evaluator = Evaluator(model, EvalConfig(strategy))
        if evaluator.backend == "numpy":
            pytest.skip("no avx512 backend on this host")
        assert evaluator._native.groups == native.PASS_GROUPS
        oracles = [evaluate_scalar(model, m, strategy.precision).view(np.uint64) for m in matrices]
        start, wrong = threading.Barrier(2), []

        def predict_many(k: int) -> None:
            start.wait()
            for _ in range(100):
                if not np.array_equal(evaluator.predict(matrices[k]).view(np.uint64), oracles[k]):
                    wrong.append(k)

        threads = [threading.Thread(target=predict_many, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert wrong == [], strategy
        assert 1 <= len(evaluator._native._spare) <= 2


def test_binding_rejects_a_bank_of_other_trees():
    """A bank of fewer trees, or of as many trees of other depths, or whose
    values the fold kernels cannot read."""
    evaluator = Evaluator(two_tree_model(2))
    if evaluator.backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    fewer = Evaluator(ObliviousModel(evaluator.model.float_features,
                                     evaluator.model.trees[:1], 1.0, 0.0))
    deeper = Evaluator(two_tree_model(3))
    for other in (fewer, deeper):
        for tables, bank in ((evaluator.tables, other.bank), (other.tables, evaluator.bank)):
            with pytest.raises(ValueError, match="a bank of"):
                native.BoundKernels(native.kernels(), tables, bank, 2)
    # Values in another precision's dtype, or not contiguous.
    bank = evaluator.bank
    for values in (bank.values.astype(np.float16), np.repeat(bank.values, 2)[::2]):
        with pytest.raises(ValueError, match="is not a C-contiguous float64 array"):
            native.BoundKernels(native.kernels(), evaluator.tables,
                                dataclasses.replace(bank, values=values), 2)


@pytest.mark.parametrize("precision", list(LeafPrecision))
def test_byte_planes_transpose_each_table(precision):
    # Runs of every depth from 1 to 8, runs of one tree, and a depth that
    # recurs after other depths.
    depths = [1, 1, 2, 3, 3, 3, 4, 5, 6, 6, 7, 8, 8, 5, 8, 7, 1]
    rng = np.random.default_rng(7)
    trees = [ObliviousTree(d, (SplitCondition(0, 0),) * d, rng.normal(0.0, 4.0, 1 << d))
             for d in depths]
    features = (FloatFeatureBorders(0, np.array([0.5], dtype=np.float32)),)
    bank = build_leaf_bank(ObliviousModel(features, trees, 1.0, 0.0), precision)
    planes = native.byte_planes(bank.values, bank.offsets)
    width = bank.values.itemsize
    assert planes.dtype == np.uint8 and planes.size == bank.values.nbytes
    for t, d in enumerate(depths):
        table = bank.table(t)
        expected = table.view(np.uint8).reshape(1 << d, width).T.reshape(-1)
        got = planes[bank.offsets[t] * width : bank.offsets[t + 1] * width]
        assert np.array_equal(got, expected), (precision, t, d)


# Run in a child process, so that a read past the guard fails this test with
# SIGSEGV instead of ending the test session.
_GUARDED_READS_CHECK = textwrap.dedent(
    """
    import ctypes, dataclasses, mmap, sys
    import numpy as np
    from obtree import (
        EvalConfig, FeatureMatrix, LeafStrategy, SyntheticSpec, evaluate_scalar,
        generate_feature_matrix, generate_synthetic_model, native,
    )
    from obtree.evaluate import Evaluator
    sys.path.insert(0, sys.argv[1])
    from test_native import two_tree_model

    libc = ctypes.CDLL(None, use_errno=True)
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    page = mmap.PAGESIZE
    build_planes, placed = native.byte_planes, []

    def guarded_planes(values, offsets):
        # The last byte of the byte planes, which the fold kernels read, is
        # the last byte before a page that cannot be read.
        built = build_planes(values, offsets)
        pages = -(-built.size // page)
        region = mmap.mmap(-1, (pages + 1) * page)
        start = ctypes.addressof(ctypes.c_char.from_buffer(region))
        assert libc.mprotect(start + pages * page, page, 0) == 0, ctypes.get_errno()
        planes = np.frombuffer(region, np.uint8, built.size, pages * page - built.size)
        planes[:] = built
        assert planes.ctypes.data + built.size == start + pages * page
        placed.append(planes)
        return planes

    def guarded_values(values):
        # A copy of the bank's values whose last byte, which a gathering
        # fold may read, is the last byte before a page that cannot be read.
        pages = -(-values.nbytes // page)
        region = mmap.mmap(-1, (pages + 1) * page)
        start = ctypes.addressof(ctypes.c_char.from_buffer(region))
        assert libc.mprotect(start + pages * page, page, 0) == 0, ctypes.get_errno()
        copy = np.frombuffer(region, values.dtype, values.size, pages * page - values.nbytes)
        copy[:] = values
        placed.append(copy)
        return copy

    native.byte_planes = guarded_planes
    for strategy in (LeafStrategy.PERMUTE16, LeafStrategy.NAIVE):
        for depth in range(1, 9):
            model = two_tree_model(depth)
            evaluator = Evaluator(model, EvalConfig(strategy=strategy))
            assert evaluator.backend == "avx512", evaluator.backend
            assert evaluator._native._model.planes == placed[-1].ctypes.data
            matrix = generate_feature_matrix(200, 3, seed=depth)
            got = evaluator.predict(matrix).view(np.uint64)
            oracle = evaluate_scalar(model, matrix, strategy.precision).view(np.uint64)
            assert np.array_equal(got, oracle), (strategy, depth)
            # Groups of 1 and 2 objects gather their leaves at every depth.
            bank = dataclasses.replace(evaluator.bank, values=guarded_values(evaluator.bank.values))
            evaluator._native = native.BoundKernels(native.kernels(), evaluator.tables, bank, 2)
            assert evaluator._native._model.values == bank.values.ctypes.data
            for n in (1, 2, 65, 66):
                few = FeatureMatrix(matrix.values[:n], matrix.layout)
                got = evaluator.predict(few).view(np.uint64)
                assert np.array_equal(got, oracle[:n]), (strategy, depth, n)

    # A matrix whose last value is the last before an unreadable page, in
    # both layouts, with a feature count that ends in a partial 16-feature
    # tile and a last block that ends in a partial 16-object vector, for the
    # binarizer's loads.
    model = generate_synthetic_model(SyntheticSpec(21, 40, 30, 6, seed=2))
    for n in (1, 17, 200):
        source = generate_feature_matrix(n, 21, seed=3, nan_fraction=0.05)
        oracle = evaluate_scalar(model, source).view(np.uint64)
        for matrix in (source, source.transposed()):
            size = matrix.values.nbytes
            pages = -(-size // page)
            region = mmap.mmap(-1, (pages + 1) * page)
            start = ctypes.addressof(ctypes.c_char.from_buffer(region))
            assert libc.mprotect(start + pages * page, page, 0) == 0, ctypes.get_errno()
            values = np.frombuffer(region, np.float32, matrix.values.size, pages * page - size)
            values[:] = matrix.values.reshape(-1)
            guarded = FeatureMatrix(values.reshape(matrix.values.shape), matrix.layout)
            assert guarded.values.ctypes.data + size == start + pages * page
            evaluator = Evaluator(model)
            assert evaluator.backend == "avx512", evaluator.backend
            assert evaluator._native._model.planes == placed[-1].ctypes.data
            got = evaluator.predict(guarded).view(np.uint64)
            assert np.array_equal(got, oracle), (n, matrix.layout)
    print("ok")
    """
)


def test_last_shallow_table_is_read_only_within_the_bank():
    """The fold kernels read only within the bank, the binarizer only within the matrix."""
    if Evaluator(two_tree_model(1)).backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", _GUARDED_READS_CHECK, str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, (result.returncode, result.stderr[-2000:])
    assert result.stdout.strip() == "ok"


# Run in a child process, so that a kernel reading freed memory fails this
# test with SIGSEGV instead of ending the test session.
_HELD_ARRAYS_CHECK = textwrap.dedent(
    """
    import gc
    import numpy as np
    from obtree import (
        LeafPrecision, SyntheticSpec, evaluate_scalar, generate_feature_matrix,
        generate_synthetic_model, native,
    )
    from obtree.evaluate import EvalConfig, ModelTables, plan_blocks

    # A deep-ensemble-like model: 1000 depth-8 trees, whose byte planes
    # are large enough to be unmapped when freed.
    model = generate_synthetic_model(SyntheticSpec(32, 32, 1000, 8, seed=5))
    matrix = generate_feature_matrix(300, 32, seed=6, nan_fraction=0.01)
    for precision in (LeafPrecision.BINARY16, LeafPrecision.BINARY64):
        oracle = evaluate_scalar(model, matrix, precision).view(np.uint64)

        def closures():
            tables = ModelTables(model)
            bound = native.BoundKernels(native.kernels(), tables, tables.bank(precision),
                                        EvalConfig.block_size // 64)
            call = bound.call(matrix)
            return call.out, call.binarize, call.fold

        # The tables, the bank, the runs and the bound kernels are dropped here.
        out, binarize, fold = closures()
        gc.collect()
        junk = np.full(20_000_000 // 8, np.nan)
        for begin, end in plan_blocks(matrix.n_objects, EvalConfig.block_size):
            binarize(begin, end)
            fold(begin, end)
        del junk
        assert np.array_equal(out.view(np.uint64), oracle), precision
    print("ok")
    """
)


def test_kernel_closures_keep_the_model_alive():
    """The methods of a ``BoundKernels.call`` hold the model's struct, runs,
    tables, bank, masks and scores, so they score correctly after every
    other reference is gone."""
    if Evaluator(two_tree_model(1)).backend == "numpy":
        pytest.skip("no avx512 backend on this host")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", _HELD_ARRAYS_CHECK],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, (result.returncode, result.stderr[-2000:])
    assert result.stdout.strip() == "ok"

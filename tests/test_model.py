"""Model types, validation, leaf banks, and the synthetic generator."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obtree.model
import obtree.serialize
import obtree.synthetic
from obtree import (
    EvalConfig,
    Evaluator,
    FeatureMatrix,
    FloatFeatureBorders,
    Layout,
    LeafPrecision,
    LeafStrategy,
    ModelFormatError,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    SyntheticSpec,
    build_leaf_bank,
    deserialize_model,
    evaluate_scalar,
    generate_feature_matrix,
    generate_synthetic_model,
    serialize_model,
    validate_model,
)
from obtree.model import HALF_MAX, MAX_DEPTH

from conftest import random_specs


def make_model(borders_lists, trees, scale=1.0, bias=0.0):
    features = tuple(
        FloatFeatureBorders(feature_index=i, borders=np.array(b, dtype=np.float32))
        for i, b in enumerate(borders_lists)
    )
    return ObliviousModel(float_features=features, trees=tuple(trees), scale=scale, bias=bias)


def make_tree(splits, leaves):
    return ObliviousTree(
        depth=len(splits),
        splits=tuple(SplitCondition(f, b) for f, b in splits),
        leaf_values=np.array(leaves, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Independent binary16 reference converter (bit-level, no numpy casts).
# Used as the oracle for bank conversion correctness.

HALF_SUBNORMAL_QUANTUM = Fraction(1, 1 << 24)


def half_bits_reference(x: float) -> int:
    """IEEE binary16 bits for a float, round-to-nearest-even, from scratch."""
    sign = 1 if math.copysign(1.0, x) < 0 else 0
    if math.isnan(x):
        return (sign << 15) | 0x7E00
    if math.isinf(x):
        return (sign << 15) | 0x7C00
    mag = Fraction(abs(x))
    if mag == 0:
        return sign << 15

    exp = 0
    while mag >= 2:
        mag /= 2
        exp += 1
    while mag < 1:
        mag *= 2
        exp -= 1
    mag = Fraction(abs(x))  # restore; exp now satisfies 2**exp <= |x| < 2**(exp+1)

    quantum = Fraction(2) ** (max(exp, -14) - 10)
    steps = mag / quantum
    floor = steps.numerator // steps.denominator
    frac = steps - floor
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and floor % 2 == 1):
        floor += 1
    value = floor * quantum

    if value >= 2**16:
        return (sign << 15) | 0x7C00  # overflow rounds to infinity
    if floor >= 2048:  # rounding crossed a binade
        exp += 1
        floor //= 2
    if exp < -14 or floor < 1024:
        return (sign << 15) | floor  # subnormal (or zero after rounding)
    return (sign << 15) | ((exp + 15) << 10) | (floor - 1024)


def saturated_half_bits(x: float) -> int:
    """Reference bank entry: RNE conversion clamped to +/-65504 for finite x."""
    bits = half_bits_reference(x)
    if math.isfinite(x) and bits & 0x7FFF == 0x7C00:
        return (bits & 0x8000) | 0x7BFF
    return bits


class TestHalfReference:
    """Sanity-check the reference converter against numpy's conversion."""

    @pytest.mark.parametrize(
        "value,bits",
        [
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (65504.0, 0x7BFF),
            (2.0**-24, 0x0001),
            (2.0**-25, 0x0000),   # ties to even: rounds to zero
            (1024.5, 0x6400),     # tie at 1 ulp, even mantissa wins
            (float("inf"), 0x7C00),
        ],
    )
    def test_known_bit_patterns(self, value, bits):
        assert half_bits_reference(value) == bits

    def test_matches_numpy_on_random_values(self):
        rng = np.random.default_rng(7)
        exponents = rng.uniform(-30, 18, size=4000)
        values = np.sign(rng.standard_normal(4000)) * 2.0**exponents
        for v in values:
            expected = half_bits_reference(float(v))
            with np.errstate(over="ignore"):
                got = int(np.float16(v).view(np.uint16))
            assert got == expected, v


# ---------------------------------------------------------------------------
# validate_model


class TestValidation:
    def test_duplicate_borders_rejected(self):
        model = make_model([[1.0, 1.0]], [])
        errors = validate_model(model)
        assert any("non-ascending borders" in e for e in errors)

    def test_descending_borders_rejected(self):
        errors = validate_model(make_model([[2.0, 1.0]], []))
        assert any("non-ascending borders" in e for e in errors)

    def test_empty_ensemble_is_legal(self):
        assert validate_model(make_model([[0.5]], [])) == []

    def test_border_ordinal_one_past_end(self):
        tree = make_tree([(0, 1)], [0.0, 1.0])
        errors = validate_model(make_model([[0.5]], [tree]))
        assert any("border ordinal out of range" in e for e in errors)

    def test_split_feature_out_of_range(self):
        tree = make_tree([(3, 0)], [0.0, 1.0])
        errors = validate_model(make_model([[0.5]], [tree]))
        assert any("feature index 3 out of range" in e for e in errors)

    def test_no_features_rejected(self):
        errors = validate_model(make_model([], []))
        assert any("at least one float feature" in e for e in errors)

    def test_nan_border_rejected(self):
        errors = validate_model(make_model([[np.nan]], []))
        assert any("NaN border" in e for e in errors)

    def test_nan_leaf_rejected(self):
        tree = make_tree([(0, 0)], [np.nan, 1.0])
        errors = validate_model(make_model([[0.5]], [tree]))
        assert any("NaN leaf" in e for e in errors)

    def test_infinite_leaf_rejected(self):
        # +inf in one tree and -inf in another would sum to a NaN score.
        trees = [make_tree([(0, 0)], [1.0, 2.0]) for _ in range(3)]
        trees += [make_tree([(0, 0)], [math.inf, 1.0]), make_tree([(0, 0)], [0.0, -math.inf])]
        model = make_model([[0.5]], trees)
        assert validate_model(model) == [
            "trees[3]: infinite leaf value",
            "trees[4]: infinite leaf value",
        ]
        matrix = FeatureMatrix(np.ones((3, 1), dtype=np.float32), Layout.OBJECT_MAJOR)
        message = r"trees\[3\]: infinite leaf value"
        with pytest.raises(ValueError, match=message):
            Evaluator(model)
        for precision in LeafPrecision:
            with pytest.raises(ValueError, match=message):
                evaluate_scalar(model, matrix, precision)
        # trees[0]'s first leaf, 1.0, opens the first string that starts
        # with its digits: its tree's leaves_hex, which precedes scale_hex.
        document = serialize_model(make_model([[0.5]], trees[:3])).replace(
            '"3ff0000000000000', '"7ff0000000000000', 1
        )
        with pytest.raises(ModelFormatError, match=r"trees\[0\]: infinite leaf value"):
            deserialize_model(document)

    def test_leaf_count_must_match_depth(self):
        tree = ObliviousTree(
            depth=2,
            splits=(SplitCondition(0, 0), SplitCondition(0, 0)),
            leaf_values=np.array([1.0, 2.0, 3.0]),
        )
        errors = validate_model(make_model([[0.5]], [tree]))
        assert any("3 leaf values, expected 4" in e for e in errors)

    def test_nan_scale_or_bias_rejected(self):
        for field in ("scale", "bias"):
            errors = validate_model(make_model([[0.5]], [], **{field: math.nan}))
            assert any(f"{field} must be finite, got nan" in e for e in errors), field

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_scale_or_bias_rejected(self, value):
        for field in ("scale", "bias"):
            errors = validate_model(make_model([[0.5]], [], **{field: value}))
            assert any(f"{field} must be finite, got {value!r}" in e for e in errors), field

    def test_leaf_values_must_be_1d(self):
        # A model holds all trees' leaves in one flat array, so a tree whose
        # leaves are not 1-D is refused when the model is made.
        tree = make_tree([(0, 0), (0, 0)], [[0.0, 1.0], [2.0, 3.0]])
        message = r"trees\[1\]: leaf values must be 1-D, got shape \(2, 2\)"
        with pytest.raises(ValueError, match=message):
            make_model([[0.5]], [make_tree([(0, 0)], [0.0, 1.0]), tree])

    def test_borders_must_be_1d(self):
        # Unchecked, validate_model fails with numpy's broadcast error.
        features = [FloatFeatureBorders(0, [0.5]), FloatFeatureBorders(1, [[0.1, 0.2], [0.3, 0.4]])]
        message = r"float_features\[1\]: borders must be 1-D, got shape \(2, 2\)"
        with pytest.raises(ValueError, match=message):
            ObliviousModel(features, [], scale=1.0, bias=0.0)

    def test_feature_out_of_position_rejected(self):
        features = [FloatFeatureBorders(1, [0.5]), FloatFeatureBorders(0, [0.5])]
        assert validate_model(ObliviousModel(features, [], scale=1.0, bias=0.0)) == [
            "float_features[0]: feature index 1 does not match position 0",
            "float_features[1]: feature index 0 does not match position 1",
        ]

    @pytest.mark.parametrize("field, value, problem", [
        ("feature", 2**63, "trees[1].splits[1]: feature index 9223372036854775808 out of range"),
        ("ordinal", -(2**70), f"trees[1].splits[1]: border ordinal {-(2**70)} out of range"),
        ("feature", 1.0, "trees[1].splits[1]: feature index 1.0 out of range"),
        ("depth", 2**64, "trees[1]: depth 18446744073709551616 out of range"),
    ])
    def test_index_no_int64_holds_is_named(self, field, value, problem):
        # Such a value is out of range for any model; the model's int64
        # arrays cannot hold it, so it is refused when the model is made.
        split = SplitCondition(value, 0) if field == "feature" else SplitCondition(0, value)
        tree = ObliviousTree(value if field == "depth" else 2, (SplitCondition(0, 0), split),
                             np.zeros(4))
        with pytest.raises(ValueError, match=re.escape(problem)):
            make_model([[0.5]], [make_tree([(0, 0)], [0.0, 1.0]), tree])
        if isinstance(value, float):
            return  # a document's non-integer is a parse error (tests/test_serialize.py)
        valid = make_model([[0.5]], [make_tree([(0, 0)], [0.0, 1.0]),
                                     make_tree([(0, 0)] * 2, np.zeros(4))])
        document = json.loads(serialize_model(valid))
        entry = document["trees"][1]
        if field == "depth":
            entry["depth"] = value
        else:
            entry[field + "s"][1] = value
        with pytest.raises(ModelFormatError) as exc:
            deserialize_model(json.dumps(document))
        assert str(exc.value) == f"document parses but model is invalid: {problem}"

    def test_too_many_borders(self):
        errors = validate_model(make_model([np.linspace(0, 1, 255, dtype=np.float32)], []))
        assert any("exceed the limit of 254" in e for e in errors)

    def test_depth_out_of_bounds(self):
        tree = ObliviousTree(depth=9, splits=tuple(SplitCondition(0, 0) for _ in range(9)),
                             leaf_values=np.zeros(512))
        errors = validate_model(make_model([[0.5]], [tree]))
        assert any("depth 9" in e for e in errors)

    def test_valid_model_has_no_errors(self):
        tree = make_tree([(0, 0), (1, 2)], [0.0, 1.0, 2.0, 3.0])
        assert validate_model(make_model([[0.5], [0.1, 0.2, 0.3]], [tree])) == []

    def test_one_validation_per_model_object(self, monkeypatch):
        # Loading validates the whole model; the set-up and oracle that
        # follow reuse that result instead of running the full pass again.
        spec = SyntheticSpec(n_features=3, borders_per_feature=4, n_trees=5, depth=3, seed=8)
        document = serialize_model(generate_synthetic_model(spec))
        calls = []
        original = obtree.model.validate_model

        def counting(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(obtree.model, "validate_model", counting)
        monkeypatch.setattr(obtree.serialize, "validate_model", counting)
        model = deserialize_model(document)
        matrix = FeatureMatrix(np.zeros((4, 3), dtype=np.float32), Layout.OBJECT_MAJOR)
        for strategy in (LeafStrategy.NAIVE, LeafStrategy.PERMUTE16):
            Evaluator(model, EvalConfig(strategy=strategy)).predict(matrix)
            evaluate_scalar(model, matrix, strategy.precision)
            build_leaf_bank(model, strategy.precision)
        assert len(calls) == 1 and calls[0] is model

    def test_rejected_model_is_checked_every_time(self):
        model = make_model([[1.0, 1.0]], [])
        for _ in range(2):
            with pytest.raises(ValueError, match=r"invalid model: float_features\[0\]: non-ascending"):
                Evaluator(model)


_DEFECTS = ["NaN leaf", "+inf leaf", "-inf leaf", "leaf count", "split count", "depth 0",
            "depth 9", "feature past the end", "feature far out", "ordinal past the end",
            "ordinal far out"]


@st.composite
def damaged_models(draw):
    """A valid random model of mixed depths, or that model with one defect at
    a random tree or split, and the coordinates of the defect (None if none)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    borders = [np.sort(rng.choice(np.arange(-40, 40) / 4, size=k, replace=False)) for k in sizes]
    trees = []
    for depth in draw(st.lists(st.integers(1, MAX_DEPTH), min_size=1, max_size=6)):
        features = rng.integers(len(sizes), size=depth)
        splits = [(int(f), int(rng.integers(sizes[f]))) for f in features]
        trees.append(make_tree(splits, rng.normal(size=1 << depth)))
    defect = draw(st.sampled_from([None, *_DEFECTS]))
    if defect is None:
        return make_model(borders, trees), None
    t = draw(st.integers(0, len(trees) - 1))
    where = f"trees[{t}]"
    depth, splits, leaves = trees[t].depth, list(trees[t].splits), trees[t].leaf_values.copy()
    if defect.endswith("leaf"):
        leaves[draw(st.integers(0, leaves.size - 1))] = float(defect.split()[0])
    elif defect == "leaf count":
        leaves = np.append(leaves, 1.0) if draw(st.booleans()) else leaves[:-1]
    elif defect == "split count":
        splits = splits + splits[:1] if draw(st.booleans()) else splits[:-1]
    elif defect.startswith("depth"):
        # A whole tree of that depth, so that only its depth is wrong.
        depth = int(defect.split()[1])
        splits = (splits * MAX_DEPTH)[:depth]
        leaves = rng.normal(size=1 << depth)
    else:
        s = draw(st.integers(0, depth - 1))
        where += f".splits[{s}]"
        f, o = splits[s].feature_index, splits[s].border_ordinal
        if defect == "feature past the end":
            f = len(sizes)
        elif defect == "feature far out":
            f = draw(st.sampled_from([-1, len(sizes) + 7, 2**40]))
        elif defect == "ordinal past the end":
            o = sizes[f]
        else:
            o = draw(st.sampled_from([-1, sizes[f] + 1, 254, 255, 2**40]))
        splits[s] = SplitCondition(f, o)
    trees[t] = ObliviousTree(depth=depth, splits=tuple(splits), leaf_values=leaves)
    return make_model(borders, trees), where


@settings(max_examples=300, deadline=None)
@given(damaged_models())
def test_validation_never_accepts_a_damaged_model(case):
    # The all-trees check must find every defect the tree-by-tree check
    # words; a miss would show as [] here.
    model, where = case
    errors = validate_model(model)
    if where is None:
        assert errors == []
        return
    assert errors and errors[0].startswith(where + ": "), (where, errors)
    with pytest.raises(ValueError, match=re.escape(where + ": ")):
        Evaluator(model)


_BORDER_ROWS = st.lists(st.floats(-2, 2, width=32), max_size=4).map(sorted) | st.lists(
    st.sampled_from([-1.0, 0.0, 0.5, math.nan]), max_size=3) | st.just(np.arange(255.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_BORDER_ROWS, min_size=1, max_size=150))
def test_border_rows_checked_together_give_each_rows_messages(rows):
    # The rows are checked in bulk, 64 at a time, and worded one by one.
    expected = [f"float_features[{i}]: {e}" for i, row in enumerate(rows)
                for e in obtree.model.border_row_errors(np.array(row, dtype=np.float32))]
    assert validate_model(make_model(rows, [])) == expected


def test_bad_border_row_found_past_the_first_rows_checked():
    # The rows are checked 64 at a time.
    rows = [[0.5, 1.0]] * 200
    for i, row, problem in [(63, [1.0, 0.5], "non-ascending borders"), (64, [math.nan], "NaN border"),
                            (199, [0.5, 0.5], "non-ascending borders")]:
        damaged = rows[:i] + [row] + rows[i + 1:]
        assert validate_model(make_model(damaged, [])) == [f"float_features[{i}]: {problem}"]


def test_nonfinite_leaf_found_past_the_first_copy_of_tables():
    # The all-trees check copies 512 tables at a time.
    trees = [make_tree([(0, 0)], [1.0, 2.0]) for _ in range(1200)]
    for t in (511, 512, 1199):
        damaged = trees[:t] + [make_tree([(0, 0)], [1.0, math.nan])] + trees[t + 1:]
        assert validate_model(make_model([[0.5]], damaged)) == [f"trees[{t}]: NaN leaf value"]


# ---------------------------------------------------------------------------
# build_leaf_bank


class TestLeafBank:
    @pytest.mark.parametrize("precision", ["binary64", LeafStrategy.NAIVE, None])
    def test_precision_of_another_type_is_refused(self, precision):
        """Anything but a ``LeafPrecision`` is refused by name, not built as binary16."""
        model = make_model([[0.5]], [make_tree([(0, 0)], [1.0, 2.0])])
        with pytest.raises(TypeError, match=re.escape(
                f"precision: {precision!r} is not a LeafPrecision")):
            build_leaf_bank(model, precision)

    def test_binary16_exact_value(self):
        tree = make_tree([(0, 0)], [1.0, 1.0])
        bank = build_leaf_bank(make_model([[0.5]], [tree]), LeafPrecision.BINARY16)
        assert bank.table(0)[0] == np.float16(1.0)
        assert bank.saturation_count == 0

    def test_binary16_saturates_with_warning(self, caplog):
        tree = make_tree([(0, 0)], [70000.0, -70000.0])
        with caplog.at_level(logging.WARNING, logger="obtree"):
            bank = build_leaf_bank(make_model([[0.5]], [tree]), LeafPrecision.BINARY16)
        assert bank.table(0)[0] == np.float16(HALF_MAX)
        assert bank.table(0)[1] == np.float16(-HALF_MAX)
        assert bank.saturation_count == 2
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.name for r in warnings] == ["obtree"]
        assert "2 of 2 leaves saturated" in warnings[0].getMessage()

    @pytest.mark.parametrize("precision", list(LeafPrecision))
    def test_bank_without_saturation_logs_nothing(self, precision, caplog):
        # 65519 rounds to 65504 in binary16 without overflowing.
        tree = make_tree([(0, 0)], [65519.0, -1e-9])
        with caplog.at_level(logging.DEBUG, logger="obtree"):
            bank = build_leaf_bank(make_model([[0.5]], [tree]), precision)
        assert bank.saturation_count == 0
        assert caplog.records == []

    @pytest.mark.parametrize("precision", list(LeafPrecision))
    def test_byte_planes_transpose_each_table(self, precision):
        # Runs of every depth from 1 to 8, runs of one tree, and a depth that
        # recurs after other depths.
        depths = [1, 1, 2, 3, 3, 3, 4, 5, 6, 6, 7, 8, 8, 5, 8, 7, 1]
        rng = np.random.default_rng(7)
        trees = [make_tree([(0, 0)] * d, rng.normal(0.0, 4.0, 1 << d)) for d in depths]
        bank = build_leaf_bank(make_model([[0.5]], trees), precision)
        width = bank.values.itemsize
        assert bank.planes.dtype == np.uint8 and bank.planes.size == bank.values.nbytes
        assert not bank.planes.flags.writeable
        for t, d in enumerate(depths):
            table = bank.table(t)
            expected = table.view(np.uint8).reshape(1 << d, width).T.reshape(-1)
            got = bank.planes[bank.offsets[t] * width : bank.offsets[t + 1] * width]
            assert np.array_equal(got, expected), (precision, t, d)

    def test_binary16_nearest_within_half_ulp(self):
        tree = make_tree([(0, 0)], [0.1, 0.2])
        bank = build_leaf_bank(make_model([[0.5]], [tree]), LeafPrecision.BINARY16)
        stored = float(bank.table(0)[0])
        assert int(bank.table(0)[0].view(np.uint16)) == half_bits_reference(0.1)
        assert abs(stored - 0.1) <= 0.1 * 2.0**-11

    def test_binary16_matches_reference_converter(self):
        spec = SyntheticSpec(n_features=4, borders_per_feature=8, n_trees=12, depth=4, seed=55)
        model = generate_synthetic_model(spec)
        bank = build_leaf_bank(model, LeafPrecision.BINARY16)
        for t, tree in enumerate(model.trees):
            got = bank.table(t).view(np.uint16)
            expected = [saturated_half_bits(float(v)) for v in tree.leaf_values]
            assert list(got) == expected

    def test_binary16_error_bound_over_random_models(self):
        for seed in range(5):
            spec = SyntheticSpec(n_features=3, borders_per_feature=4, n_trees=8, depth=3, seed=seed)
            model = generate_synthetic_model(spec)
            bank = build_leaf_bank(model, LeafPrecision.BINARY16)
            for t, tree in enumerate(model.trees):
                widened = bank.table(t).astype(np.float64)
                clamped = np.clip(tree.leaf_values, -HALF_MAX, HALF_MAX)
                bound = np.maximum(np.abs(tree.leaf_values) * 2.0**-11, 2.0**-24)
                assert np.all(np.abs(widened - clamped) <= bound)

    def test_binary64_bank_is_bit_exact(self):
        # Tables are stored back to back, each exactly its tree's leaves.
        trees = [
            make_tree([(0, 0), (0, 0)], [0.1, -2.5e300, 3e-300, 7.0]),
            make_tree([(0, 0)], [-0.0, 5e-324]),
        ]
        bank = build_leaf_bank(make_model([[0.5]], trees), LeafPrecision.BINARY64)
        for t, tree in enumerate(trees):
            assert bank.table(t).tobytes() == tree.leaf_values.tobytes()
        assert bank.values.tobytes() == b"".join(t.leaf_values.tobytes() for t in trees)

    @pytest.mark.parametrize("precision", list(LeafPrecision))
    def test_loaded_model_builds_its_bank_from_one_leaf_span(self, precision):
        # Trees of mixed depths, with leaves that the binary16 bank saturates.
        rng = np.random.default_rng(12)
        depths = [3, 1, 8, 8, 5, 2, 7]
        trees = [make_tree([(0, 0)] * d, rng.normal(0.0, 3e4, 1 << d)) for d in depths]
        built = make_model([[0.5]], trees)
        loaded = deserialize_model(serialize_model(built))
        expected = np.concatenate([tree.leaf_values for tree in trees])
        for model in (built, loaded):
            span = model.leaves
            assert span.dtype == np.float64 and not span.flags.writeable
            assert span.tobytes() == expected.tobytes()
            assert model.leaf_offsets.tolist() == np.cumsum([0] + [1 << d for d in depths]).tolist()
            # Each tree's leaf values view its span of the one array.
            for tree, (_, _, _, first, end) in zip(model.trees, model.tree_bounds()):
                assert tree.leaf_values.ctypes.data == span[first:end].ctypes.data
                assert tree.leaf_values.size == end - first
        reference = build_leaf_bank(built, precision)
        bank = build_leaf_bank(loaded, precision)
        for name in ("values", "offsets", "planes"):
            assert getattr(bank, name).tobytes() == getattr(reference, name).tobytes(), name
        assert bank.values.dtype == reference.values.dtype
        assert (bank.max_abs_leaf, bank.saturation_count) == (
            reference.max_abs_leaf, reference.saturation_count)
        assert reference.saturation_count > 0 or precision is LeafPrecision.BINARY64
        assert not bank.values.flags.writeable
        # A binary64 bank is the model's leaf array itself, not a copy; the
        # model made from trees holds a copy of their leaves.
        assert np.shares_memory(bank.values, loaded.leaves) == (precision is LeafPrecision.BINARY64)
        assert not any(np.shares_memory(built.leaves, tree.leaf_values) for tree in trees)

    def test_max_abs_leaf(self):
        trees = [make_tree([(0, 0)], [1.0, -9.5]), make_tree([(0, 0)], [3.0, 2.0])]
        bank = build_leaf_bank(make_model([[0.5]], trees), LeafPrecision.BINARY64)
        assert bank.max_abs_leaf == 9.5

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError, match="invalid model"):
            build_leaf_bank(make_model([[1.0, 1.0]], []), LeafPrecision.BINARY64)


# ---------------------------------------------------------------------------
# Synthetic generator


class TestKnownAnswers:
    """The synthetic draws pinned by hash: a change to numpy's PCG64 stream
    or to the generator's maps fails these by name."""

    def test_model_document_sha256(self):
        document = serialize_model(generate_synthetic_model(SyntheticSpec(3, 4, 5, 3, seed=7)))
        assert hashlib.sha256(document.encode()).hexdigest() == (
            "a2f5f5cdcf286b790b3610c6a09cfb20205478bf5faf246d9970b1bd6a6c3b17")

    def test_feature_matrix_sha256(self):
        values = generate_feature_matrix(6, 4, seed=11, nan_fraction=0.25, inf_fraction=0.25).values
        assert np.isnan(values).any() and np.isfinite(values).any()
        assert np.isposinf(values).any() and np.isneginf(values).any()
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "1e35c81f07c005a71f52b3fc108edb7a9846f7e6478d377b3ff211e9ecd8bb3e")

    def test_fresh_processes_draw_the_same_bytes(self):
        # A larger draw than the pinned ones, with specials, feature-major.
        script = (
            "import hashlib, obtree as ot\n"
            "doc = ot.serialize_model(ot.generate_synthetic_model(ot.SyntheticSpec(20, 30, 40, 6, 3)))\n"
            "m = ot.generate_feature_matrix(100, 20, 4, ot.Layout.FEATURE_MAJOR,"
            " nan_fraction=0.1, inf_fraction=0.1)\n"
            "print(hashlib.sha256(doc.encode() + m.values.tobytes()).hexdigest())\n"
        )
        source = str(Path(obtree.model.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
        digests = [subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True, timeout=60).stdout.strip()
                   for _ in range(2)]
        doc = serialize_model(generate_synthetic_model(SyntheticSpec(20, 30, 40, 6, 3)))
        m = generate_feature_matrix(100, 20, 4, Layout.FEATURE_MAJOR,
                                    nan_fraction=0.1, inf_fraction=0.1)
        assert digests == [hashlib.sha256(doc.encode() + m.values.tobytes()).hexdigest()] * 2


class TestGenerator:
    def test_determinism_bytes(self):
        spec = SyntheticSpec(n_features=5, borders_per_feature=9, n_trees=11, depth=3, seed=42)
        a = serialize_model(generate_synthetic_model(spec))
        b = serialize_model(generate_synthetic_model(spec))
        assert a == b

    def test_minimal_shape(self):
        model = generate_synthetic_model(SyntheticSpec(1, 1, 1, 1, seed=0))
        assert model.n_features == 1
        assert model.trees[0].leaf_values.size == 2
        assert validate_model(model) == []

    def test_reference_benchmark_shape(self):
        # The published benchmark model shape: 2000 float features with 64
        # borders each, 8000 trees of depth 6.
        spec = SyntheticSpec(n_features=2000, borders_per_feature=64, n_trees=8000, depth=6, seed=1)
        model = generate_synthetic_model(spec)
        assert model.n_features == 2000
        assert all(ff.borders.size == 64 for ff in model.float_features)
        assert model.n_trees == 8000
        assert all(t.depth == 6 for t in model.trees)

    def test_every_output_validates(self):
        for spec in random_specs(777, 25, (20, 40, 29, 8)):
            assert validate_model(generate_synthetic_model(spec)) == []

    def test_draws_fill_their_ranges(self):
        model = generate_synthetic_model(SyntheticSpec(3, 4, 300, 4, seed=5))
        # 1200 splits over 12 (feature, ordinal) pairs: about 100 each.
        pairs = np.bincount(model.split_features * 4 + model.split_ordinals, minlength=12)
        assert pairs.size == 12 and pairs.min() > 60 and pairs.max() < 140, pairs
        assert -1.0 <= model.leaves.min() < -0.99 and 0.99 < model.leaves.max() < 1.0
        borders = np.concatenate([ff.borders for ff in model.float_features])
        assert borders.min() >= 0.0 and borders.max() <= 1.0
        affine = np.array([(m.scale, m.bias) for m in (
            generate_synthetic_model(SyntheticSpec(1, 1, 0, 1, seed)) for seed in range(200))])
        assert 0.5 <= affine[:, 0].min() < 0.55 and 1.45 < affine[:, 0].max() < 1.5
        assert -0.5 <= affine[:, 1].min() < -0.45 and 0.45 < affine[:, 1].max() < 0.5

    def test_repeated_border_draws_are_drawn_again(self):
        # Two of row 0's draws give one binary32 value: the later one is
        # drawn again, and again while it still repeats a value of its row.
        batches = [[[0.5, 0.25, 0.5], [0.125, 0.625, 0.375]], [0.5], [0.75]]

        class Stream:
            def random_raw(self, size):
                units = np.array(batches.pop(0)) * 2.0**53
                return (units.astype(np.uint64) << np.uint64(11)).reshape(size)

        borders = obtree.synthetic._distinct_border_rows(Stream(), 2, 3)
        assert borders.dtype == np.float32 and batches == []
        assert borders.tolist() == [[0.25, 0.5, 0.75], [0.125, 0.375, 0.625]]

    def test_special_value_rates(self):
        values = generate_feature_matrix(20_000, 5, seed=1, nan_fraction=0.2, inf_fraction=0.3).values
        rates = [np.isnan(values).mean(), np.isposinf(values).mean(), np.isneginf(values).mean()]
        assert np.allclose(rates, [0.2, 0.15, 0.15], atol=0.01), rates
        finite = values[np.isfinite(values)]
        assert -0.25 <= finite.min() < -0.24 and 1.24 < finite.max() <= 1.25

    @pytest.mark.parametrize(
        "arguments, message",
        [
            ({"nan_fraction": 1.5}, "nan_fraction must be in [0, 1], got 1.5"),
            ({"nan_fraction": math.nan}, "nan_fraction must be in [0, 1], got nan"),
            ({"inf_fraction": -0.1}, "inf_fraction must be in [0, 1], got -0.1"),
            ({"nan_fraction": -0.5, "inf_fraction": 0.7}, "nan_fraction must be in [0, 1]"),
            ({"nan_fraction": 0.6, "inf_fraction": 0.5}, "nan_fraction + inf_fraction must not"),
            ({"lo": 1.0, "hi": 1.0}, "lo and hi must be finite with lo < hi"),
            ({"lo": 2.0, "hi": 1.0}, "lo and hi must be finite with lo < hi"),
            ({"lo": -math.inf}, "lo and hi must be finite"),
            ({"hi": math.nan}, "lo and hi must be finite"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
        ],
    )
    def test_feature_matrix_refuses_bad_arguments(self, arguments, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_feature_matrix(4, 3, **{"seed": 1, **arguments})

    @pytest.mark.parametrize(
        "shape, error, message",
        [
            ((-2, -3), ValueError, "n_objects must be non-negative, got -2"),
            ((-1, 3), ValueError, "n_objects must be non-negative, got -1"),
            ((4, -1), ValueError, "n_features must be non-negative, got -1"),
            ((2.5, 3), TypeError, "n_objects must be an int, got float"),
            ((4, 3.0), TypeError, "n_features must be an int, got float"),
            ((True, 3), TypeError, "n_objects must be an int, got bool"),
            ((4, np.True_), TypeError, "n_features must be an int, got bool"),
        ],
    )
    def test_feature_matrix_refuses_bad_shapes(self, shape, error, message):
        with pytest.raises(error, match=re.escape(message)):
            generate_feature_matrix(*shape, seed=1)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0), (np.int64(2), np.uint8(3))])
    def test_feature_matrix_takes_zero_and_numpy_integer_shapes(self, shape):
        for layout in Layout:
            matrix = generate_feature_matrix(*shape, seed=1, layout=layout)
            assert (matrix.n_objects, matrix.n_features) == shape

    def test_negative_model_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            generate_synthetic_model(SyntheticSpec(1, 1, 1, 1, seed=-1))

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(0, 1, 1, 1, 0),
            SyntheticSpec(1, 0, 1, 1, 0),
            SyntheticSpec(1, 255, 1, 1, 0),
            SyntheticSpec(1, 1, -1, 1, 0),
            SyntheticSpec(1, 1, 1, 0, 0),
            SyntheticSpec(1, 1, 1, 9, 0),
        ],
    )
    def test_out_of_range_parameters(self, spec):
        with pytest.raises(ValueError):
            generate_synthetic_model(spec)


class TestImmutability:
    def test_model_payloads_are_read_only(self):
        model = generate_synthetic_model(SyntheticSpec(2, 3, 2, 2, seed=1))
        with pytest.raises(ValueError):
            model.float_features[0].borders[0] = 0.0
        with pytest.raises(ValueError):
            model.trees[0].leaf_values[0] = 0.0

    def test_bank_values_are_read_only(self):
        model = generate_synthetic_model(SyntheticSpec(2, 3, 2, 2, seed=1))
        bank = build_leaf_bank(model, LeafPrecision.BINARY64)
        with pytest.raises(ValueError):
            bank.values[0] = 1.0

"""Stage 1: the scalar border count against brute force, and both backends'
condition bits against per-condition compares of the raw values."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtree import (
    FeatureMatrix,
    FloatFeatureBorders,
    Layout,
    LeafPrecision,
    ModelTables,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    SyntheticSpec,
    generate_synthetic_model,
    plan_blocks,
    quantize_block,
    native,
)
from obtree.quantize import CONDITION_CHUNK

from conftest import quantize_value


def crossed_border_count(value: float, borders) -> int:
    """Brute-force oracle: full scan, no early exit, no sorting tricks."""
    return sum(1 for b in borders if value > b)


def random_borders(rng: np.random.Generator, max_count: int = 64) -> np.ndarray:
    """1 to ``max_count`` distinct ascending binary32 borders in [-2, 2)."""
    return np.unique(rng.uniform(-2.0, 2.0, rng.integers(1, max_count + 1)).astype(np.float32))


class TestQuantizeValue:
    def test_single_border_crossed(self):
        assert quantize_value(0.7, np.array([0.5], dtype=np.float32)) == 1

    def test_equality_does_not_cross(self):
        borders = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        assert quantize_value(2.0, borders) == 1

    def test_nan_maps_to_zero(self):
        assert quantize_value(math.nan, np.array([-10.0, 0.0, 10.0], dtype=np.float32)) == 0

    def test_infinities(self):
        borders = np.array([0.0, 1.0], dtype=np.float32)
        assert quantize_value(math.inf, borders) == 2
        assert quantize_value(-math.inf, borders) == 0

    def test_empty_borders(self):
        assert quantize_value(5.0, np.array([], dtype=np.float32)) == 0

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            borders = random_borders(rng)
            values = rng.uniform(-3.0, 3.0, 40).tolist() + rng.choice(borders, 10).tolist()
            values += [math.nan, math.inf, -math.inf]
            for v in values:
                assert quantize_value(v, borders) == crossed_border_count(v, borders)

    def test_monotone_in_value(self):
        rng = np.random.default_rng(77)
        borders = random_borders(rng)
        values = sorted(rng.uniform(-3.0, 3.0, 100).tolist())
        quantiles = [quantize_value(v, borders) for v in values]
        assert quantiles == sorted(quantiles)

    def test_split_inversion(self):
        # (quantile(v) > k) must equal (v > borders[k]) for every ordinal k.
        rng = np.random.default_rng(15)
        borders = random_borders(rng)
        for v in rng.uniform(-3.0, 3.0, 200).tolist():
            q = quantize_value(v, borders)
            for k in range(borders.size):
                assert (q > k) == (v > float(borders[k]))


def model_over(rows) -> ObliviousModel:
    """A model with a depth-1 tree on every border of ``rows``, one row per feature."""
    features = tuple(FloatFeatureBorders(f, row) for f, row in enumerate(rows))
    trees = tuple(ObliviousTree(1, (SplitCondition(f, o),), np.zeros(2))
                  for f, row in enumerate(rows) for o in range(len(row)))
    return ObliviousModel(features, trees, scale=1.0, bias=0.0)


def panel_for(matrix, rows, width=None, begin=0, end=None):
    """Stage 1's numpy panel for objects [begin, end) of ``matrix``, under
    ``model_over(rows)``, written over a dirty buffer; and the model's tables."""
    end = matrix.n_objects if end is None else end
    tables = ModelTables(model_over(rows))
    out = np.full((tables.cond_border.size, width or max(64, end - begin)), 0xA5, np.uint8)
    quantize_block(matrix, (begin, end), tables, out)
    return tables, out


def crossed_counts(tables, panel) -> np.ndarray:
    """(features x columns): how many of each feature's conditions hold, that
    is, under ``model_over``, the count of its borders each value exceeds."""
    counts = np.zeros((tables.model.n_features, panel.shape[1]), dtype=np.int64)
    np.add.at(counts, tables.cond_feature, panel)
    return counts


class TestQuantizeBlock:
    def test_sign_split_on_zero_border(self):
        matrix = FeatureMatrix(np.array([[-1.0], [1.0]], dtype=np.float32), Layout.OBJECT_MAJOR)
        _, panel = panel_for(matrix, [np.array([0.0], dtype=np.float32)])
        assert list(panel[0, :2]) == [0, 1]

    def test_matches_elementwise_brute_force(self):
        # 4800 conditions: the panel is written in several chunks.
        model = generate_synthetic_model(SyntheticSpec(200, 24, 0, 1, seed=12))
        borders = [ff.borders for ff in model.float_features]
        raw = np.random.default_rng(13).uniform(-0.5, 1.5, (50, 200)).astype(np.float32)
        raw[3, 7] = np.nan
        raw[10, 0] = np.inf
        matrix = FeatureMatrix(raw, Layout.OBJECT_MAJOR)
        tables, panel = panel_for(matrix, borders)
        assert tables.cond_border.size > 2 * CONDITION_CHUNK
        counts = crossed_counts(tables, panel)
        for f in range(200):
            for o in range(50):
                assert counts[f, o] == quantize_value(float(raw[o, f]), borders[f])

    def test_layout_equivalence(self):
        model = generate_synthetic_model(SyntheticSpec(6, 10, 0, 1, seed=8))
        borders = [ff.borders for ff in model.float_features]
        raw = np.random.default_rng(2).uniform(0.0, 1.0, (33, 6)).astype(np.float32)
        om = FeatureMatrix(raw, Layout.OBJECT_MAJOR)
        fm = om.transposed()
        assert fm.layout is Layout.FEATURE_MAJOR
        a = panel_for(om, borders, width=64)[1]
        b = panel_for(fm, borders, width=64)[1]
        assert np.array_equal(a, b)

    def test_layout_given_as_its_value_string(self):
        # A square batch read in the wrong order raises nothing and gives
        # other bits, so the string must select the same layout.
        model = generate_synthetic_model(SyntheticSpec(4, 10, 0, 1, seed=8))
        borders = [ff.borders for ff in model.float_features]
        raw = np.linspace(0.0, 1.0, 16, dtype=np.float32).reshape(4, 4)
        for layout in Layout:
            named = FeatureMatrix(raw, layout.value)
            assert named.layout is layout
            expected = panel_for(FeatureMatrix(raw, layout), borders)[1]
            assert np.array_equal(panel_for(named, borders)[1], expected)
        assert not np.array_equal(
            panel_for(FeatureMatrix(raw, "object-major"), borders)[1],
            panel_for(FeatureMatrix(raw, "feature-major"), borders)[1],
        )
        for bad in ("row-major", "OBJECT_MAJOR", None):
            with pytest.raises(ValueError):
                FeatureMatrix(raw, bad)

    def test_float64_input_rounds_to_binary32_before_the_compare(self):
        # nextafter(0.5, 1) exceeds 0.5 in binary64 but rounds to 0.5 in
        # binary32, so it does not cross a border at 0.5.
        above = np.nextafter(0.5, 1.0)
        matrix = FeatureMatrix(np.array([[above]], dtype=np.float64), Layout.OBJECT_MAJOR)
        assert matrix.values.dtype == np.float32
        _, panel = panel_for(matrix, [np.array([0.5], dtype=np.float32)])
        assert panel[0, 0] == 0

    def test_padding_bytes_are_zero(self):
        matrix = FeatureMatrix(np.full((10, 2), 9.0, dtype=np.float32), Layout.OBJECT_MAJOR)
        _, panel = panel_for(matrix, [np.array([0.0], dtype=np.float32)] * 2)
        # panel_for writes over a dirty buffer, which must be fully overwritten.
        assert np.all(panel[:, :10] == 1)
        assert np.all(panel[:, 10:] == 0)

    def test_quantile_never_exceeds_border_count(self):
        # At +inf every condition holds: each feature's crossed count is its
        # border count, and no more.
        model = generate_synthetic_model(SyntheticSpec(5, 17, 0, 1, seed=21))
        borders = [ff.borders for ff in model.float_features]
        matrix = FeatureMatrix(np.full((40, 5), np.inf, dtype=np.float32), Layout.OBJECT_MAJOR)
        tables, panel = panel_for(matrix, borders)
        counts = crossed_counts(tables, panel)
        for f, fb in enumerate(borders):
            assert counts[f].max() == fb.size

    @staticmethod
    def one_border_tables(n_features: int = 1) -> ModelTables:
        return ModelTables(model_over([np.array([0.0], dtype=np.float32)] * n_features))

    def test_range_larger_than_block_rejected(self):
        matrix = FeatureMatrix(np.zeros((100, 1), dtype=np.float32), Layout.OBJECT_MAJOR)
        out = np.zeros((1, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="100 objects exceeds the panel's 64 columns"):
            quantize_block(matrix, (0, 100), self.one_border_tables(), out)

    def test_range_outside_batch_rejected(self):
        matrix = FeatureMatrix(np.zeros((10, 1), dtype=np.float32), Layout.OBJECT_MAJOR)
        out = np.zeros((1, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="outside batch"):
            quantize_block(matrix, (0, 11), self.one_border_tables(), out)

    def test_feature_count_mismatch_rejected(self):
        matrix = FeatureMatrix(np.zeros((4, 2), dtype=np.float32), Layout.OBJECT_MAJOR)
        out = np.zeros((1, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="panel has 1 rows, model has 2 conditions"):
            quantize_block(matrix, (0, 4), self.one_border_tables(2), out)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.int8])
    def test_panel_dtype_rejected(self, dtype):
        # Stage 2 reads the panel's rows as bytes of 0 or 1.
        matrix = FeatureMatrix(np.zeros((4, 1), dtype=np.float32), Layout.OBJECT_MAJOR)
        out = np.zeros((1, 64), dtype=dtype)
        with pytest.raises(ValueError, match=f"panel dtype is {np.dtype(dtype)}, not uint8"):
            quantize_block(matrix, (0, 4), self.one_border_tables(), out)

    def test_matrix_feature_count_mismatch_rejected(self):
        matrix = FeatureMatrix(np.zeros((4, 3), dtype=np.float32), Layout.OBJECT_MAJOR)
        out = np.zeros((2, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="matrix has 3 features, model has 2"):
            quantize_block(matrix, (0, 4), self.one_border_tables(2), out)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0.0, math.nan], "float_features[3]: NaN border"),
            ([math.nan], "float_features[3]: NaN border"),
            ([1.0, 0.5], "float_features[3]: non-ascending borders"),
            ([0.5, 0.5], "float_features[3]: non-ascending borders"),
            (np.arange(255), "float_features[3]: 255 borders exceed the limit of 254"),
        ],
    )
    def test_malformed_borders_rejected(self, bad, message):
        # A condition's bit would no longer mean "count of borders crossed
        # exceeds its ordinal", or an ordinal would reach the sentinel's 255,
        # so building stage 1's tables refuses these rows and names the feature.
        matrix = FeatureMatrix(np.zeros((2, 4), dtype=np.float32), Layout.OBJECT_MAJOR)
        rows = [np.array([0.0], dtype=np.float32)] * 3 + [np.array(bad, dtype=np.float32)]
        with pytest.raises(ValueError, match=re.escape(message)):
            panel_for(matrix, rows)


_SUBNORMAL = float(np.float32(1e-45))  # smallest positive binary32 subnormal
_EDGES = [0.0, -0.0, math.inf, -math.inf, _SUBNORMAL, -_SUBNORMAL, 2.0**-126, 1.0]


def _random_binary32(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform bit patterns: every exponent occurs, subnormals and NaN included."""
    return rng.integers(0, 2**32, size=n, dtype=np.uint32).view(np.float32)


@st.composite
def border_rows(draw, max_count: int = 254) -> np.ndarray:
    """Strictly ascending binary32 borders, 0 to ``max_count`` of them, edge values mixed in."""
    count = draw(
        st.sampled_from([c for c in (0, 1, 2, 127, 128, 254) if c <= max_count])
        | st.integers(0, max_count)
    )
    edges = draw(st.lists(st.sampled_from(_EDGES), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    candidates = edges + [float(b) for b in _random_binary32(rng, count + 16) if not np.isnan(b)]
    distinct = list(dict.fromkeys(candidates))  # -0.0 == 0.0, so at most one of them
    return np.array(sorted(distinct[:count]), dtype=np.float32)


@st.composite
def quantize_cases(draw):
    # Row lengths of 0 (no feature has a border) to the limit of 254.
    max_count = draw(st.sampled_from([(1 << steps) - 1 for steps in range(8)] + [254]))
    n_features = draw(st.sampled_from([1, 2, 15, 16, 17]))
    rows = draw(st.lists(border_rows(max_count), min_size=n_features, max_size=n_features))
    # 65-128 objects: with blocks of 128, a whole first group and a second
    # group of 1 to 4 quarters, the last one partial or whole.
    n_objects = draw(st.integers(1, 40) | st.integers(65, 128) | st.integers(250, 300))
    block_size = draw(st.integers(1, 16) | st.sampled_from([64, 128, 512]))
    layout = draw(st.sampled_from(Layout))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = np.empty((n_objects, len(rows)), dtype=np.float32)
    for f, row in enumerate(rows):
        # Values equal to a border, one ulp to either side, edge values and NaN.
        pool = np.concatenate(
            [
                row,
                np.nextafter(row, np.float32(np.inf)),
                np.nextafter(row, np.float32(-np.inf)),
                np.array(_EDGES + [math.nan], dtype=np.float32),
                _random_binary32(rng, 8),
            ]
        )
        raw[:, f] = rng.choice(pool, size=n_objects)
    values = raw if layout is Layout.OBJECT_MAJOR else raw.T
    return rows, raw, FeatureMatrix(values, layout), block_size


class TestSearchMatchesScalarReference:
    @settings(max_examples=80, deadline=None)
    @given(quantize_cases())
    def test_every_quantile_equals_quantize_value(self, case):
        """The numpy panel's crossed-border counts against the scalar
        reference, over every block of the batch: the later ones start past
        object 0, the last may be partial."""
        rows, raw, matrix, block_size = case
        tables = ModelTables(model_over(rows))
        expected = np.array(
            [[quantize_value(float(v), row) for v in raw[:, f]] for f, row in enumerate(rows)],
            dtype=np.int64,
        ).reshape(len(rows), matrix.n_objects)
        panel = np.empty((tables.cond_border.size, block_size), dtype=np.uint8)
        for begin, end in plan_blocks(matrix.n_objects, block_size):
            panel[:] = 0xA5
            quantize_block(matrix, (begin, end), tables, panel)
            live = end - begin
            counts = crossed_counts(tables, panel)
            assert np.array_equal(counts[:, :live], expected[:, begin:end])
            assert not counts[:, live:].any()


@st.composite
def binarize_cases(draw):
    """A model whose conditions cover some features and leave others out,
    the matrix of ``quantize_cases`` in either layout, and a block size."""
    rows, raw, matrix, _ = draw(quantize_cases())
    pairs = [(f, o) for f, row in enumerate(rows) for o in range(row.size)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    # Depth-1 trees, then at most one depth-2 tree: with both, every depth-1
    # tree's second level is the padding condition, whose border is +inf.
    trees = [ObliviousTree(1, (SplitCondition(f, o),), np.zeros(2)) for f, o in chosen[2:]]
    if len(chosen) >= 2 and draw(st.booleans()):
        splits = tuple(SplitCondition(f, o) for f, o in chosen[:2])
        trees.append(ObliviousTree(2, splits, np.zeros(4)))
    features = tuple(FloatFeatureBorders(f, row) for f, row in enumerate(rows))
    model = ObliviousModel(features, tuple(trees), scale=1.0, bias=0.0)
    return model, raw, matrix, draw(st.sampled_from([64, 128]))


def expected_masks(raw: np.ndarray, borders: np.ndarray, features: np.ndarray) -> np.ndarray:
    """(groups x conditions) uint64 masks of ``raw`` rows > each condition's border."""
    bits = np.greater(raw[:, features], borders)
    groups = -(-raw.shape[0] // 64)
    padded = np.zeros((groups * 64, borders.size), dtype=bool)
    padded[: raw.shape[0]] = bits
    packed = np.packbits(padded.reshape(groups, 64, -1), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.transpose(0, 2, 1)).view("<u8")[..., 0]


def expected_panel(raw: np.ndarray, borders: np.ndarray, features: np.ndarray,
                   width: int) -> np.ndarray:
    """(conditions x width) 0/1 bytes of ``raw`` rows > each condition's border."""
    panel = np.zeros((borders.size, width), dtype=np.uint8)
    panel[:, : raw.shape[0]] = np.greater(raw[:, features], borders).T
    return panel


def checked_conditions(model: ObliviousModel, tables: ModelTables):
    """Each condition's feature and border, derived from the model's splits
    and borders alone, after checking ``tables`` holds them bit for bit.

    The conditions are the distinct (feature, ordinal) splits sorted by
    feature, then ordinal; with trees of mixed depth, the padding condition
    (feature 0, ordinal 255, border +inf) joins them.
    """
    pairs = {(s.feature_index, s.border_ordinal) for t in model.trees for s in t.splits}
    mixed = len({t.depth for t in model.trees}) > 1
    pairs = sorted(pairs | ({(0, 255)} if mixed else set()))
    features = np.array([f for f, _ in pairs], dtype=np.intp)
    borders = np.array([np.inf if o == 255 else model.float_features[f].borders[o]
                        for f, o in pairs], dtype=np.float32)
    assert np.array_equal(tables.cond_feature, features)
    assert np.array_equal(tables.cond_border.view(np.uint32), borders.view(np.uint32))
    # A real border may be +inf too, so the padding condition is found by its key.
    padding = [c for c, pair in enumerate(pairs) if pair == (0, 255)]
    assert len(padding) == mixed
    assert all(features[c] == 0 and borders[c] == np.inf for c in padding)
    # Every tree level names its split's condition, and every level past a
    # tree's depth the padding condition.
    for t, tree in enumerate(model.trees):
        for s in range(tables.max_depth):
            c = tables.tree_cond[t, s]
            if s < tree.depth:
                split = tree.splits[s]
                assert pairs[c] == (split.feature_index, split.border_ordinal)
            else:
                assert pairs[c] == (0, 255)
    return features, borders


class TestBinarizerMatchesBorderCompares:
    """Stage 1 of both backends against ``np.greater`` of each condition's
    raw feature values and its border, bit for bit: on every block of the
    batch (the later ones start past object 0, the last may be partial), in
    both layouts, over a dirty buffer."""

    @settings(max_examples=80, deadline=None)
    @given(binarize_cases())
    def test_every_panel_byte_equals_the_border_compare(self, case):
        """The numpy panel: 1 where the condition holds, 0 where it fails
        and in every column past the live objects."""
        model, raw, matrix, block_size = case
        tables = ModelTables(model)
        features, borders = checked_conditions(model, tables)
        panel = np.empty((borders.size, block_size), dtype=np.uint8)
        for layout in (matrix, matrix.transposed()):
            for begin, end in plan_blocks(matrix.n_objects, block_size):
                panel[:] = 0xA5
                quantize_block(layout, (begin, end), tables, panel)
                expected = expected_panel(raw[begin:end], borders, features, block_size)
                assert np.array_equal(panel, expected), (layout.layout, begin, end)

    @settings(max_examples=80, deadline=None)
    @given(binarize_cases())
    def test_every_mask_bit_equals_the_border_compare(self, case):
        """The native binarizer: bit o of group g's mask of condition c is
        ``np.greater`` of the condition's feature value and border, and clear
        past the live objects."""
        lib = native.kernels()
        if lib is None:
            pytest.skip("no native binarizer on this host")
        model, raw, matrix, block_size = case
        tables = ModelTables(model)
        features, borders = checked_conditions(model, tables)
        # One binding serves both layouts.
        bound = native.BoundKernels(lib, tables, tables.bank(LeafPrecision.BINARY64),
                                    block_size // 64)
        for layout in (matrix, matrix.transposed()):
            masks, binarize, _ = bound.over(layout, np.zeros(matrix.n_objects))
            for begin, end in plan_blocks(matrix.n_objects, block_size):
                masks[:] = np.uint64(0xA5A5A5A5A5A5A5A5)  # a dirty buffer
                quantize_block(layout, (begin, end), tables, masks, binarize)
                groups = -(-(end - begin) // 64)
                expected = expected_masks(raw[begin:end], borders, features)
                assert np.array_equal(masks[:groups], expected), (layout.layout, begin, end)


def test_every_block_length_in_both_layouts():
    """The native binarizer on one block of every length from 1 to 128, in
    both layouts: 21 features (a partial last tile of 5), negative borders,
    values equal to a border and NaN.  Past the live objects a zero fed to
    an unmasked compare exceeds the negative borders, so every bit there
    must be clear, over a dirty buffer."""
    lib = native.kernels()
    if lib is None:
        pytest.skip("no native binarizer on this host")
    rng = np.random.default_rng(21)
    rows = [np.sort(rng.choice(np.arange(-8, 8, dtype=np.float32) / 4, size=3, replace=False))
            for _ in range(21)]
    trees = tuple(ObliviousTree(1, (SplitCondition(f, o),), np.zeros(2))
                  for f, row in enumerate(rows) for o in range(row.size))
    model = ObliviousModel(tuple(FloatFeatureBorders(f, row) for f, row in enumerate(rows)),
                           trees, scale=1.0, bias=0.0)
    tables = ModelTables(model)
    features, borders = checked_conditions(model, tables)
    assert (borders < 0).sum() >= 21
    pool = np.concatenate([np.arange(-10, 10, dtype=np.float32) / 4, [np.nan]]).astype(np.float32)
    raw = rng.choice(pool, size=(128, 21))
    bound = native.BoundKernels(lib, tables, tables.bank(LeafPrecision.BINARY64), 2)
    for live in range(1, 129):
        for matrix in (FeatureMatrix(raw[:live], Layout.OBJECT_MAJOR),
                       FeatureMatrix(np.ascontiguousarray(raw[:live].T), Layout.FEATURE_MAJOR)):
            masks, binarize, _ = bound.over(matrix, np.zeros(live))
            masks[:] = np.uint64(0xA5A5A5A5A5A5A5A5)
            binarize(0, live)
            assert masks.shape == (-(-live // 64), borders.size)
            expected = expected_masks(raw[:live], borders, features)
            assert np.array_equal(masks, expected), (matrix.layout, live)
            if live % 64:
                assert not (masks[-1] >> np.uint64(live % 64)).any(), (matrix.layout, live)

"""Stage 1: turn binary32 feature values into what the split compares read.

The quantile of a value against a sorted border list is the number of
borders the value strictly exceeds.  NaN crosses nothing and quantizes to 0,
so NaN fails every split.  For strictly ascending borders ``b``, a value
``v`` with quantile ``q`` satisfies ``q > o`` exactly when ``v > b[o]``, so
a split on ordinal ``o`` can compare either.

The two backends use the two sides of that rule, with the same bits:

* ``numpy`` quantizes.  A block is quantized by a fixed-step lower-bound
  search over a per-model ``BorderTable``: every feature's borders padded
  with +inf to ``2**s - 1`` entries, where ``s`` is the bit length of the
  largest border count.  Every value of the block takes exactly ``s``
  steps, whatever the data, so the stage is as branch-free as the paper's
  exhaustive compare while doing ``s`` compares per value instead of one
  per border.  ``quantize_value`` is the scalar reference kernel the search
  is tested against.
* ``avx512`` binarizes.  ``quantize_block`` is given the model's bound
  binarization kernel (``native.BoundKernels``, ``obtree_binarize`` in
  ``native.c``), which compares each block's values against the border of
  each distinct split condition only, once per condition and 16 objects,
  into one 64-bit mask per (64-object group, condition).  It compares by
  ``_CMP_GT_OQ``, as ``np.greater`` does: NaN exceeds nothing, -0.0 equals
  +0.0, and the +inf border of the padding condition is never exceeded.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from typing import Sequence

import numpy as np

from .model import FloatFeatureBorders, border_row_errors


class Layout(Enum):
    """Input matrix order: objects-by-features or the transposed form."""

    OBJECT_MAJOR = "object-major"
    FEATURE_MAJOR = "feature-major"


class FeatureMatrix:
    """A batch of binary32 feature values in one contiguous layout.

    Element (object o, feature f) lives at offset ``o * n_features + f`` for
    OBJECT_MAJOR input and ``f * n_objects + o`` for FEATURE_MAJOR input.
    ``layout`` is a ``Layout`` or its value string; anything else is a
    ``ValueError``.  Input of any other dtype is converted to binary32 on
    construction, so float64 values are rounded to nearest before any border
    compare: for example ``nextafter(0.5, 1)`` rounds to 0.5 and does not
    cross a border at 0.5.
    """

    __slots__ = ("layout", "values", "n_objects", "n_features")

    def __init__(self, values: np.ndarray, layout: Layout | str):
        arr = np.ascontiguousarray(values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        self.layout = Layout(layout)
        self.values = arr
        if self.layout is Layout.OBJECT_MAJOR:
            self.n_objects, self.n_features = arr.shape
        else:
            self.n_features, self.n_objects = arr.shape

    def feature_values(self, feature: int, begin: int, end: int) -> np.ndarray:
        """Values of one feature for objects [begin, end), as a view."""
        if self.layout is Layout.OBJECT_MAJOR:
            return self.values[begin:end, feature]
        return self.values[feature, begin:end]

    def feature_rows(self, begin: int, end: int) -> np.ndarray:
        """(features x objects) values of objects [begin, end), as a view."""
        if self.layout is Layout.OBJECT_MAJOR:
            return self.values[begin:end].T
        return self.values[:, begin:end]

    def transposed(self) -> "FeatureMatrix":
        """The same logical batch in the other layout (copies the data)."""
        other = (
            Layout.FEATURE_MAJOR if self.layout is Layout.OBJECT_MAJOR else Layout.OBJECT_MAJOR
        )
        return FeatureMatrix(self.values.T.copy(), other)


class QuantizedBlock:
    """One byte per (feature, object) for a block, feature-major.

    Rows are padded to ``block_size``.  ``quantize_block`` writes the live
    columns with one store and zeroes the padding columns with another, so
    the padding of a partial block fails every split.
    """

    __slots__ = ("block_size", "n_features", "quantiles")

    def __init__(self, n_features: int, block_size: int):
        self.block_size = block_size
        self.n_features = n_features
        self.quantiles = np.zeros((n_features, block_size), dtype=np.uint8)


class BorderTable:
    """Every feature's borders in one flat binary32 table, built once per model.

    Row ``f`` holds feature ``f``'s borders padded with +inf to ``2**steps - 1``
    entries, where ``steps`` is the bit length of the largest border count;
    ``offsets[f, 0]`` is the flat index at which row ``f`` starts.  A value
    never exceeds the padding, so the search over a row counts real borders
    only.  Rows that are not strictly ascending, hold a NaN or have more than
    254 borders are rejected with the feature index in the message, because
    the search would silently miscount them.
    """

    __slots__ = ("n_features", "steps", "values", "offsets")

    def __init__(self, feature_borders: Sequence):
        rows = []
        for f, entry in enumerate(feature_borders):
            if isinstance(entry, FloatFeatureBorders):
                row = entry.borders
            else:
                row = np.asarray(entry, dtype=np.float32)
            errors = border_row_errors(row)
            if errors:
                raise ValueError(f"feature {f}: {errors[0]}")
            rows.append(row)
        self.n_features = len(rows)
        self.steps = max((row.size for row in rows), default=0).bit_length()
        width = (1 << self.steps) - 1
        table = np.full((self.n_features, width), np.inf, dtype=np.float32)
        for f, row in enumerate(rows):
            table[f, : row.size] = row
        self.values = table.reshape(-1)
        self.offsets = np.arange(self.n_features, dtype=np.intp)[:, None] * width


def quantize_value(value: float, borders: Sequence[float]) -> int:
    """Count of borders strictly below ``value``; NaN maps to 0.

    Scalar reference kernel.  Borders are ascending, so the scan may stop at
    the first border that is not crossed.
    """
    count = 0
    for b in borders:
        if value > b:
            count += 1
        else:
            break
    return count


def quantize_block(
    matrix: FeatureMatrix,
    object_range: tuple[int, int],
    model_borders: BorderTable | Sequence,
    out: QuantizedBlock | np.ndarray,
    quantize: Callable[[FeatureMatrix, int, int, np.ndarray], None] | None = None,
) -> None:
    """Stage 1 for objects [begin, end) of the batch, into ``out``.

    ``model_borders`` is a ``BorderTable``, or one border sequence (or
    ``FloatFeatureBorders``) per feature, from which a table is built for
    this call.  What ``out`` holds depends on the backend:

    * ``quantize`` None (``numpy``): ``out`` is a ``QuantizedBlock`` that
      receives the quantiles.  The whole block is searched at once: a
      position per (feature, object) starts at its row's offset and takes
      exactly ``steps`` steps, from the largest down, each moving past
      ``step`` borders when the value exceeds the last of them.  The final
      position minus the offset is the count of crossed borders.  Padding
      columns beyond the live range are zeroed.  The hot path has no
      per-object or per-feature branches.
    * ``quantize`` the model's binarization kernel (``avx512``,
      ``native.BoundKernels.over``, bound to the table given here): ``out`` is
      the (groups x conditions) uint64 array of condition masks that
      that method describes, and no quantile is computed.
    """
    begin, end = object_range
    if not 0 <= begin <= end <= matrix.n_objects:
        raise ValueError(f"object range [{begin}, {end}) outside batch of {matrix.n_objects}")
    if quantize is not None:
        if quantize.table is not model_borders:
            raise ValueError("the native binarizer is bound to another border table")
        quantize(matrix, begin, end, out)
        return
    live = end - begin
    if live > out.block_size:
        raise ValueError(f"range of {live} objects exceeds block size {out.block_size}")
    table = model_borders if isinstance(model_borders, BorderTable) else BorderTable(model_borders)
    if table.n_features != out.n_features:
        raise ValueError(
            f"output block has {out.n_features} feature rows, model has {table.n_features}"
        )
    if matrix.n_features != table.n_features:
        raise ValueError(
            f"matrix has {matrix.n_features} features, model has {table.n_features}"
        )

    # One contiguous copy makes each of the ``steps`` compares a unit-stride pass.
    values = np.ascontiguousarray(matrix.feature_rows(begin, end))
    pos = np.repeat(table.offsets, live, axis=1)
    bound = np.empty(pos.shape, dtype=np.float32)
    crossed = np.empty(pos.shape, dtype=bool)
    for k in reversed(range(table.steps)):
        step = 1 << k
        # bound = table[pos + step - 1], read through a view shifted by
        # step - 1.  The search never leaves a row, so mode="clip" only
        # skips the bounds check.
        table.values[step - 1 :].take(pos, out=bound, mode="clip")
        np.greater(values, bound, out=crossed)
        pos += crossed * step
    q = out.quantiles
    np.subtract(pos, table.offsets, out=q[:, :live], casting="unsafe")
    q[:, live:] = 0

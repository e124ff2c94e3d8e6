"""Stage 1: turn binary32 feature values into one-byte quantiles.

The quantile of a value against a sorted border list is the number of
borders the value strictly exceeds.  Borders are compared exhaustively (the
border count is small and the comparisons vectorize); a binary search would
reintroduce data-dependent branching for no win at these sizes.  NaN crosses
nothing and quantizes to 0, so NaN fails every split.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .model import FloatFeatureBorders, aligned_zeros


class Layout(Enum):
    """Input matrix order: objects-by-features or the transposed form."""

    OBJECT_MAJOR = "object-major"
    FEATURE_MAJOR = "feature-major"


class FeatureMatrix:
    """A batch of binary32 feature values in one contiguous layout.

    Element (object o, feature f) lives at offset ``o * n_features + f`` for
    OBJECT_MAJOR input and ``f * n_objects + o`` for FEATURE_MAJOR input.
    Input of any other dtype is converted to binary32 on construction, so
    float64 values are rounded to nearest before any border compare: for
    example ``nextafter(0.5, 1)`` rounds to 0.5 and does not cross a border
    at 0.5.
    """

    __slots__ = ("layout", "values", "n_objects", "n_features")

    def __init__(self, values: np.ndarray, layout: Layout):
        arr = np.ascontiguousarray(values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        self.layout = layout
        self.values = arr
        if layout is Layout.OBJECT_MAJOR:
            self.n_objects, self.n_features = arr.shape
        else:
            self.n_features, self.n_objects = arr.shape

    def feature_values(self, feature: int, begin: int, end: int) -> np.ndarray:
        """Values of one feature for objects [begin, end), as a view."""
        if self.layout is Layout.OBJECT_MAJOR:
            return self.values[begin:end, feature]
        return self.values[feature, begin:end]

    def transposed(self) -> "FeatureMatrix":
        """The same logical batch in the other layout (copies the data)."""
        other = (
            Layout.FEATURE_MAJOR if self.layout is Layout.OBJECT_MAJOR else Layout.OBJECT_MAJOR
        )
        return FeatureMatrix(self.values.T.copy(), other)


class QuantizedBlock:
    """One byte per (feature, object) for a block, feature-major.

    Rows are padded to ``block_size`` and padding bytes are zero, so later
    stages may read whole lane groups unconditionally.  Storage is 64-byte
    aligned.
    """

    __slots__ = ("block_size", "n_features", "quantiles")

    def __init__(self, n_features: int, block_size: int):
        self.block_size = block_size
        self.n_features = n_features
        self.quantiles = aligned_zeros(n_features * block_size, np.uint8).reshape(
            n_features, block_size
        )


def _border_arrays(model_borders: Sequence) -> list[np.ndarray]:
    out = []
    for entry in model_borders:
        if isinstance(entry, FloatFeatureBorders):
            out.append(entry.borders)
        else:
            out.append(np.ascontiguousarray(entry, dtype=np.float32))
    return out


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
    model_borders: Sequence,
    out: QuantizedBlock,
) -> None:
    """Fill ``out`` with quantiles for objects [begin, end) of the batch.

    Loop order is features outer, objects inner, borders innermost.  Padding
    columns beyond the live range are zeroed.  The hot path has no
    per-object error branches.
    """
    begin, end = object_range
    live = end - begin
    if not 0 <= begin <= end <= matrix.n_objects:
        raise ValueError(f"object range [{begin}, {end}) outside batch of {matrix.n_objects}")
    if live > out.block_size:
        raise ValueError(f"range of {live} objects exceeds block size {out.block_size}")
    borders = _border_arrays(model_borders)
    if len(borders) != out.n_features:
        raise ValueError(
            f"output block has {out.n_features} feature rows, model has {len(borders)}"
        )

    q = out.quantiles
    for f, fb in enumerate(borders):
        vals = matrix.feature_values(f, begin, end)
        if fb.size == 0:
            q[f, :live] = 0
        else:
            # value > border for every (border, object) pair, summed down the
            # border axis; NaN compares false everywhere and yields 0.
            np.sum(vals[None, :] > fb[:, None], axis=0, dtype=np.uint8, out=q[f, :live])
        q[f, live:] = 0

"""Stage 1: the bit of every split condition for a block of objects.

Condition ``c`` of a model (``ModelTables``) holds for an object iff the
binary32 value of feature ``cond_feature[c]`` is greater than
``cond_border[c]``.  Both backends test each distinct condition once per
block by that one compare, as ``np.greater`` compares: NaN exceeds nothing,
-0.0 equals +0.0, and the +inf border of the padding condition is never
exceeded.  They differ only in where the bits go:

* ``numpy`` writes a (conditions x columns) panel of 0/1 bytes.  The
  conditions are taken ``CONDITION_CHUNK`` at a time into one float32
  buffer, so the scratch does not grow with the model's condition count.
* ``avx512`` runs the model's bound binarization kernel
  (``native.BoundKernels``, ``obtree_binarize`` in ``native.c``), which
  writes one 64-bit mask per (64-object group, condition).
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .evaluate import ModelTables

# Conditions per take of the numpy stage 1: its float32 buffer holds this
# many rows of a block's values, 256 KB for a 128-object block.
CONDITION_CHUNK = 512


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


def quantize_block(
    matrix: FeatureMatrix,
    object_range: tuple[int, int],
    tables: ModelTables,
    out: np.ndarray,
    binarize: Callable[[int, int], None] | None = None,
) -> None:
    """Stage 1 for objects [begin, end) of the batch, into ``out``.

    * ``binarize`` None (``numpy``): ``out`` is a uint8 array of one row per
      condition of ``tables`` and at least ``end - begin`` columns.  Column
      ``o`` of row ``c`` gets 1 where condition ``c`` holds for object
      ``begin + o``, else 0; the columns past the live objects get 0, so a
      partial block's padding fails every split.
    * ``binarize(begin, end)`` the binarization kernel bound to ``matrix``
      and ``out`` (``avx512``, ``native.BoundKernels.over``): ``out`` is the
      (groups x conditions) uint64 array of masks that that method describes.
    """
    begin, end = object_range
    if not 0 <= begin <= end <= matrix.n_objects:
        raise ValueError(f"object range [{begin}, {end}) outside batch of {matrix.n_objects}")
    if binarize is not None:
        binarize(begin, end)
        return
    live = end - begin
    features, borders = tables.cond_feature, tables.cond_border
    if out.dtype != np.uint8:
        raise ValueError(f"panel dtype is {out.dtype}, not uint8")
    if live > out.shape[1]:
        raise ValueError(f"range of {live} objects exceeds the panel's {out.shape[1]} columns")
    if out.shape[0] != borders.size:
        raise ValueError(f"panel has {out.shape[0]} rows, model has {borders.size} conditions")
    if matrix.n_features != tables.model.n_features:
        raise ValueError(
            f"matrix has {matrix.n_features} features, model has {tables.model.n_features}"
        )

    # np.take copies a source that is not C-contiguous, so copy once per
    # block, not once per chunk.  Condition features are in range, so
    # mode="clip" only skips the bounds check; with out=, the default mode
    # would also take through a temporary buffer.
    values = np.ascontiguousarray(matrix.feature_rows(begin, end))
    taken = np.empty((min(CONDITION_CHUNK, borders.size), live), dtype=np.float32)
    for first in range(0, borders.size, CONDITION_CHUNK):
        last = min(first + CONDITION_CHUNK, borders.size)
        chunk = taken[: last - first]
        np.take(values, features[first:last], axis=0, out=chunk, mode="clip")
        np.greater(chunk, borders[first:last, None], out=out[first:last, :live])
    out[:, live:] = 0

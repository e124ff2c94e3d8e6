"""Seeded synthetic models and feature batches for tests and benchmarks.

Every number comes from the raw 64-bit words of numpy's PCG64 seeded by
``np.random.PCG64(seed)`` (``random_raw``), whose stream numpy keeps fixed
across releases and platforms, through this module's own fixed maps: a unit
float is ``(x >> 11) * 2**-53``, in [0, 1) with 53 random bits, and an
integer below ``n`` is ``x % n``, biased by under ``n / 2**64``.  So a given
seed gives bit-identical models and batches everywhere.  Each array is drawn
whole, in the order the functions below state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_BORDERS, MAX_DEPTH, FloatFeatureBorders, ObliviousModel
from .quantize import FeatureMatrix, Layout


def _stream(seed: int) -> np.random.PCG64:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.PCG64(seed)


def _unit(words: np.ndarray) -> np.ndarray:
    """float64 in [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class SyntheticSpec:
    n_features: int
    borders_per_feature: int
    n_trees: int
    depth: int
    seed: int


def _distinct_border_rows(stream: np.random.PCG64, rows: int, count: int) -> np.ndarray:
    """(rows x count) ascending binary32 unit draws, distinct within each row.

    Where two draws of a row round to one binary32 value, the later one of
    each such pair is drawn again, until no row repeats a value.
    """
    borders = np.sort(_unit(stream.random_raw((rows, count))).astype(np.float32), axis=1)
    while True:
        row, col = np.nonzero(borders[:, 1:] == borders[:, :-1])
        if not row.size:
            return borders
        borders[row, col + 1] = _unit(stream.random_raw(row.size)).astype(np.float32)
        borders.sort(axis=1)


def generate_synthetic_model(spec: SyntheticSpec) -> ObliviousModel:
    """Deterministic random model: same spec and seed give the same bits.

    Drawn in this order: each feature's borders, unit draws rounded to
    binary32, distinct and ascending; each split's (feature, ordinal) pair,
    uniform, tree by tree; the leaves, uniform in [-1, 1); then scale in
    [0.5, 1.5) and bias in [-0.5, 0.5).
    """
    if spec.n_features < 1:
        raise ValueError("n_features must be at least 1")
    if not 1 <= spec.borders_per_feature <= MAX_BORDERS:
        raise ValueError(f"borders_per_feature must be in 1..{MAX_BORDERS}")
    if spec.n_trees < 0:
        raise ValueError("n_trees must be non-negative")
    if not 1 <= spec.depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}")

    stream = _stream(spec.seed)
    borders = _distinct_border_rows(stream, spec.n_features, spec.borders_per_feature)
    pairs = stream.random_raw((spec.n_trees * spec.depth, 2))
    leaves = _unit(stream.random_raw(spec.n_trees << spec.depth)) * 2.0 - 1.0
    scale, bias = _unit(stream.random_raw(2)) + (0.5, -0.5)
    return ObliviousModel._from_arrays(
        [FloatFeatureBorders(f, row) for f, row in enumerate(borders)],
        scale=scale, bias=bias,
        depths=[spec.depth] * spec.n_trees, split_counts=[spec.depth] * spec.n_trees,
        split_features=(pairs[:, 0] % np.uint64(spec.n_features)).tolist(),
        split_ordinals=(pairs[:, 1] % np.uint64(spec.borders_per_feature)).tolist(),
        leaf_counts=[1 << spec.depth] * spec.n_trees, leaves=leaves,
    )


def generate_feature_matrix(
    n_objects: int,
    n_features: int,
    seed: int,
    layout: Layout = Layout.OBJECT_MAJOR,
    lo: float = -0.25,
    hi: float = 1.25,
    nan_fraction: float = 0.0,
    inf_fraction: float = 0.0,
) -> FeatureMatrix:
    """Deterministic batch of binary32 features, uniform in [lo, hi) and
    rounded to nearest.

    Each value is drawn, object by object; then one roll per value, in the
    same order, makes it NaN below ``nan_fraction``, +inf or -inf on the two
    halves of the ``inf_fraction`` above that, and leaves it as drawn
    otherwise.  The special values exercise the quantizer's NaN and infinity
    policy end to end.
    """
    for name, count in (("n_objects", n_objects), ("n_features", n_features)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise TypeError(f"{name} must be an int, got {type(count).__name__}")
        if count < 0:
            raise ValueError(f"{name} must be non-negative, got {count}")
    for name, fraction in (("nan_fraction", nan_fraction), ("inf_fraction", inf_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {fraction}")
    if nan_fraction + inf_fraction > 1.0:
        raise ValueError(
            f"nan_fraction + inf_fraction must not exceed 1, got {nan_fraction} + {inf_fraction}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"lo and hi must be finite with lo < hi, got lo={lo}, hi={hi}")

    stream = _stream(seed)
    size = n_objects * n_features
    values = lo + _unit(stream.random_raw(size)) * (hi - lo)
    roll = _unit(stream.random_raw(size))
    edges = (nan_fraction, nan_fraction + inf_fraction / 2, nan_fraction + inf_fraction)
    values = np.select([roll < edge for edge in edges], [np.nan, np.inf, -np.inf], values)
    grid = values.astype(np.float32).reshape(n_objects, n_features)
    if layout is Layout.OBJECT_MAJOR:
        return FeatureMatrix(grid, Layout.OBJECT_MAJOR)
    return FeatureMatrix(grid.T.copy(), Layout.FEATURE_MAJOR)

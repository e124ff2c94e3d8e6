"""Ground-truth scalar evaluation and half-precision deviation metrics.

The oracle shares no table with the engine: each split condition is
evaluated directly on the raw binary32 feature value against the border it
names, the leaf index is assembled with the root condition in bit 0, and
tree contributions are summed in tree order.  That makes it independent of
the stage-1 condition table and the fused index/load/fold kernel it is used
to check.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .model import HALF_MAX, LeafPrecision, ObliviousModel, require_valid
from .quantize import FeatureMatrix


def evaluate_scalar(
    model: ObliviousModel,
    matrix: FeatureMatrix,
    leaf_precision: LeafPrecision = LeafPrecision.BINARY64,
) -> np.ndarray:
    """Per-object prediction by direct tree traversal on raw feature values.

    The trees are walked in the model's split and leaf arrays
    (``tree_bounds``), so no ``ObliviousTree`` is built.

    With BINARY16 leaf precision each leaf is converted here
    (``binary16_leaves``), widened to binary32 and accumulated in binary32,
    and the sums are converted to binary64 once at the end, mirroring the
    half-precision pipeline.
    """
    if not isinstance(leaf_precision, LeafPrecision):
        raise TypeError(f"leaf_precision: {leaf_precision!r} is not a LeafPrecision")
    require_valid(model)
    if matrix.n_features != model.n_features:
        raise ValueError(
            f"matrix has {matrix.n_features} features, model expects {model.n_features}"
        )
    n = matrix.n_objects
    wide = leaf_precision is LeafPrecision.BINARY64
    acc = np.zeros(n, dtype=np.float64 if wide else np.float32)
    leaves = model.leaves if wide else binary16_leaves(model.leaves).astype(np.float32)
    features, ordinals = model.split_features.tolist(), model.split_ordinals.tolist()

    for _, s0, s1, l0, l1 in model.tree_bounds():
        index = np.zeros(n, dtype=np.uint8)
        for d, (feature, ordinal) in enumerate(zip(features[s0:s1], ordinals[s0:s1])):
            border = model.float_features[feature].borders[ordinal]
            values = matrix.feature_values(feature, 0, n)
            index |= (values > border).view(np.uint8) << np.uint8(d)
        acc += leaves[l0:l1][index]

    return acc.astype(np.float64) * model.scale + model.bias


def binary16_leaves(leaves: np.ndarray) -> np.ndarray:
    """Binary64 leaves rounded to nearest-even binary16, saturated to +/-65504.

    Clipping first gives the same bits as converting first and saturating
    the infinities: rounding sends every magnitude below 65520 to at most
    65504, and the clip sends every larger one to 65504.
    """
    return np.clip(leaves, -HALF_MAX, HALF_MAX).astype(np.float16)


@dataclass(frozen=True)
class DeviationMetrics:
    max_abs: float
    mean_abs: float
    median_abs: float
    rms: float


def _finite_scores(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both score vectors in binary64; a NaN or +/-inf score is refused by name and index."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, scores in (("a", a), ("b", b)):
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise ValueError(f"{name}[{bad[0]}] is {scores.flat[bad[0]]}, not a finite score")
    return a, b


def deviation_metrics(a: np.ndarray, b: np.ndarray) -> DeviationMetrics:
    """Absolute-deviation statistics between two prediction vectors.

    The median is the lower middle element for even lengths.
    """
    a, b = _finite_scores(a, b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("prediction vectors must be 1-D and the same length")
    if a.size == 0:
        raise ValueError("prediction vectors must not be empty")
    diffs = np.abs(a - b)
    ordered = np.sort(diffs)
    return DeviationMetrics(
        max_abs=float(ordered[-1]),
        mean_abs=float(diffs.mean()),
        median_abs=float(ordered[(diffs.size - 1) // 2]),
        rms=float(math.sqrt(float(np.mean(diffs * diffs)))),
    )


def classification_flip_count(a: np.ndarray, b: np.ndarray, threshold: float) -> int:
    """Objects whose predicted class differs between two score vectors."""
    if math.isnan(threshold):
        raise ValueError(f"threshold is {threshold}, not a number to compare scores with")
    a, b = _finite_scores(a, b)
    if a.shape != b.shape:
        raise ValueError("prediction vectors must be the same length")
    return int(np.count_nonzero(np.sign(a - threshold) != np.sign(b - threshold)))

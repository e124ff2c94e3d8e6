"""Oblivious decision-tree ensemble model: types, validation, leaf banks.

An oblivious tree tests one condition per depth level, so a tree of depth
``h`` is fully described by ``h`` split conditions plus a table of ``2**h``
leaf values.  A split condition is a (feature, border ordinal) pair: it is
true for an object iff the object's raw feature value strictly exceeds the
border at that ordinal.

All types are immutable after construction (ndarray payloads are marked
read-only), so models can be shared freely across threads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

log = logging.getLogger("obtree")

MAX_BORDERS = 254   # ordinals and border counts stay below 255, the sentinel's ordinal
MAX_DEPTH = 8       # leaf indices must fit one byte


class LeafPrecision(Enum):
    BINARY64 = "binary64"
    BINARY16 = "binary16"


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FloatFeatureBorders:
    """Sorted split thresholds for one float feature.

    ``borders`` must be strictly ascending binary32 values, at most 254 of
    them (``border_row_errors``).
    """

    feature_index: int
    borders: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.borders, dtype=np.float32)
        object.__setattr__(self, "borders", _readonly(arr))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloatFeatureBorders):
            return NotImplemented
        return (
            self.feature_index == other.feature_index
            and self.borders.tobytes() == other.borders.tobytes()
        )


@dataclass(frozen=True)
class SplitCondition:
    """One oblivious split: true iff value(feature) > borders[border_ordinal]."""

    feature_index: int
    border_ordinal: int


@dataclass(frozen=True, eq=False)
class ObliviousTree:
    depth: int
    splits: tuple[SplitCondition, ...]
    leaf_values: np.ndarray  # binary64, length 2**depth

    def __post_init__(self) -> None:
        object.__setattr__(self, "splits", tuple(self.splits))
        arr = np.ascontiguousarray(self.leaf_values, dtype=np.float64)
        object.__setattr__(self, "leaf_values", _readonly(arr))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObliviousTree):
            return NotImplemented
        return (
            self.depth == other.depth
            and self.splits == other.splits
            and self.leaf_values.tobytes() == other.leaf_values.tobytes()
        )


@dataclass(frozen=True, eq=False)
class ObliviousModel:
    """A scored ensemble: prediction = scale * sum(tree leaf values) + bias."""

    float_features: tuple[FloatFeatureBorders, ...]
    trees: tuple[ObliviousTree, ...]
    scale: float
    bias: float
    # Set by a successful validate_model; the model is immutable, so it stays valid.
    _validated: bool = field(default=False, init=False, repr=False)
    # Every tree's leaf values back to back, as one read-only float64 array
    # whose consecutive spans the trees' leaf_values view, or None.  Set by
    # the loader that made the trees so (serialize.model_from_document).
    _leaf_span: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "float_features", tuple(self.float_features))
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def n_features(self) -> int:
        return len(self.float_features)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObliviousModel):
            return NotImplemented
        return (
            self.float_features == other.float_features
            and self.trees == other.trees
            and _bits64(self.scale) == _bits64(other.scale)
            and _bits64(self.bias) == _bits64(other.bias)
        )


def _bits64(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def border_row_errors(borders: np.ndarray) -> list[str]:
    """Why one feature's binary32 borders cannot be split on (empty = ok).

    A row is the feature's sorted thresholds: a NaN border, which no value
    exceeds, or a repeated or descending one marks a malformed model.  The
    limit of 254 borders keeps every ordinal, and every count of borders a
    value exceeds (``quantize_value``), below 255: ``ModelTables`` keys its
    never-true sentinel condition with ordinal 255 (``feature * 256 +
    ordinal``).
    """
    errors = []
    if borders.size > MAX_BORDERS:
        errors.append(f"{borders.size} borders exceed the limit of {MAX_BORDERS}")
    if np.isnan(borders).any():
        errors.append("NaN border")
    elif not (borders[1:] > borders[:-1]).all():
        errors.append("non-ascending borders")
    return errors


def validate_model(model: ObliviousModel) -> list[str]:
    """Check every model invariant; return a list of violations (empty = ok).

    Each message carries the feature/tree coordinates of the violation so a
    bad model document can be fixed by hand.  The trees are checked all at
    once; only if that finds a violation are they checked one by one, to
    word each.  A model that passes is marked as validated, so
    ``require_valid`` checks each model object only once.
    """
    errors: list[str] = []

    if model.n_features == 0:
        errors.append("model: at least one float feature is required")
    for name in ("scale", "bias"):
        value = getattr(model, name)
        if not math.isfinite(value):
            errors.append(f"model: {name} must be finite, got {value!r}")

    for i, ff in enumerate(model.float_features):
        where = f"float_features[{i}]"
        if ff.feature_index != i:
            errors.append(f"{where}: feature index {ff.feature_index} does not match position {i}")
        errors.extend(f"{where}: {e}" for e in border_row_errors(ff.borders))

    if not _trees_valid(model):
        errors.extend(_tree_errors(model))

    if not errors:
        object.__setattr__(model, "_validated", True)
    return errors


def of_types(items, kinds: set) -> bool:
    """Whether every item's type is exactly one of ``kinds``: no ``bool`` for ``int``."""
    return set(map(type, items)) <= kinds


def _trees_valid(model: ObliviousModel) -> bool:
    """Whether ``_tree_errors`` finds nothing, tested on all trees at once.

    Depths and split coordinates must be of type ``int``: others, such as
    ``bool`` or numpy integers, only ``_tree_errors`` judges.
    """
    trees = model.trees
    if not trees:
        return True
    depths = [tree.depth for tree in trees]
    if not of_types(depths, {int}) or min(depths) < 1 or max(depths) > MAX_DEPTH:
        return False
    if [len(tree.splits) for tree in trees] != depths:
        return False
    leaves = [tree.leaf_values for tree in trees]
    if {arr.ndim for arr in leaves} != {1} or [arr.size for arr in leaves] != [1 << d for d in depths]:
        return False
    # Copies of at most 512 tables at a time, not of every leaf at once.
    if not all(np.isfinite(np.concatenate(leaves[t : t + 512])).all()
               for t in range(0, len(leaves), 512)):
        return False
    splits = [split for tree in trees for split in tree.splits]
    features = [split.feature_index for split in splits]
    ordinals = [split.border_ordinal for split in splits]
    n_borders = [ff.borders.size for ff in model.float_features]
    if not (of_types(features, {int}) and of_types(ordinals, {int})):
        return False
    if min(features) < 0 or max(features) >= len(n_borders):
        return False
    # Below the largest border count, the ordinals fit an int64 array.
    if min(ordinals) < 0 or max(ordinals) >= max(n_borders):
        return False
    return bool((np.array(ordinals) < np.array(n_borders)[np.array(features)]).all())


def _tree_errors(model: ObliviousModel) -> list[str]:
    """Every tree's violations, tree by tree, in ``validate_model``'s order."""
    errors = []
    for t, tree in enumerate(model.trees):
        where = f"trees[{t}]"
        if not 1 <= tree.depth <= MAX_DEPTH:
            errors.append(f"{where}: depth {tree.depth} outside 1..{MAX_DEPTH}")
            continue
        if len(tree.splits) != tree.depth:
            errors.append(f"{where}: {len(tree.splits)} splits for depth {tree.depth}")
        if tree.leaf_values.ndim != 1:
            errors.append(f"{where}: leaf values must be 1-D, got shape {tree.leaf_values.shape}")
        elif tree.leaf_values.size != 1 << tree.depth:
            errors.append(
                f"{where}: {tree.leaf_values.size} leaf values, expected {1 << tree.depth}"
            )
        if np.isnan(tree.leaf_values).any():
            errors.append(f"{where}: NaN leaf value")
        elif np.isinf(tree.leaf_values).any():
            errors.append(f"{where}: infinite leaf value")
        for s, split in enumerate(tree.splits):
            swhere = f"{where}.splits[{s}]"
            if not 0 <= split.feature_index < model.n_features:
                errors.append(f"{swhere}: feature index {split.feature_index} out of range")
                continue
            n_borders = model.float_features[split.feature_index].borders.size
            if not 0 <= split.border_ordinal < n_borders:
                errors.append(
                    f"{swhere}: border ordinal out of range ({split.border_ordinal} vs "
                    f"{n_borders} borders in float_features[{split.feature_index}])"
                )
    return errors


def require_valid(model: ObliviousModel) -> None:
    if model._validated:
        return
    errors = validate_model(model)
    if errors:
        raise ValueError("invalid model: " + "; ".join(errors))


HALF_MAX = 65504.0  # largest finite binary16 magnitude


@dataclass(frozen=True, eq=False)
class LeafBank:
    """Per-tree leaf tables in one precision, stored back to back.

    ``values`` is a single flat array with no padding; tree ``t`` owns its
    ``2**depth`` leaves at ``values[offsets[t] : offsets[t + 1]]``.
    ``planes`` (uint8) holds the same tables as byte planes, for the native
    fold kernels: each tree's bytes keep their place in ``values``' bytes,
    but byte ``b`` of its leaf ``i`` moves to ``b * 2**depth + i`` within
    them (``byte_planes``).
    ``saturation_count`` counts binary16 conversions clamped to +/-65504.
    """

    precision: LeafPrecision
    values: np.ndarray
    offsets: np.ndarray   # int64, n_trees + 1 entries: where each table starts, then the end
    max_abs_leaf: float
    saturation_count: int
    planes: np.ndarray

    def table(self, tree_index: int) -> np.ndarray:
        return self.values[self.offsets[tree_index] : self.offsets[tree_index + 1]]

    @property
    def n_trees(self) -> int:
        return self.offsets.size - 1


def run_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal ``keys`` starts, then ``keys.size``, as int64."""
    return np.append(np.flatnonzero(np.diff(keys, prepend=-1)), keys.size).astype(np.int64)


def byte_planes(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The leaf tables ``values[offsets[t] : offsets[t + 1]]`` as byte planes.

    Each table of ``n`` leaves of ``B`` bytes becomes its ``B`` x ``n``
    byte transpose, in the same place: plane ``b`` holds byte ``b`` of every
    leaf.  Each run of equal-size tables is transposed in one operation.
    """
    width = values.itemsize
    raw = values.view(np.uint8)
    planes = np.empty_like(raw)
    runs = run_bounds(np.diff(offsets))
    for first, end in zip(runs[:-1], runs[1:]):
        trees, n = end - first, offsets[first + 1] - offsets[first]
        lo, hi = offsets[first] * width, offsets[end] * width
        planes[lo:hi].reshape(trees, width, n)[...] = (
            raw[lo:hi].reshape(trees, n, width).swapaxes(1, 2))
    return planes


def build_leaf_bank(model: ObliviousModel, precision: LeafPrecision) -> LeafBank:
    """Materialize the per-tree leaf tables used by the accumulation stage.

    Both precisions start from all leaves back to back: a loaded model's
    one array of them (``ObliviousModel._leaf_span``), which a binary64 bank
    uses as it is, or else the trees' arrays concatenated.  Binary64 banks
    hold the tree leaf values bit for bit.  Binary16
    banks hold the round-to-nearest-even conversion of each leaf, saturated
    to +/-65504: each clamp increments ``saturation_count``, and a bank with
    any is logged as a warning on the ``obtree`` logger.
    """
    require_valid(model)
    leaves = model._leaf_span
    if leaves is None:
        leaves = np.concatenate([np.zeros(0)] + [tree.leaf_values for tree in model.trees])
    offsets = np.cumsum([0] + [tree.leaf_values.size for tree in model.trees], dtype=np.int64)
    max_abs = float(np.max(np.abs(leaves), initial=0.0))
    saturated = 0
    if precision is LeafPrecision.BINARY64:
        values = leaves
    else:
        with np.errstate(over="ignore"):
            values = leaves.astype(np.float16)
        overflow = np.isinf(values)
        saturated = int(overflow.sum())
        values[overflow] = np.where(leaves[overflow] > 0, HALF_MAX, -HALF_MAX)
        if saturated:
            log.warning(
                "binary16 leaf bank: %d of %d leaves saturated to +/-%g", saturated,
                leaves.size, HALF_MAX,
            )

    return LeafBank(
        precision=precision,
        values=_readonly(values),
        offsets=_readonly(offsets),
        max_abs_leaf=max_abs,
        saturation_count=saturated,
        planes=_readonly(byte_planes(values, offsets)),
    )

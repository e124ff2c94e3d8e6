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
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from numbers import Integral

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


@dataclass(frozen=True, eq=False, init=False)
class ObliviousModel:
    """A scored ensemble: prediction = scale * sum(tree leaf values) + bias.

    The trees are held as arrays, one tree after the other.  Tree ``t`` has
    depth ``depths[t]``; its split conditions, level by level, are
    ``split_features`` and ``split_ordinals`` from ``split_offsets[t]`` to
    ``split_offsets[t + 1]``, and its leaf values are ``leaves`` from
    ``leaf_offsets[t]`` to ``leaf_offsets[t + 1]``.  Each offsets array ends
    with the total.  ``trees`` are the same trees as ``ObliviousTree``
    objects, built on first read.
    """

    float_features: tuple[FloatFeatureBorders, ...]
    scale: float
    bias: float
    depths: np.ndarray          # int64, as are the offsets and the splits
    split_offsets: np.ndarray
    split_features: np.ndarray
    split_ordinals: np.ndarray
    leaf_offsets: np.ndarray
    leaves: np.ndarray          # float64
    # Set by a successful validate_model; the model is immutable, so it stays valid.
    _validated: bool = field(default=False, repr=False)

    def __init__(self, float_features, trees, scale, bias):
        float_features, trees = tuple(float_features), tuple(trees)
        for i, ff in enumerate(float_features):
            if ff.borders.ndim != 1:
                raise ValueError(
                    f"float_features[{i}]: borders must be 1-D, got shape {ff.borders.shape}")
        for t, tree in enumerate(trees):
            if tree.leaf_values.ndim != 1:
                raise ValueError(
                    f"trees[{t}]: leaf values must be 1-D, got shape {tree.leaf_values.shape}")
        splits = [split for tree in trees for split in tree.splits]
        self._fill(
            float_features, scale, bias,
            depths=[tree.depth for tree in trees],
            split_counts=[len(tree.splits) for tree in trees],
            split_features=[split.feature_index for split in splits],
            split_ordinals=[split.border_ordinal for split in splits],
            leaf_counts=[tree.leaf_values.size for tree in trees],
            leaves=np.concatenate([np.zeros(0)] + [tree.leaf_values for tree in trees]),
        )

    @classmethod
    def _from_arrays(cls, float_features, scale, bias, **arrays) -> ObliviousModel:
        """A model of the trees that ``arrays`` describe (``_fill``)."""
        model = cls.__new__(cls)
        model._fill(float_features, scale, bias, **arrays)
        return model

    def _fill(self, float_features, scale, bias, *, depths, split_counts, split_features,
              split_ordinals, leaf_counts, leaves) -> None:
        """Set every field from sequences of integers (``_index_array``), each
        tree's count of splits and of leaves, and all leaf values back to back."""
        split_offsets = _readonly(np.cumsum([0, *split_counts], dtype=np.int64))
        fields = {
            "float_features": tuple(float_features),
            "scale": float(scale),
            "bias": float(bias),
            "depths": _index_array(depths, "depth"),
            "split_offsets": split_offsets,
            "split_features": _index_array(split_features, "feature index", split_offsets),
            "split_ordinals": _index_array(split_ordinals, "border ordinal", split_offsets),
            "leaf_offsets": _readonly(np.cumsum([0, *leaf_counts], dtype=np.int64)),
            "leaves": _readonly(np.ascontiguousarray(leaves, dtype=np.float64)),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @cached_property
    def trees(self) -> tuple[ObliviousTree, ...]:
        """The trees as ``ObliviousTree`` objects; their leaf values view ``leaves``.

        Equal split conditions are one shared ``SplitCondition``, which is
        immutable: one object per split would be tens of thousands for the
        garbage collector to scan while the model lives.
        """
        pairs = list(zip(self.split_features.tolist(), self.split_ordinals.tolist()))
        shared = {pair: SplitCondition(*pair) for pair in set(pairs)}
        conditions = list(map(shared.__getitem__, pairs))
        return tuple(ObliviousTree(depth, tuple(conditions[s0:s1]), self.leaves[l0:l1])
                     for depth, s0, s1, l0, l1 in self.tree_bounds())

    def tree_bounds(self):
        """Each tree's depth, first and end split, and first and end leaf, as ints."""
        splits, leaves = self.split_offsets.tolist(), self.leaf_offsets.tolist()
        return zip(self.depths.tolist(), splits, splits[1:], leaves, leaves[1:])

    @property
    def n_features(self) -> int:
        return len(self.float_features)

    @property
    def n_trees(self) -> int:
        return self.depths.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObliviousModel):
            return NotImplemented
        return (
            self.float_features == other.float_features
            and all(getattr(self, name).tobytes() == getattr(other, name).tobytes() for name in
                    ("depths", "split_offsets", "split_features", "split_ordinals", "leaf_offsets",
                     "leaves"))
            and _bits64(self.scale) == _bits64(other.scale)
            and _bits64(self.bias) == _bits64(other.bias)
        )


def _index_array(values, name: str, offsets: np.ndarray | None = None) -> np.ndarray:
    """``values`` as a read-only int64 array, each taken by ``operator.index``.

    A value that is no integer, or one that int64 cannot hold and so out of
    range for any model, raises ``ValueError`` naming its tree, and its split
    where ``offsets`` are the trees' offsets into ``values``.
    """
    try:
        return _readonly(np.fromiter(map(operator.index, values), np.int64, len(values)))
    except (TypeError, OverflowError):
        j, value = next((j, v) for j, v in enumerate(values)
                        if not (isinstance(v, Integral) and -(2**63) <= v < 2**63))
    if offsets is None:
        raise ValueError(f"trees[{j}]: {name} {value!r} out of range")
    t = int(np.searchsorted(offsets, j, side="right")) - 1
    raise ValueError(f"trees[{t}].splits[{j - offsets[t]}]: {name} {value!r} out of range")


def _bits64(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def border_row_errors(borders: np.ndarray) -> list[str]:
    """Why one feature's binary32 borders cannot be split on (empty = ok).

    A row is the feature's sorted thresholds: a NaN border, which no value
    exceeds, or a repeated or descending one marks a malformed model.  The
    limit of 254 borders keeps every ordinal, and every count of borders a
    value exceeds, below 255: ``ModelTables`` keys its never-true sentinel
    condition with ordinal 255 (``feature * 256 + ordinal``).
    """
    errors = []
    if borders.size > MAX_BORDERS:
        errors.append(f"{borders.size} borders exceed the limit of {MAX_BORDERS}")
    if np.isnan(borders).any():
        errors.append("NaN border")
    elif not (borders[1:] > borders[:-1]).all():
        errors.append("non-ascending borders")
    return errors


_ROWS_PER_CHECK = 64  # one copy of all border rows raised set-up peak memory 5%


def _bad_border_rows(rows: list[np.ndarray]) -> np.ndarray:
    """Which ``rows`` ``border_row_errors`` finds fault with, as booleans.

    The rows are checked ``_ROWS_PER_CHECK`` at a time, back to back: no
    value may be NaN, and each must exceed the one before it in its row.
    """
    sizes = np.array([row.size for row in rows], dtype=np.int64)
    bad = sizes > MAX_BORDERS
    for first in range(0, len(rows), _ROWS_PER_CHECK):
        end = min(first + _ROWS_PER_CHECK, len(rows))
        flat = np.concatenate(rows[first:end])
        row = np.repeat(np.arange(first, end), sizes[first:end])
        fault = np.isnan(flat)
        fault[1:] |= (row[1:] == row[:-1]) & ~(flat[1:] > flat[:-1])
        bad[row[fault]] = True
    return bad


def validate_model(model: ObliviousModel) -> list[str]:
    """Check every model invariant; return a list of violations (empty = ok).

    Each message carries the feature/tree coordinates of the violation so a
    bad model document can be fixed by hand.  The border rows and the trees'
    arrays are checked in bulk, and the messages are worded for each row or
    tree found bad.  A model that passes is marked as validated, so
    ``require_valid`` checks each model object only once.
    """
    errors: list[str] = []

    if model.n_features == 0:
        errors.append("model: at least one float feature is required")
    for name in ("scale", "bias"):
        value = getattr(model, name)
        if not math.isfinite(value):
            errors.append(f"model: {name} must be finite, got {value!r}")

    bad_rows = _bad_border_rows([ff.borders for ff in model.float_features])
    for i, ff in enumerate(model.float_features):
        where = f"float_features[{i}]"
        if ff.feature_index != i:
            errors.append(f"{where}: feature index {ff.feature_index} does not match position {i}")
        if bad_rows[i]:
            errors.extend(f"{where}: {e}" for e in border_row_errors(ff.borders))

    errors.extend(_tree_errors(model))
    if not errors:
        object.__setattr__(model, "_validated", True)
    return errors


def _tree_errors(model: ObliviousModel) -> list[str]:
    """Every tree's violations, tree by tree, in ``validate_model``'s order."""
    depths, features, ordinals = model.depths, model.split_features, model.split_ordinals
    split_ends, leaf_ends, leaves = model.split_offsets, model.leaf_offsets, model.leaves
    sized = (depths >= 1) & (depths <= MAX_DEPTH)
    bad = ~sized | (np.diff(split_ends) != depths)
    bad |= np.diff(leaf_ends) != 1 << np.clip(depths, 0, MAX_DEPTH)
    known = (features >= 0) & (features < model.n_features)
    # A split on no feature reads the appended border count of 0.
    n_borders = np.array([ff.borders.size for ff in model.float_features] + [0])
    borders = n_borders[np.where(known, features, -1)]
    bad_split = ~known | (ordinals < 0) | (ordinals >= borders)
    bad[np.searchsorted(split_ends, np.flatnonzero(bad_split), side="right") - 1] = True
    # np.min and np.max propagate NaN, so both are finite iff every leaf is.
    if leaves.size and not np.isfinite([leaves.min(), leaves.max()]).all():
        nonfinite = np.flatnonzero(~np.isfinite(leaves))
        bad[np.searchsorted(leaf_ends, nonfinite, side="right") - 1] = True

    errors = []
    for t in np.flatnonzero(bad).tolist():
        where, depth = f"trees[{t}]", int(depths[t])
        if not sized[t]:
            errors.append(f"{where}: depth {depth} outside 1..{MAX_DEPTH}")
            continue
        first, end = int(split_ends[t]), int(split_ends[t + 1])
        if end - first != depth:
            errors.append(f"{where}: {end - first} splits for depth {depth}")
        values = leaves[leaf_ends[t] : leaf_ends[t + 1]]
        if values.size != 1 << depth:
            errors.append(f"{where}: {values.size} leaf values, expected {1 << depth}")
        if np.isnan(values).any():
            errors.append(f"{where}: NaN leaf value")
        elif np.isinf(values).any():
            errors.append(f"{where}: infinite leaf value")
        for s in range(first, end):
            swhere = f"{where}.splits[{s - first}]"
            if not known[s]:
                errors.append(f"{swhere}: feature index {features[s]} out of range")
            elif bad_split[s]:
                errors.append(
                    f"{swhere}: border ordinal out of range ({ordinals[s]} vs "
                    f"{borders[s]} borders in float_features[{features[s]}])"
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
    ``saturation_count`` counts binary16 conversions clamped to +/-65504.
    """

    precision: LeafPrecision
    values: np.ndarray
    offsets: np.ndarray   # int64, n_trees + 1 entries: where each table starts, then the end
    saturation_count: int

    def table(self, tree_index: int) -> np.ndarray:
        return self.values[self.offsets[tree_index] : self.offsets[tree_index + 1]]

    @property
    def n_trees(self) -> int:
        return self.offsets.size - 1


def build_leaf_bank(model: ObliviousModel, precision: LeafPrecision) -> LeafBank:
    """Materialize the per-tree leaf tables used by the accumulation stage.

    Both precisions start from the model's one array of all leaves, which
    a binary64 bank uses as it is.  Binary64 banks hold the tree leaf values
    bit for bit.  Binary16 banks hold the round-to-nearest-even conversion
    of each leaf, saturated to +/-65504: each clamp increments
    ``saturation_count``, and a bank with any is logged as a warning on the
    ``obtree`` logger.
    """
    if not isinstance(precision, LeafPrecision):
        raise TypeError(f"precision: {precision!r} is not a LeafPrecision")
    require_valid(model)
    leaves = model.leaves
    saturated = 0
    if precision is LeafPrecision.BINARY64:
        values = leaves
    else:
        with np.errstate(over="ignore"):
            values = leaves.astype(np.float16)
        overflow = np.isinf(values)
        saturated = int(np.count_nonzero(overflow))
        values[overflow] = np.where(leaves[overflow] > 0, HALF_MAX, -HALF_MAX)
        if saturated:
            log.warning(
                "binary16 leaf bank: %d of %d leaves saturated to +/-%g", saturated,
                leaves.size, HALF_MAX,
            )

    return LeafBank(precision=precision, values=_readonly(values), offsets=model.leaf_offsets,
                    saturation_count=saturated)

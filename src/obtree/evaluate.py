"""Orchestration of the three-stage pipeline over blocks and batches.

A batch is split into cache-sized blocks; for each block the split
conditions are evaluated (stage 1, ``quantize_block``).  Then, for each
pass of one or more whole blocks, every tree's leaf index is computed and
its leaf value fetched and folded into the pass's per-object sums, which
start at zero, and the scale/bias transform writes the pass's scores into
the call's float64 result.  All three stages
run in one of two backends chosen when an ``Evaluator`` is made
(``Evaluator.backend``); stages 2 and 3 run fused:

* ``avx512``: the kernels of ``native.c`` (see ``obtree.native``): the
  binarization kernel, one call per block, writes one 64-bit mask per
  (64-object group, distinct split condition) straight from the block's
  binary32 values into the block's slot of a pass of up to 16 groups, and
  the fold kernels, one call per pass, read those masks group by group and
  write the finished scores.  They read each tree's conditions from its row
  of ``ModelTables.tree_cond`` and load each tree's byte planes once for all
  the groups of the pass; a nearly empty last group gathers its binary64
  leaves from the bank instead.  Those planes, a byte transpose of the leaf
  bank, and everything else they read about the model, such as its runs of
  trees of equal depth, ``native.BoundKernels`` builds;
* ``numpy``: array operations.  Stage 1 writes a (conditions x objects)
  panel of 0/1 bytes; stages 2-3 gather its rows into a (trees x objects)
  panel covering a block's live objects rounded up to a multiple of 8, so
  that leaf indices are assembled on 64-bit words of eight byte lanes, one
  level at a time from a column of ``ModelTables.tree_cond``.  Binary16
  leaves are widened to binary32 with integer operations, and per-tree
  contributions are summed by a row-order reduce (checked by an import-time
  probe, with an explicit row loop as the fallback), then finalized by
  numpy.

Both test each distinct split condition of the model once per block (or
group), by the one compare ``value > cond_border[c]`` (``obtree.quantize``).
Both sum each object's leaves in tree order, so results are bit-identical
across backends and do not depend on the block plan or the input layout.
A ``predict`` call binds its backend's stages to its matrix and scores once
(``native.Call``, or ``_NumpyCall``), then runs one loop for both: each
block's stage 1 through ``quantize_block`` with the call's ``binarize``,
and the call's ``fold`` once a pass fills or the batch ends.  Given an
``EvalStats``, ``predict`` wraps those two in timers, which also count the
block's NaN and +/-inf inputs, and reports its scratch memory; without one
it reads no clock and counts nothing.

The three leaf-load strategies name the paper's AVX2/AVX-512 load
mechanics.  A strategy selects only its leaf precision: ``naive`` and
``permute64`` run the same program on the binary64 bank, ``permute16`` on
the binary16 bank, widened to binary32.  The ``avx512`` backend selects both
by ``vpermb``/``vpermt2b`` from byte planes that it builds from the bank.
The strategy is the only setting of ``EvalConfig``; the block size and the
tail policy (whole groups, then a scalar remainder) are its constants.  The tail plan changes
neither what runs nor the bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from . import native
from .model import (MAX_DEPTH, LeafBank, LeafPrecision, ObliviousModel, build_leaf_bank,
                    require_valid)
from .quantize import CONDITION_CHUNK, FeatureMatrix, quantize_block, quantize_panel


PERMUTE64_LANES = 8    # binary64 lanes in one 512-bit vector
PERMUTE16_LANES = 32   # binary16 lanes in one 512-bit vector
BYTE_LANES = 64        # objects per 64-bit condition mask, one per byte lane


class LeafStrategy(Enum):
    """The paper's leaf-load strategies.

    In the paper, NAIVE loads binary64 leaves by index and PERMUTE64 selects
    them from register-resident 8-lane vectors; PERMUTE16 does the same on
    32-lane binary16 vectors.  Here each selects only its ``precision``:
    NAIVE and PERMUTE64 run the same binary64 program, and the ``avx512``
    backend selects the leaves of either precision by byte-plane ``vpermb``.
    Object groups are kept so that configurations plan tails as the paper's
    512-bit kernels would.
    """

    NAIVE = "naive"
    PERMUTE64 = "permute64"
    PERMUTE16 = "permute16"

    @property
    def precision(self) -> LeafPrecision:
        return LeafPrecision.BINARY16 if self is LeafStrategy.PERMUTE16 else LeafPrecision.BINARY64

    @property
    def object_group(self) -> int:
        """Objects per 512-bit vector group, for tail planning."""
        if self is LeafStrategy.PERMUTE64:
            return PERMUTE64_LANES
        if self is LeafStrategy.PERMUTE16:
            return PERMUTE16_LANES
        return BYTE_LANES


def permute_group_count(depth: int, lanes: int) -> int:
    """Number of source vectors needed to hold all 2**depth leaves."""
    return max(1, (1 << depth) // lanes)


# The ordinal key of the sentinel condition: real ordinals are below
# MAX_BORDERS (254), so no split shares its key.
_SENTINEL_ORDINAL = 255


class TailPolicy(Enum):
    SCALAR_TAIL = "scalar"


@dataclass(frozen=True)
class TailPlan:
    """How one block's live objects map onto a vector kernel's groups.

    Whole groups run through the vector path and the remainder through the
    scalar path, so no lane is padded.  The engines compute all live
    objects of a block in one pass; the plan is what the benchmark reports.
    """

    policy: TailPolicy
    group_size: int
    live: int
    vector_groups: int
    scalar_remainder: int
    padded_lanes: int


def apply_tail_policy(policy: TailPolicy, group_size: int, live: int) -> TailPlan:
    if group_size < 1:
        raise ValueError("group size must be positive")
    if live < 0:
        raise ValueError("live object count must be non-negative")
    groups = live // group_size
    return TailPlan(policy, group_size, live, groups, live - groups * group_size, padded_lanes=0)


def plan_blocks(n_objects: int, block_size: int) -> list[tuple[int, int]]:
    """Consecutive disjoint [begin, end) ranges covering the batch."""
    if block_size < 1:
        raise ValueError("block size must be positive")
    return [(b, min(b + block_size, n_objects)) for b in range(0, n_objects, block_size)]


@dataclass(frozen=True)
class EvalConfig:
    strategy: LeafStrategy = LeafStrategy.NAIVE

    # Objects per block of stage 1.  At 256 or more the numpy backend's
    # per-call condition panel, which grows with the block, raises every
    # benchmark workload's predict peak memory.  The avx512 fold runs once
    # per pass of one to eight blocks (native.BoundKernels.groups).
    block_size: ClassVar[int] = 128
    tail_policy: ClassVar[TailPolicy] = TailPolicy.SCALAR_TAIL

    def __post_init__(self):
        if not isinstance(self.strategy, LeafStrategy):
            raise TypeError(f"strategy: {self.strategy!r} is not a LeafStrategy")

    @property
    def object_group(self) -> int:
        return self.strategy.object_group


class ModelTables:
    """Derived arrays that both backends read, shared by a model's evaluations.

    The split conditions form a table of distinct (feature, border ordinal)
    pairs, sorted by feature: condition ``c`` holds iff the binary32 value of
    feature ``cond_feature[c]`` is greater than ``cond_border[c]``, the
    border that the ordinal names.  Both backends read the trees' conditions
    from ``tree_cond``, one int32 row of ``MAX_DEPTH`` (8) condition numbers
    per tree, level by level.  Where some tree is shallower than the
    deepest, its levels past its depth hold the sentinel condition (feature
    0, ordinal 255, border +inf), which can never hold and so contributes a
    zero bit; levels past the deepest tree's depth hold -1, and no stage
    reads them.  Leaf banks are built per precision on first use.
    """

    def __init__(self, model: ObliviousModel):
        require_valid(model)
        self.model = model
        self.n_trees = model.n_trees
        depths = model.depths
        self.max_depth = int(depths.max(initial=0))
        self._banks: dict[LeafPrecision, LeafBank] = {}

        # Split s of tree t, at depth level s, is key feature * 256 + ordinal
        # at keys[t, s]; the splits come in tree order, each tree's by level.
        trees = np.repeat(np.arange(self.n_trees), depths)
        levels = np.arange(trees.size) - model.split_offsets[trees]
        keys = np.full((self.n_trees, self.max_depth), _SENTINEL_ORDINAL, dtype=np.intp)
        keys[trees, levels] = model.split_features * 256 + model.split_ordinals
        distinct, inverse = np.unique(keys, return_inverse=True)
        self.cond_feature = distinct >> 8
        # Every feature's borders back to back, then the sentinel's +inf.
        rows = [ff.borders for ff in model.float_features]
        borders = np.concatenate(rows + [np.array([np.inf], dtype=np.float32)])
        first = np.cumsum([0] + [row.size for row in rows])[self.cond_feature]
        ordinal = distinct & 255
        self.cond_border = borders[
            np.where(ordinal == _SENTINEL_ORDINAL, borders.size - 1, first + ordinal)]
        self.tree_cond = np.full((self.n_trees, MAX_DEPTH), -1, dtype=np.int32)
        # The inverse's shape differs across numpy 2.x releases.
        self.tree_cond[:, : self.max_depth] = inverse.reshape(keys.shape)

    def bank(self, precision: LeafPrecision) -> LeafBank:
        if precision not in self._banks:
            self._banks[precision] = build_leaf_bank(self.model, precision)
        return self._banks[precision]


# On a C-contiguous panel of two or more columns, np.add.reduce(axis=0) adds
# the rows top to bottom for each column, a strict left fold in tree order;
# on one column it sums pairwise.  Probe once at import at a width the kernel
# uses and fall back to the explicit row loop if the identity stops holding.
def _reduce_is_row_order(dtype) -> bool:
    span = np.arange(512, dtype=np.float64)
    data = (((-1.0) ** span) * 2.0 ** (span % 37 - 18) / (span + 1.0)).reshape(64, 8)
    data = data.astype(dtype)
    folded = np.zeros(8, dtype=dtype)
    for row in data:
        folded += row
    return bool(np.array_equal(np.add.reduce(data, axis=0), folded))


_ROW_ORDER_REDUCE = {
    np.dtype(np.float64): _reduce_is_row_order(np.float64),
    np.dtype(np.float32): _reduce_is_row_order(np.float32),
}

# Panels are whole 64-bit words of byte lanes wide, and so never the one
# column that np.add.reduce would sum pairwise.
_PANEL_COLUMNS = 8

# Trees per leaf take of the numpy stage 2: their flat leaf offsets, 8 bytes
# per tree and object, are the take's only scratch.
_TREE_CHUNK = 128


def _fold_rows(contrib: np.ndarray, acc: np.ndarray) -> None:
    """acc += the first ``acc.size`` columns of ``contrib``'s rows, in tree order."""
    live = acc.size
    if _ROW_ORDER_REDUCE[contrib.dtype]:
        acc += np.add.reduce(contrib, axis=0)[:live]
    else:
        for row in contrib:
            acc += row[:live]


def _leaf_index_panel(tables: ModelTables, cond: np.ndarray) -> np.ndarray:
    """(trees x columns) leaf indices from a C-contiguous condition panel, branch-free.

    ``cond`` is stage 1's (conditions x columns) panel of 0/1 bytes; each
    depth level gathers its trees' rows of it by a column of ``tree_cond``,
    with no compare.  The column count must be a multiple of 8: the bit
    panels are shifted and or-ed as 64-bit words.  Each byte holds 0 or 1
    before its shift by at most 7, so no bit carries into the next byte's
    lane.
    """
    shape = (tables.n_trees, cond.shape[1])
    bits = np.empty(shape, dtype=np.uint8)
    idx = np.zeros(shape, dtype=np.uint8)
    bits64, idx64 = bits.view(np.uint64), idx.view(np.uint64)
    for k in range(tables.max_depth):
        # Condition numbers are in range, so mode="clip" only skips the
        # bounds check; with out=, the default mode would also copy the rows
        # through a temporary buffer.
        np.take(cond, tables.tree_cond[:, k], axis=0, out=bits, mode="clip")
        np.left_shift(bits64, np.uint64(k), out=bits64)
        idx64 |= bits64
    return idx


def _widen_binary16(half: np.ndarray, out: np.ndarray) -> None:
    """Write binary16 values into the binary32 array ``out``, exactly, by integer operations.

    The sign-extended shift puts the sign, the exponent and the mantissa in
    their binary32 places, with copies of the sign in bits 28-30 that the
    mask clears; the result is the value times 2**-112, which the multiply
    undoes.  Exact for every finite binary16 value, subnormals and +-0
    included, under IEEE subnormal arithmetic (numpy's default: no
    flush-to-zero or denormals-are-zero mode).  Not for inf or NaN, which
    leaf banks never hold.
    """
    bits = out.view(np.int32)
    np.left_shift(half.view(np.int16), 13, out=bits, dtype=np.int32)
    bits &= ~0x70000000
    out *= 2.0**112


def _fold_block_segment(
    tables: ModelTables,
    bank: LeafBank,
    panel: np.ndarray,
    out: np.ndarray,
    begin: int,
    end: int,
) -> None:
    """Run the numpy stages 2 and 3 for objects [begin, end) of a call, into ``out[begin:end]``.

    ``panel`` is stage 1's C-contiguous condition panel of those objects,
    ``end - begin`` columns rounded up to a multiple of 8, the extra ones
    its cleared padding.  The leaves are loaded by indexed takes from the
    bank in its own precision, ``_TREE_CHUNK`` trees at a time, into a
    panel of binary64 leaves, or of binary32 ones into which each chunk of
    binary16 leaves is widened (``_widen_binary16``).  The panel is folded
    into the block's sums, which become scores as in the oracle: converted
    to binary64, multiplied by ``scale``, then ``bias`` added.
    """
    idx = _leaf_index_panel(tables, panel)
    half = bank.precision is LeafPrecision.BINARY16
    contrib = np.empty(idx.shape, dtype=np.float32 if half else np.float64)
    if half:
        chunk = np.empty((min(_TREE_CHUNK, tables.n_trees), idx.shape[1]), dtype=np.float16)
    starts = bank.offsets[:-1, None]
    for first in range(0, tables.n_trees, _TREE_CHUNK):
        last = first + _TREE_CHUNK
        # np.add(..., dtype=np.intp) would also make a cast copy of the indices.
        flat = idx[first:last].astype(np.intp)
        flat += starts[first:last]
        rows = contrib[first:last]
        taken = chunk[: rows.shape[0]] if half else rows
        # Indices are in range by construction, so mode="clip" only skips
        # the bounds check.
        np.take(bank.values, flat, out=taken, mode="clip")
        if half:
            _widen_binary16(taken, rows)
    del idx
    sums = np.zeros(end - begin, dtype=contrib.dtype)
    _fold_rows(contrib, sums)
    scores = np.multiply(sums, tables.model.scale, out=out[begin:end], dtype=np.float64)
    scores += tables.model.bias


@dataclass
class EvalStats:
    """What one ``Evaluator.predict`` call did, filled in by the call.

    ``blocks`` counts the blocks of ``EvalConfig.block_size`` objects the
    call ran, and ``fold_groups`` the 64-object groups of each fold pass:
    ``native.BoundKernels.groups`` on ``avx512``, one block's on numpy.
    ``stage1_s`` is the time spent in stage 1 (each block's binarizer,
    called by ``quantize_block``) and ``fold_s`` in stages 2-3 and finalize
    (each pass's fold), each summed with ``time.perf_counter``; the rest of
    the call is its own glue.  ``scratch_bytes`` is the per-call memory
    besides the input and the scores: on ``avx512`` the condition masks of
    the pass's groups that the call fills and the fold kernel's sums of
    them on the C stack; on numpy the arrays that the
    largest block's stages 1-3 allocate, summed; on both, the temporary of
    the input counts.
    ``saturated_leaves`` is the leaf bank's count of binary16 leaves clamped
    to +/-65504 (``LeafBank.saturation_count``), 0 for binary64.
    ``nan_inputs`` and ``inf_inputs`` count the NaN and the +/-inf values of
    the call's matrix, whether or not a split tests their feature, a block's
    count of values at a time (one boolean temporary), after its stage 1.
    """

    backend: str = ""
    objects: int = 0
    blocks: int = 0
    fold_groups: int = 0
    stage1_s: float = 0.0
    fold_s: float = 0.0
    scratch_bytes: int = 0
    saturated_leaves: int = 0
    nan_inputs: int = 0
    inf_inputs: int = 0


class _NumpyCall:
    """One ``predict`` call on the numpy stages, with ``native.Call``'s
    attributes: ``binarize`` writes a block's condition panel, a contiguous
    view of ``masks`` of its live columns rounded up to whole 64-bit words,
    and ``fold`` folds that block into the scores ``out``; a pass is one
    block."""

    span = EvalConfig.block_size

    def __init__(self, evaluator: Evaluator, matrix: FeatureMatrix):
        n = matrix.n_objects
        self.out = np.empty(n)
        self._tables, self._bank, self._matrix = evaluator.tables, evaluator.bank, matrix
        self._n_cond = evaluator.tables.cond_border.size
        self.masks = np.empty(self._n_cond * self._width(min(n, self.span)), dtype=np.uint8)
        self._block = None  # the panel of the block binarized last

    @staticmethod
    def _width(live: int) -> int:
        return -(-live // _PANEL_COLUMNS) * _PANEL_COLUMNS

    def binarize(self, begin: int, end: int) -> None:
        width = self._width(end - begin)
        self._block = self.masks[: self._n_cond * width].reshape(self._n_cond, width)
        quantize_panel(self._matrix, begin, end, self._tables, self._block)

    def fold(self, begin: int, end: int) -> None:
        _fold_block_segment(self._tables, self._bank, self._block, self.out, begin, end)


def _timed(binarize, fold, matrix: FeatureMatrix, stats: EvalStats) -> tuple:
    """``binarize`` and ``fold`` timed into ``stats``, which they first
    clear: ``stage1_s`` and ``fold_s``, and the NaN and +/-inf values of
    each block that ``binarize`` writes, counted after it."""
    stats.stage1_s = stats.fold_s = 0.0
    stats.nan_inputs = stats.inf_inputs = 0
    # A block's values as a flat slice in either layout: never a strided
    # view, which numpy buffers.
    flat, n_features = matrix.values.reshape(-1), matrix.n_features

    def timed_binarize(begin: int, end: int) -> None:
        started = time.perf_counter()
        binarize(begin, end)
        stats.stage1_s += time.perf_counter() - started
        values = flat[begin * n_features : end * n_features]
        nonfinite = values.size - int(np.count_nonzero(np.isfinite(values)))
        nan = int(np.count_nonzero(np.isnan(values))) if nonfinite else 0
        stats.nan_inputs += nan
        stats.inf_inputs += nonfinite - nan

    def timed_fold(begin: int, end: int) -> None:
        started = time.perf_counter()
        fold(begin, end)
        stats.fold_s += time.perf_counter() - started

    return timed_binarize, timed_fold


class Evaluator:
    """A model prepared for repeated evaluation under one configuration.

    The backend of all three stages is chosen here, once: ``avx512`` where
    the native kernels build and the CPU runs them, ``numpy`` otherwise.
    The native binarizer and fold are bound to the model's tables here too.
    """

    def __init__(
        self,
        model: ObliviousModel | ModelTables,
        config: EvalConfig | None = None,
    ):
        if not isinstance(config, (EvalConfig, type(None))):
            raise TypeError(f"config: {config!r} is not an EvalConfig")
        self.tables = model if isinstance(model, ModelTables) else ModelTables(model)
        self.config = config or EvalConfig()
        self.bank = self.tables.bank(self.config.strategy.precision)
        lib = native.kernels()
        self._native = (None if lib is None else native.BoundKernels(
            lib, self.tables, self.bank, EvalConfig.block_size // 64))

    @property
    def model(self) -> ObliviousModel:
        return self.tables.model

    @property
    def backend(self) -> str:
        """The backend of stages 1-3: ``"avx512"`` or ``"numpy"``."""
        return "numpy" if self._native is None else native.NAME

    def predict(self, matrix: FeatureMatrix, stats: EvalStats | None = None) -> np.ndarray:
        """Raw scores for every object in the batch, in input order.

        With ``stats``, the call fills it in; without, it reads no clock.
        """
        if not isinstance(matrix, FeatureMatrix):
            raise TypeError(f"matrix must be a FeatureMatrix, got {type(matrix).__name__}")
        if not (stats is None or isinstance(stats, EvalStats)):
            raise TypeError(f"stats must be an EvalStats or None, got {type(stats).__name__}")
        n_features = self.tables.model.n_features
        if matrix.n_features != n_features:
            raise ValueError(f"matrix has {matrix.n_features} features, model expects {n_features}")
        bound = self._native
        call = _NumpyCall(self, matrix) if bound is None else bound.call(matrix)
        masks, binarize, fold, span = call.masks, call.binarize, call.fold, call.span
        if stats is not None:
            binarize, fold = _timed(binarize, fold, matrix, stats)
        n, size, tables = matrix.n_objects, EvalConfig.block_size, self.tables
        # The blocks of plan_blocks(n, size), without building its list; a
        # pass of `span` objects, whole blocks, folds once it fills or the
        # batch ends.
        for begin in range(0, n, size):
            end = begin + size if n - begin > size else n
            quantize_block(matrix, (begin, end), tables, masks, binarize)
            if end == n or end % span == 0:
                fold(begin - begin % span, end)
        out = call.out
        if bound is not None:
            # A call that raised gives nothing back: the next call makes its own.
            bound.release(call)
        if stats is not None:
            stats.backend, stats.objects, stats.blocks = self.backend, n, -(-n // size)
            stats.fold_groups = span // 64
            stats.saturated_leaves = self.bank.saturation_count
            stats.scratch_bytes = min(n, size) * n_features + (
                self._numpy_scratch_bytes(n) if bound is None else bound.scratch_bytes(n))
        return out

    def _numpy_scratch_bytes(self, n: int) -> int:
        """The arrays of the numpy stages for the largest block of ``n``
        objects, summed, though not all are live at once: the condition
        panel, stage 1's contiguous copy of the block's values and its
        buffer of ``CONDITION_CHUNK`` conditions, and stage 2's bits and leaf
        indices, one chunk of flat leaf offsets (and of binary16 leaves), the
        panel of binary64 or widened binary32 leaves and the sums."""
        live = min(n, EvalConfig.block_size)
        cols = -(-live // _PANEL_COLUMNS) * _PANEL_COLUMNS
        n_cond, n_trees = self.tables.cond_border.size, self.tables.n_trees
        half = self.bank.precision is LeafPrecision.BINARY16
        item = 4 if half else 8
        stage1 = live * 4 * (self.tables.model.n_features + min(CONDITION_CHUNK, n_cond))
        stage2 = (cols * (n_trees * (2 + item) + min(_TREE_CHUNK, n_trees) * (8 + 2 * half))
                  + live * item)
        return cols * n_cond + stage1 + stage2


def evaluate(
    model: ObliviousModel, matrix: FeatureMatrix, config: EvalConfig | None = None
) -> np.ndarray:
    """One-shot evaluation; use ``Evaluator`` to amortize model preparation."""
    return Evaluator(model, config).predict(matrix)

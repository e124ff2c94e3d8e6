"""The AVX-512 backend for stages 1-3, built from ``native.c`` at run time.

Stage 1 is one binarization kernel: it tests every distinct split
condition of the model on a block's raw binary32 values, one compare per
condition and 16 objects, into one 64-bit mask per 64-object group and
condition.  Stages 2-3 are one fold kernel per leaf precision, which reads
those masks and selects each tree's leaves from its byte planes by
``vpermb``/``vpermt2b``, one select per leaf byte for 64 objects, and writes
each object's score, ``scale * sum + bias``; a pass's nearly empty last
group gathers its binary64 leaves from the bank's values instead (where it
holds at most ``GATHER_LIMITS`` objects).  ``BoundKernels`` binds both to
a model as one C struct, ``obtree_model``, and builds what only the kernels
read: the leaf bank's byte planes (``byte_planes``), and the runs the
kernels walk: conditions of one feature and of one 16-feature tile, and
trees of one depth.  A ``predict`` call checks its matrix and binds the
kernels to it once (``BoundKernels.call``, a ``Call``), then binarizes
block by block into the slots of one pass of up to ``PASS_GROUPS`` groups
and folds each pass in one call, so the fold walks the bank once per pass.
A pass holds 16 groups (1024 objects) where their masks fit
``MASK_BUDGET``, and one block's groups otherwise.

The first ``Evaluator`` of a process compiles the package's C source with
the system C compiler into a private temporary directory, loads it through
``ctypes`` and deletes the directory; the loaded library stays mapped for
the life of the process.  Without a compiler, after a failed build, when the
library lacks one of the kernels, or on a CPU that lacks any of
``CPU_FLAGS`` (AVX-512 CPUs without VBMI or GFNI, such as Skylake-SP and
Cascade Lake, among them), ``kernels()`` returns None, the engine runs its
numpy stages instead, and the reason is logged as a warning on the
``obtree`` logger.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.resources
import logging
import os
import subprocess
import tempfile
import time

import numpy as np

from .model import LeafBank, LeafPrecision
from .quantize import FeatureMatrix, Layout

log = logging.getLogger("obtree")

COMPILER = "gcc"
# No -march=native and no -ffast-math: the kernels name their ISA in a target
# attribute, and bit identity needs every add rounded on its own.
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
CPU_FLAGS = ("avx512f", "avx512bw", "f16c", "avx512vbmi", "gfni")  # bit k of obtree_cpu_flags()
BUILD_TIMEOUT_S = 120
NAME = "avx512"

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_FOLD = [_ptr, _ptr, _ptr, _ptr]
# The argument types of each kernel of native.c; each returns void.  ctypes
# converts an int to a pointer argument about 0.13 us faster than to an int64
# one (CPython 3.11), so the kernels take ranges of objects as pointers, and
# a call passes the int64 arguments it can take from the model as c_int64
# objects, which ctypes passes as they are.
KERNEL_ARGS = {"obtree_binarize": [_ptr, _ptr, _ptr, _i64, _i64, _ptr],
               "obtree_fold_binary16": _FOLD, "obtree_fold_binary64": _FOLD}
_FALSE, _TRUE = _i64(0), _i64(1)  # obtree_binarize's feature_major


# The groups of a fold pass (MAX_GROUPS of native.c) where their masks take at
# most MASK_BUDGET bytes.  The gain comes from spreading each tree's fixed
# cost over more groups, and stops where the masks outgrow the cache: on a
# Sapphire Rapids VM (2 MB L2), 1024 objects of the deep shape (1,024
# conditions, 128 KB of masks) ran x0.49 (binary64) and x0.73 (binary16) of
# their time in 2-group passes, and of desk (5,501 conditions, 688 KB) x1.03
# and x1.10.
PASS_GROUPS = 16
MASK_BUDGET = 256 * 1024


# By tree depth (0-8), the most live objects of a pass's last group whose
# binary64 leaves the fold gathers from the bank's values, not selects from
# the byte planes.  A model of several depths takes the least of its depths'
# counts, so that no run of its trees gathers where it folds slower, and the
# group's sums keep one order for the whole fold.  On a 2-vCPU Sapphire
# Rapids VM, 1000 trees of one depth over 32 features, a group of this many
# objects folded gathered in x0.71-0.82 of its time from the planes alone in
# its pass at depths 1-6, x0.43 at depth 7 and x0.18 at depth 8; as the last
# of two groups, where the planes are loaded for the other anyway, in
# x0.73-0.96 at depths 1-7 and x0.95-1.07 at depth 8 (two sessions).  Alone
# it gathered faster up to 24-40 objects at depths 1-7 and up to 63 at depth
# 8, but as the last of two groups only up to 2-4 at depths 7-8, where the
# bank's values and planes outgrow the 2 MB L2.  Binary16 leaves, gathered
# 16 to a vpgatherdd and widened, folded x1.2-1.3 slower alone at every count
# and depth, so they never gather.
GATHER_LIMITS = (0, 24, 24, 24, 24, 16, 16, 4, 2)


class _Model(ctypes.Structure):
    """``obtree_model`` of ``native.c``: a model as the kernels read it."""

    _fields_ = [
        ("cond_feature", _ptr), ("feature_runs", _ptr), ("tile_runs", _ptr), ("offsets", _ptr),
        ("depth_runs", _ptr), ("tree_cond", _ptr), ("cond_border", _ptr), ("planes", _ptr),
        ("values", _ptr), ("n_cond", _i64), ("n_features", _i64), ("n_feature_runs", _i64),
        ("n_tile_runs", _i64), ("n_depth_runs", _i64), ("gather_limit", _i64),
        ("scale", ctypes.c_double), ("bias", ctypes.c_double),
    ]


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


class BoundKernels:
    """The binarization kernel and the fold kernel of the bank's leaf
    precision, from the loaded library ``lib``, bound to a model's
    ``ModelTables`` and leaf bank, for blocks of ``groups`` 64-object groups.

    ``groups`` (the attribute) is the groups of a fold pass, by one rule:
    ``PASS_GROUPS`` where their masks fit ``MASK_BUDGET``, else the block's
    ``groups``.  The bank's byte planes, the runs the kernels walk and one
    pass's mask buffer are built here, and one ``obtree_model`` is built
    with every pointer into them and the tables; it reads those arrays for
    as long as this object holds them."""

    def __init__(self, lib: ctypes.CDLL, tables, bank: LeafBank, groups: int):
        binary64 = bank.precision is LeafPrecision.BINARY64
        for array, dtype in ((tables.cond_feature, np.intp), (tables.cond_border, np.float32),
                             (tables.tree_cond, np.int32), (bank.offsets, np.int64),
                             (bank.values, np.float64 if binary64 else np.float16)):
            _require(array, np.dtype(dtype))
        # The fold walks the bank's tables with the tables' condition rows.
        depths = tables.model.depths
        if not np.array_equal(np.diff(bank.offsets), np.left_shift(1, depths)):
            raise ValueError(f"native kernels: a bank of {bank.n_trees} trees, not of the "
                             f"{tables.n_trees} trees of the tables and their depths")
        n_cond = tables.cond_border.size
        self.groups = PASS_GROUPS if PASS_GROUPS * 8 * n_cond <= MASK_BUDGET else groups
        self._binarize = lib.obtree_binarize
        self._fold = getattr(lib, f"obtree_fold_{bank.precision.value}")
        self._sum_bytes = 64 * (8 if binary64 else 4)
        planes = byte_planes(bank.values, bank.offsets)
        feature_runs = run_bounds(tables.cond_feature)
        tile_runs = run_bounds(tables.cond_feature >> 4)
        depth_runs = run_bounds(depths)
        self._held = (tables, bank, planes, feature_runs, tile_runs, depth_runs)
        self._model = _Model(
            tables.cond_feature.ctypes.data, feature_runs.ctypes.data, tile_runs.ctypes.data,
            bank.offsets.ctypes.data, depth_runs.ctypes.data, tables.tree_cond.ctypes.data,
            tables.cond_border.ctypes.data, planes.ctypes.data, bank.values.ctypes.data, n_cond,
            tables.model.n_features, feature_runs.size - 1, tile_runs.size - 1, depth_runs.size - 1,
            min((GATHER_LIMITS[d] for d in depths[depth_runs[:-1]]), default=0) if binary64 else 0,
            tables.model.scale, tables.model.bias,
        )
        self._address = ctypes.addressof(self._model)
        self._n_cond, self._n_features = n_cond, self._model.n_features
        # An object-major matrix's row: its length and its bytes.
        self._object_row, self._object_bytes = _i64(self._n_features), 4 * self._n_features
        # The held call and its mask buffer: a call takes it and gives it
        # back (release); a concurrent call finds the list empty and makes
        # its own.
        self._spare = [Call(self)]

    def scratch_bytes(self, n: int) -> int:
        """The bytes a call over ``n`` objects uses besides its input and
        scores: the masks of the pass's groups it fills, and the fold
        kernel's sums of those groups, which it keeps on the C stack."""
        return min(self.groups, -(-n // 64)) * (8 * self._n_cond + self._sum_bytes)

    def call(self, matrix: FeatureMatrix) -> Call:
        """One ``predict`` call over ``matrix``: a ``Call`` bound to it and
        to its new float64 scores, ``Call.out``.  Give it back with
        ``release`` once the call is done.  Refuses a matrix whose values
        are not a C-contiguous binary32 array of its objects and of the
        model's features."""
        values = matrix.values
        _require(values, _F32)
        n, n_features = matrix.n_objects, matrix.n_features
        if not (values.size == n * n_features and n_features == self._n_features):
            raise ValueError(f"a {n} x {n_features} matrix for {self._n_features} features")
        try:
            call = self._spare.pop()
        except IndexError:
            call = Call(self)
        call.out = out = np.empty(n)
        call._out_at, call._values, call._values_at = _address(out), values, _address(values)
        call._n = n
        if matrix.layout is _FEATURE_MAJOR:
            call._feature_major, call._row_length, call._stride = _TRUE, n, 4
        else:
            call._feature_major, call._row_length, call._stride = (
                _FALSE, self._object_row, self._object_bytes)
        return call

    def release(self, call: Call) -> None:
        """Takes back a finished ``call`` and its mask buffer for the next
        call, and drops its matrix, its scores and their addresses, so that
        no object of the call outlives it; it must not be called again."""
        call.out = call._values = call._row_length = None
        call._out_at = call._values_at = call._n = 0
        self._spare.append(call)


class Call:
    """One ``predict`` call's binding of the kernels (``BoundKernels.call``):
    the matrix, the scores ``out`` and ``masks``, the held (``groups`` x
    conditions) uint64 buffer of one pass, or a new one while another call
    holds it.  It holds the arrays whose addresses it passes, and the
    ``BoundKernels`` (its struct, planes, runs, tables and bank).

    A range [begin, end) of objects takes the rows of ``masks`` from
    ``row = begin // 64 % groups`` on, so the blocks of a pass (``64 *
    groups`` objects from a multiple of that on) fill its rows in turn;
    ``span`` is that pass's objects.  Each method refuses a range outside
    the batch or past the last row of ``masks``."""

    __slots__ = ("masks", "out", "span", "_kernels", "_model", "_binarize", "_fold", "_groups",
                 "_masks_at", "_row_bytes", "_out_at", "_values", "_values_at", "_n",
                 "_feature_major", "_row_length", "_stride")

    def __init__(self, kernels: BoundKernels):
        groups, n_cond = kernels.groups, kernels._n_cond
        self.masks = np.empty((groups, n_cond), _U64)
        self.span, self._groups, self._row_bytes = 64 * groups, groups, 8 * n_cond
        self._kernels, self._model = kernels, kernels._address
        self._binarize, self._fold = kernels._binarize, kernels._fold
        self._masks_at = _address(self.masks)

    def _rows(self, begin: int, end: int) -> int:
        row = begin // 64 % self._groups
        if not (0 <= begin <= end <= self._n and 64 * row + end - begin <= self.span):
            raise ValueError(f"objects [{begin}, {end}) outside the masks or the batch")
        return self._masks_at + row * self._row_bytes

    def binarize(self, begin: int, end: int) -> None:
        """Writes the condition masks of objects [begin, end) of the matrix
        into their rows: bit o of ``masks[row + g, c]`` holds condition
        ``c`` for object ``begin + 64 * g + o``.  The bits past ``end`` in
        the last group written are clear; other rows are not written."""
        rows, at, stride = self._rows(begin, end), self._values_at, self._stride
        self._binarize(self._model, at + begin * stride, at + end * stride, self._feature_major,
                       self._row_length, rows)

    def fold(self, begin: int, end: int) -> None:
        """Reads the rows of such a range, which may span the blocks
        binarized before it, sums every tree's leaf, in tree order, for each
        of its objects and writes ``scale * sum + bias`` into
        ``out[begin:end]``, and nothing else."""
        at = self._out_at
        self._fold(self._model, self._rows(begin, end), at + 8 * begin, at + 8 * end)


def _address(array: np.ndarray) -> int:
    """The address of a C-contiguous array's data.  ``from_buffer`` takes it
    about 4x faster than ``array.ctypes.data`` (CPython 3.11, numpy 2.4), but
    only from a writable array of at least one byte."""
    try:
        return _addressof(_from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


_addressof, _from_buffer = ctypes.addressof, ctypes.c_char.from_buffer


# Compared against a dtype object, not a type, ``!=`` is about 2x faster;
# an enum member read from the class costs about 0.1 us.
_F32, _U64 = np.dtype(np.float32), np.dtype(np.uint64)
_FEATURE_MAJOR = Layout.FEATURE_MAJOR


def _require(array: np.ndarray, dtype: np.dtype) -> None:
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(f"native kernel argument: {array.dtype} array of shape "
                         f"{array.shape} is not a C-contiguous {dtype} array")


def _build() -> ctypes.CDLL:
    source = importlib.resources.files("obtree").joinpath("native.c")
    with tempfile.TemporaryDirectory(prefix="obtree-") as tmp, \
            importlib.resources.as_file(source) as path:
        lib = os.path.join(tmp, "libobtree.so")
        subprocess.run(
            [COMPILER, *CFLAGS, "-o", lib, str(path)],
            check=True, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
        return ctypes.CDLL(lib)


def load_kernels() -> ctypes.CDLL | None:
    """Build and load the library, its kernels' argument types set, or None
    with the reason logged."""
    started = time.perf_counter()
    try:
        lib = _build()
    except FileNotFoundError:
        log.warning("numpy backend: no C compiler %r found", COMPILER)
        return None
    except subprocess.TimeoutExpired:
        log.warning("numpy backend: %s took over %d s to build native.c", COMPILER, BUILD_TIMEOUT_S)
        return None
    except subprocess.CalledProcessError as exc:
        log.warning("numpy backend: %s failed to build native.c: %s", COMPILER, exc.stderr.strip())
        return None
    except OSError as exc:
        log.warning("numpy backend: cannot build or load native.c: %s", exc)
        return None
    try:
        for name, args in KERNEL_ARGS.items():
            kernel = getattr(lib, name)
            kernel.argtypes, kernel.restype = args, None
        found = lib.obtree_cpu_flags()  # an int, as ctypes calls by default
    except AttributeError as exc:
        log.warning("numpy backend: the built native.c lacks a symbol: %s", exc)
        return None
    missing = [flag for k, flag in enumerate(CPU_FLAGS) if not found >> k & 1]
    if missing:
        log.warning("numpy backend: the CPU lacks %s", ", ".join(missing))
        return None
    log.info("%s backend: native.c built in %.2f s", NAME, time.perf_counter() - started)
    return lib


# Built once per process, on the first call.
kernels = functools.cache(load_kernels)

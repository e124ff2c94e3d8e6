"""The AVX-512 backend for stages 1-3, built from ``native.c`` at run time.

Stage 1 is one binarization kernel: it tests every distinct split
condition of the model on a block's raw binary32 values, one compare per
condition and 16 objects, into one 64-bit mask per 64-object group and
condition.  Stages 2-3 are one fold kernel per leaf precision, which reads
those masks and selects each tree's leaves from its byte planes
(``LeafBank.planes``) by ``vpermb``/``vpermt2b``, one select per leaf byte
for 64 objects, and writes each object's score, ``scale * sum + bias``.  ``BoundKernels`` binds both to a model, as one C
struct per input layout; a ``predict`` call checks its arrays once
(``BoundKernels.over``) and then makes one kernel call per stage and block.

The first ``Evaluator`` of a process compiles the package's C source with
the system C compiler into a private temporary directory, loads it through
``ctypes`` and deletes the directory; the loaded library stays mapped for
the life of the process.  Without a compiler, after a failed build, when the
library lacks one of the kernels, or on a CPU that lacks any of
``CPU_FLAGS`` (AVX-512 CPUs without VBMI, such as Skylake-SP and Cascade
Lake, among them), ``kernels()`` returns None, the engine runs its numpy stages
instead, and the reason is logged as a warning on the ``obtree`` logger.
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
CPU_FLAGS = ("avx512f", "avx512bw", "f16c", "avx512vbmi")  # bit k of obtree_cpu_flags()
BUILD_TIMEOUT_S = 120
NAME = "avx512"

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_BINARIZE_ARGS = [_ptr, _ptr, _i64, _i64, _i64, _ptr]
_FOLD_ARGS = [_ptr, _ptr, _i64, _ptr]


class _Model(ctypes.Structure):
    """``obtree_model`` of ``native.c``: a model as the kernels read it."""

    _fields_ = [
        ("cond_feature", _ptr), ("runs", _ptr), ("offsets", _ptr), ("depth_runs", _ptr),
        ("tree_cond", _ptr), ("cond_border", _ptr), ("planes", _ptr), ("n_cond", _i64),
        ("n_features", _i64), ("n_runs", _i64), ("feature_major", _i64),
        ("n_depth_runs", _i64), ("scale", ctypes.c_double), ("bias", ctypes.c_double),
    ]


class Kernels:
    """The loaded library: the binarization kernel and one fold kernel per
    leaf precision.  A missing symbol raises AttributeError naming it."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._binarize = lib.obtree_binarize
        self._binarize.argtypes = _BINARIZE_ARGS
        self._binarize.restype = None
        self._fold = {
            LeafPrecision.BINARY16: lib.obtree_fold_binary16,
            LeafPrecision.BINARY64: lib.obtree_fold_binary64,
        }
        for fn in self._fold.values():
            fn.argtypes = _FOLD_ARGS
            fn.restype = None

    def bind(self, tables, bank: LeafBank, groups: int) -> BoundKernels:
        return BoundKernels(self._binarize, self._fold[bank.precision], tables, bank, groups)


class BoundKernels:
    """The binarization kernel and the fold kernel of one leaf precision,
    bound to a model's ``ModelTables`` and leaf bank, for blocks of at most
    ``groups`` 64-object groups.  One ``obtree_model`` per input layout is
    built here, with every pointer into the tables and the bank; it reads
    those arrays for as long as this object holds them."""

    def __init__(self, binarize, fold, tables, bank: LeafBank, groups: int):
        for array, dtype in (
            (tables.cond_feature, np.intp), (tables.cond_border, np.float32),
            (tables.tree_cond, np.int32), (tables.depth_runs, np.int64),
            (tables.feature_runs, np.int64), (tables.tile_runs, np.int64),
            (bank.offsets, np.int64), (bank.planes, np.uint8),
        ):
            _require(array, dtype)
        # The fold reads a condition row and a table for each of the bank's trees.
        if tables.tree_cond.shape != (bank.n_trees, 8) or tables.depth_runs[-1] != bank.n_trees:
            raise ValueError(f"native kernels: a bank of {bank.n_trees} trees for tables of "
                             f"{tables.tree_cond.shape[0]}")
        self._binarize, self._fold, self._groups = binarize, fold, groups
        self._held = (tables, bank)
        self._n_cond = tables.cond_border.size
        self._n_features = tables.model.n_features
        self._sum_bytes = 64 * (8 if bank.precision is LeafPrecision.BINARY64 else 4)
        # One struct per input layout, indexed by "is feature-major".
        self._models = tuple(
            _Model(
                tables.cond_feature.ctypes.data, runs.ctypes.data, bank.offsets.ctypes.data,
                tables.depth_runs.ctypes.data, tables.tree_cond.ctypes.data,
                tables.cond_border.ctypes.data, bank.planes.ctypes.data, self._n_cond,
                self._n_features, runs.size - 1, feature_major, tables.depth_runs.size - 1,
                tables.model.scale, tables.model.bias,
            )
            for feature_major, runs in ((False, tables.tile_runs), (True, tables.feature_runs))
        )
        self._addresses = tuple(ctypes.addressof(m) for m in self._models)

    def scratch_bytes(self, n: int) -> int:
        """The bytes a call over ``n`` objects uses besides its input and
        scores: the masks ``over`` allocates, and the fold kernel's sums of
        those groups, which it keeps on the C stack."""
        return min(self._groups, -(-n // 64)) * (8 * self._n_cond + self._sum_bytes)

    def over(self, matrix: FeatureMatrix, out: np.ndarray) -> tuple:
        """``(masks, binarize, fold)`` for one ``predict`` call over
        ``matrix`` into the float64 scores ``out``, block by block.

        ``masks`` is a new (groups x conditions) uint64 array, with no more
        groups than the batch fills.
        ``binarize(matrix, begin, end, masks)``, as ``quantize_block`` calls
        it, writes the condition masks of objects [begin, end) into its
        first rows: bit o of ``masks[g, c]`` holds condition ``c`` for
        object ``begin + 64 * g + o``.  The bits past ``end`` in the last
        group written are clear; later groups are not written.  Then
        ``fold(begin, end)`` sums every tree's leaf, in tree order, for each
        of those objects and writes ``scale * sum + bias`` into
        ``out[begin:end]``, and nothing else.  The closures hold this
        object and the arrays whose addresses they pass.
        """
        values = matrix.values
        _require(values, np.float32)
        _require(out, np.float64)
        n = matrix.n_objects
        if not (values.size == n * matrix.n_features and matrix.n_features == self._n_features
                and out.size == n):
            raise ValueError(
                f"a {n} x {matrix.n_features} matrix and {out.size} scores "
                f"for {self._n_features} features"
            )
        masks = np.empty((min(self._groups, -(-n // 64)), self._n_cond), dtype=np.uint64)
        feature_major = matrix.layout is Layout.FEATURE_MAJOR
        model = self._addresses[feature_major]
        row_length = n if feature_major else self._n_features
        values_at, masks_at, out_at = _address(values), _address(masks), _address(out)
        span = 64 * len(masks)
        # The kernels read and write through raw addresses: each closure
        # holds this object (its structs, tables and bank) and the arrays.
        held = (self, values, masks, out)

        def binarize(given: FeatureMatrix, begin: int, end: int, out_masks: np.ndarray) -> None:
            if given is not matrix or out_masks is not masks:
                raise ValueError("the native binarizer is bound to another matrix or masks")
            if not 0 <= begin <= end <= min(n, begin + span):
                raise ValueError(f"objects [{begin}, {end}) outside the masks or the batch")
            held[0]._binarize(model, values_at, row_length, begin, end - begin, masks_at)

        def fold(begin: int, end: int) -> None:
            if not 0 <= begin <= end <= min(n, begin + span):
                raise ValueError(f"objects [{begin}, {end}) outside the masks or the batch")
            held[0]._fold(model, masks_at, end - begin, out_at + 8 * begin)

        return masks, binarize, fold


def _address(array: np.ndarray) -> int:
    """The address of a C-contiguous array's data.  ``from_buffer`` takes it
    about 5x faster than ``array.ctypes.data`` (CPython 3.11, numpy 2.4), but
    only from a writable array of at least one byte."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


def _require(array: np.ndarray, dtype) -> None:
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(f"native kernel argument: {array.dtype} array of shape "
                         f"{array.shape} is not a C-contiguous {np.dtype(dtype)} array")


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


def load_kernels() -> Kernels | None:
    """Build and load the kernels, or None with the reason logged."""
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
        loaded = Kernels(lib)
        lib.obtree_cpu_flags.argtypes = []
        lib.obtree_cpu_flags.restype = ctypes.c_int
    except AttributeError as exc:
        log.warning("numpy backend: the built native.c lacks a symbol: %s", exc)
        return None
    found = lib.obtree_cpu_flags()
    missing = [flag for k, flag in enumerate(CPU_FLAGS) if not found >> k & 1]
    if missing:
        log.warning("numpy backend: the CPU lacks %s", ", ".join(missing))
        return None
    log.info("%s backend: native.c built in %.2f s", NAME, time.perf_counter() - started)
    return loaded


# Built once per process, on the first call.
kernels = functools.cache(load_kernels)

"""The AVX-512 backend for stages 1-3, built from ``native.c`` at run time.

Stage 1 is one binarization kernel: it tests every distinct split
condition of the model on a block's raw binary32 values, one compare per
condition and 16 objects, into one 64-bit mask per 64-object group and
condition.  Stages 2-3 are one fold kernel per leaf precision, which reads
those masks and selects each tree's leaves from its byte planes by
``vpermb``/``vpermt2b``, one select per leaf byte for 64 objects, and writes
each object's score, ``scale * sum + bias``.  ``BoundKernels`` binds both to
a model as one C struct, ``obtree_model``, and builds what only the kernels
read: the leaf bank's byte planes (``byte_planes``), and the runs the
kernels walk: conditions of one feature and of one 16-feature tile, and
trees of one depth.  A ``predict`` call checks its arrays once
(``BoundKernels.over``) and then makes one kernel call per stage and block,
passing the matrix's layout to the binarizer.

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
_FOLD = [_ptr, _ptr, _i64, _ptr]
# The argument types of each kernel of native.c; each returns void.
KERNEL_ARGS = {"obtree_binarize": [_ptr, _ptr, _i64, _i64, _i64, _ptr],
               "obtree_fold_binary16": _FOLD, "obtree_fold_binary64": _FOLD}


class _Model(ctypes.Structure):
    """``obtree_model`` of ``native.c``: a model as the kernels read it."""

    _fields_ = [
        ("cond_feature", _ptr), ("feature_runs", _ptr), ("tile_runs", _ptr), ("offsets", _ptr),
        ("depth_runs", _ptr), ("tree_cond", _ptr), ("cond_border", _ptr), ("planes", _ptr),
        ("n_cond", _i64), ("n_features", _i64), ("n_feature_runs", _i64), ("n_tile_runs", _i64),
        ("n_depth_runs", _i64), ("scale", ctypes.c_double), ("bias", ctypes.c_double),
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
    ``ModelTables`` and leaf bank, for blocks of at most ``groups`` 64-object
    groups.  The bank's byte planes and the runs the kernels walk are built
    here, and one ``obtree_model`` is built with every pointer into them and
    the tables; it reads those arrays for as long as this object holds them."""

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
        self._binarize, self._groups = lib.obtree_binarize, groups
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
            tables.cond_border.ctypes.data, planes.ctypes.data, tables.cond_border.size,
            tables.model.n_features, feature_runs.size - 1, tile_runs.size - 1, depth_runs.size - 1,
            tables.model.scale, tables.model.bias,
        )
        self._address = ctypes.addressof(self._model)
        self._n_cond, self._n_features = self._model.n_cond, self._model.n_features

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
        ``binarize(begin, end)`` writes the condition masks of objects
        [begin, end) of ``matrix`` into the first rows of ``masks``: bit o
        of ``masks[g, c]`` holds condition ``c`` for object
        ``begin + 64 * g + o``.  The bits past ``end`` in the last group
        written are clear; later groups are not written.  Then
        ``fold(begin, end)`` sums every tree's leaf, in tree order, for each
        of those objects and writes ``scale * sum + bias`` into
        ``out[begin:end]``, and nothing else.  Each refuses a range that
        ``masks`` or the batch does not hold.  The closures hold this
        object and the arrays whose addresses they pass.
        """
        values = matrix.values
        _require(values, _F32)
        _require(out, _F64)
        n, n_features, n_cond = matrix.n_objects, self._n_features, self._n_cond
        if not (values.size == n * matrix.n_features and matrix.n_features == n_features
                and out.size == n):
            raise ValueError(
                f"a {n} x {matrix.n_features} matrix and {out.size} scores "
                f"for {n_features} features"
            )
        masks = np.empty((min(self._groups, -(-n // 64)), n_cond), _U64)
        feature_major = matrix.layout is _FEATURE_MAJOR
        row_length = n if feature_major else n_features
        stride = 4 if feature_major else 4 * n_features  # bytes from one object to the next
        model, values_at, masks_at, out_at = (self._address, _address(values), _address(masks),
                                              _address(out))
        span = 64 * len(masks)
        # The kernels read and write through raw addresses: each closure
        # holds them, this object (its struct, planes, runs, tables and
        # bank) and the arrays.
        held = (self._binarize, self._fold, self, values, masks, out)

        def binarize(begin: int, end: int) -> None:
            if not (0 <= begin <= end <= n and end - begin <= span):
                raise ValueError(f"objects [{begin}, {end}) outside the masks or the batch")
            held[0](model, values_at + begin * stride, feature_major, row_length, end - begin,
                    masks_at)

        def fold(begin: int, end: int) -> None:
            if not (0 <= begin <= end <= n and end - begin <= span):
                raise ValueError(f"objects [{begin}, {end}) outside the masks or the batch")
            held[1](model, masks_at, end - begin, out_at + 8 * begin)

        return masks, binarize, fold


def _address(array: np.ndarray) -> int:
    """The address of a C-contiguous array's data.  ``from_buffer`` takes it
    about 5x faster than ``array.ctypes.data`` (CPython 3.11, numpy 2.4), but
    only from a writable array of at least one byte."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


# Compared against a dtype object, not a type, ``!=`` is about 2x faster;
# an enum member read from the class costs about 0.1 us.
_F32, _F64, _U64 = np.dtype(np.float32), np.dtype(np.float64), np.dtype(np.uint64)
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

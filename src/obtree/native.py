"""The AVX-512 backend for stages 1-3, built from ``native.c`` at run time.

Stage 1 is one quantization kernel (``BoundQuantizer``); stages 2-3 are one
fold kernel per leaf precision (``BoundFold``).

The first ``Evaluator`` of a process compiles the package's C source with
the system C compiler into a private temporary directory, loads it through
``ctypes`` and deletes the directory; the loaded library stays mapped for
the life of the process.  Without a compiler, after a failed build, when the
library lacks one of the kernels, or on a CPU that lacks any of
``CPU_FLAGS``, ``kernels()`` returns None, the engine runs its numpy stages
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
from collections.abc import Callable

import numpy as np

from .model import LeafBank, LeafPrecision
from .quantize import BorderTable, FeatureMatrix, Layout, QuantizedBlock

log = logging.getLogger("obtree")

COMPILER = "gcc"
# No -march=native and no -ffast-math: the kernels name their ISA in a target
# attribute, and bit identity needs every add rounded on its own.
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
CPU_FLAGS = ("avx512f", "avx512bw", "f16c")  # bit k of obtree_cpu_flags()
BUILD_TIMEOUT_S = 120
CHUNK = 8  # groups of 64 objects per pass over the leaf bank, as in native.c
NAME = "avx512"

_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_FOLD_ARGS = [_ptr, _ptr, _i64, _ptr, _i64, _ptr, _ptr, _ptr, _i64, _i64, _ptr, _ptr]
_QUANTIZE_ARGS = [_ptr, _i64, _i64, _ptr, _i64, _i64, _i64, _i64, _ptr, _i64]


class Kernels:
    """The loaded library: the quantization kernel and one fold kernel per
    leaf precision.  A missing symbol raises AttributeError naming it."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._quantize = lib.obtree_quantize
        self._quantize.argtypes = _QUANTIZE_ARGS
        self._quantize.restype = None
        self._fold = {
            LeafPrecision.BINARY16: lib.obtree_fold_binary16,
            LeafPrecision.BINARY64: lib.obtree_fold_binary64,
        }
        for fn in self._fold.values():
            fn.argtypes = _FOLD_ARGS
            fn.restype = None

    def quantizer(self, table: BorderTable) -> BoundQuantizer:
        return BoundQuantizer(self._quantize, table)

    def bind(self, tables, bank: LeafBank) -> BoundFold:
        return BoundFold(self._fold[bank.precision], tables, bank)


class BoundQuantizer:
    """The quantization kernel bound to one ``BorderTable``, whose pointer is
    taken once, here.  ``quantize_block`` calls it after checking the range
    and the feature counts."""

    def __init__(self, fn, table: BorderTable):
        _require(table.values, np.float32)
        self.table = table
        self._fn = fn
        self._args = (table.values.ctypes.data, table.steps, table.n_features)

    def __call__(self, matrix: FeatureMatrix, begin: int, end: int, out: QuantizedBlock) -> None:
        """Quantiles of objects [begin, end) into ``out``, padding zeroed."""
        values, q = matrix.values, out.quantiles
        _require(values, np.float32)
        _require(q, np.uint8)
        if not (0 <= begin <= end <= matrix.n_objects and end - begin <= q.shape[1]
                and values.size == matrix.n_objects * matrix.n_features
                and q.shape[0] == matrix.n_features == self.table.n_features):
            raise ValueError(
                f"objects [{begin}, {end}) of a {matrix.n_objects} x {matrix.n_features} matrix "
                f"do not fit quantiles of shape {q.shape} for {self.table.n_features} features"
            )
        feature_major = matrix.layout is Layout.FEATURE_MAJOR
        self._fn(
            *self._args, values.ctypes.data, feature_major,
            matrix.n_objects if feature_major else matrix.n_features,
            begin, end - begin, q.ctypes.data, q.shape[1],
        )


class BoundFold:
    """The fold kernel of one leaf precision, bound to a model's ``ModelTables``
    and leaf bank.  Their pointers are taken once, here; the kernel reads the
    arrays for as long as this object holds them."""

    def __init__(self, fn, tables, bank: LeafBank):
        for array, dtype in (
            (tables.cond_feature, np.intp), (tables.cond_ordinal, np.uint8),
            (tables.split_cond, np.intp), (bank.offsets, np.int64),
            (bank.values, np.float16 if bank.precision is LeafPrecision.BINARY16 else np.float64),
        ):
            _require(array, dtype)
        self._fn = fn
        self._held = (tables, bank)
        self._sum_dtype = np.float32 if bank.precision is LeafPrecision.BINARY16 else np.float64
        self._n_features = tables.model.n_features
        self._n_cond = tables.cond_feature.size
        self._model = (
            tables.cond_feature.ctypes.data, tables.cond_ordinal.ctypes.data, self._n_cond,
            tables.split_cond.ctypes.data, tables.n_trees,
            bank.values.ctypes.data, bank.offsets.ctypes.data,
        )

    def over(self, quantiles: np.ndarray, sums: np.ndarray) -> Callable[[int, int], None]:
        """``fold(begin, end)`` for one ``predict`` call.

        It adds every tree's leaf, in tree order, into ``sums[begin:end]``
        for objects whose quantiles are in the first ``end - begin`` columns
        of ``quantiles``, a whole ``QuantizedBlock`` array.
        """
        stride = quantiles.shape[1]
        _require(quantiles, np.uint8)
        _require(sums, self._sum_dtype)
        if stride % 64 or quantiles.shape[0] != self._n_features:
            raise ValueError(
                f"quantiles of shape {quantiles.shape}: need {self._n_features} rows "
                "of whole 64-byte groups"
            )
        # One mask per (condition, group) of a chunk, as in native.c.
        scratch = np.empty(self._n_cond * min(CHUNK, stride // 64), dtype=np.uint64)
        fn, model, n = self._fn, self._model, sums.size
        q, sums_at, item = quantiles.ctypes.data, sums.ctypes.data, sums.itemsize
        scratch_at = scratch.ctypes.data

        def fold(begin: int, end: int) -> None:
            if not 0 <= begin <= end <= min(n, begin + stride):
                raise ValueError(f"objects [{begin}, {end}) outside the block or the sums")
            fn(*model, q, stride, end - begin, scratch_at, sums_at + begin * item)

        # The kernel writes through these pointers: the arrays live as long as fold.
        fold.arrays = (quantiles, sums, scratch)
        return fold


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

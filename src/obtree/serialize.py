"""Canonical text serialization of ensemble models.

The document is UTF-8 JSON with every floating-point number carried as its
lowercase big-endian hex bit pattern (8 hex digits for binary32, 16 for
binary64), so a serialize/deserialize round trip is identity down to the bit
level.  A feature's borders and a tree's leaves are each one string of their
values' digits back to back, and a tree's splits are two lists of integers,
the feature and the border ordinal of each level:

    {
      "float_features": [{"index": 0, "borders_hex": "3f0000003f800000..."}, ...],
      "trees": [{"depth": 2, "features": [0, 3], "ordinals": [1, 0],
                 "leaves_hex": "3ff0000000000000bff0000000000000..."}, ...],
      "scale_hex": "3ff0000000000000",
      "bias_hex": "0000000000000000"
    }

This is the one form read.  An error names the first field not in it, as
in ``trees[0]: missing required field 'features'``, and a bad value by its
index in its field, as in ``trees[0].leaves_hex[1]`` or
``trees[0].features[1]``.
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from itertools import accumulate
from typing import Any

import numpy as np

from .model import FloatFeatureBorders, ObliviousModel, require_valid, validate_model


class ModelFormatError(ValueError):
    """Malformed model document; the message names the offending field."""


def f64_to_hex(value: float) -> str:
    return struct.pack(">d", value).hex()


def _hex_bytes(text: str, digits: int, where: str) -> bytes:
    raw = b""
    if len(text) == digits:
        try:
            raw = bytes.fromhex(text)
        except ValueError:
            pass
    # bytes.fromhex skips whitespace, so "3f 0000 " has the length of 8 digits
    # but holds 3 bytes; only ``digits`` hex digits give ``digits // 2`` bytes.
    if len(raw) * 2 != digits:
        raise ModelFormatError(f"{where}: expected {digits} hex digits, got {text!r}")
    return raw


def hex_to_f64(text: str, where: str) -> float:
    return struct.unpack(">d", _hex_bytes(text, 16, where))[0]


def of_types(items, kinds: set) -> bool:
    """Whether every item's type is exactly one of ``kinds``: no ``bool`` for ``int``."""
    return set(map(type, items)) <= kinds


def _refuse_hex(text: str, digits: int, where: str) -> None:
    """Raise naming why a hex string is not ``digits``-digit values: its
    length, or its first value that is not ``digits`` hex digits."""
    if len(text) % digits:
        raise ModelFormatError(
            f"{where}: {len(text)} hex digits are not a whole number of {digits}-digit values")
    for j in range(0, len(text), digits):
        _hex_bytes(text[j : j + digits], digits, f"{where}[{j // digits}]")
    raise ModelFormatError(f"{where}: not hex digits")


def _hex_values(texts: list[str], dtype: str, where: str) -> tuple[np.ndarray, list[int]]:
    """All values of hex strings of big-endian ``dtype`` values, in native
    byte order, and each string's count of them.

    Each string is decoded into its place in one buffer, byte-swapped in
    place after.  A memoryview slice takes only bytes of its own length, so
    text that bytes.fromhex shortened by skipping whitespace is refused too.
    The first string that is not the hex digits of whole values raises
    naming why (``_refuse_hex``); ``where`` has ``{}`` for its index.
    """
    digits = 2 * np.dtype(dtype).itemsize
    ends = list(accumulate((len(text) // 2 for text in texts), initial=0))
    buffer = bytearray(ends[-1])
    view = memoryview(buffer)
    for i, text in enumerate(texts):
        if len(text) % digits:
            _refuse_hex(text, digits, where.format(i))
        try:
            view[ends[i] : ends[i + 1]] = bytes.fromhex(text)
        except ValueError:  # not hex digits, or too few bytes: whitespace skipped
            _refuse_hex(text, digits, where.format(i))
    values = np.frombuffer(buffer, dtype=dtype)
    counts = [2 * (end - start) // digits for start, end in zip(ends, ends[1:])]
    return values.byteswap(inplace=True).view(values.dtype.newbyteorder()), counts


def _hex_field(values: np.ndarray, dtype: str) -> str:
    """``values`` as one string of their big-endian ``dtype`` hex digits."""
    return values.astype(dtype).tobytes().hex()


def model_to_document(model: ObliviousModel) -> dict:
    require_valid(model)
    features, ordinals = model.split_features.tolist(), model.split_ordinals.tolist()
    digits = _hex_field(model.leaves, ">f8")
    return {
        "float_features": [
            {"index": ff.feature_index, "borders_hex": _hex_field(ff.borders, ">f4")}
            for ff in model.float_features
        ],
        "trees": [
            {"depth": depth, "features": features[s0:s1], "ordinals": ordinals[s0:s1],
             "leaves_hex": digits[16 * l0 : 16 * l1]}
            for depth, s0, s1, l0, l1 in model.tree_bounds()
        ],
        "scale_hex": f64_to_hex(model.scale),
        "bias_hex": f64_to_hex(model.bias),
    }


def serialize_model(model: ObliviousModel) -> str:
    return json.dumps(model_to_document(model))


def _expect(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    if key not in obj:
        raise ModelFormatError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ModelFormatError(f"{where}.{key}: expected an integer")
    if not isinstance(value, kind):
        raise ModelFormatError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _tree_arrays(entries: list) -> dict:
    """A document's trees as ``ObliviousModel._from_arrays`` takes them.

    Each tree's fields are checked tree by tree in document order, then
    the integers of all trees' splits, then the leaves (``_hex_values``).
    """
    depths, split_counts, features, ordinals, leaf_texts = [], [], [], [], []
    for t, entry in enumerate(entries):
        where = f"trees[{t}]"
        depths.append(_expect(entry, "depth", int, where))
        tree_features = _expect(entry, "features", list, where)
        tree_ordinals = _expect(entry, "ordinals", list, where)
        leaf_texts.append(_expect(entry, "leaves_hex", str, where))
        if len(tree_ordinals) != len(tree_features):
            raise ModelFormatError(
                f"{where}: {len(tree_features)} features but {len(tree_ordinals)} ordinals")
        split_counts.append(len(tree_features))
        features += tree_features
        ordinals += tree_ordinals
    for name, values in (("features", features), ("ordinals", ordinals)):
        if not of_types(values, {int}):
            j = next(j for j, value in enumerate(values) if type(value) is not int)
            starts = list(accumulate(split_counts, initial=0))
            t = bisect_right(starts, j) - 1
            raise ModelFormatError(f"trees[{t}].{name}[{j - starts[t]}]: expected an integer")
    leaves, leaf_counts = _hex_values(leaf_texts, ">f8", "trees[{}].leaves_hex")
    return {"depths": depths, "split_counts": split_counts, "split_features": features,
            "split_ordinals": ordinals, "leaf_counts": leaf_counts, "leaves": leaves}


def model_from_document(doc: Any) -> ObliviousModel:
    features = _expect(doc, "float_features", list, "document")
    trees = _expect(doc, "trees", list, "document")
    scale = hex_to_f64(_expect(doc, "scale_hex", str, "document"), "document.scale_hex")
    bias = hex_to_f64(_expect(doc, "bias_hex", str, "document"), "document.bias_hex")

    indices, border_texts = [], []
    for i, entry in enumerate(features):
        indices.append(_expect(entry, "index", int, f"float_features[{i}]"))
        border_texts.append(_expect(entry, "borders_hex", str, f"float_features[{i}]"))
    borders, counts = _hex_values(border_texts, ">f4", "float_features[{}].borders_hex")
    float_features = [
        FloatFeatureBorders(index, borders[first : first + n])
        for index, first, n in zip(indices, accumulate(counts, initial=0), counts)
    ]

    arrays = _tree_arrays(trees)
    try:
        model = ObliviousModel._from_arrays(float_features, scale, bias, **arrays)
        errors = validate_model(model)
    except ValueError as exc:  # a depth or split index that int64 cannot hold
        errors = [str(exc)]
    if errors:
        raise ModelFormatError("document parses but model is invalid: " + "; ".join(errors))
    return model


def deserialize_model(text: str) -> ObliviousModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return model_from_document(doc)


def save_model(model: ObliviousModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))


def load_model(path: str) -> ObliviousModel:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize_model(fh.read())

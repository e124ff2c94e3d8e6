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

The list forms are still read, bit for bit: ``borders_hex`` and
``leaves_hex`` each a list of one-value strings (``["3f000000",
"3f800000"]``), and a tree's splits as ``"splits": [{"feature": 0,
"border": 1}, ...]`` in place of ``features`` and ``ordinals``.  In every
form an error names a bad value by its index, as in
``trees[0].leaves_hex[1]`` or ``trees[0].features[1]``.
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
    if isinstance(text, str) and len(text) == digits:
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


def _hex_text(field: str | list, digits: int) -> str | None:
    """A hex field's values' digits back to back, or None if the field is a
    string of a length that is no whole number of values, or a list with an
    item that is not a string of one value's length."""
    if type(field) is str:
        return field if len(field) % digits == 0 else None
    if of_types(field, {str}) and set(map(len, field)) <= {digits}:
        return "".join(field)
    return None


def _refuse_hex(field: str | list, digits: int, where: str) -> None:
    """Raise naming the first value of a hex field that is not ``digits`` hex digits."""
    if isinstance(field, str):
        if len(field) % digits:
            raise ModelFormatError(
                f"{where}: {len(field)} hex digits are not a whole number of "
                f"{digits}-digit values")
        field = [field[j : j + digits] for j in range(0, len(field), digits)]
    for j, text in enumerate(field):
        _hex_bytes(text, digits, f"{where}[{j}]")
    raise ModelFormatError(f"{where}: not hex digits")


def _hex_values(fields: list, dtype: str, where: str) -> tuple[np.ndarray, list[int]]:
    """All values of hex fields of big-endian ``dtype`` values, in native byte
    order, and each field's count of them.

    Each field is decoded into its place in one buffer, byte-swapped in
    place after.  A memoryview slice takes only bytes of its own length, so
    text that bytes.fromhex shortened by skipping whitespace is refused too.
    The first field that is not the hex digits of whole values raises
    naming its first bad value (``_refuse_hex``); ``where`` has ``{}`` for
    the field's index.
    """
    digits = 2 * np.dtype(dtype).itemsize
    texts = [_hex_text(field, digits) for field in fields]
    ends = list(accumulate((len(text or "") // 2 for text in texts), initial=0))
    buffer = bytearray(ends[-1])
    view = memoryview(buffer)
    for i, text in enumerate(texts):
        try:
            view[ends[i] : ends[i + 1]] = bytes.fromhex(text)
        except (TypeError, ValueError):  # no text (None), or not hex digits
            _refuse_hex(fields[i], digits, where.format(i))
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


def _expect(obj: Any, key: str, kind: type | tuple[type, ...], where: str) -> Any:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    if key not in obj:
        raise ModelFormatError(f"{where}: missing required field {key!r}")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ModelFormatError(f"{where}.{key}: expected an integer")
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ModelFormatError(f"{where}.{key}: expected {' or '.join(k.__name__ for k in kinds)}")
    return value


def _tree_fields(entry: Any, where: str) -> tuple[int, list, list, str | list]:
    """One tree's depth, split features, split ordinals and leaves field.

    The fields are checked in document order.  A tree in the list form of
    splits, one object per split, has its splits checked one by one and
    converted into the two lists here.
    """
    depth = _expect(entry, "depth", int, where)
    if "splits" in entry:
        splits = _expect(entry, "splits", list, where)
        leaves = _expect(entry, "leaves_hex", (str, list), where)
        features, ordinals = [], []
        for s, split in enumerate(splits):
            swhere = f"{where}.splits[{s}]"
            features.append(_expect(split, "feature", int, swhere))
            ordinals.append(_expect(split, "border", int, swhere))
    else:
        features = _expect(entry, "features", list, where)
        ordinals = _expect(entry, "ordinals", list, where)
        leaves = _expect(entry, "leaves_hex", (str, list), where)
        if len(ordinals) != len(features):
            raise ModelFormatError(
                f"{where}: {len(features)} features but {len(ordinals)} ordinals")
    return depth, features, ordinals, leaves


def _tree_arrays(entries: list) -> dict:
    """A document's trees as ``ObliviousModel._from_arrays`` takes them.

    Each tree's fields are checked tree by tree (``_tree_fields``), then the
    integers of all trees' splits, then the leaves (``_hex_values``).
    """
    depths, split_counts, features, ordinals, leaf_fields = [], [], [], [], []
    for t, entry in enumerate(entries):
        depth, tree_features, tree_ordinals, leaves = _tree_fields(entry, f"trees[{t}]")
        depths.append(depth)
        split_counts.append(len(tree_features))
        features += tree_features
        ordinals += tree_ordinals
        leaf_fields.append(leaves)
    for name, values in (("features", features), ("ordinals", ordinals)):
        if not of_types(values, {int}):
            j = next(j for j, value in enumerate(values) if type(value) is not int)
            starts = list(accumulate(split_counts, initial=0))
            t = bisect_right(starts, j) - 1
            raise ModelFormatError(f"trees[{t}].{name}[{j - starts[t]}]: expected an integer")
    leaves, leaf_counts = _hex_values(leaf_fields, ">f8", "trees[{}].leaves_hex")
    return {"depths": depths, "split_counts": split_counts, "split_features": features,
            "split_ordinals": ordinals, "leaf_counts": leaf_counts, "leaves": leaves}


def model_from_document(doc: Any) -> ObliviousModel:
    features = _expect(doc, "float_features", list, "document")
    trees = _expect(doc, "trees", list, "document")
    scale = hex_to_f64(_expect(doc, "scale_hex", str, "document"), "document.scale_hex")
    bias = hex_to_f64(_expect(doc, "bias_hex", str, "document"), "document.bias_hex")

    indices, border_fields = [], []
    for i, entry in enumerate(features):
        indices.append(_expect(entry, "index", int, f"float_features[{i}]"))
        border_fields.append(_expect(entry, "borders_hex", (str, list), f"float_features[{i}]"))
    borders, counts = _hex_values(border_fields, ">f4", "float_features[{}].borders_hex")
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

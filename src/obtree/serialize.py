"""Canonical text serialization of ensemble models.

The document is UTF-8 JSON with every floating-point number carried as its
lowercase big-endian hex bit pattern (8 hex digits for binary32, 16 for
binary64), so a serialize/deserialize round trip is identity down to the bit
level.  A feature's borders and a tree's leaves are each one string of their
values' digits back to back:

    {
      "float_features": [{"index": 0, "borders_hex": "3f0000003f800000..."}, ...],
      "trees": [{"depth": 2,
                 "splits": [{"feature": 0, "border": 1}, ...],
                 "leaves_hex": "3ff0000000000000bff0000000000000..."}, ...],
      "scale_hex": "3ff0000000000000",
      "bias_hex": "0000000000000000"
    }

The list form, with ``borders_hex`` and ``leaves_hex`` each a list of
one-value strings (``["3f000000", "3f800000"]``), is still read, bit for
bit.  In either form an error names a bad value by its index, as in
``trees[0].leaves_hex[1]``.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate
from typing import Any

import numpy as np

from .model import (
    FloatFeatureBorders,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    of_types,
    require_valid,
    validate_model,
)


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


def _hex_text(field: str | list, digits: int) -> str | None:
    """A hex field's values' digits back to back, or None if the field is a
    string of a length that is no whole number of values, or a list with an
    item that is not a string of one value's length."""
    if type(field) is str:
        return field if len(field) % digits == 0 else None
    if of_types(field, {str}) and set(map(len, field)) <= {digits}:
        return "".join(field)
    return None


def _decode(text: str | None) -> bytes | None:
    """The bytes of ``text``, or None unless it is hex digits only."""
    if text is None:
        return None
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        return None
    # bytes.fromhex skips whitespace, so only text of hex digits alone gives
    # one byte per two characters.
    return raw if len(raw) * 2 == len(text) else None


def _hex_array(field: str | list, dtype: str, where: str) -> np.ndarray:
    """Decode a hex field of big-endian ``dtype`` values in one pass.

    If the field is not exactly the hex digits of whole values, it is
    checked value by value, which raises naming the first bad one.
    """
    digits = 2 * np.dtype(dtype).itemsize
    raw = _decode(_hex_text(field, digits))
    if raw is None:
        if isinstance(field, str):
            if len(field) % digits:
                raise ModelFormatError(
                    f"{where}: {len(field)} hex digits are not a whole number of "
                    f"{digits}-digit values")
            field = [field[j : j + digits] for j in range(0, len(field), digits)]
        for j, text in enumerate(field):
            _hex_bytes(text, digits, f"{where}[{j}]")
    return np.frombuffer(raw, dtype=dtype)


def _hex_field(values: np.ndarray, dtype: str) -> str:
    """``values`` as one string of their big-endian ``dtype`` hex digits."""
    return values.astype(dtype).tobytes().hex()


def model_to_document(model: ObliviousModel) -> dict:
    require_valid(model)
    return {
        "float_features": [
            {"index": ff.feature_index, "borders_hex": _hex_field(ff.borders, ">f4")}
            for ff in model.float_features
        ],
        "trees": [
            {
                "depth": tree.depth,
                "splits": [
                    {"feature": s.feature_index, "border": s.border_ordinal}
                    for s in tree.splits
                ],
                "leaves_hex": _hex_field(tree.leaf_values, ">f8"),
            }
            for tree in model.trees
        ],
        "scale_hex": f64_to_hex(model.scale),
        "bias_hex": f64_to_hex(model.bias),
    }


def serialize_model(model: ObliviousModel) -> str:
    return json.dumps(model_to_document(model), indent=1)


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


def _tree(entry: Any, where: str) -> ObliviousTree:
    """One tree of a document, checked field by field."""
    depth = _expect(entry, "depth", int, where)
    splits_raw = _expect(entry, "splits", list, where)
    leaves_hex = _expect(entry, "leaves_hex", (str, list), where)
    splits = []
    for s, split in enumerate(splits_raw):
        swhere = f"{where}.splits[{s}]"
        splits.append(
            SplitCondition(
                feature_index=_expect(split, "feature", int, swhere),
                border_ordinal=_expect(split, "border", int, swhere),
            )
        )
    leaves = _hex_array(leaves_hex, ">f8", f"{where}.leaves_hex")
    return ObliviousTree(depth=depth, splits=tuple(splits), leaf_values=leaves)


def _trees(entries: list) -> tuple[list[ObliviousTree], np.ndarray] | None:
    """Every tree of a document, each field checked and decoded for all trees
    at once, and the read-only float64 array of all their leaves, or None if
    any field is missing, of another type than ``_tree`` takes without a
    conversion, or not hex digits of whole values.

    The leaves of all trees are decoded into that array, one
    ``bytes.fromhex`` per tree, and each tree's leaf values view its next
    span.  Equal split conditions are one shared ``SplitCondition``, which
    is immutable.
    """
    if not of_types(entries, {dict}):
        return None
    try:
        depths = [entry["depth"] for entry in entries]
        split_rows = [entry["splits"] for entry in entries]
        leaf_fields = [entry["leaves_hex"] for entry in entries]
    except KeyError:
        return None
    if not (of_types(depths, {int}) and of_types(split_rows, {list})
            and of_types(leaf_fields, {str, list})):
        return None
    splits = [split for row in split_rows for split in row]
    if not of_types(splits, {dict}):
        return None
    try:
        features = [split["feature"] for split in splits]
        ordinals = [split["border"] for split in splits]
    except KeyError:
        return None
    if not (of_types(features, {int}) and of_types(ordinals, {int})):
        return None
    texts = [_hex_text(field, 16) for field in leaf_fields]
    if None in texts:
        return None
    # Each tree's leaves are decoded into their place in one buffer.  A
    # memoryview slice takes only bytes of its own length, so text that
    # bytes.fromhex shortened by skipping whitespace is rejected too.
    digit_ends = list(accumulate(map(len, texts), initial=0))
    buffer = bytearray(digit_ends[-1] // 2)
    view = memoryview(buffer)
    try:
        for text, start, end in zip(texts, digit_ends, digit_ends[1:]):
            view[start // 2 : end // 2] = bytes.fromhex(text)
    except ValueError:
        return None
    leaves = np.frombuffer(buffer, dtype=">f8")
    leaves = leaves.byteswap(inplace=True).view(leaves.dtype.newbyteorder())
    leaves.flags.writeable = False
    # The pairs are made one at a time and not kept: a list of them all
    # would hold tens of thousands of objects for the garbage collector to scan.
    shared = {key: SplitCondition(*key) for key in set(zip(features, ordinals))}
    conditions = list(map(shared.__getitem__, zip(features, ordinals)))
    split_ends = list(accumulate(map(len, split_rows), initial=0))
    return [
        ObliviousTree(depth, tuple(conditions[s0:s1]), leaves[d0 // 16 : d1 // 16])
        for depth, s0, s1, d0, d1 in zip(
            depths, split_ends, split_ends[1:], digit_ends, digit_ends[1:])
    ], leaves


def model_from_document(doc: Any) -> ObliviousModel:
    features = _expect(doc, "float_features", list, "document")
    trees = _expect(doc, "trees", list, "document")
    scale = hex_to_f64(_expect(doc, "scale_hex", str, "document"), "document.scale_hex")
    bias = hex_to_f64(_expect(doc, "bias_hex", str, "document"), "document.bias_hex")

    float_features = []
    for i, entry in enumerate(features):
        where = f"float_features[{i}]"
        index = _expect(entry, "index", int, where)
        borders_hex = _expect(entry, "borders_hex", (str, list), where)
        borders = _hex_array(borders_hex, ">f4", f"{where}.borders_hex")
        float_features.append(FloatFeatureBorders(feature_index=index, borders=borders))

    parsed = _trees(trees)
    if parsed is None:
        parsed = [_tree(entry, f"trees[{t}]") for t, entry in enumerate(trees)], None
    parsed_trees, leaf_span = parsed

    model = ObliviousModel(
        float_features=tuple(float_features),
        trees=tuple(parsed_trees),
        scale=scale,
        bias=bias,
    )
    object.__setattr__(model, "_leaf_span", leaf_span)
    errors = validate_model(model)
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

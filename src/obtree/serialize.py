"""Canonical text serialization of ensemble models.

The document is UTF-8 JSON with every floating-point number carried as its
lowercase hex bit pattern (8 hex digits for binary32, 16 for binary64), so a
serialize/deserialize round trip is identity down to the bit level:

    {
      "float_features": [{"index": 0, "borders_hex": ["3f000000", ...]}, ...],
      "trees": [{"depth": 2,
                 "splits": [{"feature": 0, "border": 1}, ...],
                 "leaves_hex": ["3ff0000000000000", ...]}, ...],
      "scale_hex": "3ff0000000000000",
      "bias_hex": "0000000000000000"
    }
"""

from __future__ import annotations

import json
import struct
from typing import Any

import numpy as np

from .model import (
    FloatFeatureBorders,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    require_valid,
    validate_model,
)


class ModelFormatError(ValueError):
    """Malformed model document; the message names the offending field."""


def f32_to_hex(value: float) -> str:
    return struct.pack(">f", value).hex()


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


def _hex_array(items: list, dtype: str, where: str) -> np.ndarray:
    """Decode a list of hex fields of big-endian ``dtype`` in one pass.

    If any item is not exactly the hex digits of one value, the items are
    checked one by one, which raises naming the first bad one.
    """
    digits = 2 * np.dtype(dtype).itemsize
    try:
        raw = bytes.fromhex("".join(items))
    except (TypeError, ValueError):
        raw = b""
    if len(raw) * 2 != digits * len(items) or set(map(len, items)) - {digits}:
        for j, text in enumerate(items):
            _hex_bytes(text, digits, f"{where}[{j}]")
    return np.frombuffer(raw, dtype=dtype)


def model_to_document(model: ObliviousModel) -> dict:
    require_valid(model)
    return {
        "float_features": [
            {
                "index": ff.feature_index,
                "borders_hex": [f32_to_hex(float(b)) for b in ff.borders],
            }
            for ff in model.float_features
        ],
        "trees": [
            {
                "depth": tree.depth,
                "splits": [
                    {"feature": s.feature_index, "border": s.border_ordinal}
                    for s in tree.splits
                ],
                "leaves_hex": [f64_to_hex(float(v)) for v in tree.leaf_values],
            }
            for tree in model.trees
        ],
        "scale_hex": f64_to_hex(model.scale),
        "bias_hex": f64_to_hex(model.bias),
    }


def serialize_model(model: ObliviousModel) -> str:
    return json.dumps(model_to_document(model), indent=1)


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


def model_from_document(doc: Any) -> ObliviousModel:
    features = _expect(doc, "float_features", list, "document")
    trees = _expect(doc, "trees", list, "document")
    scale = hex_to_f64(_expect(doc, "scale_hex", str, "document"), "document.scale_hex")
    bias = hex_to_f64(_expect(doc, "bias_hex", str, "document"), "document.bias_hex")

    float_features = []
    for i, entry in enumerate(features):
        where = f"float_features[{i}]"
        index = _expect(entry, "index", int, where)
        borders_hex = _expect(entry, "borders_hex", list, where)
        borders = _hex_array(borders_hex, ">f4", f"{where}.borders_hex")
        float_features.append(FloatFeatureBorders(feature_index=index, borders=borders))

    parsed_trees = []
    for t, entry in enumerate(trees):
        where = f"trees[{t}]"
        depth = _expect(entry, "depth", int, where)
        splits_raw = _expect(entry, "splits", list, where)
        leaves_hex = _expect(entry, "leaves_hex", list, where)
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
        parsed_trees.append(ObliviousTree(depth=depth, splits=tuple(splits), leaf_values=leaves))

    model = ObliviousModel(
        float_features=tuple(float_features),
        trees=tuple(parsed_trees),
        scale=scale,
        bias=bias,
    )
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

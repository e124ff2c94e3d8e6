"""Model document round trips and parse errors."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obtree import (
    FloatFeatureBorders,
    LeafPrecision,
    ModelFormatError,
    ModelTables,
    ObliviousModel,
    ObliviousTree,
    SplitCondition,
    SyntheticSpec,
    deserialize_model,
    generate_synthetic_model,
    load_model,
    save_model,
    serialize_model,
    validate_model,
)
from obtree.model import MAX_DEPTH

from conftest import random_specs

COMPACT_DEPTH1 = """
{
 "float_features": [{"index": 0, "borders_hex": "3f000000"}],
 "trees": [{"depth": 1, "features": [0], "ordinals": [0],
            "leaves_hex": "bff00000000000004000000000000000"}],
 "scale_hex": "3ff0000000000000",
 "bias_hex": "0000000000000000"
}
"""


def test_round_trip_random_models():
    for spec in random_specs(2024, 40, (8, 12, 11, 6)):
        model = generate_synthetic_model(spec)
        assert deserialize_model(serialize_model(model)) == model


def test_round_trip_preserves_odd_float_bits():
    # Values with tricky bit patterns survive exactly: negative zero,
    # subnormals, and values with no short decimal form.
    model = generate_synthetic_model(SyntheticSpec(1, 1, 1, 1, seed=3))
    tree = model.trees[0]
    odd_leaves = np.array([-0.0, 5e-324], dtype=np.float64)
    patched = type(tree)(depth=1, splits=tree.splits, leaf_values=odd_leaves)
    model = type(model)(
        float_features=model.float_features, trees=(patched,), scale=-0.0, bias=1e-300
    )
    restored = deserialize_model(serialize_model(model))
    assert restored == model
    assert np.signbit(restored.trees[0].leaf_values[0])


def test_hand_written_depth1_document():
    model = deserialize_model(COMPACT_DEPTH1)
    assert validate_model(model) == []
    assert model.trees[0].leaf_values.size == 2
    assert model.trees[0].leaf_values[0] == -1.0
    assert model.trees[0].leaf_values[1] == 2.0
    assert model.float_features[0].borders[0] == np.float32(0.5)


def test_missing_scale_field():
    doc = json.loads(COMPACT_DEPTH1)
    del doc["scale_hex"]
    with pytest.raises(ModelFormatError, match="scale_hex"):
        deserialize_model(json.dumps(doc))


def test_missing_split_field_names_location():
    doc = json.loads(COMPACT_DEPTH1)
    del doc["trees"][0]["ordinals"]
    with pytest.raises(ModelFormatError, match=r"^trees\[0\]: missing required field 'ordinals'$"):
        deserialize_model(json.dumps(doc))


def test_bad_hex_width_rejected():
    doc = json.loads(COMPACT_DEPTH1)
    doc["trees"][0]["leaves_hex"] = "3f00"
    with pytest.raises(ModelFormatError, match="4 hex digits are not a whole number of 16-digit"):
        deserialize_model(json.dumps(doc))


@pytest.mark.parametrize(
    "section, key, index, text, message",
    [
        ("float_features", "borders_hex", 0, "3f 0000 ",
         r"float_features\[0\]\.borders_hex\[0\]: expected 8 hex digits"),
        ("trees", "leaves_hex", 1, "4000 0000 000000",
         r"trees\[0\]\.leaves_hex\[1\]: expected 16 hex digits"),
        ("float_features", "borders_hex", 0, "3f00 0000",
         r"float_features\[0\]\.borders_hex: 9 hex digits are not a whole number"),
    ],
)
def test_hex_with_whitespace_rejected(section, key, index, text, message):
    # Spaces are not hex digits, whether a value's text has the length of
    # its digits or holds all of them and a space more.
    doc = json.loads(COMPACT_DEPTH1)
    digits = 8 if key == "borders_hex" else 16
    field = doc[section][0][key]
    doc[section][0][key] = field[: index * digits] + text + field[(index + 1) * digits :]
    with pytest.raises(ModelFormatError, match=message):
        deserialize_model(json.dumps(doc))


def test_serialize_writes_one_hex_string_per_table():
    model = deserialize_model(COMPACT_DEPTH1)
    assert json.loads(serialize_model(model)) == json.loads(COMPACT_DEPTH1)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("float_features", "borders_hex", ["3f000000"],
         "float_features[0].borders_hex: expected str"),
        ("trees", "leaves_hex", ["bff0000000000000", "4000000000000000"],
         "trees[0].leaves_hex: expected str"),
        ("trees", "splits", [{"feature": 0, "border": 0}],
         "trees[0]: missing required field 'features'"),
    ],
)
def test_list_forms_are_refused_naming_the_field(section, key, value, message):
    # The forms of earlier documents: a hex field as a list of one-value
    # strings, and a tree's splits as one object per split.
    doc = json.loads(COMPACT_DEPTH1)
    doc[section][0][key] = value
    if key == "splits":
        del doc[section][0]["features"], doc[section][0]["ordinals"]
    with pytest.raises(ModelFormatError) as exc:
        deserialize_model(json.dumps(doc))
    assert str(exc.value) == message


def test_feature_index_out_of_position_is_named():
    doc = json.loads(COMPACT_DEPTH1)
    doc["float_features"][0]["index"] = 1
    with pytest.raises(ModelFormatError) as exc:
        deserialize_model(json.dumps(doc))
    assert str(exc.value) == (
        "document parses but model is invalid: "
        "float_features[0]: feature index 1 does not match position 0")


@pytest.mark.parametrize(
    "section, key, text, message",
    [
        ("trees", "leaves_hex", "bff0000000000000" "4000 0000 000000",
         "trees[0].leaves_hex[1]: expected 16 hex digits, got '4000 0000 000000'"),
        ("trees", "leaves_hex", " bff000000000000" "4000000000000000",
         "trees[0].leaves_hex[0]: expected 16 hex digits, got ' bff000000000000'"),
        ("trees", "leaves_hex", "bff000000000000g" "4000000000000000",
         "trees[0].leaves_hex[0]: expected 16 hex digits, got 'bff000000000000g'"),
        ("float_features", "borders_hex", "3f 0000 ",
         "float_features[0].borders_hex[0]: expected 8 hex digits, got '3f 0000 '"),
        ("trees", "leaves_hex", "bff0000000000000" "40000000",
         "trees[0].leaves_hex: 24 hex digits are not a whole number of 16-digit values"),
        ("trees", "leaves_hex", "bff0000000000000" "4000000000000000\n",
         "trees[0].leaves_hex: 33 hex digits are not a whole number of 16-digit values"),
        ("float_features", "borders_hex", "3f00 0000",
         "float_features[0].borders_hex: 9 hex digits are not a whole number of 8-digit values"),
        ("float_features", "borders_hex", "3f000000" "3f80",
         "float_features[0].borders_hex: 12 hex digits are not a whole number of 8-digit values"),
    ],
)
def test_bad_value_in_a_hex_string_is_named_by_index(section, key, text, message):
    doc = json.loads(COMPACT_DEPTH1)
    doc[section][0][key] = text
    with pytest.raises(ModelFormatError) as exc:
        deserialize_model(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("section, key", [("float_features", "borders_hex"), ("trees", "leaves_hex")])
@pytest.mark.parametrize("value", [None, True, 7, 1.5, {}])
def test_hex_field_of_another_json_type_is_rejected(section, key, value):
    doc = json.loads(COMPACT_DEPTH1)
    doc[section][0][key] = value
    with pytest.raises(ModelFormatError) as exc:
        deserialize_model(json.dumps(doc))
    assert str(exc.value) == f"{section}[0].{key}: expected str"


def test_first_bad_tree_field_is_named_in_document_order():
    # A tree's fields are checked depth, features, ordinals, leaves_hex,
    # then the leaves' length, and the trees in order, as one tree at a
    # time would be.
    text = serialize_model(generate_synthetic_model(SyntheticSpec(2, 3, 3, 2, seed=5)))
    for missing in ("features", "ordinals"):
        message = f"trees[1]: missing required field {missing!r}"
        doc = json.loads(text)
        doc["trees"][2]["depth"] = True
        doc["trees"][1]["leaves_hex"] = doc["trees"][1]["leaves_hex"][:-1]
        del doc["trees"][1][missing]
        with pytest.raises(ModelFormatError) as exc:
            deserialize_model(json.dumps(doc))
        assert str(exc.value) == message


def test_non_json_input():
    with pytest.raises(ModelFormatError, match="line 1"):
        deserialize_model("not a document")


def test_invalid_model_surfaces_validation_errors():
    doc = json.loads(COMPACT_DEPTH1)
    doc["trees"][0]["ordinals"][0] = 1  # only one border exists
    with pytest.raises(ModelFormatError, match="border ordinal out of range"):
        deserialize_model(json.dumps(doc))


def test_serialization_is_deterministic():
    model = generate_synthetic_model(SyntheticSpec(3, 5, 4, 2, seed=11))
    assert serialize_model(model) == serialize_model(model)


def test_file_round_trip(tmp_path):
    model = generate_synthetic_model(SyntheticSpec(2, 3, 2, 2, seed=9))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert load_model(str(path)) == model


def _paths(node, path=()):
    """Every (container path, key) in a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path, key
        yield from _paths(child, path + (key,))


def _field_owners(path: tuple) -> tuple[str, ...]:
    """The parts of a field's path an error about it may name.

    Parse errors name the field itself; validation errors name the feature,
    tree or split that holds it, and ``scale``/``bias`` by their value names.
    A split's item is named in full: ``features[s]`` or ``ordinals[s]`` by a
    parse error, ``splits[s]`` by validation.
    """
    if len(path) == 1:
        return (path[0].removesuffix("_hex"),)
    owner = f"{path[0]}[{path[1]}]"
    if len(path) == 4 and path[2] in ("features", "ordinals"):
        return (f"{owner}.{path[2]}[{path[3]}]", f"{owner}.splits[{path[3]}]")
    return (owner,)


_WRONG_TYPES = [None, True, 1.5, "x", [], {}, 7]


def _bad_hex(digits: int):
    """Text that is not ``digits`` hex digits.  The spaced form (whole hex
    bytes apart, padded to the field's length) is the one bytes.fromhex
    accepts: it skips the spaces and returns too few bytes."""
    spaced = st.lists(st.sampled_from(["00", "3f", "7f", "ff"]), min_size=1, max_size=(digits + 1) // 3)
    return spaced.map(lambda pairs: " ".join(pairs).ljust(digits)) | st.text(
        alphabet="0123456789abcdefABCDEFxg +-\t\n", max_size=18
    )


_HEX_BITS = st.integers(0, 2**32 - 1).map("{:08x}".format) | st.integers(0, 2**64 - 1).map(
    "{:016x}".format
)
_INTS = st.sampled_from([-1, 0, 1, 2, 8, 9, 254, 255, 2**31, -(2**63)]) | st.integers(-(2**70), 2**70)


@st.composite
def mutated_documents(draw):
    """A valid document with one field mutated, and that field's path."""
    spec = SyntheticSpec(
        n_features=draw(st.integers(1, 3)),
        borders_per_feature=draw(st.integers(1, 4)),
        n_trees=draw(st.integers(0, 3)),
        depth=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 1000)),
    )
    text = serialize_model(generate_synthetic_model(spec))
    doc = json.loads(text)
    container_path, key = draw(st.sampled_from(list(_paths(doc))))
    container = doc
    for step in container_path:
        container = container[step]
    old = container[key]
    kinds = ["wrong type", "bad hex", "hex bits", "integer"]
    if isinstance(container, dict):
        kinds.append("missing key")
    kind = draw(st.sampled_from(kinds))
    if kind == "missing key":
        del container[key]
    elif kind == "wrong type":
        container[key] = draw(st.sampled_from([v for v in _WRONG_TYPES if type(v) is not type(old)]))
    elif kind == "bad hex":
        container[key] = draw(_bad_hex(len(old) if isinstance(old, str) else 8))
    elif kind == "hex bits":
        container[key] = draw(_HEX_BITS)  # NaN, inf, disordered or of the other width
    else:
        container[key] = draw(_INTS)
    return json.dumps(doc), container_path + (key,)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_malformed_document_loads_or_names_the_field(case):
    text, path = case
    try:
        model = deserialize_model(text)
    except ModelFormatError as exc:
        assert any(owner in str(exc) for owner in _field_owners(path)), (path, str(exc))
    else:
        assert validate_model(model) == []
        assert deserialize_model(serialize_model(model)) == model


@st.composite
def mixed_depth_models(draw):
    """A valid model of 1 to 8 trees, each of 1 to 8 levels, with leaves
    that the binary16 bank saturates now and then."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    features = [
        FloatFeatureBorders(i, np.sort(rng.choice(np.arange(-60, 60) / 8, size=k, replace=False)))
        for i, k in enumerate(sizes)
    ]
    trees = []
    for depth in draw(st.lists(st.integers(1, MAX_DEPTH), min_size=1, max_size=8)):
        split_features = rng.integers(len(sizes), size=depth)
        splits = tuple(SplitCondition(int(f), int(rng.integers(sizes[f]))) for f in split_features)
        trees.append(ObliviousTree(depth, splits, rng.normal(0.0, 2e4, 1 << depth)))
    return ObliviousModel(features, trees, scale=rng.uniform(0.5, 2), bias=rng.normal())


@settings(max_examples=60, deadline=None)
@given(mixed_depth_models())
def test_built_compact_and_split_object_models_are_equal(built):
    # The model the constructor builds from split condition objects and the
    # one loaded from its compact document are the same model, down to the
    # arrays the evaluator derives from them.
    model = deserialize_model(serialize_model(built))
    assert model == built and model.trees == built.trees
    table, expected_table = ModelTables(model), ModelTables(built)
    for name in ("cond_feature", "cond_border", "tree_cond"):
        got, expected = getattr(table, name), getattr(expected_table, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
    for precision in LeafPrecision:
        got, expected = table.bank(precision), expected_table.bank(precision)
        for name in ("values", "planes"):
            assert getattr(got, name).dtype == getattr(expected, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

"""Tests of the benchmark itself, on tiny shapes of its workloads."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from obtree import Evaluator, evaluate_scalar  # noqa: E402

import measure  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

TINY = {
    "wide-features": dict(n_features=6, n_borders=5, n_trees=12, depth=3, batch_size=150, pool=2),
    "deep-ensemble": dict(n_features=4, n_borders=6, n_trees=6, depth=8, batch_size=150, pool=2),
    "small-batch": dict(n_features=6, n_borders=5, n_trees=12, depth=3, batch_size=9, pool=9),
}
SECONDS = 0.02


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.fixture
def host():
    with measure.Host() as h:
        yield h


def test_host_settles_on_one_allowed_cpu_and_releases_them_all():
    allowed = os.sched_getaffinity(0)
    with measure.Host() as h:
        h.settle()
        (cpu,) = os.sched_getaffinity(0)
        assert cpu in allowed
        assert h.choices[cpu] == 1
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_bytes(name):
    a, b, c = (make_inputs(tiny(name), seed) for seed in (7, 7, 8))
    assert a.document == b.document
    assert [m.values.tobytes() for m in a.batches] == [m.values.tobytes() for m in b.batches]
    assert a.document != c.document


def test_small_batch_shares_the_wide_features_model():
    wide = dataclasses.replace(tiny("wide-features"), **{"batch_size": 9, "pool": 9})
    assert make_inputs(wide, 3).document == make_inputs(tiny("small-batch"), 3).document
    sizes = tiny("small-batch").batch_sizes(3)
    assert sorted(sizes) == list(range(1, 10))


def test_times_are_scaled_to_the_reference_host_speed():
    ref = measure.REFERENCE_PROBE_S
    s = measure.Samples([0.010, 0.030, 0.005], [1, 1, 1], [ref, 3 * ref, ref / 2])
    assert s.scaled() == pytest.approx([0.010, 0.010, 0.010])


def test_flipped_score_bit_counts_as_failure(monkeypatch, host):
    w = tiny("wide-features")
    inputs = make_inputs(w, 1)
    assert measure.run_timed(w, inputs, SECONDS, host).failed == 0

    predict = Evaluator.predict

    def flipped(self, matrix):
        scores = predict(self, matrix)
        scores.view(np.uint64)[0] ^= np.uint64(1)
        return scores

    monkeypatch.setattr(Evaluator, "predict", flipped)
    result = measure.run_timed(w, inputs, SECONDS, host)
    assert not result.correct
    assert result.failed == result.attempted
    assert result.notes["failed_frac"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quantize_and_rest_account_for_traced_predict(name, host):
    w = tiny(name)
    result = measure.run_traced(w, make_inputs(w, 2), SECONDS, host)
    m = result.metrics
    assert result.correct
    assert math.isclose(m["quantize.busy_ms"] + m["evaluate.rest_ms"], m["trace.predict_ms"])
    assert m["quantize.calls"] == m["evaluate.blocks"]
    assert m["model.validate_calls"] >= 1
    assert result.notes["unmeasured"] == []
    names = {s.name for s in result.tracer.spans}
    assert {"evaluate.predict", "quantize.quantize_block", "model.build_leaf_bank"} <= names


def test_layer_not_called_is_unmeasured_not_zero(monkeypatch, host):
    w = tiny("wide-features")
    monkeypatch.setattr(
        Evaluator, "predict", lambda self, matrix: evaluate_scalar(self.model, matrix)
    )
    result = measure.run_traced(w, make_inputs(w, 4), SECONDS, host)
    assert result.correct
    for name in ("quantize.busy_ms", "quantize.share", "evaluate.rest_ms"):
        assert result.metrics[name] is None
        assert name in result.notes["unmeasured"]
    assert result.metrics["quantize.calls"] == 0


def test_names_and_units_match_benchmark_json(host):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [x["name"] for x in spec["workloads"]] == list(WORKLOADS)
    assert {x["name"]: x["why"] for x in spec["workloads"]} == {
        k: w.why for k, w in WORKLOADS.items()
    }

    w = tiny("deep-ensemble")
    inputs = make_inputs(w, 5)
    timed = measure.run_timed(w, inputs, SECONDS, host).summary()["metrics"]
    traced = measure.run_traced(w, inputs, SECONDS, host).summary()["metrics"]
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == {
        k: v["unit"] for k, v in timed.items()
    }
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == {
        k: v["unit"] for k, v in traced.items()
    }

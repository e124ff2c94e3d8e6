"""Timed and traced runs of one workload against the library's public API.

One process, one caller, closed loop: the next ``predict`` is sent as soon as
the previous one returns, cycling through a pool of pre-generated batches.
Every predict call is checked bit for bit against the scalar oracle of its
leaf-precision family; a call that raises or differs in any bit is a failure.

The timed run (``trace=False``) reports the end-to-end metrics.  The traced
run (``trace=True``) wraps module functions where the library looks them up
and reports per-layer metrics; it alternates untraced and traced pool cycles
so that the tracing overhead is measured under the same conditions.

The host is shared: other tenants slow each of its CPUs by up to 2x, each CPU
on its own, for seconds to minutes at a time.  A fixed pure-Python probe,
which never touches the library, measures how fast a CPU runs right now.
Before each pool cycle and each set-up the process is pinned to the allowed
CPU the probe runs fastest on (``Host.settle``), and every predict call and
set-up is bracketed by probes on that CPU.  The end-to-end times are each
call's wall time scaled to a fixed reference speed of the host
(``Samples.scaled``); the unscaled figures go into the notes.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from obtree import (
    Evaluator,
    FeatureMatrix,
    LeafPrecision,
    LeafStrategy,
    ObliviousModel,
    apply_tail_policy,
    deserialize_model,
    evaluate_scalar,
    permute_group_count,
    plan_blocks,
)

from tracing import Tracer, library_tracer
from workloads import Inputs, Workload

SETUP_REPEATS = 7
TAIL_PERCENTILE = 90
MIN_BEYOND_TAIL = 10
PROBE_LOOPS = 5_000
# The probe's time on an uncontended CPU of the host the benchmark was defined
# on (Intel Xeon at 2.1 GHz, python 3.11); end-to-end times are reported at
# the speed this reading stands for.
REFERENCE_PROBE_S = 150e-6
# A run keeps calling past --seconds until the tail has MIN_BEYOND_TAIL samples
# beyond it, but no loop runs past this, so a very slow program still ends
# within the 180 s a run may take.
HARD_LIMIT_S = 90.0

END_TO_END = {
    "objects_per_s": "1/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "setup_s": "s",
    "setup_peak_mb": "MB",
    "predict_peak_mb": "MB",
}

PER_LAYER = {
    "serialize.load_s": "s",
    "serialize.doc_mb": "MB",
    "model.validate_s": "s",
    "model.validate_calls": "count",
    "model.tables_s": "s",
    "model.bank_s": "s",
    "model.bank_mb": "MB",
    "quantize.busy_ms": "ms",
    "quantize.calls": "count",
    "quantize.share": "ratio",
    "quantize.compares": "count",
    "quantize.bytes_in": "B",
    "evaluate.rest_ms": "ms",
    "evaluate.blocks": "count",
    "evaluate.tail_objects": "count",
    "evaluate.padded_lanes": "count",
    "indexer.compares": "count",
    "accumulate.leaf_loads": "count",
    "accumulate.select_passes": "count",
    "oracle.batch_ms": "ms",
    "oracle.speedup": "ratio",
    "trace.predict_ms": "ms",
    "trace.overhead_frac": "ratio",
}

_PERMUTE_LANES = {LeafStrategy.PERMUTE64: 8, LeafStrategy.PERMUTE16: 32}


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop: how fast this CPU runs right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - t0


class Host:
    """The CPUs this process may run on, and the choice among them.

    Use as a context manager: on exit the process may run on all of them
    again.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.choices = {cpu: 0 for cpu in self.cpus}

    def __enter__(self) -> Host:
        return self

    def __exit__(self, *exc) -> None:
        os.sched_setaffinity(0, self.cpus)

    def settle(self) -> None:
        """Pin this process to the allowed CPU the probe runs fastest on now."""
        readings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append((host_probe(), cpu))
        cpu = min(readings)[1]
        os.sched_setaffinity(0, {cpu})
        self.choices[cpu] += 1


def score_bits(scores: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(scores, dtype=np.float64).view(np.uint64)


class Checker:
    """Makes every predict call and counts those that raised or are wrong."""

    def __init__(self, batches: list[FeatureMatrix], expected: list[np.ndarray]):
        self.batches = batches
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def call(self, ev: Evaluator, k: int, tracer: Tracer | None = None) -> float | None:
        """Predict pool batch ``k``; return its wall time, or None if it raised."""
        batch = self.batches[k]
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                scores = ev.predict(batch)
                elapsed = time.perf_counter() - t0
            else:
                tracer.call = self.attempted
                with tracer.span("evaluate.predict") as span:
                    scores = ev.predict(batch)
                elapsed = span.end - span.start
        except Exception:  # a raising call is a counted failure, not the end of the run
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if not np.array_equal(score_bits(scores), self.expected[k]):
            self.failed += 1
        return elapsed


def setup(document: str, config):
    model = deserialize_model(document)
    return model, Evaluator(model, config)


def oracle_pass(model: ObliviousModel, batches, precision: LeafPrecision):
    """Oracle score bits for every pool batch, and the oracle's time per batch."""
    expected, times = [], []
    for batch in batches:
        t0 = time.perf_counter()
        scores = evaluate_scalar(model, batch, precision)
        times.append(time.perf_counter() - t0)
        expected.append(score_bits(scores).copy())
    return expected, times


def peak_mb(fn):
    """``fn()`` and the peak traced allocation while it ran, in MB."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


@dataclass
class Samples:
    times: list[float] = field(default_factory=list)     # wall time per call
    objects: list[int] = field(default_factory=list)     # objects scored per call
    host: list[float] = field(default_factory=list)      # host probe reading per call

    def add(self, elapsed: float, objects: int, host: float) -> None:
        self.times.append(elapsed)
        self.objects.append(objects)
        self.host.append(host)

    def scaled(self) -> list[float]:
        """Wall times at the reference speed of the host.

        A call's host reading is the mean of the probes just before and just
        after it, on the CPU it ran on; its time is scaled by
        REFERENCE_PROBE_S / reading.
        """
        return [t * REFERENCE_PROBE_S / h for t, h in zip(self.times, self.host)]


def beyond_tail(times: list[float]) -> int:
    """How many of ``times`` lie beyond their TAIL_PERCENTILE."""
    if not times:
        return 0
    return int(np.count_nonzero(np.asarray(times) > np.percentile(times, TAIL_PERCENTILE)))


def closed_loop(checker, ev, host, seconds, samples: list[Samples], tracer=None, tail=False):
    """Cycle through the pool for ``seconds``, whole cycles only.

    Without a tracer every cycle is untraced; with one, cycles alternate
    untraced and traced, and ``samples`` holds one Samples per mode.  With
    ``tail`` the loop runs on until the untraced tail percentile has
    MIN_BEYOND_TAIL samples beyond it.  Each cycle starts on the fastest
    CPU, and every call is bracketed by host probes, outside its timed span.
    """
    modes = [None] if tracer is None else [None, tracer]
    start = time.perf_counter()
    cycle = 0
    while True:
        mode = modes[cycle % len(modes)]
        into = samples[cycle % len(modes)]
        host.settle()
        with mode.installed() if mode else nullcontext():
            for k, batch in enumerate(checker.batches):
                before = host_probe()
                elapsed = checker.call(ev, k, mode)
                after = host_probe()
                if elapsed is not None:
                    into.add(elapsed, batch.n_objects, (before + after) / 2)
        cycle += 1
        if cycle % len(modes):
            continue
        wall = time.perf_counter() - start
        if wall >= HARD_LIMIT_S:
            break
        if wall >= seconds and (not tail or beyond_tail(samples[0].times) >= MIN_BEYOND_TAIL):
            break


@dataclass
class Result:
    metrics: dict          # name -> value (None where a layer went unmeasured)
    units: dict            # name -> unit
    attempted: int
    failed: int
    notes: dict            # sample counts, bases and other facts stated with the metrics
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
        }


def run_timed(w: Workload, inputs: Inputs, seconds: float, host: Host) -> Result:
    # The first set-up warms up and is measured for memory only.
    (model, ev), setup_peak = peak_mb(lambda: setup(inputs.document, w.config))
    batches = inputs.batches
    expected, _ = oracle_pass(model, batches, w.precision)
    checker = Checker(batches, expected)
    for k in range(len(batches)):
        checker.call(ev, k)

    largest = max(range(len(batches)), key=lambda k: batches[k].n_objects)
    _, predict_peak = peak_mb(lambda: checker.call(ev, largest))

    # Set-ups are spread over the run, one before each slice of the closed
    # loop, and bracketed by host probes like the calls.
    setups = Samples()
    s = Samples()
    for i in range(SETUP_REPEATS):
        host.settle()
        before = host_probe()
        t0 = time.perf_counter()
        setup(inputs.document, w.config)
        elapsed = time.perf_counter() - t0
        setups.add(elapsed, 1, (before + host_probe()) / 2)
        closed_loop(checker, ev, host, seconds / SETUP_REPEATS, [s], tail=i == SETUP_REPEATS - 1)

    def timings(calls: list[float], setup_times: list[float]) -> dict:
        return {
            "objects_per_s": sum(s.objects) / sum(calls),
            "predict_ms_p50": statistics.median(calls) * 1e3,
            "predict_ms_p90": float(np.percentile(calls, TAIL_PERCENTILE)) * 1e3,
            "setup_s": statistics.median(setup_times),
        }

    scaled = s.scaled()
    metrics = {
        **timings(scaled, setups.scaled()),
        "setup_peak_mb": setup_peak,
        "predict_peak_mb": predict_peak,
    }
    notes = {
        "timed_calls": len(s.times),
        "timed_objects": sum(s.objects),
        "calls_beyond_p90": beyond_tail(scaled),
        "unscaled": timings(s.times, setups.times),
        "host_probe_us": {
            "reference": REFERENCE_PROBE_S * 1e6,
            "p10": float(np.percentile(s.host, 10)) * 1e6,
            "p50": statistics.median(s.host) * 1e6,
            "p90": float(np.percentile(s.host, 90)) * 1e6,
        },
        "cpu_choices": host.choices,
        "setup_repeats": SETUP_REPEATS,
        "predict_peak_objects": batches[largest].n_objects,
        "failed_frac": checker.failed / checker.attempted,
    }
    return Result(metrics, dict(END_TO_END), checker.attempted, checker.failed, notes)


def _duration(spans) -> float:
    return sum(s.end - s.start for s in spans)


def _median_or_none(values: list[float | None]) -> float | None:
    return None if any(v is None for v in values) else statistics.median(values)


def computed_counts(w: Workload, model: ObliviousModel, batches, document: str) -> dict:
    """Operation and byte counts per predict call (mean over the pool)."""
    config = w.config
    sizes = [b.n_objects for b in batches]
    n = statistics.fmean(sizes)
    plans = [
        [apply_tail_policy(config.tail_policy, config.object_group, e - b)
         for b, e in plan_blocks(size, config.block_size)]
        for size in sizes
    ]
    depths = [t.depth for t in model.trees]
    item = 8 if w.precision is LeafPrecision.BINARY64 else 2
    group = 64 // item  # one 64-byte vector group
    lanes = _PERMUTE_LANES.get(w.strategy)
    return {
        "serialize.doc_mb": len(document.encode("utf-8")) / 1e6,
        "model.bank_mb": sum(-(-(1 << d) // group) * group for d in depths) * item / 1e6,
        "quantize.compares": n * sum(ff.borders.size for ff in model.float_features),
        "quantize.bytes_in": n * model.n_features * 4,
        "evaluate.blocks": statistics.fmean(len(p) for p in plans),
        "evaluate.tail_objects": statistics.fmean(sum(x.scalar_remainder for x in p) for p in plans),
        "evaluate.padded_lanes": statistics.fmean(sum(x.padded_lanes for x in p) for p in plans),
        "indexer.compares": n * sum(depths),
        "accumulate.leaf_loads": n * model.n_trees,
        "accumulate.select_passes": (
            n * sum(permute_group_count(d, lanes) for d in depths) if lanes else 0
        ),
    }


def run_traced(w: Workload, inputs: Inputs, seconds: float, host: Host) -> Result:
    tracer = library_tracer()
    per_setup = []
    with tracer.installed():
        for _ in range(SETUP_REPEATS):
            host.settle()
            first = len(tracer.spans)
            with tracer.span("setup"):
                with tracer.span("serialize.deserialize_model"):
                    model = deserialize_model(inputs.document)
                with tracer.span("evaluate.Evaluator"):
                    ev = Evaluator(model, w.config)
            per_setup.append(tracer.spans[first:])

    def setup_layer(name):
        values = [
            _duration(spans) if spans else None
            for spans in ([s for s in group if s.name == name] for group in per_setup)
        ]
        return _median_or_none(values)

    batches = inputs.batches
    expected, oracle_times = oracle_pass(model, batches, w.precision)
    checker = Checker(batches, expected)
    for k in range(len(batches)):
        checker.call(ev, k)

    plain, traced = Samples(), Samples()
    closed_loop(checker, ev, host, seconds, [plain, traced], tracer)

    by_call: dict[int, list] = {}
    for span in tracer.spans:
        if span.call is not None:
            by_call.setdefault(span.call, []).append(span)
    predict_s, busy_s, quantize_calls = [], [], []
    for call, spans in by_call.items():
        (predict,) = [s for s in spans if s.name == "evaluate.predict"]
        quantize = [s for s in spans if s.name == "quantize.quantize_block"]
        predict_s.append(predict.end - predict.start)
        busy_s.append(_duration(quantize))
        quantize_calls.append(len(quantize))
    quantize_measured = any(quantize_calls)
    if quantize_measured:
        expected_calls = [len(plan_blocks(b.n_objects, w.config.block_size)) for b in batches]
        # Traced calls cover whole pool cycles, so they cycle through the pool in order.
        for i, calls in enumerate(quantize_calls):
            if calls != expected_calls[i % len(batches)]:
                raise AssertionError(
                    f"traced predict made {calls} quantize_block calls, "
                    f"block plan has {expected_calls[i % len(batches)]}"
                )

    predict_mean = statistics.fmean(predict_s)
    busy_mean = statistics.fmean(busy_s) if quantize_measured else None
    plain_p50 = statistics.median(plain.times)
    traced_p50 = statistics.median(traced.times)
    oracle_ms = statistics.fmean(oracle_times) * 1e3
    validate_counts = [sum(s.name == "model.validate_model" for s in g) for g in per_setup]

    metrics = {
        "serialize.load_s": setup_layer("serialize.deserialize_model"),
        "model.validate_s": setup_layer("model.validate_model"),
        "model.validate_calls": statistics.median(validate_counts),
        "model.tables_s": setup_layer("model.ModelTables"),
        "model.bank_s": setup_layer("model.build_leaf_bank"),
        "quantize.busy_ms": busy_mean * 1e3 if quantize_measured else None,
        "quantize.calls": statistics.fmean(quantize_calls),
        "quantize.share": busy_mean / predict_mean if quantize_measured else None,
        "evaluate.rest_ms": (predict_mean - busy_mean) * 1e3 if quantize_measured else None,
        "oracle.batch_ms": oracle_ms,
        "oracle.speedup": oracle_ms / (plain_p50 * 1e3),
        "trace.predict_ms": predict_mean * 1e3,
        "trace.overhead_frac": traced_p50 / plain_p50 - 1.0,
    }
    counts = computed_counts(w, model, batches, inputs.document)
    metrics.update(counts)
    metrics = {name: metrics[name] for name in PER_LAYER}
    notes = {
        "setup_repeats": SETUP_REPEATS,
        "setup_layers": "medians over set-ups of inclusive span time; validate sums every call in one set-up",
        "traced_calls": len(traced.times),
        "untraced_calls": len(plain.times),
        "per_call_base": "means over traced predict calls; quantize.busy_ms + evaluate.rest_ms = trace.predict_ms",
        "quantize.share_base": "trace.predict_ms",
        "oracle.speedup_base": "oracle.batch_ms (mean over the pool) / untraced predict p50 "
        f"({plain_p50 * 1e3:.4f} ms)",
        "trace.overhead_base": f"traced p50 {traced_p50 * 1e3:.4f} ms / untraced p50 {plain_p50 * 1e3:.4f} ms - 1",
        "computed": list(counts),
        "unmeasured": [k for k, v in metrics.items() if v is None],
        "host_probe_us_p50": statistics.median(plain.host + traced.host) * 1e6,
        "cpu_choices": host.choices,
        "failed_frac": checker.failed / checker.attempted,
    }
    return Result(metrics, dict(PER_LAYER), checker.attempted, checker.failed, notes, tracer)

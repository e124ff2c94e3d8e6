"""Benchmark harness: run the case matrix, verify, time, write one record.

A case is one (layout, strategy, batch size) point of the matrix; every case
runs ``EvalConfig``'s fixed block size, which each record names.  A
batch-size sweep is a matrix whose only varying axis is the batch size.
The report is written as one JSON record (``format_json``): the host and
model facts as keys, and ``cases``, one object per case.

Every timed case is first checked against the scalar oracle in the same
process; a timing over wrong results is worthless.  Times are process CPU
time, averaged over repetitions; every case is verified, which doubles as
its warmup run, before the first case is timed, and the repetitions run
round-robin, one sample of every case per round, so that a slower host for
part of the run slows every case alike.  Each case carries its
relative deviation d = (time - base_time) / base_time against a designated
baseline case, and the median of host probes (``host_probe``) taken next to
its samples, so that records from separate processes can be compared.
After the timed rounds, each verified case makes ``STAGE_CALLS`` more calls
with ``EvalStats`` for its stage columns and their median wall time,
``call_ms``: ``call_ms - stage1_ms - fold_ms`` is the call's own glue,
with the timers and input counts of its ``EvalStats``.
Absolute times and speedups are hardware facts about the machine running
the bench; they are reported, never asserted.

Run ``obtree-bench --help`` or ``python -m obtree.bench --help`` for usage.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import native
from .evaluate import EvalConfig, EvalStats, Evaluator, LeafStrategy, ModelTables
from .model import LeafPrecision, ObliviousModel
from .oracle import evaluate_scalar
from .quantize import FeatureMatrix, Layout
from .serialize import deserialize_model, serialize_model
from .synthetic import SyntheticSpec, generate_feature_matrix, generate_synthetic_model

PRESETS = {
    # Small enough that the full matrix runs in minutes on a laptop core.
    "desk": SyntheticSpec(n_features=500, borders_per_feature=64, n_trees=1000, depth=6, seed=101),
    # The shape of the classification model used for published single-core
    # timings: 2000 features, 64 borders each, 8000 trees of depth 6.
    "epsilon8k64": SyntheticSpec(
        n_features=2000, borders_per_feature=64, n_trees=8000, depth=6, seed=8064
    ),
}

DEFAULT_DATA_SEED = 424242
DEFAULT_REPS = 50

_LAYOUT_SHORT = {Layout.OBJECT_MAJOR: "om", Layout.FEATURE_MAJOR: "fm"}


@dataclass(frozen=True)
class BenchCase:
    config: EvalConfig
    layout: Layout
    batch_size: int
    repetitions: int

    def __post_init__(self) -> None:
        if self.repetitions < 3:
            raise ValueError("repetitions must be at least 3")

    @property
    def case_id(self) -> str:
        return f"{self.config.strategy.value}-{_LAYOUT_SHORT[self.layout]}-n{self.batch_size}"


@dataclass
class CaseResult:
    """A case's measurements, None where not taken: all of them for a case
    that failed verification, and ``d`` where the baseline failed."""

    case: BenchCase
    verified: bool
    mean_s: float | None = None
    std_s: float | None = None
    d: float | None = None
    inner: int = 0  # evaluations per timing sample (coarse-clock batching)
    # Medians of STAGE_CALLS untimed predict calls' EvalStats, and of their
    # wall times.
    stage1_s: float | None = None
    fold_s: float | None = None
    scratch_bytes: int | None = None
    fold_groups: int | None = None
    call_s: float | None = None
    # Median host probe next to the timing samples.
    host_probe_s: float | None = None


@dataclass
class BenchReport:
    baseline_id: str
    rows: list[CaseResult]
    metadata: dict = field(default_factory=dict)

    @property
    def all_verified(self) -> bool:
        return all(r.verified for r in self.rows)


# The vector ISA extensions among the CPU's flags.
_ISA_FLAG = re.compile(r"(avx|sse|ssse)\w*|fma|f16c|gfni|bmi\d?")


def _cpu_isa_flags(cpuinfo: str = "/proc/cpuinfo") -> str:
    """The ISA flags of the first CPU in ``cpuinfo``, or "unreadable"."""
    try:
        with open(cpuinfo, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    flags = line.partition(":")[2].split()
                    return ",".join(f for f in flags if _ISA_FLAG.fullmatch(f))
    except OSError:
        pass
    return "unreadable"


def _git_rev(directory: Path) -> str | None:
    """``git rev-parse HEAD`` of the checkout holding ``directory``, or None
    outside a checkout or where git does not run."""
    try:
        done = subprocess.run(["git", "-C", str(directory), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _host_metadata() -> dict:
    package = Path(__file__).parent
    clock = time.get_clock_info("process_time")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_flags_checked": ",".join(native.CPU_FLAGS),
        "cpu_isa_flags": _cpu_isa_flags(),
        "clock": f"process_time via {clock.implementation}, resolution {clock.resolution:g} s",
        # Code size next to the timings: lines of the package's Python and C sources.
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for pattern in ("*.py", "*.c")
            for path in package.glob(pattern)
        ),
        "git_rev": _git_rev(package),
    }


def _verify(preds: np.ndarray, oracle: np.ndarray) -> bool:
    """Bit equality with the oracle of the case's leaf-precision family."""
    return np.array_equal(preds.view(np.uint64), oracle.view(np.uint64))


# One timing sample spans at least 100 ticks of the process CPU clock (1 ns
# with Linux's CLOCK_PROCESS_CPUTIME_ID, up to milliseconds elsewhere) and at
# least 5 ms against scheduler jitter; fast cases run several evaluations each.
_MIN_SAMPLE_S = max(100 * time.get_clock_info("process_time").resolution, 0.005)


def _time_case(evaluator: Evaluator, matrix: FeatureMatrix) -> tuple[int, Callable[[], float]]:
    """Calibrate a case: evaluations per sample, and a function taking one sample.

    A sample times ``inner`` evaluations and gives the CPU seconds of one.
    """
    def sample() -> float:
        t0 = time.process_time()
        for _ in range(inner):
            evaluator.predict(matrix)
        return (time.process_time() - t0) / inner

    inner = 1
    while sample() * inner < _MIN_SAMPLE_S:
        inner *= 2
    return inner, sample


# Additions of the host probe: the loop of perfbench's probe, so that both
# records read the host in one unit (0.17-0.24 ms on a shared 2-vCPU
# Sapphire Rapids VM).
PROBE_LOOPS = 5_000


def host_probe() -> float:
    """Wall seconds of a fixed pure-Python loop: how fast this CPU runs now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - started


STAGE_CALLS = 31


def _stage_columns(evaluator: Evaluator, matrix: FeatureMatrix) -> tuple:
    """Median ``stage1_s``, ``fold_s``, ``scratch_bytes`` and ``fold_groups``
    of ``STAGE_CALLS`` calls of ``predict(matrix, stats)``, none of them
    inside a timing sample, and the median wall seconds of those calls."""
    calls, walls = [EvalStats() for _ in range(STAGE_CALLS)], []
    for stats in calls:
        started = time.perf_counter()
        evaluator.predict(matrix, stats)
        walls.append(time.perf_counter() - started)
    return (*(statistics.median(getattr(s, name) for s in calls)
              for name in ("stage1_s", "fold_s", "scratch_bytes", "fold_groups")),
            statistics.median(walls))


def run_matrix(
    model: ObliviousModel,
    cases: list[BenchCase],
    baseline: str | None = None,
    data_seed: int = DEFAULT_DATA_SEED,
    log=None,
) -> BenchReport:
    """Verify and time every case; d is relative to the baseline case."""
    if not cases:
        raise ValueError("no cases to run")
    ids = [c.case_id for c in cases]
    baseline_id = baseline or ids[0]
    if baseline_id not in ids:
        raise ValueError(f"baseline case {baseline_id!r} is not in the matrix")

    tables = ModelTables(model)
    rows: list[CaseResult] = []

    # Each batch is generated object-major, and kept for the run with its
    # oracle scores; a feature-major copy is made only for a case that asks.
    @functools.cache
    def inputs(batch_size: int, layout: Layout) -> FeatureMatrix:
        if layout is Layout.FEATURE_MAJOR:
            return inputs(batch_size, Layout.OBJECT_MAJOR).transposed()
        return generate_feature_matrix(batch_size, model.n_features, seed=data_seed + batch_size)

    @functools.cache
    def oracle(batch_size: int, precision: LeafPrecision) -> np.ndarray:
        return evaluate_scalar(model, inputs(batch_size, Layout.OBJECT_MAJOR), precision)

    # Verify every case before timing any.  A run raises the allocator's
    # threshold for handing freed memory back to the system; a case timed
    # before larger cases had run page-faulted on every block and read slow.
    evaluators = []
    for case in cases:
        evaluators.append(Evaluator(tables, case.config))
        preds = evaluators[-1].predict(inputs(case.batch_size, case.layout))
        expected = oracle(case.batch_size, case.config.strategy.precision)
        rows.append(CaseResult(case, verified=_verify(preds, expected)))

    # Calibrate every verified case on the evaluator that verified it, then
    # take one sample of each case per round, so that a change in host speed
    # during the run reaches every case alike.
    timed = []
    for row, evaluator in zip(rows, evaluators):
        case = row.case
        if log:
            log(f"case {case.case_id} ...")
        if row.verified:
            matrix = inputs(case.batch_size, case.layout)
            row.inner, sample = _time_case(evaluator, matrix)
            timed.append((row, evaluator, matrix, sample, [], []))
    rounds = max((row.case.repetitions for row, *_ in timed), default=0)
    if log and timed:
        log(f"timing {len(timed)} cases round-robin, {rounds} rounds ...")
    for r in range(rounds):
        for row, _, _, sample, samples, probes in timed:
            if r < row.case.repetitions:
                before = host_probe()
                samples.append(sample())
                probes.append((before + host_probe()) / 2)
    for row, evaluator, matrix, _, samples, probes in timed:
        row.mean_s = statistics.fmean(samples)
        row.std_s = statistics.stdev(samples)
        row.host_probe_s = statistics.median(probes)
        (row.stage1_s, row.fold_s, row.scratch_bytes, row.fold_groups,
         row.call_s) = _stage_columns(evaluator, matrix)

    # First matching row wins if the id appears more than once.
    base_time = next(r for r in rows if r.case.case_id == baseline_id).mean_s
    for row in rows:
        if row.verified and base_time:
            row.d = (row.mean_s - base_time) / base_time

    metadata = {
        **_host_metadata(),
        "n_features": model.n_features,
        "n_trees": model.n_trees,
        "data_seed": data_seed,
        "baseline": baseline_id,
        "backend": evaluators[-1].backend,
        "block_size": EvalConfig.block_size,
    }
    return BenchReport(baseline_id=baseline_id, rows=rows, metadata=metadata)


# ----------------------------------------------------------------------------
# The record


def format_json(report: BenchReport) -> str:
    """The report as one JSON record: its metadata, then ``cases``, one object
    per case, whose timings, ``d`` and stage columns are null where they were
    not measured.  NaN and infinity are refused, so strict parsers read it."""
    def ms(seconds: float | None) -> float | None:
        return None if seconds is None else seconds * 1e3

    cases = [{
        "case_id": row.case.case_id,
        "strategy": row.case.config.strategy.value,
        "layout": row.case.layout.value,
        "batch": row.case.batch_size,
        "reps": row.case.repetitions,
        "inner": row.inner,
        "mean_ms": ms(row.mean_s),
        "std_ms": ms(row.std_s),
        "d": row.d,
        "stage1_ms": ms(row.stage1_s),
        "fold_ms": ms(row.fold_s),
        "scratch_bytes": row.scratch_bytes,
        "fold_groups": row.fold_groups,
        "call_ms": ms(row.call_s),
        "host_probe_us": None if row.host_probe_s is None else row.host_probe_s * 1e6,
        "verified": row.verified,
    } for row in report.rows]
    return json.dumps({**report.metadata, "cases": cases}, indent=1, allow_nan=False) + "\n"


# ----------------------------------------------------------------------------
# CLI


def _parse_batch(text: str) -> list[int]:
    """Batch sizes from a comma-separated list of sizes n and ranges a..b
    or a..b:step."""
    sizes = []
    for part in text.split(","):
        match = re.fullmatch(r"(\d+)(?:\.\.(\d+)(?::(\d+))?)?", part)
        if not match:
            raise argparse.ArgumentTypeError("batch must look like n, a..b or a..b:step, "
                                             "or a comma-separated list of them")
        lo = int(match.group(1))
        hi = int(match.group(2) or lo)
        step = int(match.group(3) or 1)
        if lo < 1 or hi < lo or step < 1:
            raise argparse.ArgumentTypeError("batch sizes must satisfy 1 <= a <= b, step >= 1")
        sizes += range(lo, hi + 1, step)
    return sizes


def _parse_synthetic(text: str) -> SyntheticSpec:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("expected n_features,borders,trees,depth,seed")
    try:
        f, b, t, d, s = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("synthetic spec fields must be integers") from exc
    return SyntheticSpec(n_features=f, borders_per_feature=b, n_trees=t, depth=d, seed=s)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obtree-bench",
        description="Benchmark oblivious-tree ensemble evaluation strategies on one core.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--model", metavar="PATH", help="load a serialized model document")
    source.add_argument(
        "--synthetic",
        type=_parse_synthetic,
        metavar="F,B,T,D,SEED",
        help="generate a synthetic model with the given shape",
    )
    source.add_argument(
        "--preset", choices=sorted(PRESETS), help="use a named synthetic model preset"
    )
    parser.add_argument(
        "--layout",
        choices=[layout.value for layout in Layout] + ["both"],
        default="both",
        help="input matrix layout(s) to measure (default: both)",
    )
    parser.add_argument(
        "--strategy",
        choices=[s.value for s in LeafStrategy] + ["all"],
        default="all",
        help="leaf-load strategy(ies) (default: all)",
    )
    parser.add_argument(
        "--batch",
        type=_parse_batch,
        default=[1024],
        metavar="N|A..B[:STEP][,...]",
        help="batch size, or a comma-separated list of sizes and ranges to sweep "
             "(default: 1024)",
    )
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS, help="timed repetitions per case")
    parser.add_argument("--baseline", metavar="CASE_ID", help="case id d is measured against")
    parser.add_argument(
        "--out",
        type=argparse.FileType("w", encoding="utf-8"),
        metavar="PATH",
        help="write the record here instead of stdout",
    )
    parser.add_argument("--data-seed", type=int, default=DEFAULT_DATA_SEED)
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def _resolve_model(args) -> tuple[str, str]:
    """The model's document, and where it came from: the file's text for
    ``--model``, ``serialize_model``'s output for a generated model."""
    if args.model:
        with open(args.model, encoding="utf-8") as fh:
            return fh.read(), f"file:{args.model}"
    if args.synthetic:
        spec, source = args.synthetic, f"synthetic:{args.synthetic}"
    else:
        preset = args.preset or "desk"
        spec, source = PRESETS[preset], f"preset:{preset}"
    return serialize_model(generate_synthetic_model(spec)), source


LOAD_REPEATS = 3


def load_seconds(document: str, config: EvalConfig) -> float:
    """Median wall seconds (``time.perf_counter``) of ``LOAD_REPEATS`` loads
    of ``document``: ``deserialize_model`` and ``Evaluator`` construction."""
    times = []
    for _ in range(LOAD_REPEATS):
        started = time.perf_counter()
        Evaluator(deserialize_model(document), config)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def build_cases(args) -> list[BenchCase]:
    layouts = list(Layout) if args.layout == "both" else [Layout(args.layout)]
    strategies = list(LeafStrategy) if args.strategy == "all" else [LeafStrategy(args.strategy)]
    return [
        BenchCase(EvalConfig(strategy), layout, batch, args.reps)
        for layout in layouts
        for strategy in strategies
        for batch in args.batch
    ]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.data_seed < 0:
        parser.error(f"--data-seed must be non-negative, got {args.data_seed}")
    log = (lambda msg: None) if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    # --out was opened while parsing, so an unwritable path fails before any case runs.
    with args.out or contextlib.nullcontext(sys.stdout) as out:
        try:
            cases = build_cases(args)
            document, source = _resolve_model(args)
            model = deserialize_model(document)
            log(f"model: {source} ({model.n_features} features, {model.n_trees} trees)")
            report = run_matrix(model, cases, args.baseline, args.data_seed, log=log)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        report.metadata["model"] = source
        # The set-up a caller pays once per model, for the first case's strategy.
        report.metadata["load_s"] = round(load_seconds(document, cases[0].config), 6)
        out.write(format_json(report))
    if args.out:
        log(f"report written to {args.out.name}")

    if not report.all_verified:
        log("ERROR: at least one case failed oracle verification")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

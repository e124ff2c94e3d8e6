"""Benchmark of the obtree evaluator: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wide-features --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload wide-features --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record, with
host facts and sample counts, is written under ``perfbench/out/``.  The exit
code is nonzero when any score differs from the oracle in any bit.
"""

from __future__ import annotations

import os

# One thread per library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

_ISA_FLAGS = ("avx512f", "avx512bw", "avx512vbmi", "avx512_fp16", "f16c")


def _cpu_facts() -> dict:
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return {"cpu_model": model, "isa_flags": {f: f in flags for f in _ISA_FLAGS}}


def _git_commit() -> str:
    # Read the checkout's own .git directly: running git in a directory that
    # is not a repository would search the parent directories.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )


def host_facts(seed: int) -> dict:
    import numpy as np

    clock = time.get_clock_info("perf_counter")
    return {
        **_cpu_facts(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "perf_counter": {
            "implementation": clock.implementation,
            "resolution": clock.resolution,
            "monotonic": clock.monotonic,
        },
        "seed": seed,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


def _format(value) -> str:
    return "unmeasured" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import obtree
    except ImportError as exc:
        print(f"perfbench: cannot import obtree from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(obtree.__file__).resolve().parents:
        print(f"perfbench: obtree was imported from {obtree.__file__}, not {src}", file=sys.stderr)
        return 2

    from measure import Host, run_timed, run_traced
    from workloads import WORKLOADS, make_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    run = run_traced if args.trace else run_timed
    with Host() as host:
        result = run(workload, inputs, args.seconds, host)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "why": workload.why,
        "load": "closed loop, one caller, no think time",
        "seconds": args.seconds,
        "host": host_facts(args.seed),
        "notes": result.notes,
        **result.summary(),
    }
    if result.tracer is not None:
        spans_path = OUT_DIR / f"{stem}-spans.json"
        result.tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name}: {workload.why}")
    for name, value in result.metrics.items():
        print(f"  {name:26} {_format(value):>14} {result.units[name]}")
    print(f"  {'failed_frac':26} {_format(result.notes['failed_frac']):>14} "
          f"({result.failed} of {result.attempted} predict calls)")
    print("notes " + json.dumps(result.notes))
    print("host " + json.dumps(record["host"]))
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

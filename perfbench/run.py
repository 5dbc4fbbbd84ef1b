"""Benchmark entry point: CartPole evolution workloads, end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cartpole-numpy-p1000 --seed 0 \
        --seconds 10 --trace 0

``--trace 0`` measures untraced runs and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced runs
and reports the per-layer metrics (see ``perfbench/METRICS.md``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; an operation is one
generation.  The package is imported from ``src/`` next to this
directory; without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no package source at {ROOT / 'src' / 'repro'}")
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        _fail(f"missing {bench_file}")
    bench = json.loads(bench_file.read_text())
    # Telemetry and transport switches would change what is measured.
    for var in ("REPRO_TRACE", "REPRO_TRACE_FILE", "REPRO_TASK_TRANSPORT"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure  # needs src/ on sys.path
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}")
    expected = json.loads((HERE / "expected_digests.json").read_text())

    scratch_root = ROOT / ".perfbench-work"
    scratch = scratch_root / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            m, values = measure.measure_per_layer(
                workload, args.seed, args.seconds, scratch, expected
            )
            wanted = bench["per_layer"]
        else:
            m, values = measure.measure_end_to_end(
                workload, args.seed, args.seconds, scratch, expected
            )
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    for error in m.errors:
        print(f"perfbench: {workload.name} seed {args.seed}: {error}",
              file=sys.stderr)
    # Layers a workload never enters read 0 (e.g. hw.* off the soc backend).
    metrics = {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)),
                       "unit": spec["unit"]}
        for spec in wanted
    }
    print(json.dumps({
        "correct": m.correct and bool(values),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

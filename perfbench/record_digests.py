"""Regenerate ``expected_digests.json``, the stored output check.

Run from the repository root after a change that is *meant* to alter
evolution trajectories or simulated counters::

    python3 perfbench/record_digests.py

It runs every workload once for each experiment seed that the default
seed and the held-out seed stand for (``measure.run_seeds``) and stores
each generation's digest (layout: ``workloads.DIGEST_FIELDS``,
plus ``SIM_DIGEST_FIELDS`` on the soc workload).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import measure  # noqa: E402
import workloads  # noqa: E402

#: The default seed, and one seed never used while tuning the benchmark.
SEEDS = (0, 97)


def main() -> int:
    expected = {}
    scratch_root = HERE.parent / ".perfbench-work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        for name, workload in workloads.WORKLOADS.items():
            expected[name] = {}
            for seed in (
                s for base in SEEDS for s in measure.run_seeds(workload, base)
            ):
                record = workloads.run_once(workload, seed, scratch / "run")
                shutil.rmtree(scratch / "run", ignore_errors=True)
                if record.error is not None:
                    print(f"{name} seed {seed}: {record.error}", file=sys.stderr)
                    return 1
                expected[name][str(seed)] = record.digest
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    text = "{\n" + ",\n".join(
        f"  {json.dumps(name)}: {{\n" + ",\n".join(
            f"    {json.dumps(seed)}: [\n" + ",\n".join(
                f"      {json.dumps(row)}" for row in rows
            ) + "\n    ]"
            for seed, rows in seeds.items()
        ) + "\n  }"
        for name, seeds in expected.items()
    ) + "\n}\n"
    (HERE / "expected_digests.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

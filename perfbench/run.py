"""kothe benchmark: one workload per invocation, result as the last stdout line.

    python3 perfbench/run.py --workload dual-small --seed 1 --seconds 40 --trace 0

Workloads: dual-small, tail-large, cli (see BENCHMARK.json and
perfbench/README.md).  The workload runs in a fresh child process with one
BLAS thread, so its peak resident memory is the workload's own.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer counts and times of one traced round plus the tracing overhead.
A human-readable summary goes to stderr.  Exits non-zero, printing no
result, when the workload cannot run (for example without ``src/kothe``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dual-small", "tail-large", "cli")
CHILD_TIMEOUT_S = 170
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kothe" / "__init__.py").is_file():
        print(f"error: no kothe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {**os.environ, **ONE_THREAD}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {args.workload} worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

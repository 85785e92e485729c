"""Self-test of the benchmark itself (not part of the kothe test suite).

    python3 perfbench/selftest.py [--seed 3] [--workload cli ...]

Checks, for each workload:
  * the same seed gives the same inputs, a second seed different inputs,
    and both the same number and kinds of operations;
  * two traced runs on one seed give identical ``.calls`` and ``.evals``
    counts, and all per-layer metrics named in BENCHMARK.json;
  * the traced runs pass every correctness check.
Exits 1 on any failure.  Takes a few minutes (two traced runs per workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

COUNT_STATS = (".calls", ".evals")


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode())
        for arr in op.data:
            h.update(arr.tobytes())
    return h.hexdigest()


def round_zero(name: str, seed: int):
    state = workloads.WORKLOADS[name](seed)
    try:
        ops = state.ops(0)
        return [op.label for op in ops], digest(ops)
    finally:
        state.close()


def traced(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in bench["per_layer"]]
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in args.workload:
        labels_a, dig_a = round_zero(name, args.seed)
        _, dig_a2 = round_zero(name, args.seed)
        labels_b, dig_b = round_zero(name, args.seed + 1)
        expect(dig_a == dig_a2, f"{name}: seed {args.seed} regenerates identical inputs")
        expect(dig_a != dig_b, f"{name}: seed {args.seed + 1} changes the inputs")
        expect(
            sorted(labels_a) == sorted(labels_b),
            f"{name}: both seeds run the same {len(labels_a)} operations",
        )

        first, second = traced(name, args.seed), traced(name, args.seed)
        expect(first["correct"] and second["correct"], f"{name}: traced runs pass every check")
        expect(
            sorted(first["metrics"]) == sorted(layer_names),
            f"{name}: traced run reports exactly the per-layer metrics of BENCHMARK.json",
        )
        counts = [k for k in first["metrics"] if k.endswith(COUNT_STATS)]
        differing = [k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        expect(not differing, f"{name}: {len(counts)} counts repeat exactly across two traced runs {differing}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload in this process and prints its result as one JSON line.

Started by run.py in a fresh child process (one BLAS thread), so the peak
resident memory of this process belongs to the workload alone.  Not meant
to be run by hand; use run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9   # set-up (and the import) is repeated and its median reported
MIN_OPS = 100       # rounds run until at least this many operations are timed
TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kothe; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time of ``import kothe`` (numpy included) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", TIME_IMPORT, str(SRC)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(proc.stdout)


def import_kothe() -> None:
    """Import kothe from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import kothe

    if not Path(kothe.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"kothe imported from {kothe.__file__}, not from {SRC}")


def run_ops(ops, tracer=None) -> tuple[float, list[float], list[str]]:
    """Run and check one round; returns (wall seconds, op latencies, failures)."""
    latencies: list[float] = []
    failures: list[str] = []
    t_round = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
            tracer.active = True
        t0 = perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # a raising operation is a failed operation
            out, err = None, f"raised {exc!r}"
        finally:
            latencies.append(perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a malformed output is a failed operation
                err = f"check raised {exc!r}"
        if err is not None:
            failures.append(f"{op.label}: {err}")
    return perf_counter() - t_round, latencies, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    import_kothe()
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    state = cls(args.seed)
    try:
        if args.trace:
            result, info = traced_run(state, args, tracing)
        else:
            result, info = timed_run(cls, state, args)
    finally:
        state.close()
    for line in info:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


def _result(attempted: int, failures: list[str], metrics: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def _failure_lines(failures: list[str]) -> list[str]:
    return [f"FAILED {f}" for f in failures[:20]]


def timed_run(cls, state, args) -> tuple[dict, list[str]]:
    walls: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    setups: list[float] = []
    imports: list[float] = []

    def sample_setup() -> None:
        t0 = perf_counter()
        extra = cls(args.seed)
        setups.append(perf_counter() - t0)
        extra.close()
        imports.append(import_seconds())

    t_start = perf_counter()
    r = 0
    # start a round only if it should end within the run's seconds
    while len(latencies) < MIN_OPS or perf_counter() - t_start + statistics.mean(walls) <= args.seconds:
        ops = state.ops(r)
        wall, lat, fails = run_ops(ops)
        walls.append(wall)
        latencies += lat
        failures += fails
        r += 1
        # the host's speed drifts over the run, so set-up and import are
        # timed between rounds, spread evenly over the run's seconds
        due = int(SETUP_REPEATS * (perf_counter() - t_start) / args.seconds) + 1
        while len(setups) < min(due, SETUP_REPEATS):
            sample_setup()
    while len(setups) < SETUP_REPEATS:
        sample_setup()
    setup_s = statistics.median(imports) + statistics.median(setups)
    attempted = len(latencies)
    ms = [x * 1e3 for x in latencies]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.mean(walls), "unit": "s"},
        "op_p50_ms": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
        "op_p90_ms": {"value": float(np.percentile(ms, 90)), "unit": "ms"},
        "ok_ratio": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    info = [
        f"{args.workload} seed={args.seed}: {r} rounds of {attempted // r} ops, "
        f"{len(failures)}/{attempted} failed",
        f"  setup_s    {setup_s:.4f} s  (medians of {SETUP_REPEATS} imports and {SETUP_REPEATS} set-ups)",
        f"  wall_s     {metrics['wall_s']['value']:.4f} s  (mean of {r} rounds)",
        f"  op_p50_ms  {metrics['op_p50_ms']['value']:.3f} ms  (n={attempted} ops)",
        f"  op_p90_ms  {metrics['op_p90_ms']['value']:.3f} ms  (n={attempted} ops)",
        f"  fail_ratio {len(failures) / attempted:.4f}  ({len(failures)}/{attempted} ops)",
        f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB  (this process)",
    ] + _failure_lines(failures)
    return _result(attempted, failures, metrics), info


def traced_run(state, args, tracing) -> tuple[dict, list[str]]:
    """Round 0 untraced twice (the first warms caches and allocator), then
    traced; counts and times come from the traced round."""
    _, lat0, fails0 = run_ops(state.ops(0))
    plain_wall, lat, fails = run_ops(state.ops(0))
    lat0 += lat
    fails0 += fails
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall, lat1, fails1 = run_ops(state.ops(0), tracer)
    finally:
        tracer.uninstall()
    out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(out)
    metrics = tracer.layer_metrics()
    metrics[tracing.OVERHEAD_METRIC] = {"value": traced_wall / plain_wall, "unit": "ratio"}
    failures = fails0 + fails1
    info = [
        f"{args.workload} seed={args.seed} traced: {len(lat1)} ops, {len(tracer.start)} spans "
        f"written to {out.relative_to(ROOT)}",
        f"  wall untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s "
        f"(overhead x{traced_wall / plain_wall:.2f})",
    ] + _failure_lines(failures)
    return _result(len(lat0) + len(lat1), failures, metrics), info


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

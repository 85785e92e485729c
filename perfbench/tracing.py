"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps kothe's layer functions and methods; every call
made while ``active`` is set records a span (name, start, end, parent span,
operation id) in flat in-memory arrays.  Functions are rebound in every
kothe module that binds them (``bisect_gauge`` lives in ``_optim``,
``norms`` and ``risk``; ``polar`` is also imported lazily inside ``norms``
and ``risk``, which reads ``kothe.duality.polar`` at call time), and methods
are replaced on their classes.  ``uninstall()`` restores every binding.

For the optimizer entry points the callable passed in is wrapped too, so
``.evals`` counts its calls; ``maximize_linear_on_ball`` reports its own
``n_evals`` and ``converged``, which are summed instead.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> (module, function or Class.method, how .evals is counted)
FUNCTIONS = {
    "rearrange.quantile": ("kothe.rearrange", "quantile", None),
    "rearrange.cvar_infimum": ("kothe.rearrange", "cvar_infimum", None),
    "young.modular": ("kothe.young", "MusielakFamily.modular", None),
    "young.eval_array": ("kothe.young", "YoungFunction.eval_array", None),
    "space.rv": ("kothe.space", "Rv.__post_init__", None),
    "norms.value": ("kothe.norms", "Seminorm.value", None),
    "norms.check_axioms": ("kothe.norms", "check_axioms", None),
    "norms.amemiya_dual_norm": ("kothe.norms", "amemiya_dual_norm", None),
    "norms.gen_orlicz_dual_norm": ("kothe.norms", "gen_orlicz_dual_norm", None),
    "risk.evaluate_risk": ("kothe.risk", "evaluate_risk", None),
    "risk.risk_norm": ("kothe.risk", "risk_norm", None),
    "risk.penalty": ("kothe.risk", "penalty", None),
    "risk.penalty_gauge": ("kothe.risk", "penalty_gauge", None),
    "risk.dual_gauge_exact": ("kothe.risk", "dual_gauge_exact", None),
    "risk.risk_dual_norm": ("kothe.risk", "risk_dual_norm", None),
    "risk.check_risk_axioms": ("kothe.risk", "check_risk_axioms", None),
    "optim.maximize_linear_on_ball": ("kothe._optim", "maximize_linear_on_ball", "result"),
    "optim.golden_max_interval": ("kothe._optim", "golden_max_interval", "arg"),
    "optim.bisect_gauge": ("kothe._optim", "bisect_gauge", "arg"),
    "optim.minimize_scalar_convex": ("kothe._optim", "minimize_scalar_convex", "arg"),
    "optim.minimize_convex_on_orthant": ("kothe._optim", "minimize_convex_on_orthant", "arg"),
    "duality.polar": ("kothe.duality", "polar", None),
    "duality.spot_check": ("kothe.duality", "_spot_check", None),
    "duality.verify_bipolar": ("kothe.duality", "verify_bipolar", None),
    "duality.verify_sandwich": ("kothe.duality", "verify_sandwich", None),
    "cli.main": ("kothe.cli", "main", None),
    "cli.load_scenario": ("kothe.cli", "load_scenario", None),
    "cli.parse_config": ("kothe.cli", "parse_config", None),
}
SEMINORM_FAMILIES = (
    "LpNorm", "MarcinkiewiczNorm", "LorentzNorm", "LuxemburgNorm", "RiskNorm", "GenOrliczNorm", "CustomSeminorm",
)
FUNCTIONS.update(
    {f"norms.value.{cls}": ("kothe.norms", f"{cls}._value_arr", None) for cls in SEMINORM_FAMILIES}
)

# the per-layer metrics the traced run reports: (span name, statistic)
LAYER_METRICS = (
    [("space.rv", "calls")]
    + [("rearrange.quantile", s) for s in ("calls", "ms")]
    + [("rearrange.cvar_infimum", s) for s in ("calls", "ms")]
    + [("young.modular", "calls"), ("young.modular", "self_ms"), ("young.eval_array", "calls")]
    + [("norms.value", "calls")]
    + [(f"norms.value.{cls}", s) for cls in SEMINORM_FAMILIES for s in ("calls", "self_ms")]
    + [("norms.check_axioms", "calls"), ("norms.check_axioms", "self_ms")]
    + [("norms.amemiya_dual_norm", "ms"), ("norms.gen_orlicz_dual_norm", "ms")]
    + [("risk.evaluate_risk", "ms"), ("risk.risk_norm", "ms")]
    + [("risk.penalty", s) for s in ("calls", "ms")]
    + [("risk.penalty_gauge", "ms")]
    + [("risk.dual_gauge_exact", s) for s in ("calls", "ms")]
    + [("risk.risk_dual_norm", "ms"), ("risk.check_risk_axioms", "ms")]
    + [("optim.maximize_linear_on_ball", s) for s in ("calls", "self_ms", "evals", "converged_ratio")]
    + [(f"optim.{f}", s) for f in ("golden_max_interval", "bisect_gauge", "minimize_scalar_convex") for s in ("calls", "evals")]
    + [("optim.minimize_convex_on_orthant", s) for s in ("calls", "evals", "self_ms")]
    + [("duality.polar", s) for s in ("calls", "ms", "self_ms")]
    + [(f"duality.{f}", "ms") for f in ("spot_check", "verify_bipolar", "verify_sandwich")]
    + [("cli.main", "calls"), ("cli.main", "self_ms"), ("cli.load_scenario", "ms"), ("cli.parse_config", "ms")]
)
UNITS = {"calls": "count", "evals": "count", "ms": "ms", "self_ms": "ms", "converged_ratio": "ratio"}
OVERHEAD_METRIC = "trace.overhead_ratio"


def metric_names() -> list[str]:
    return [f"{name}.{stat}" for name, stat in LAYER_METRICS] + [OVERHEAD_METRIC]


class Tracer:
    def __init__(self) -> None:
        self.names = list(FUNCTIONS)
        self.active = False
        self.op_id = -1
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")  # an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._depth = [0] * len(self.names)
        self.evals: Counter[str] = Counter()
        self.converged: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, orig, evals_mode):
        nid = self.names.index(name)
        tracer = self

        def counted(fn):
            def inner(*args, **kwargs):
                tracer.evals[name] += 1
                return fn(*args, **kwargs)

            return inner

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if evals_mode == "arg" and args:
                args = (counted(args[0]),) + args[1:]
            sid = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op.append(tracer.op_id)
            tracer.nested.append(tracer._depth[nid] > 0)
            tracer.end.append(0.0)
            tracer._depth[nid] += 1
            tracer._stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()
                tracer._depth[nid] -= 1
            if evals_mode == "result":
                tracer.evals[name] += result.n_evals
                tracer.converged[name] += bool(result.converged)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> None:
        kothe_modules = [m for k, m in sys.modules.items() if k == "kothe" or k.startswith("kothe.")]
        for name, (module, target, evals_mode) in FUNCTIONS.items():
            owner = sys.modules[module]
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, evals_mode))
                continue
            orig = getattr(owner, target)
            wrapped = self._wrap(name, orig, evals_mode)
            for mod in kothe_modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, inclusive ms (outermost spans of a name), self ms, evals, converged ratio."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        stats = {}
        for nid, name in enumerate(self.names):
            mask = s["name_id"] == nid
            calls = int(mask.sum())
            stats[name] = {
                "calls": calls,
                "ms": float(dur[mask & ~s["nested"]].sum() * 1e3),
                "self_ms": float(self_time[mask].sum() * 1e3),
                "evals": self.evals[name],
                # no calls means nothing failed to converge
                "converged_ratio": self.converged[name] / calls if calls else 1.0,
            }
        return stats

    def layer_metrics(self) -> dict[str, dict[str, float]]:
        stats = self.layer_stats()
        return {
            f"{name}.{stat}": {"value": stats[name][stat], "unit": UNITS[stat]}
            for name, stat in LAYER_METRICS
        }

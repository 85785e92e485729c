"""Command-line front end: scenario ingestion, norm and dual computation,
risk reports and the self-check suite.  All output is JSON on stdout, one
document per invocation, with floats rounded to nine decimals.

Exit codes: 0 ok, 1 check failure, 2 parse error, 3 config error,
4 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._optim import ConvergenceError
from .norms import (
    CustomSeminorm,
    GenOrliczNorm,
    LorentzNorm,
    LpNorm,
    LuxemburgNorm,
    MarcinkiewiczNorm,
    PhiConcave,
    RiskNorm,
    Seminorm,
    check_axioms,
    phi_identity,
    phi_power_root,
    phi_sqrt,
)
from .duality import dual_spec_of, polar, verify_bipolar, verify_sandwich
from .rearrange import _tail_min, quantile
from .risk import (
    RiskMeasureSpec,
    avar,
    check_risk_axioms,
    entropic,
    evaluate_risk,
    penalty,
    risk_dual_norm,
    risk_norm,
)
from .space import FiniteProbSpace, Rv, pairing
from .young import MusielakFamily, YoungFunction, young_exponential, young_indicator_ball, young_power, young_power_over_p

SCHEMA = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_NONCONVERGED = 4


class ParseError(Exception):
    pass


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# input handling


@dataclass
class Scenario:
    space: FiniteProbSpace
    columns: dict[str, np.ndarray]
    order: list[str]

    def column(self, name: str | None) -> Rv:
        if name is None:
            name = self.order[0]
        if name not in self.columns:
            raise ParseError(f"scenario has no column named {name!r}")
        return Rv(self.columns[name])


def load_scenario(path: str | Path) -> Scenario:
    """CSV with a header row; an optional 'prob' column, the rest are values."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise ParseError("scenario needs a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in scenario header")
    data: dict[str, list[float]] = {h: [] for h in header}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"row {lineno} has {len(row)} cells, expected {len(header)}")
        for h, cell in zip(header, row):
            try:
                data[h].append(float(cell))
            except ValueError as exc:
                raise ParseError(f"row {lineno}, column {h!r}: not a number: {cell!r}") from exc
    n = len(rows) - 1
    if "prob" in header:
        probs = np.asarray(data.pop("prob"))
        header = [h for h in header if h != "prob"]
        if np.any(probs <= 0):
            raise ParseError("probabilities must be strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-6:
            raise ParseError(f"probabilities sum to {total!r}, too far from 1")
        if abs(total - 1.0) > 1e-9:
            print(
                f"warning: probabilities sum to {total!r}; renormalizing",
                file=sys.stderr,
            )
        probs = probs / total
    else:
        probs = np.full(n, 1.0 / n)
    if not header:
        raise ParseError("scenario needs at least one value column")
    space = FiniteProbSpace(probs)
    return Scenario(space, {h: np.asarray(data[h]) for h in header}, header)


def random_scenario(n: int, seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    space = FiniteProbSpace.uniform(n)
    return Scenario(space, {"x": rng.standard_normal(n)}, ["x"])


def _parse_kv(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    if "kind" not in out:
        raise ConfigError("config must name a kind")
    return out


def _float_param(cfg: dict[str, str], key: str) -> float:
    if key not in cfg:
        raise ConfigError(f"config kind {cfg['kind']!r} needs {key}")
    raw = cfg[key]
    if raw.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config value {key}={raw!r} is not a number") from exc


def _concave_from(cfg: dict[str, str]) -> PhiConcave:
    phi = cfg.get("phi", "sqrt").lower()
    if phi == "sqrt":
        return phi_sqrt()
    if phi in ("id", "identity", "t"):
        return phi_identity()
    if phi == "power_root":
        return phi_power_root(_float_param(cfg, "phi_param"))
    raise ConfigError(f"unknown concave weight {phi!r}")


def _young_from(cfg: dict[str, str]) -> YoungFunction:
    phi = cfg.get("phi", "power").lower()
    if phi == "power":
        return young_power(_float_param(cfg, "phi_param"))
    if phi == "power_over_p":
        return young_power_over_p(_float_param(cfg, "phi_param"))
    if phi in ("exp", "exponential"):
        return young_exponential()
    if phi in ("indicator", "indicator_ball"):
        return young_indicator_ball(_float_param(cfg, "phi_param"))
    raise ConfigError(f"unknown Young function {phi!r}")


def _inner_from(cfg: dict[str, str]) -> Seminorm:
    kind = cfg.get("inner_kind", "lp").lower()
    if kind == "lp":
        return LpNorm(float(cfg.get("inner_param", "1")))
    if kind == "lorentz":
        return LorentzNorm(phi_power_root(float(cfg.get("inner_param", "0.5"))))
    if kind == "marcinkiewicz":
        return MarcinkiewiczNorm(phi_power_root(float(cfg.get("inner_param", "0.5"))))
    raise ConfigError(f"unknown inner seminorm {kind!r}")


def parse_config(path: str | Path, n_atoms: int):
    """Returns ("seminorm", Seminorm) or ("risk", RiskMeasureSpec)."""
    cfg = _parse_kv(path)
    kind = cfg["kind"].lower()
    if kind == "lp":
        return "seminorm", LpNorm(_float_param(cfg, "p"))
    if kind == "luxemburg":
        fam = MusielakFamily.constant(_young_from(cfg), n_atoms)
        return "seminorm", LuxemburgNorm(fam)
    if kind == "marcinkiewicz":
        return "seminorm", MarcinkiewiczNorm(_concave_from(cfg))
    if kind == "lorentz":
        return "seminorm", LorentzNorm(_concave_from(cfg))
    if kind == "gen_orlicz":
        return "seminorm", GenOrliczNorm(_young_from(cfg), _inner_from(cfg))
    if kind == "avar":
        return "risk", avar(_float_param(cfg, "level"))
    if kind == "entropic":
        return "risk", entropic(_float_param(cfg, "theta"))
    if kind == "signed_mean":
        # negative control: the plain mean is not symmetric, so it must fail
        # the axiom checks; kept for exercising the failure paths
        return "seminorm", CustomSeminorm(
            lambda sp, x: float(np.dot(sp.probs, x)), name="signed-mean"
        )
    raise ConfigError(f"unknown config kind {kind!r}")


def _as_seminorm(parsed) -> Seminorm:
    tag, obj = parsed
    return RiskNorm(obj) if tag == "risk" else obj


def config_text(obj) -> str:
    """Serialize a built-in seminorm or risk spec back to key=value lines."""

    def concave_lines(phi: PhiConcave) -> list[str]:
        if phi.kind != "power_root":
            raise ConfigError("only power-root concave weights serialize to config text")
        return ["phi=power_root", f"phi_param={phi.a:g}"]

    def young_lines(phi) -> list[str]:
        if phi.kind == "power":
            if phi.scale == 1.0:
                return ["phi=power", f"phi_param={phi.p:g}"]
            if phi.scale == 1.0 / phi.p:
                return ["phi=power_over_p", f"phi_param={phi.p:g}"]
        if phi.kind == "exp":
            return ["phi=exp"]
        if phi.kind == "indicator":
            return ["phi=indicator_ball", f"phi_param={phi.bound:g}"]
        raise ConfigError("this Young function does not serialize to config text")

    if isinstance(obj, LpNorm):
        return "\n".join(["kind=lp", f"p={'inf' if math.isinf(obj.p) else f'{obj.p:g}'}"]) + "\n"
    if isinstance(obj, LuxemburgNorm):
        if not obj.family.is_constant:
            raise ConfigError("only atom-constant Young families serialize to config text")
        return "\n".join(["kind=luxemburg"] + young_lines(obj.family.functions[0])) + "\n"
    if isinstance(obj, MarcinkiewiczNorm):
        return "\n".join(["kind=marcinkiewicz"] + concave_lines(obj.phi)) + "\n"
    if isinstance(obj, LorentzNorm):
        return "\n".join(["kind=lorentz"] + concave_lines(obj.phi)) + "\n"
    if isinstance(obj, GenOrliczNorm):
        inner = obj.inner
        if isinstance(inner, LpNorm):
            inner_lines = ["inner_kind=lp", f"inner_param={inner.p:g}"]
        elif isinstance(inner, LorentzNorm) and inner.phi.kind == "power_root":
            inner_lines = ["inner_kind=lorentz", f"inner_param={inner.phi.a:g}"]
        elif isinstance(inner, MarcinkiewiczNorm) and inner.phi.kind == "power_root":
            inner_lines = ["inner_kind=marcinkiewicz", f"inner_param={inner.phi.a:g}"]
        else:
            raise ConfigError("this inner seminorm does not serialize to config text")
        return "\n".join(["kind=gen_orlicz"] + young_lines(obj.phi) + inner_lines) + "\n"
    if isinstance(obj, RiskMeasureSpec) and obj.kind == "avar":
        return f"kind=avar\nlevel={obj.level:g}\n"
    if isinstance(obj, RiskMeasureSpec) and obj.kind == "entropic":
        return f"kind=entropic\ntheta={obj.theta:g}\n"
    raise ConfigError(f"cannot serialize {obj!r} to config text")


# ---------------------------------------------------------------------------
# output handling


def _rounded(obj):
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round(float(obj), 9) + 0.0
    if isinstance(obj, np.ndarray):
        return [_rounded(v) for v in obj.tolist()]
    return obj


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(_rounded(payload)))


# ---------------------------------------------------------------------------
# subcommands


def _get_scenario(args) -> Scenario:
    if getattr(args, "random", None) is not None:
        if args.seed is None:
            raise ParseError("--random requires an explicit --seed")
        return random_scenario(args.random, args.seed)
    if args.scenario is None:
        raise ParseError("a --scenario file (or --random N --seed S) is required")
    return load_scenario(args.scenario)


def cmd_norm(args) -> int:
    scenario = _get_scenario(args)
    spec = _as_seminorm(parse_config(args.config, scenario.space.n_atoms))
    u = scenario.column(args.column)
    _emit({"norm": spec.value(scenario.space, u)})
    return EXIT_OK


def cmd_dual(args) -> int:
    scenario = _get_scenario(args)
    spec = _as_seminorm(parse_config(args.config, scenario.space.n_atoms))
    y = scenario.column(args.column)
    seed = args.seed if args.seed is not None else 0
    res = polar(scenario.space, spec, y, seed=seed)
    dual = dual_spec_of(scenario.space, spec)
    closed = dual.value(scenario.space, y) if dual is not None else None
    payload = {
        "polar": res.value,
        "closed_form": closed,
        "gap": res.gap,
        "method": res.method,
    }
    if not res.converged:
        _emit({**payload, "converged": False})
        return EXIT_NONCONVERGED
    _emit(payload)
    return EXIT_OK


def cmd_rearrange(args) -> int:
    scenario = _get_scenario(args)
    u = scenario.column(args.column)
    q = quantile(scenario.space, u)
    _emit(
        {
            "breakpoints": q.breakpoints,
            "values": q.values,
            "integrals": q.integrals_at_breakpoints(),
        }
    )
    return EXIT_OK


def cmd_risk(args) -> int:
    scenario = _get_scenario(args)
    tag, rho = parse_config(args.config, scenario.space.n_atoms)
    if tag != "risk":
        raise ConfigError("the risk command needs an avar or entropic config")
    u = scenario.column(args.column)
    seed = args.seed if args.seed is not None else 0
    dual = risk_dual_norm(scenario.space, rho, u, seed=seed)
    pen = penalty(scenario.space, rho, Rv(np.abs(u.values)), seed=seed)
    _emit(
        {
            "rho": evaluate_risk(scenario.space, rho, u),
            "norm": risk_norm(scenario.space, rho, u),
            "dual_norm": dual.value,
            "penalty_finite": pen.bounded,
        }
    )
    return EXIT_OK


def _check_suite(scenario: Scenario, parsed, seed: int, slack: float | None) -> dict:
    space = scenario.space
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    checks: list[dict] = []

    def add(name: str, passed: bool, worst: float, witness: str | None = None) -> None:
        entry = {"name": name, "passed": bool(passed), "worst": worst}
        if witness and not passed:
            entry["witness"] = witness
        checks.append(entry)

    tag, obj = parsed
    spec = _as_seminorm(parsed)

    if tag == "risk":
        risk_report = check_risk_axioms(space, obj, trials=25, seed=seed)
        for item in risk_report.items:
            add(f"risk_axiom:{item.name}", item.passed, item.worst, item.witness)
        axioms_ok = risk_report.all_pass
    else:
        report = check_axioms(space, spec, trials=25, seed=seed)
        for item in report.items:
            add(f"axiom:{item.name}", item.passed, item.worst, item.witness)
        axioms_ok = report.core_pass

    # CVaR tail identity on this space: the running quantile integral must
    # match the infimal tail form at every probed level.  Per u, one quantile
    # gives the integral at all levels (it is linear between breakpoints),
    # and one sorted scan gives the Rockafellar-Uryasev infimum at all levels
    levels = np.linspace(0.05, 1.0, 11)
    worst_cvar = 0.0
    for _ in range(10):
        u = Rv(rng.standard_normal(n))
        q = quantile(space, u)
        integrals = np.interp(levels, q.breakpoints, q.integrals_at_breakpoints())
        infima = _tail_min(space.probs, np.abs(u.values), levels[:, None])
        worst_cvar = max(worst_cvar, float(np.abs(integrals - infima).max()))
    add("cvar_identity", worst_cvar <= 1e-10, worst_cvar)

    if not axioms_ok:
        return {"all_pass": False, "checks": checks}

    holder_slack = slack if slack is not None else 1e-8
    worst_holder = -math.inf
    for _ in range(5):
        u = Rv(rng.standard_normal(n))
        y = Rv(rng.standard_normal(n))
        lhs = pairing(space, u, y)
        rhs = spec.value(space, u) * polar(space, spec, y, seed=seed).value
        worst_holder = max(worst_holder, lhs - rhs)
    add("holder", worst_holder <= holder_slack, worst_holder)

    # the bipolar round trip runs on the registered dual-ball gauge, which
    # every polyhedral and modular family has on every space; others would
    # round-trip through nested polars, which can take minutes for
    # line-search polars, so the sandwich check below covers their dual side
    if dual_spec_of(space, spec) is not None:
        bipolar_slack = slack if slack is not None else 1e-5
        worst_bipolar = 0.0
        for _ in range(2):
            u = Rv(rng.standard_normal(n))
            rep = verify_bipolar(space, spec, u, seed=seed)
            worst_bipolar = max(worst_bipolar, rep.rel_gap)
        add("bipolar", worst_bipolar <= bipolar_slack, worst_bipolar)

    sandwich_slack = slack if slack is not None else 1e-6
    sandwich_target = None
    if isinstance(spec, LuxemburgNorm):
        sandwich_target = spec.family
    elif isinstance(spec, RiskNorm):
        sandwich_target = spec.rho
    elif isinstance(spec, GenOrliczNorm):
        sandwich_target = spec
    if sandwich_target is not None:
        worst_dev = 0.0
        for _ in range(2):
            y = Rv(rng.standard_normal(n))
            rep = verify_sandwich(space, sandwich_target, y, seed=seed)
            dev = max(rep.lower - rep.value, rep.value - 2.0 * rep.lower)
            worst_dev = max(worst_dev, dev)
        add("sandwich", worst_dev <= sandwich_slack, worst_dev)

    if isinstance(spec, MarcinkiewiczNorm):
        dual = dual_spec_of(space, spec)
        worst_agree = 0.0
        for _ in range(3):
            y = Rv(rng.standard_normal(n))
            res = polar(space, spec, y, seed=seed)
            worst_agree = max(worst_agree, abs(res.value - dual.value(space, y)))
        add("lorentz_polar_agreement", worst_agree <= 1e-5, worst_agree)

    return {"all_pass": all(c["passed"] for c in checks), "checks": checks}


def cmd_check(args) -> int:
    scenario = _get_scenario(args)
    parsed = parse_config(args.config, scenario.space.n_atoms)
    seed = args.seed if args.seed is not None else 0
    result = _check_suite(scenario, parsed, seed, args.tol)
    _emit(result)
    return EXIT_OK if result["all_pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # a build costs about 20 parses, and parsing leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kothe",
        description="norms, dual norms, rearrangements and risk reports on finite scenario files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config: bool) -> None:
        p.add_argument("--scenario", help="CSV scenario file")
        p.add_argument("--column", help="value column name (default: first)")
        p.add_argument("--random", type=int, metavar="N", help="use a random N-atom scenario")
        p.add_argument("--seed", type=int, help="seed for anything randomized")
        if config:
            p.add_argument("--config", required=True, help="key=value spec file")

    common(sub.add_parser("norm", help="seminorm value of a column"), config=True)
    common(sub.add_parser("dual", help="polar value with closed-form certificate"), config=True)
    common(sub.add_parser("rearrange", help="decreasing rearrangement of a column"), config=False)
    common(sub.add_parser("risk", help="risk, risk norm, dual norm and penalty report"), config=True)
    check = sub.add_parser("check", help="axiom and duality self checks")
    common(check, config=True)
    check.add_argument("--tol", type=float, help="override the holder, bipolar and sandwich slacks")
    return parser


_COMMANDS = {
    "norm": cmd_norm,
    "dual": cmd_dual,
    "rearrange": cmd_rearrange,
    "risk": cmd_risk,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()

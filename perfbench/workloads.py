"""The benchmark's three workloads, built from a workload seed.

A workload is a class whose constructor is the set-up (inputs, spaces and
specs) and whose ``ops(r)`` returns round ``r``: a fixed list of operations,
each with a check of its output.  Round ``r`` draws its inputs from
``(seed, r)`` alone, so every round of every seed has the same number and mix
of operations, and a traced round repeats exactly.

All calls into kothe go through attributes of the ``kothe`` package or its
modules, looked up at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kothe
import kothe.cli
import kothe.risk
import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# acceptance-suite tolerances for the same identities
C01_TOL = 1e-10      # quantile integral == CVaR infimum
C02_TOL = 1e-8       # Luxemburg x^p == Lp, relative
POLAR_TOL = 1e-5     # C04/C05: polar against its closed form
C08_TOL = 1e-6       # generalized Orlicz dual: inner-L1 reduction and max-form sandwich
RISK_DUAL_TOL = 1e-6  # risk_dual_norm agreement
WITNESS_TOL = 1e-9   # a polar maximizer has seminorm <= 1 + 1e-9 and attains the value
EXACT_TOL = 1e-10    # closed-form layers against the numpy references
GAUGE_TOL = 1e-8     # a gauge meets its defining equation (the C02 tolerance)
CLI_TOL = 1e-8       # CLI values are rounded to nine decimals
CLI_GAUGE_TOL = 1e-6  # the defining equation at a gauge rounded to nine decimals


@dataclass
class Op:
    """One benchmark operation: ``run`` is timed, ``check`` returns None or
    why it failed; ``data`` holds the generated input arrays (for the
    determinism self-test)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    data: tuple = ()


def _finite(v) -> str | None:
    return None if isinstance(v, float) and math.isfinite(v) else f"non-finite result {v!r}"


def _expect(got: float, want: float, tol: float, what: str) -> str | None:
    if refs.close(got, want, tol):
        return None
    return f"{what}: got {got!r}, reference {want!r} (tol {tol:g})"


# ---------------------------------------------------------------------------
# dual-small: the polar optimizer on small spaces

SEMINORMS: dict[str, Callable[[int], kothe.Seminorm]] = {
    "L2": lambda n: kothe.LpNorm(2.0),
    "L3": lambda n: kothe.LpNorm(3.0),
    "marcinkiewicz": lambda n: kothe.MarcinkiewiczNorm(kothe.phi_sqrt()),
    "lorentz": lambda n: kothe.LorentzNorm(kothe.phi_sqrt()),
    "luxemburg": lambda n: kothe.LuxemburgNorm(
        kothe.MusielakFamily.constant(kothe.young_power(2.3), n)
    ),
    "avar": lambda n: kothe.RiskNorm(kothe.avar(0.3)),
    "entropic": lambda n: kothe.RiskNorm(kothe.entropic(1.0)),
}
RISKS = {"avar": kothe.avar(0.3), "entropic": kothe.entropic(1.0)}

# A round is kept short (31 operations, 7 of them slow) so that a run holds
# four or five rounds: op_p90_ms then pools about 30 slow operations and
# moves less from seed to seed.

# atom counts with a recorded pool of non-uniform spaces in reference.json
POOL_SIZES = (5, 8)
# (seminorm, atoms, space): "U" uniform, "D" the seed's non-uniform pool space,
# "P" the same space with a recorded y whose polar has no certificate and is
# held to a one-sided floor recorded in reference.json
POLAR_PLAN = (
    [(f, n, s) for n in POOL_SIZES for f in ("L2", "L3", "avar") for s in ("U", "D")]
    + [(f, n, s) for n in POOL_SIZES for f in ("marcinkiewicz", "lorentz") for s in ("U", "P")]
    + [(f, 5, s) for f in ("luxemburg", "entropic") for s in ("U", "D")]
    + [(f, 16, "U") for f in ("L2", "marcinkiewicz", "avar")]
)
RISK_DUAL_PLAN = [("avar", 5, "U"), ("entropic", 5, "D")]
# inner L1 makes the x^2 generalized Orlicz norm the L2 norm, so its dual is
# the L2 norm of y.  Inner Lorentz is left out: off uniform spaces it runs a
# nested polar per evaluation (minutes per call), and on the uniform 5-atom
# space its sum-form minimizer stops short for about one y in 40, so the C08
# max-form sandwich fails by up to 2e-4 (see README.md)
GEN_ORLICZ_PLAN = [(5, "U"), (5, "D")]


def interleave(ops: list[Op], rng: np.random.Generator) -> list[Op]:
    """Shuffle a round's independent operations.

    The host's speed drifts over seconds, so slow and fast kinds are spread
    over the whole round instead of each kind running in one block.
    """
    return [ops[i] for i in rng.permutation(len(ops))]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_polar(space, spec, y, res, *, closed: float | None, floor: float | None) -> str | None:
    """Feasible witness attaining the value, then the certificate or the floor."""
    bad = _finite(res.value)
    if bad:
        return bad
    nrm = spec.value(space, res.maximizer)
    if not nrm <= 1.0 + WITNESS_TOL:
        return f"infeasible polar witness: seminorm {nrm!r}"
    attained = kothe.pairing(space, res.maximizer, y)
    if not refs.close(attained, res.value, WITNESS_TOL):
        return f"witness pairs to {attained!r}, reported value {res.value!r}"
    if closed is not None and abs(res.value - closed) > POLAR_TOL:
        return f"polar {res.value!r} vs closed form {closed!r}"
    if floor is not None and res.value < floor - POLAR_TOL:
        return f"polar {res.value!r} below the recorded floor {floor!r}"
    return None


class DualSmall:
    name = "dual-small"

    def __init__(self, seed: int):
        self.seed = seed
        ref = load_reference()
        pick = np.random.default_rng([seed, 0])
        self.spaces: dict[tuple[str, int], kothe.FiniteProbSpace] = {}
        self.floors: dict[tuple[str, int], list[dict]] = {}
        for n in POOL_SIZES + (16,):
            self.spaces["U", n] = kothe.FiniteProbSpace.uniform(n)
        for n in POOL_SIZES:
            pool = ref["spaces"][str(n)]
            k = int(pick.integers(len(pool)))
            self.spaces["D", n] = self.spaces["P", n] = kothe.FiniteProbSpace(np.array(pool[k]))
            for fam in ("marcinkiewicz", "lorentz"):
                self.floors[fam, n] = ref["floors"][fam][str(n)][k]
        self.specs = {(f, n): SEMINORMS[f](n) for f, n, _ in POLAR_PLAN}
        # the polar spot check runs once per (spec, space); a library user
        # pays it on the first polar call, so it belongs to set-up here
        for f, n, s in POLAR_PLAN:
            kothe.polar(self.spaces[s, n], self.specs[f, n], kothe.Rv.zero(n))

    def close(self) -> None:
        pass

    def ops(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1, r])
        out: list[Op] = []
        for f, n, s in POLAR_PLAN:
            space, spec = self.spaces[s, n], self.specs[f, n]
            if s == "P":
                cases = self.floors[f, n]
                case = cases[int(rng.integers(len(cases)))]
                y, floor = kothe.Rv(np.array(case["y"])), case["value"]
            else:
                y, floor = kothe.Rv(rng.standard_normal(n)), None
            out.append(self._polar_op(f"polar:{f}:{s}{n}", space, spec, y, floor))
        for rho_name, n, s in RISK_DUAL_PLAN:
            out.append(self._risk_dual_op(rho_name, self.spaces[s, n], kothe.Rv(rng.standard_normal(n))))
        for n, s in GEN_ORLICZ_PLAN:
            out.append(self._gen_orlicz_op(self.spaces[s, n], kothe.Rv(rng.standard_normal(n))))
        return interleave(out, rng)

    @staticmethod
    def _polar_op(label, space, spec, y, floor) -> Op:
        def check(res):
            dual = kothe.dual_spec_of(space, spec)
            closed = None if dual is None else dual.value(space, y)
            return check_polar(space, spec, y, res, closed=closed, floor=floor)

        return Op(label, lambda: kothe.polar(space, spec, y), check, (space.probs, y.values))

    @staticmethod
    def _risk_dual_op(rho_name, space, y) -> Op:
        rho = RISKS[rho_name]

        def check(res):
            bad = _finite(res.value)
            if bad:
                return bad
            if res.agreement > RISK_DUAL_TOL * max(1.0, abs(res.value)):
                return f"infimal form and polar disagree by {res.agreement!r}"
            exact = kothe.risk.dual_gauge_exact(space, rho, y.values)
            return _expect(res.value, exact, RISK_DUAL_TOL, "risk dual norm vs exact gauge")

        return Op(
            f"risk_dual_norm:{rho_name}",
            lambda: kothe.risk_dual_norm(space, rho, y),
            check,
            (space.probs, y.values),
        )

    @staticmethod
    def _gen_orlicz_op(space, y) -> Op:
        phi = kothe.young_power(2.0)
        inner = kothe.LpNorm(1.0)

        def check(res):
            bad = _finite(res.value) or _finite(res.max_form)
            if bad:
                return bad
            want = refs.lp(space.probs, y.values, 2.0)
            if abs(res.value - want) > C08_TOL:
                return f"inner-L1 dual {res.value!r} vs L2 norm {want!r}"
            if res.max_form - res.value > C08_TOL or res.value - 2.0 * res.max_form > C08_TOL:
                return f"max-form sandwich broken: {res.max_form!r} vs {res.value!r}"
            return None

        return Op(
            "gen_orlicz_dual_norm:L1",
            lambda: kothe.gen_orlicz_dual_norm(space, y, phi, inner),
            check,
            (space.probs, y.values),
        )


# ---------------------------------------------------------------------------
# tail-large: exact closed-form layers far above cache size


class TailLarge:
    name = "tail-large"
    SIZES = (1000, 4000)
    LEVELS = (0.05, 0.3, 0.7)
    LP_P = 3.0
    POWER = 2.3

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.spaces = []
        for n in self.SIZES:
            p = rng.dirichlet(np.full(n, 2.0))
            self.spaces += [kothe.FiniteProbSpace.uniform(n), kothe.FiniteProbSpace(p / p.sum())]
        self.families = {
            n: (
                kothe.MusielakFamily.constant(kothe.young_power(self.POWER), n),
                kothe.MusielakFamily.constant(kothe.young_exponential(), n),
            )
            for n in self.SIZES
        }
        self.avar = kothe.avar(0.3)
        self.entropic = kothe.entropic(1.0)
        self.phi = kothe.phi_sqrt()

    def close(self) -> None:
        pass

    def ops(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1, r])
        out: list[Op] = []
        for space in self.spaces:
            out += self._space_ops(space, kothe.Rv(rng.standard_normal(space.n_atoms)))
        return out

    def _space_ops(self, space, u) -> list[Op]:
        probs, x = space.probs, u.values
        a = np.abs(x)
        power_fam, exp_fam = self.families[space.n_atoms]
        tag = f"{'U' if space.is_uniform else 'D'}{space.n_atoms}"
        held: dict[str, object] = {}

        def run_quantile():
            held["q"] = kothe.quantile(space, u)
            return held["q"]

        def check_quantile(q):
            want = refs.rearrangement(probs, x)
            if q.values.size != len(want["values"]):
                return "wrong number of plateaus"
            if not (
                np.allclose(q.breakpoints, want["breakpoints"], rtol=0, atol=EXACT_TOL)
                and np.allclose(q.values, want["values"], rtol=0, atol=EXACT_TOL)
            ):
                return "rearrangement differs from the reference"
            return None

        def tail(t):
            return lambda v: _expect(v, refs.tail_integral(probs, a, t), C01_TOL, f"tail integral at {t}")

        def gauge_check(modular, what):
            def check(v):
                bad = _finite(v)
                if bad:
                    return bad
                return _expect(modular(v), 1.0, GAUGE_TOL, what)

            return check

        q_star = self.POWER / (self.POWER - 1.0)
        ops = [Op(f"quantile:{tag}", run_quantile, check_quantile)]
        ops += [
            Op(f"quantile_integral:{tag}", lambda t=t: kothe.quantile_integral(held["q"], t), tail(t))
            for t in self.LEVELS
        ]
        ops += [
            Op(f"cvar_infimum:{tag}", lambda t=t: kothe.cvar_infimum(space, u, t), tail(t))
            for t in self.LEVELS
        ]
        ops += [
            Op(
                f"evaluate_risk:avar:{tag}",
                lambda: kothe.evaluate_risk(space, self.avar, u),
                lambda v: _expect(v, refs.tail_mean(probs, x, self.avar.level), EXACT_TOL, "avar"),
            ),
            Op(
                f"evaluate_risk:entropic:{tag}",
                lambda: kothe.evaluate_risk(space, self.entropic, u),
                lambda v: _expect(v, refs.entropic(probs, x, 1.0), EXACT_TOL, "entropic risk"),
            ),
            Op(
                f"risk_norm:entropic:{tag}",
                lambda: kothe.risk_norm(space, self.entropic, u),
                gauge_check(lambda v: refs.entropic(probs, a / v, 1.0), "entropic gauge"),
            ),
            Op(
                f"lp_norm:{tag}",
                lambda: kothe.lp_norm(space, u, self.LP_P),
                lambda v: _expect(v, refs.lp(probs, x, self.LP_P), EXACT_TOL, "Lp"),
            ),
            Op(
                f"marcinkiewicz_norm:{tag}",
                lambda: kothe.marcinkiewicz_norm(space, u, self.phi),
                lambda v: _expect(v, refs.marcinkiewicz(probs, x, 0.5), EXACT_TOL, "Marcinkiewicz"),
            ),
            Op(
                f"lorentz_norm:{tag}",
                lambda: kothe.lorentz_norm(space, u, self.phi),
                lambda v: _expect(v, refs.lorentz(probs, x, 0.5), EXACT_TOL, "Lorentz"),
            ),
            Op(
                f"luxemburg_norm:power:{tag}",
                lambda: kothe.luxemburg_norm(space, u, power_fam),
                lambda v: _expect(v, refs.lp(probs, x, self.POWER), C02_TOL, "Luxemburg x^p vs Lp"),
            ),
            Op(
                f"luxemburg_norm:exp:{tag}",
                lambda: kothe.luxemburg_norm(space, u, exp_fam),
                gauge_check(lambda v: float(np.dot(probs, np.expm1(a / v))), "exp modular at the gauge"),
            ),
            Op(
                f"amemiya_dual_norm:power:{tag}",
                lambda: kothe.amemiya_dual_norm(space, u, power_fam),
                lambda v: _expect(v, refs.lp(probs, x, q_star), POLAR_TOL, "Amemiya dual vs Lq"),
            ),
        ]
        for op in ops:
            op.data = (probs, x)
        return ops


# ---------------------------------------------------------------------------
# cli: the command line, in process, on generated scenario files

CONFIGS = HERE / "configs"
FIXTURES = HERE / "fixtures"

# expected C11 outputs on the fixture scenarios (subset of keys per command)
C11_CASES = [
    (["norm", "scenario_4132", "lp1"], {"norm": 2.5}),
    (["norm", "scenario_4132", "marcinkiewicz_sqrt"], {"norm": round(2.25 / math.sqrt(0.75), 9)}),
    (["norm", "scenario_zero", "lp2"], {"norm": 0.0}),
    (["dual", "scenario_l2unit", "lp2"], {"polar": 1.0, "closed_form": 1.0, "gap": 0.0}),
    (["dual", "scenario_indicator", "marcinkiewicz_sqrt"], {"polar": 0.5, "closed_form": 0.5, "gap": 0.0}),
    (["dual", "scenario_4132", "lp1"], {"polar": 4.0}),
    (
        ["rearrange", "scenario_4132", None],
        {
            "breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0],
            "values": [4.0, 3.0, 2.0, 1.0],
            "integrals": [0.0, 1.0, 1.75, 2.25, 2.5],
        },
    ),
    (["rearrange", "scenario_twopoint", None], {"breakpoints": [0.0, 0.25, 1.0], "values": [2.0, 1.0]}),
    (
        ["risk", "scenario_4132", "avar_half"],
        {"rho": 3.5, "norm": 3.5, "dual_norm": 2.5, "penalty_finite": False},
    ),
]
NORM_CONFIGS = (
    "lp1", "lp2", "marcinkiewicz_sqrt", "lorentz_sqrt", "luxemburg_power2", "avar_half", "entropic_one",
)
# polar duals of the cheaper specs only: a round's ten slowest operations are
# then the six checks plus the entropic risk report and its neighbours, so
# op_p90_ms lands on the lp2 check rather than among Luxemburg polars whose
# time varies widely with the input
DUAL_PLAN = [(c, "u6") for c in ("lp2", "marcinkiewicz_sqrt", "lorentz_sqrt", "avar_half")] + [
    (c, "d6") for c in ("lp2", "avar_half")
]
RISK_PLAN = [("avar_half", "u6"), ("avar_half", "d6"), ("entropic_one", "u6")]
# entropic and gen_orlicz checks take 24-55 s per call and are left out; the
# cheap lp checks also run at n = 6, so more checks sit near op_p90_ms
CHECK_PLAN = [
    (c, "u8") for c in ("lp1", "lp2", "marcinkiewicz_sqrt", "lorentz_sqrt", "luxemburg_power2", "avar_half")
] + [("lp1", "u6"), ("lp2", "u6")]


def _norm_ref(cfg: str, probs: np.ndarray, x: np.ndarray) -> Callable[[float], str | None]:
    exact = {
        "lp1": lambda: refs.lp(probs, x, 1.0),
        "lp2": lambda: refs.lp(probs, x, 2.0),
        "marcinkiewicz_sqrt": lambda: refs.marcinkiewicz(probs, x, 0.5),
        "lorentz_sqrt": lambda: refs.lorentz(probs, x, 0.5),
        "luxemburg_power2": lambda: refs.lp(probs, x, 2.0),
        "avar_half": lambda: refs.tail_mean(probs, np.abs(x), 0.5),
    }
    if cfg in exact:
        return lambda v: _expect(v, exact[cfg](), CLI_TOL, f"norm {cfg}")
    return lambda v: _expect(refs.entropic(probs, np.abs(x) / v, 1.0), 1.0, CLI_GAUGE_TOL, "entropic gauge")


def _dual_ref(cfg: str, probs: np.ndarray, x: np.ndarray) -> float:
    return {
        "lp2": lambda: refs.lp(probs, x, 2.0),
        "marcinkiewicz_sqrt": lambda: refs.lorentz(probs, x, 0.5),
        "lorentz_sqrt": lambda: refs.marcinkiewicz(probs, x, 0.5),
        "luxemburg_power2": lambda: refs.lp(probs, x, 2.0),
        "avar_half": lambda: refs.avar_dual(probs, x, 0.5),
        "entropic_one": lambda: kothe.risk.dual_gauge_exact(kothe.FiniteProbSpace(probs), kothe.entropic(1.0), x),
    }[cfg]()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = kothe.cli.main(argv)
    return code, out.getvalue()


def _cli_check(want_code: int, judge: Callable[[dict], str | None]) -> Callable[[object], str | None]:
    def check(result):
        code, text = result
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return f"stdout is not one JSON document: {text[:80]!r}"
        return judge(doc)

    return check


class Cli:
    name = "cli"
    N_SETS = 4

    def __init__(self, seed: int):
        self.seed = seed
        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=work))
        self.sets = [self._write_set(k) for k in range(self.N_SETS)]

    def _write_set(self, k: int) -> dict[str, tuple[Path, np.ndarray, dict[str, np.ndarray]]]:
        rng = np.random.default_rng([self.seed, 0, k])
        scenarios = {}
        for name, n, uniform, cols in (("u6", 6, True, "xy"), ("d6", 6, False, "xy"), ("u8", 8, True, "x")):
            probs = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.full(n, 2.0))
            if not uniform:
                probs = probs / probs.sum()
            columns = {c: rng.standard_normal(n) for c in cols}
            path = self.dir / f"{name}-{k}.csv"
            header = ([] if uniform else ["prob"]) + list(cols)
            lines = [",".join(header)]
            for i in range(n):
                cells = ([] if uniform else [repr(float(probs[i]))]) + [repr(float(columns[c][i])) for c in cols]
                lines.append(",".join(cells))
            path.write_text("\n".join(lines) + "\n")
            scenarios[name] = (path, probs, columns)
        return scenarios

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def ops(self, r: int) -> list[Op]:
        sets = self.sets[r % self.N_SETS]
        out: list[Op] = []

        def op(label, argv, want_code, judge, data=()):
            argv = [str(a) for a in argv]
            out.append(Op(label, lambda: _run_cli(argv), _cli_check(want_code, judge), data))

        for scen in ("u6", "d6"):
            path, probs, columns = sets[scen]
            for col, x in columns.items():
                for cfg in NORM_CONFIGS:
                    ref = _norm_ref(cfg, probs, x)
                    op(
                        f"norm:{cfg}:{scen}",
                        ["norm", "--scenario", path, "--column", col, "--config", CONFIGS / f"{cfg}.cfg"],
                        0,
                        lambda doc, ref=ref: ref(doc["norm"]),
                        (probs, x),
                    )
                want = refs.rearrangement(probs, x)
                op(
                    f"rearrange:{scen}",
                    ["rearrange", "--scenario", path, "--column", col],
                    0,
                    lambda doc, want=want: None
                    if all(np.allclose(doc[k], want[k], rtol=0, atol=CLI_TOL) for k in want)
                    else "rearrangement differs from the reference",
                    (probs, x),
                )
        for cfg, scen in DUAL_PLAN:
            path, probs, columns = sets[scen]
            want = _dual_ref(cfg, probs, columns["x"])

            def judge(doc, want=want):
                if doc["closed_form"] is not None and not refs.close(doc["closed_form"], want, CLI_TOL):
                    return f"closed form {doc['closed_form']!r} vs reference {want!r}"
                if doc["gap"] > POLAR_TOL:
                    return f"gap {doc['gap']!r}"
                return _expect(doc["polar"], want, POLAR_TOL, "polar")

            argv = ["dual", "--scenario", path, "--config", CONFIGS / f"{cfg}.cfg"]
            op(f"dual:{cfg}:{scen}", argv, 0, judge, (probs, columns["x"]))
        for cfg, scen in RISK_PLAN:
            path, probs, columns = sets[scen]
            op(
                f"risk:{cfg}:{scen}",
                ["risk", "--scenario", path, "--config", CONFIGS / f"{cfg}.cfg"],
                0,
                self._risk_judge(cfg, probs, columns["x"]),
                (probs, columns["x"]),
            )
        for (cmd, scen, cfg), want in C11_CASES:
            argv = [cmd, "--scenario", FIXTURES / f"{scen}.csv"]
            if cfg is not None:
                argv += ["--config", CONFIGS / f"{cfg}.cfg"]
            op(
                f"c11:{cmd}:{scen}",
                argv,
                0,
                lambda doc, want=want: None
                if {k: doc.get(k) for k in want} == want
                else f"C11 output {doc!r}, expected {want!r}",
            )
        for cfg, scen in CHECK_PLAN:
            path, probs, columns = sets[scen]
            op(
                f"check:{cfg}:{scen}",
                ["check", "--scenario", path, "--config", CONFIGS / f"{cfg}.cfg"],
                0,
                lambda doc: None if doc["all_pass"] else f"failed checks {doc['checks']!r}",
                (probs, columns["x"]),
            )
        path, probs, columns = sets["u8"]
        op(
            "check:signed_mean",
            ["check", "--scenario", path, "--config", CONFIGS / "broken_signed_mean.cfg"],
            1,
            lambda doc: None
            if not doc["all_pass"] and any(c.get("witness") for c in doc["checks"] if not c["passed"])
            else "negative control passed or gave no witness",
            (probs, columns["x"]),
        )
        return interleave(out, np.random.default_rng([self.seed, 1, r]))

    @staticmethod
    def _risk_judge(cfg: str, probs: np.ndarray, x: np.ndarray) -> Callable[[dict], str | None]:
        z = np.abs(x)
        if cfg == "avar_half":
            want = {
                "rho": refs.tail_mean(probs, x, 0.5),
                "norm": refs.tail_mean(probs, z, 0.5),
                "dual_norm": refs.avar_dual(probs, x, 0.5),
            }
            finite = refs.avar_penalty_finite(probs, z, 0.5)
        else:
            space = kothe.FiniteProbSpace(probs)
            want = {
                "rho": refs.entropic(probs, x, 1.0),
                "dual_norm": kothe.risk.dual_gauge_exact(space, kothe.entropic(1.0), x),
            }
            # the entropic penalty is finite exactly when E|x| <= 1
            finite = float(np.dot(probs, z)) <= 1.0 + 1e-12

        def judge(doc):
            for key, value in want.items():
                tol = RISK_DUAL_TOL if key == "dual_norm" else CLI_TOL
                bad = _expect(doc[key], value, tol, f"risk {key}")
                if bad:
                    return bad
            if cfg == "entropic_one":
                bad = _expect(refs.entropic(probs, z / doc["norm"], 1.0), 1.0, CLI_GAUGE_TOL, "entropic gauge")
                if bad:
                    return bad
            if doc["penalty_finite"] != finite:
                return f"penalty_finite {doc['penalty_finite']!r}, reference {finite!r}"
            return None

        return judge


WORKLOADS = {cls.name: cls for cls in (DualSmall, TailLarge, Cli)}

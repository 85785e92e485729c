"""The seminorm families and their axioms checker.

Each family is a small class with a shared interface: evaluation on a random
variable, an optional closed-form dual, and for the polar optimizer analytic
facets (polyhedral families) or per-atom Young functions (modular balls).
Free functions mirror the class API for the common cases.  The axiom checker is
randomized and report-only; it never mutates the spec it inspects.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._optim import (
    GenOrliczDualResult,
    SmoothModular,
    _power_gauge,
    amemiya_multiplier,
    bisect_gauge,
    gen_orlicz_dual_brackets,
    minimize_scalar_convex,
    prefix_indicators,
)
from .risk import RiskMeasureSpec, _avar_density, _entropic_modular, _risk_norm_arr
from .space import (
    DEFAULT_TOL,
    CheckItem,
    FiniteProbSpace,
    Rv,
    Tolerances,
    _check_on_space,
    _WorstCase,
)
from .young import MusielakFamily, YoungFunction

__all__ = [
    "PhiConcave",
    "phi_power_root",
    "phi_sqrt",
    "phi_identity",
    "phi_tabulated",
    "Seminorm",
    "LpNorm",
    "LuxemburgNorm",
    "MarcinkiewiczNorm",
    "LorentzNorm",
    "RiskNorm",
    "GenOrliczNorm",
    "CustomSeminorm",
    "lp_norm",
    "luxemburg_norm",
    "amemiya_dual_norm",
    "marcinkiewicz_norm",
    "lorentz_norm",
    "gen_orlicz_norm",
    "GenOrliczDualResult",
    "gen_orlicz_dual_norm",
    "CheckItem",
    "AxiomReport",
    "check_axioms",
    "FundamentalFunctions",
    "fundamental_functions",
    "family_membership",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# concave weight functions for the Marcinkiewicz / Lorentz pair


@dataclass(frozen=True, eq=False)
class PhiConcave:
    """Nondecreasing concave function on [0, 1] with value 0 at 0."""

    kind: str  # "power_root" | "tabulated"
    a: float = math.nan
    ts: np.ndarray | None = None
    ys: np.ndarray | None = None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-15) or np.any(t > 1.0 + 1e-12):
            raise ValueError("concave weights are defined on [0, 1]")
        out = self._eval(np.clip(t, 0.0, 1.0))
        return float(out) if out.ndim == 0 else out

    def _eval(self, t: np.ndarray) -> np.ndarray:
        # hot path: t already inside [0, 1]
        if self.kind == "power_root":
            return t**self.a
        assert self.ts is not None and self.ys is not None
        return np.interp(t, self.ts, self.ys)

    @property
    def name(self) -> str:
        if self.kind == "power_root":
            return f"t^{self.a:g}"
        return "tabulated"


def phi_power_root(a: float) -> PhiConcave:
    """t**a with a in (0, 1]."""
    if not 0.0 < a <= 1.0:
        raise ValueError("the root exponent must lie in (0, 1]")
    return PhiConcave("power_root", a=float(a))


def phi_sqrt() -> PhiConcave:
    return phi_power_root(0.5)


def phi_identity() -> PhiConcave:
    return phi_power_root(1.0)


def phi_tabulated(ts, ys) -> PhiConcave:
    ts = np.array(ts, dtype=float)
    ys = np.array(ys, dtype=float)
    if ts.ndim != 1 or ts.shape != ys.shape or ts.size < 2:
        raise ValueError("need matching 1-d node arrays with at least two nodes")
    if ts[0] != 0.0 or abs(ts[-1] - 1.0) > 1e-12 or ys[0] != 0.0:
        raise ValueError("nodes must run from (0, 0) to t = 1")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("node t values must be strictly increasing")
    if np.any(np.diff(ys) < -1e-12):
        raise ValueError("node values must be nondecreasing")
    slopes = np.diff(ys) / np.diff(ts)
    if np.any(np.diff(slopes) > 1e-9):
        raise ValueError("nodes must describe a concave function")
    ts.setflags(write=False)
    ys.setflags(write=False)
    return PhiConcave("tabulated", ts=ts, ys=ys)


# ---------------------------------------------------------------------------
# seminorm families


class Seminorm(abc.ABC):
    """A symmetric sublinear functional of a random variable."""

    name: str = "seminorm"
    rearrangement_invariant: bool = False

    def value(self, space: FiniteProbSpace, u: Rv, *, tol: Tolerances = DEFAULT_TOL) -> float:
        _check_on_space(space, u)
        return self._value_arr(space, u.values, tol)

    @abc.abstractmethod
    def _value_arr(self, space: FiniteProbSpace, x: np.ndarray, tol: Tolerances) -> float:
        """Evaluation on a raw value vector; the optimizer hot path."""

    def dual_value_arr(
        self, space: FiniteProbSpace, z: np.ndarray, tol: Tolerances
    ) -> float | None:
        """Closed-form dual norm when one is known and valid on this space."""
        return None

    def linear_piece_arr(self, space: FiniteProbSpace, a: np.ndarray) -> np.ndarray | None:
        """The linear piece of a polyhedral seminorm that is active at a >= 0.

        Returns g >= 0, drawn from a finite set, with g.a = seminorm(a) and
        g.x <= seminorm(x) for every x >= 0: a facet of the unit ball on the
        orthant.  The polar solves these families exactly by cutting planes.
        None for families whose unit ball is not a polytope.
        """
        return None

    def smooth_modular(self, space: FiniteProbSpace) -> SmoothModular | None:
        """The Young functions of a seminorm whose unit ball is a modular set.

        The unit ball on the orthant must be {w >= 0 : sum_i p_i Phi_i(w_i)
        <= 1}, with each Phi_i' invertible in closed form.  The polar then
        solves for one Lagrange multiplier and certifies its value by the
        Amemiya bound.  None for other families.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


def _conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return _INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _lp_arr(probs: np.ndarray, x: np.ndarray, p: float) -> float:
    a = np.abs(x)
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    if p == 1.0:
        return float(np.dot(probs, a))
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    # m * (E (a/m)^p)^(1/p): no overflow or underflow at any scale of a
    return m * float(np.dot(probs, (a / m) ** p)) ** (1.0 / p)


class LpNorm(Seminorm):
    rearrangement_invariant = True

    def __init__(self, p: float):
        p = float(p)
        if p < 1.0:
            raise ValueError("Lp norms need p >= 1")
        self.p = p
        self.name = "Linf" if math.isinf(p) else f"L{p:g}"

    def _value_arr(self, space, x, tol):
        return _lp_arr(space.probs, x, self.p)

    def dual_value_arr(self, space, z, tol):
        return _lp_arr(space.probs, z, _conjugate_exponent(self.p))

    def linear_piece_arr(self, space, a):
        if self.p == 1.0:
            return space.probs
        if math.isinf(self.p):
            g = np.zeros(a.size)
            g[int(np.argmax(a))] = 1.0
            return g
        return None

    def smooth_modular(self, space):
        if self.p == 1.0 or math.isinf(self.p):
            return None
        n = space.n_atoms
        return SmoothModular("power", np.ones(n), np.full(n, self.p))


class LuxemburgNorm(Seminorm):
    """inf{beta > 0 : E Phi(|u|/beta) <= 1} for a per-atom Young family."""

    def __init__(self, family: MusielakFamily):
        self.family = family
        self.rearrangement_invariant = family.is_constant
        self.name = "luxemburg"

    def _value_arr(self, space, x, tol):
        _check_family_size(self.family, x.size)
        a = np.abs(x)
        if not np.any(a > 0.0):
            return 0.0
        pw = self.family._pow_p  # type: ignore[attr-defined]
        if pw is not None:
            # E Phi(a/beta) = sum(prob_i * scale_i * (a_i/beta)**p_i)
            mask = a > 0.0
            coef = space.probs[mask] * self.family._pow_scale[mask]  # type: ignore[attr-defined]
            return _power_gauge(a[mask], coef, pw[mask], tol.gauge_rel)
        # the gauge is positively homogeneous: bisect on a / max(a) at any scale
        m = float(a.max())
        a = a / m
        return m * bisect_gauge(
            lambda b: self.family.modular(space.probs, a / b) <= 1.0,
            rel_tol=tol.gauge_rel,
        )

    def dual_value_arr(self, space, z, tol):
        return _amemiya_arr(space.probs, z, self.family, tol)

    def smooth_modular(self, space):
        _check_family_size(self.family, space.n_atoms)
        return _smooth_modular(self.family)


def _check_family_size(family: MusielakFamily, n: int) -> None:
    if len(family) != n:
        raise ValueError("Young family and space have different sizes")


def _smooth_modular(family: MusielakFamily) -> SmoothModular | None:
    """The family as a SmoothModular: all powers x**p with p > 1, or all e^x - 1."""
    pw = family._pow_p  # type: ignore[attr-defined]
    if pw is not None:
        if not np.all(pw > 1.0):
            return None
        return SmoothModular("power", family._pow_scale, pw)  # type: ignore[attr-defined]
    if all(f.kind == "exp" for f in family.functions):
        ones = np.ones(len(family))
        return SmoothModular("exp", ones, ones)
    return None


def _breakpoint_data(
    probs: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable descending order of |x|, with the plateau levels, breakpoints
    (ending at 1) and running integrals along it.

    Ties are left unmerged: the running integral and any evaluation at the
    extra breakpoints are unchanged by merging, and skipping it is cheaper.
    """
    a = np.abs(x)
    order = np.argsort(-a, kind="stable")
    levels = a[order]
    weights = probs[order]
    bp = np.cumsum(weights)
    bp[-1] = 1.0
    integrals = np.cumsum(levels * weights)
    return order, levels, bp, integrals


class MarcinkiewiczNorm(Seminorm):
    """sup over t of the running integral of the rearrangement against phi.

    Between breakpoints of the rearrangement the running integral is affine
    and phi is concave, so the ratio is quasiconvex there and attains its
    supremum at breakpoints; only those and t = 1 are evaluated.
    """

    rearrangement_invariant = True

    def __init__(self, phi: PhiConcave):
        self.phi = phi
        self.name = f"marcinkiewicz({phi.name})"

    def _value_arr(self, space, x, tol):
        return _marcinkiewicz_arr(space.probs, x, self.phi)

    def dual_value_arr(self, space, z, tol):
        # in x = p * w the unit ball is the polymatroid x(S) <= phi(P(S)),
        # where the greedy vertex in |z| order maximizes: the Lorentz norm
        return _lorentz_arr(space.probs, z, self.phi)

    def linear_piece_arr(self, space, a):
        # E[|x| 1_S] / phi(P(S)) <= the norm for every atom set S (the top
        # P(S) of the rearrangement carries at least E[|x| 1_S]); the
        # maximizing top-k set attains it
        order, _, bp, integrals = _breakpoint_data(space.probs, a)
        weights = _phi_weights(self.phi, bp)
        k = int(np.argmax(integrals / weights))
        g = np.zeros(a.size)
        top = order[: k + 1]
        g[top] = space.probs[top] / weights[k]
        return g


def _phi_weights(phi: PhiConcave, bp: np.ndarray) -> np.ndarray:
    weights = phi._eval(bp)
    if np.any(weights <= 0.0):
        raise ValueError("phi must be positive on (0, 1]")
    return weights


def _marcinkiewicz_arr(probs: np.ndarray, x: np.ndarray, phi: PhiConcave) -> float:
    if not np.any(np.abs(x) > 0.0):
        return 0.0
    _, _, bp, integrals = _breakpoint_data(probs, x)
    return float((integrals / _phi_weights(phi, bp)).max())


def _lorentz_increments(
    probs: np.ndarray, x: np.ndarray, phi: PhiConcave
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable descending order of |x|, its levels, and the phi increments
    phi(T_j) - phi(T_{j-1}) at the running masses T_j along it."""
    order, levels, bp, _ = _breakpoint_data(probs, x)
    return order, levels, np.diff(phi._eval(np.concatenate([[0.0], bp])))


def _lorentz_arr(probs: np.ndarray, x: np.ndarray, phi: PhiConcave) -> float:
    _, levels, inc = _lorentz_increments(probs, x, phi)
    return float(np.dot(levels, inc))


class LorentzNorm(Seminorm):
    """Stieltjes integral of the decreasing rearrangement against phi."""

    rearrangement_invariant = True

    def __init__(self, phi: PhiConcave):
        self.phi = phi
        self.name = f"lorentz({phi.name})"

    def _value_arr(self, space, x, tol):
        return _lorentz_arr(space.probs, x, self.phi)

    def dual_value_arr(self, space, z, tol):
        if not space.is_uniform:
            return None
        return _marcinkiewicz_arr(space.probs, z, self.phi)

    def linear_piece_arr(self, space, a):
        # the norm is the Lovasz extension of the submodular S -> phi(P(S)),
        # so it is the largest of the greedy vectors, one per atom order
        order, _, inc = _lorentz_increments(space.probs, a, self.phi)
        g = np.empty(a.size)
        g[order] = inc
        return g


class RiskNorm(Seminorm):
    """inf{beta > 0 : rho(|u|/beta) <= 1} for a convex risk measure rho."""

    def __init__(self, rho: RiskMeasureSpec):
        self.rho = rho
        self.rearrangement_invariant = rho.law_invariant
        self.name = f"risknorm({rho.name})"

    def _value_arr(self, space, x, tol):
        return _risk_norm_arr(space, self.rho, np.abs(x), tol)

    def linear_piece_arr(self, space, a):
        if self.rho.kind != "avar":
            return None
        return _avar_density(space.probs, a, self.rho.level)

    def smooth_modular(self, space):
        return _entropic_modular(self.rho, space.n_atoms)


class GenOrliczNorm(Seminorm):
    """inf{beta > 0 : r(Phi(|u|/beta)) <= 1} for an inner seminorm r."""

    def __init__(self, phi: YoungFunction, inner: Seminorm):
        if not phi.is_finite:
            raise ValueError("the Young function must be finite-valued here")
        self.phi = phi
        self.inner = inner
        self.rearrangement_invariant = inner.rearrangement_invariant
        self.name = f"genorlicz({inner.name})"
        self._inner_checked: set[bytes] = set()

    def _ensure_inner(self, space: FiniteProbSpace) -> None:
        key = space.probs.tobytes()
        if key in self._inner_checked:
            return
        report = check_axioms(space, self.inner, trials=6, seed=20210)
        if not report.core_pass:
            raise ValueError(
                f"inner seminorm fails the axiom spot check: {report.failure_names()}"
            )
        self._inner_checked.add(key)

    def _value_arr(self, space, x, tol):
        self._ensure_inner(space)
        a = np.abs(x)
        if not np.any(a > 0.0):
            return 0.0
        # the gauge is positively homogeneous: bisect on a / max(a) at any scale
        m = float(a.max())
        a = a / m
        return m * bisect_gauge(
            lambda b: self.inner._value_arr(space, self.phi.eval_array(a / b), tol) <= 1.0,
            rel_tol=tol.gauge_rel,
        )

    def dual_brackets(
        self, space: FiniteProbSpace, z: np.ndarray, tol: Tolerances
    ) -> GenOrliczDualResult | None:
        """Both forms of the dual norm at |y| = z; None when Phi' has no closed
        form or the inner seminorm has neither facets nor a modular ball."""
        modular = _smooth_modular(MusielakFamily.constant(self.phi, space.n_atoms))
        ball = self.inner.smooth_modular(space)

        def inner(u: np.ndarray) -> float:
            return self.inner._value_arr(space, u, tol)

        def cut(u: np.ndarray) -> np.ndarray | None:
            g = self.inner.linear_piece_arr(space, u)
            if g is not None or ball is None:
                return g
            # the normal of the modular ball {E Phi_r(w) <= 1} at w = u / r(u)
            w = u / inner(u)
            g = space.probs * ball.dphi(w)
            return g / float(g @ w)

        if modular is None:
            return None
        return gen_orlicz_dual_brackets(z, space.probs, modular, inner, cut)


class CustomSeminorm(Seminorm):
    """Wrap a callable (space, values) -> float with declared properties."""

    def __init__(
        self,
        fn: Callable[[FiniteProbSpace, np.ndarray], float],
        *,
        rearrangement_invariant: bool = False,
        name: str = "custom",
    ):
        self.fn = fn
        self.rearrangement_invariant = rearrangement_invariant
        self.name = name

    def _value_arr(self, space, x, tol):
        return float(self.fn(space, x))


# ---------------------------------------------------------------------------
# free-function forms

NormFamily = Sequence[Seminorm]


def lp_norm(space: FiniteProbSpace, u: Rv, p: float) -> float:
    """(E|u|^p)^(1/p), or max|u| for p = inf."""
    return LpNorm(p).value(space, u)


def luxemburg_norm(
    space: FiniteProbSpace,
    u: Rv,
    family: MusielakFamily,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """inf{beta > 0 : E Phi(|u|/beta) <= 1}.

    Safeguarded Newton when every Phi is a power, bisection on the modular
    otherwise.
    """
    return LuxemburgNorm(family).value(space, u, tol=tol)


def _amemiya_arr(
    probs: np.ndarray,
    z: np.ndarray,
    family: MusielakFamily,
    tol: Tolerances,
) -> float:
    """inf over beta of beta * (1 + E Phi*(|z|/beta)) for the family Phi."""
    a = np.abs(z)
    modular = _smooth_modular(family)
    if modular is not None:
        return amemiya_multiplier(a, probs, modular, tol.gauge_rel)[1]
    if not np.any(a > 0.0):
        return 0.0
    conj_family = family.conjugate()
    # the infimum is positively homogeneous in a: minimize on a / max(a)
    m = float(a.max())
    a = a / m

    def objective(beta: float) -> float:
        return beta * conj_family.modular(probs, a / beta) + beta

    _, value = minimize_scalar_convex(objective, x0=float(np.dot(probs, a)), tol=tol.golden)
    return m * value


def amemiya_dual_norm(
    space: FiniteProbSpace,
    y: Rv,
    family: MusielakFamily,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """inf over beta of beta * E Phi*(|y|/beta) + beta.

    When every Phi is a power x**p with p > 1 or every Phi is e^x - 1, the
    minimizing beta is the Lagrange multiplier of the Luxemburg ball of Phi,
    one safeguarded Newton root (``amemiya_multiplier``).  Other families
    take a one-dimensional convex minimization by bracketing plus golden
    section.  The reported number is the infimal value, not a minimizer.
    """
    _check_on_space(space, y, "y")
    _check_family_size(family, space.n_atoms)
    return _amemiya_arr(space.probs, y.values, family, tol)


def marcinkiewicz_norm(space: FiniteProbSpace, u: Rv, phi: PhiConcave) -> float:
    return MarcinkiewiczNorm(phi).value(space, u)


def lorentz_norm(space: FiniteProbSpace, y: Rv, phi: PhiConcave) -> float:
    return LorentzNorm(phi).value(space, y)


def gen_orlicz_norm(
    space: FiniteProbSpace,
    u: Rv,
    phi: YoungFunction,
    r: Seminorm,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    return GenOrliczNorm(phi, r).value(space, u, tol=tol)


def gen_orlicz_dual_norm(
    space: FiniteProbSpace,
    y: Rv,
    phi: YoungFunction,
    r: Seminorm,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> GenOrliczDualResult:
    """Both forms of the dual norm of the generalized Orlicz norm, bracketed.

    The sum form inf_v E[v Phi*(|y|/v)] + r_polar(v) is the polar of the norm
    itself, the max form inf_v max(r_polar(v), E[v Phi*(|y|/v)]) the polar of
    the Amemiya norm of r(Phi(.)); ``gen_orlicz_dual_brackets`` computes both.
    Phi must be x**p with p > 1 or e^x - 1, and r needs facets or a modular
    unit ball; otherwise this raises ValueError.
    """
    _check_on_space(space, y, "y")
    norm = GenOrliczNorm(phi, r)
    norm._ensure_inner(space)
    res = norm.dual_brackets(space, np.abs(y.values), tol)
    if res is None:
        raise ValueError(
            "the generalized Orlicz dual needs Phi = x**p (p > 1) or e^x - 1 "
            "and an inner seminorm with facets or a modular unit ball"
        )
    return res


# ---------------------------------------------------------------------------
# axiom checking


_CORE_ITEMS = (
    "nonnegative",
    "symmetry",
    "homogeneity",
    "subadditivity",
    "lower_l1_bound",
    "bounded_by_sup",
    "solid_monotone",
    "order_continuity",
    "decomposable",
)


@dataclass(frozen=True)
class AxiomReport:
    items: tuple[CheckItem, ...]
    c_lower: float  # empirical constant with c * ||u||_1 <= p(u)
    c_upper: float  # empirical constant with p(u) <= c * ||u||_inf

    @property
    def all_pass(self) -> bool:
        return all(i.passed for i in self.items)

    @property
    def core_pass(self) -> bool:
        core = {i.name: i.passed for i in self.items}
        return all(core.get(k, False) for k in _CORE_ITEMS)

    def failure_names(self) -> list[str]:
        return [i.name for i in self.items if not i.passed]

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "c_lower": self.c_lower,
            "c_upper": self.c_upper,
            "items": [
                {"name": i.name, "passed": i.passed, "worst": i.worst, "witness": i.witness}
                for i in self.items
            ],
        }


def check_axioms(
    space: FiniteProbSpace,
    spec: Seminorm,
    trials: int = 40,
    *,
    seed: int = 0,
    slack: float = 1e-8,
    tol: Tolerances = DEFAULT_TOL,
) -> AxiomReport:
    """Randomized report on the seminorm axioms for this spec on this space.

    Checks nonnegativity, symmetry under sign flips, positive homogeneity,
    subadditivity, the lower L1 bound (with the empirical constant), the
    upper sup-norm bound, monotonicity under pointwise domination, decay
    along shrinking atom sets, and finiteness on indicators.  Solidity and
    decomposability of the induced space reduce on a finite space to the
    domination axiom plus finiteness on indicators, which is what is
    reported.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    n = space.n_atoms

    def p(x: np.ndarray) -> float:
        return spec._value_arr(space, x, tol)

    worst = _WorstCase(-_INF)
    c_lower, c_upper = _INF, 0.0
    indicator_ok = True
    for k in range(trials):
        u = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        v = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        pu, pv = p(u), p(v)
        scale = max(1.0, abs(pu), abs(pv))
        worst.bump("nonnegative", -pu / scale, u)
        worst.bump("symmetry", abs(p(-u) - pu) / scale, u)
        alpha = float(np.exp(rng.uniform(-2.0, 2.0)))
        worst.bump("homogeneity", abs(p(alpha * u) - alpha * pu) / (alpha * scale), u)
        worst.bump("subadditivity", (p(u + v) - pu - pv) / scale, u + v)
        dominated = u * rng.uniform(0.0, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        worst.bump("solid_monotone", (p(dominated) - pu) / scale, dominated)
        l1 = float(np.dot(space.probs, np.abs(u)))
        linf = float(np.abs(u).max())
        if l1 > 0 and np.isfinite(pu):
            c_lower = min(c_lower, pu / l1)
        if linf > 0 and np.isfinite(pu):
            c_upper = max(c_upper, pu / linf)
        worst.bump_shrinking("order_continuity", p, u, pu, scale, rng)
        idx = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        ind = np.zeros(n)
        ind[idx] = 1.0
        if not np.isfinite(p(ind)):
            indicator_ok = False

    items = [worst.item(k, slack) for k in ("nonnegative", "symmetry", "homogeneity", "subadditivity")]
    items += [
        CheckItem("lower_l1_bound", c_lower > 1e-10, c_lower),
        CheckItem("bounded_by_sup", np.isfinite(c_upper), c_upper),
        worst.item("solid_monotone", slack),
        worst.item("order_continuity", slack),
        CheckItem("decomposable", indicator_ok, 0.0 if indicator_ok else _INF),
    ]
    return AxiomReport(tuple(items), c_lower, c_upper)


# ---------------------------------------------------------------------------
# fundamental functions and families


@dataclass(frozen=True, eq=False)
class FundamentalFunctions:
    """Upper and lower fundamental functions on the achievable measure grid."""

    ts: np.ndarray
    upper: np.ndarray  # sup{p(1_A) : P(A) <= t}
    lower: np.ndarray  # inf{p(1_A) : P(A) >= t}

    def as_dict(self) -> dict:
        return {
            "ts": self.ts.tolist(),
            "upper": self.upper.tolist(),
            "lower": self.lower.tolist(),
        }


def fundamental_functions(
    space: FiniteProbSpace,
    spec: Seminorm,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> FundamentalFunctions:
    """Exact fundamental functions by subset enumeration.

    On more than 20 atoms enumeration is refused unless the spec is declared
    rearrangement invariant and the space is uniform, in which case only the
    subset cardinality matters.
    """
    n = space.n_atoms
    if spec.rearrangement_invariant and space.is_uniform:
        vals = np.array([spec._value_arr(space, ind, tol) for ind in prefix_indicators(n)])
        ts = np.arange(1, n + 1) / n
        # monotone under domination, so the sup and inf both land on vals
        return FundamentalFunctions(ts, vals, vals)
    if n > 20:
        raise ValueError("too many atoms for subset enumeration")
    pas = []
    vals = []
    for mask in range(1, 2**n):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
        pas.append(float(np.dot(space.probs, sel)))
        vals.append(spec._value_arr(space, sel, tol))
    pas_arr = np.asarray(pas)
    vals_arr = np.asarray(vals)
    order = np.argsort(pas_arr, kind="stable")
    pas_arr, vals_arr = pas_arr[order], vals_arr[order]
    prefix_max = np.maximum.accumulate(vals_arr)
    suffix_min = np.minimum.accumulate(vals_arr[::-1])[::-1]
    keep = np.concatenate([np.abs(np.diff(pas_arr)) > 1e-12, [True]])
    first = np.concatenate([[True], np.abs(np.diff(pas_arr)) > 1e-12])
    ts = pas_arr[keep]
    upper = prefix_max[keep]
    lower = suffix_min[first]
    return FundamentalFunctions(ts, upper, lower)


def family_membership(
    space: FiniteProbSpace,
    u: Rv,
    family: NormFamily,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Evaluate every seminorm of the family on u; all finite on finite spaces."""
    if not family:
        raise ValueError("the family must be nonempty")
    return np.array([spec.value(space, u, tol=tol) for spec in family])

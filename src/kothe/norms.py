"""The seminorm families and their axioms checker.

Each family is a small class with a shared interface: evaluation on a random
variable, and for the polar optimizer analytic facets (polyhedral families)
or per-atom Young functions (modular balls).  Only ``duality.dual_spec_of``
maps a family to its closed-form dual.
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
    _scaled_gauge,
    amemiya_multiplier,
    bisect_gauge,
    gen_orlicz_dual_brackets,
    minimize_scalar_convex,
)
from .rearrange import _sorted_prefix
from .risk import RiskMeasureSpec, _entropic_modular, _risk_norm_arr, _risk_rows
from .space import (
    CheckItem,
    FiniteProbSpace,
    Rv,
    _check_on_space,
    _shrinking_rows,
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
# largest violation that the axiom checker forgives, relative to the probes' scale
_AXIOM_SLACK = 1e-8


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

    def __post_init__(self):
        # a tabulated phi holds the slopes of its linear pieces from birth
        if self.kind == "tabulated":
            object.__setattr__(self, "_slopes", np.diff(self.ys) / np.diff(self.ts))

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
    ts.setflags(write=False)
    ys.setflags(write=False)
    phi = PhiConcave("tabulated", ts=ts, ys=ys)
    if np.any(np.diff(phi._slopes) > 1e-9):
        raise ValueError("nodes must describe a concave function")
    return phi


# ---------------------------------------------------------------------------
# seminorm families


class Seminorm(abc.ABC):
    """A symmetric sublinear functional of a random variable.

    ``_value_arr(space, x)`` evaluates one value vector x.
    ``_value_rows(space, X)`` evaluates each row of a 2-D X and returns a 1-D
    array of the same values as ``_value_arr`` on those rows, to within
    1e-15 relative.  Neither takes a tolerance: the gauges stop at the fixed
    relative width ``_optim._GAUGE_REL``.  By default ``_value_rows`` calls
    ``_value_arr`` once per row, so a callback only ever sees 1-D arrays;
    Lp, Marcinkiewicz, Lorentz and the avar risk norm evaluate all rows at
    once with the formulas of ``_value_arr``.  The axiom checker sends it
    one trial at a time, at most n + 7 rows.

    ``rearrangement_invariant`` promises an r.i. norm (Bennett & Sharpley
    1988, ch. 2), which averaging over atom sets does not raise, not just a
    value set by the law of |x|: on p = (1/2, 1/4, 1/4) the latter holds for
    max(10|x1|, 5(|x2| + |x3|), |x2|, |x3|), whose polar at y = (1, .99, .98)
    sits at x = (0.1, 0.2, 0), off the profiles that ``polar`` searches.
    """

    name: str = "seminorm"
    rearrangement_invariant: bool = False
    axioms_by_construction: bool = False  # no callback decides the axioms, so polar need not screen them

    def value(self, space: FiniteProbSpace, u: Rv) -> float:
        _check_on_space(space, u)
        return self._value_arr(space, u.values)

    @abc.abstractmethod
    def _value_arr(self, space: FiniteProbSpace, x: np.ndarray) -> float:
        """Evaluation on a raw value vector; the optimizer hot path."""

    def _value_rows(self, space: FiniteProbSpace, X: np.ndarray) -> np.ndarray:
        """Evaluation on each row of X (see the class docstring)."""
        return np.array([self._value_arr(space, x) for x in X])

    def linear_piece_arr(self, space: FiniteProbSpace, a: np.ndarray) -> np.ndarray | None:
        """The linear piece of a polyhedral seminorm that is active at a >= 0.

        Returns g >= 0 with g.a = seminorm(a) and g.x <= seminorm(x) for
        every x >= 0: a facet of the unit ball on the orthant.  The polar
        solves these families by cutting planes, exactly when the pieces
        come from a finite set (the numeric dual of ``verify_bipolar``
        returns witnesses of inner polars, finitely many only for polyhedral
        primals).  The cutting planes and the generalized Orlicz dual take
        g.a as the seminorm at a, so g's tightness places their reported
        points.  None for the other families.
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


def _lp_arr(probs: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """(E|x|^p)^(1/p), or max|x| for p = inf, along the last axis of x."""
    a = np.abs(x)
    if math.isinf(p):
        return a.max(axis=-1)
    if p == 1.0:
        return a @ probs
    m = a.max(axis=-1)
    # m * (E (a/m)^p)^(1/p): no overflow or underflow at any scale of a; the
    # floor at the least subnormal keeps a zero row zero and moves no other m
    return m * ((a / np.maximum(m, 5e-324)[..., None]) ** p @ probs) ** (1.0 / p)


class LpNorm(Seminorm):
    rearrangement_invariant = True
    axioms_by_construction = True

    def __init__(self, p: float):
        p = float(p)
        if p < 1.0:
            raise ValueError("Lp norms need p >= 1")
        self.p = p
        self.name = "Linf" if math.isinf(p) else f"L{p:g}"

    def _value_arr(self, space, x):
        return float(_lp_arr(space.probs, x, self.p))

    def _value_rows(self, space, X):
        return _lp_arr(space.probs, X, self.p)

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

    axioms_by_construction = True

    def __init__(self, family: MusielakFamily):
        self.family = family
        self.rearrangement_invariant = family.is_constant
        self.name = "luxemburg"

    def _value_arr(self, space, x):
        _check_family_size(self.family, x.size)
        a = np.abs(x)
        pw = self.family._pow_p  # type: ignore[attr-defined]
        if pw is not None:
            # E Phi(a/beta) = sum(prob_i * scale_i * (a_i/beta)**p_i)
            mask = a > 0.0
            coef = space.probs[mask] * self.family._pow_scale[mask]  # type: ignore[attr-defined]
            return _scaled_gauge(a, lambda z: _power_gauge(z[mask], coef, pw[mask]))
        return _scaled_gauge(
            a, lambda z: bisect_gauge(lambda b: self.family.modular(space.probs, z / b) <= 1.0)
        )

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


class MarcinkiewiczNorm(Seminorm):
    """sup over t of the running integral of the rearrangement against phi.

    Between breakpoints of the rearrangement the running integral is affine
    and phi is concave, so the ratio is quasiconvex there and attains its
    supremum at breakpoints; only those and t = 1 are evaluated.
    """

    rearrangement_invariant = True
    axioms_by_construction = True

    def __init__(self, phi: PhiConcave):
        self.phi = phi
        self.name = f"marcinkiewicz({phi.name})"

    def _value_arr(self, space, x):
        return float(_marcinkiewicz_arr(space.probs, x, self.phi))

    def _value_rows(self, space, X):
        return _marcinkiewicz_arr(space.probs, X, self.phi)

    def linear_piece_arr(self, space, a):
        # E[|x| 1_S] / phi(P(S)) <= the norm for every atom set S (the top
        # P(S) of the rearrangement carries at least E[|x| 1_S]); the
        # maximizing top-k set attains it
        order, ratios, weights = _marcinkiewicz_ratios(space.probs, a, self.phi)
        k = int(np.argmax(ratios))
        g = np.zeros(a.size)
        top = order[: k + 1]
        g[top] = space.probs[top] / weights[k]
        return g


def _marcinkiewicz_ratios(
    probs: np.ndarray, x: np.ndarray, phi: PhiConcave
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Along the last axis: the stable descending order of |x|, and at each
    breakpoint T_j of its rearrangement the running integral over phi(T_j),
    with the weights phi(T_j).  Ties are left unmerged: the running
    integral at the extra breakpoints lies on the same affine pieces."""
    order, levels, ps, bp = _sorted_prefix(probs, np.abs(x))
    integrals = np.cumsum(ps * levels, axis=-1)
    bp[..., -1] = 1.0  # the running mass ends at 1, up to rounding
    weights = phi._eval(bp)
    if (weights <= 0.0).any():
        raise ValueError("phi must be positive on (0, 1]")
    return order, integrals / weights, weights


def _marcinkiewicz_arr(probs: np.ndarray, x: np.ndarray, phi: PhiConcave) -> np.ndarray:
    return _marcinkiewicz_ratios(probs, x, phi)[1].max(axis=-1)


def _lorentz_increments(
    probs: np.ndarray, x: np.ndarray, phi: PhiConcave
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Along the last axis: the stable descending order of |x|, its levels,
    and the phi increments phi(t + h) - phi(t) along it, with h the atom's
    mass and t the running mass before it.  Each is formed from h and t: a
    difference of phi at rounded running masses loses a light atom's
    digits, and its facet then cuts off the vertex 1_S / phi(P(S)) of a
    light top set S."""
    order, levels, h, bp = _sorted_prefix(probs, np.abs(x))
    t, h1 = bp[..., :-1], h[..., 1:]
    if phi.kind == "power_root":
        # (t + h)^a (1 - (1 + h/t)^-a), to a few ulps at every ratio h/t;
        # at the first atom t = 0 and the running mass is h
        inc = bp**phi.a
        inc[..., 1:] *= -np.expm1(-phi.a * np.log1p(h1 / t))
        return order, levels, inc
    # phi is piecewise linear: slope times the length of [t, t + h] inside
    # each piece [lo, hi], min(h, hi - t) - max(lo - t, 0) clipped at 0,
    # which is exactly h in a piece that holds the whole interval
    inc = phi._eval(h)  # at the first atom, where t = 0
    t, h1 = t[..., None], h1[..., None]
    inside = np.minimum(h1, phi.ts[1:] - t) - np.maximum(phi.ts[:-1] - t, 0.0)
    inc[..., 1:] = np.maximum(inside, 0.0) @ phi._slopes
    return order, levels, inc


def _lorentz_arr(probs: np.ndarray, x: np.ndarray, phi: PhiConcave) -> np.ndarray:
    _, levels, inc = _lorentz_increments(probs, x, phi)
    return np.vecdot(levels, inc)


class LorentzNorm(Seminorm):
    """Stieltjes integral of the decreasing rearrangement against phi."""

    rearrangement_invariant = True
    axioms_by_construction = True

    def __init__(self, phi: PhiConcave):
        self.phi = phi
        self.name = f"lorentz({phi.name})"

    def _value_arr(self, space, x):
        return float(_lorentz_arr(space.probs, x, self.phi))

    def _value_rows(self, space, X):
        return _lorentz_arr(space.probs, X, self.phi)

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
        self.axioms_by_construction = rho.kind in ("avar", "entropic")  # the kinds _risk_arr evaluates itself
        self.name = f"risknorm({rho.name})"

    def _value_arr(self, space, x):
        return _risk_norm_arr(space, self.rho, np.abs(x))

    def _value_rows(self, space, X):
        if self.rho.kind == "avar" and self.rho.positively_homogeneous:
            # the gauge of a positively homogeneous rho is rho itself, 0 on zero rows
            return _risk_rows(space, self.rho, np.abs(X))
        return super()._value_rows(space, X)

    def linear_piece_arr(self, space, a):
        if self.rho.kind != "avar":
            return None
        return LorentzNorm(self.rho._phi).linear_piece_arr(space, a)

    def smooth_modular(self, space):
        return _entropic_modular(self.rho, space.n_atoms)


class _AmemiyaDualNorm(Seminorm):
    """The dual norm of a seminorm whose unit ball is a modular set
    {E Phi(|x|) <= 1}: a Luxemburg norm, or the entropic risk norm.  It is
    the Amemiya (Orlicz) norm inf_b b * (1 + E Phi*(|x|/b)); its own polar is
    that primal seminorm, and Young's equality supplies the witness."""

    name = "amemiya-dual"
    axioms_by_construction = True

    def __init__(self, primal: LuxemburgNorm | RiskNorm):
        self.primal = primal
        self.rearrangement_invariant = primal.rearrangement_invariant

    def _value_arr(self, space, x):
        a = np.abs(x)
        modular = self.primal.smooth_modular(space)
        if modular is not None:
            return amemiya_multiplier(a, space.probs, modular)[1]
        # a Young family without a closed-form Phi': the infimum is convex
        # and positively homogeneous in a, so golden section on a / max(a)
        conj_family = self.primal.family.conjugate()

        def amemiya(z: np.ndarray) -> float:
            def objective(beta: float) -> float:
                return beta * conj_family.modular(space.probs, z / beta) + beta

            return minimize_scalar_convex(objective, x0=float(np.dot(space.probs, z)))[1]

        return _scaled_gauge(a, amemiya)

    def polar_witness(self, space: FiniteProbSpace, a: np.ndarray) -> tuple[np.ndarray, float] | None:
        """(w, lam) for a >= 0: lam is the primal norm of a, and
        w = Phi'(a / lam) attains it, <p a, w> = lam * (this norm of w).

        With v = a / lam, E Phi(v) = 1, and b = 1 in the Amemiya infimum at w
        gives E Phi*(Phi'(v)) + 1 = E[v Phi'(v)], its minimum, so the ratio
        is lam.  None when Phi' has no closed form here.
        """
        modular = self.primal.smooth_modular(space)
        if modular is None:
            return None
        lam = self.primal._value_arr(space, a)
        v = a / lam
        return np.where(v > 0.0, modular.dphi(v), 0.0), lam


class GenOrliczNorm(Seminorm):
    """inf{beta > 0 : r(Phi(|u|/beta)) <= 1} for an inner seminorm r; an
    inner r whose axioms a callback decides is screened by every public
    entry (``value``, ``polar``, ``gen_orlicz_dual_norm``), not by
    ``_value_arr``."""

    def __init__(self, phi: YoungFunction, inner: Seminorm):
        if not phi.is_finite:
            raise ValueError("the Young function must be finite-valued here")
        self.phi = phi
        self.inner = inner
        self.rearrangement_invariant = inner.rearrangement_invariant
        self.axioms_by_construction = inner.axioms_by_construction
        self.name = f"genorlicz({inner.name})"

    def _ensure_inner(self, space: FiniteProbSpace) -> None:
        if self.axioms_by_construction:
            return
        report = check_axioms(space, self.inner, trials=6, seed=20210)
        if not report.core_pass:
            raise ValueError(
                f"inner seminorm fails the axiom spot check: {report.failure_names()}"
            )

    def value(self, space: FiniteProbSpace, u: Rv) -> float:
        self._ensure_inner(space)
        return super().value(space, u)

    def _value_arr(self, space, x):
        return _scaled_gauge(
            np.abs(x),
            lambda z: bisect_gauge(lambda b: self.inner._value_arr(space, self.phi.eval_array(z / b)) <= 1.0),
        )

    def dual_brackets(self, space: FiniteProbSpace, z: np.ndarray) -> GenOrliczDualResult | None:
        """Both forms of the dual norm at |y| = z; None when Phi' has no closed
        form or the inner seminorm has neither facets nor a modular ball."""
        modular = _smooth_modular(MusielakFamily.constant(self.phi, space.n_atoms))
        ball = self.inner.smooth_modular(space)

        def cut(u: np.ndarray) -> np.ndarray | None:
            g = self.inner.linear_piece_arr(space, u)
            if g is not None or ball is None:
                return g
            # the normal of the modular ball {E Phi_r(w) <= 1} at w = u / r(u),
            # scaled so that g.u = r(u)
            w = u / self.inner._value_arr(space, u)
            g = space.probs * ball.dphi(w)
            return g / float(g @ w)

        if modular is None:
            return None
        return gen_orlicz_dual_brackets(z, space.probs, modular, cut)


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

    def _value_arr(self, space, x):
        return float(self.fn(space, x))


# ---------------------------------------------------------------------------
# free-function forms

NormFamily = Sequence[Seminorm]


def lp_norm(space: FiniteProbSpace, u: Rv, p: float) -> float:
    """(E|u|^p)^(1/p), or max|u| for p = inf."""
    return LpNorm(p).value(space, u)


def luxemburg_norm(space: FiniteProbSpace, u: Rv, family: MusielakFamily) -> float:
    """inf{beta > 0 : E Phi(|u|/beta) <= 1}.

    Safeguarded Newton when every Phi is a power, bisection on the modular
    otherwise.
    """
    return LuxemburgNorm(family).value(space, u)


def amemiya_dual_norm(space: FiniteProbSpace, y: Rv, family: MusielakFamily) -> float:
    """inf over beta of beta * E Phi*(|y|/beta) + beta.

    When every Phi is a power x**p with p > 1 or every Phi is e^x - 1, the
    minimizing beta is the Lagrange multiplier of the Luxemburg ball of Phi,
    one safeguarded Newton root (``amemiya_multiplier``).  Other families
    take a one-dimensional convex minimization by bracketing plus golden
    section.  The reported number is the infimal value, not a minimizer.
    """
    _check_on_space(space, y, "y")
    return _AmemiyaDualNorm(LuxemburgNorm(family))._value_arr(space, y.values)


def marcinkiewicz_norm(space: FiniteProbSpace, u: Rv, phi: PhiConcave) -> float:
    return MarcinkiewiczNorm(phi).value(space, u)


def lorentz_norm(space: FiniteProbSpace, y: Rv, phi: PhiConcave) -> float:
    return LorentzNorm(phi).value(space, y)


def gen_orlicz_norm(space: FiniteProbSpace, u: Rv, phi: YoungFunction, r: Seminorm) -> float:
    return GenOrliczNorm(phi, r).value(space, u)


def gen_orlicz_dual_norm(
    space: FiniteProbSpace,
    y: Rv,
    phi: YoungFunction,
    r: Seminorm,
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
    res = norm.dual_brackets(space, np.abs(y.values))
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


def check_axioms(
    space: FiniteProbSpace,
    spec: Seminorm,
    trials: int = 40,
    *,
    seed: int = 0,
) -> AxiomReport:
    """Randomized report on the seminorm axioms for this spec on this space.

    Checks nonnegativity, symmetry under sign flips, positive homogeneity,
    subadditivity, the lower L1 bound (with the empirical constant), the
    upper sup-norm bound, monotonicity under pointwise domination, decay
    along shrinking atom sets, and finiteness on indicators.  Solidity and
    decomposability of the induced space reduce on a finite space to the
    domination axiom plus finiteness on indicators, which is what is
    reported.  Each trial's n + 7 probes go to ``spec._value_rows`` as one
    matrix.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    worst = _WorstCase(-_INF)
    c_lower, c_upper = _INF, 0.0
    indicator_ok = True
    for k in range(trials):
        u = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        v = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        alpha = float(np.exp(rng.uniform(-2.0, 2.0)))
        dominated = u * rng.uniform(0.0, 1.0, size=n) * (2.0 * rng.integers(0, 2, size=n) - 1.0)
        chain = _shrinking_rows(u, rng)
        ind = np.zeros(n)
        ind[rng.choice(n, size=rng.integers(1, n + 1), replace=False)] = 1.0
        # one row evaluation per trial, n + 7 rows: u, v, -u, alpha u, u + v,
        # the dominated vector, the shrinking chain and the indicator
        vals = spec._value_rows(space, np.vstack([u, v, -u, alpha * u, u + v, dominated, chain, ind]))
        pu, pv, p_neg, p_alpha, p_sum, p_dom = vals[:6].tolist()
        scale = max(1.0, abs(pu), abs(pv))
        worst.bump("nonnegative", -pu / scale, u)
        worst.bump("symmetry", abs(p_neg - pu) / scale, u)
        worst.bump("homogeneity", abs(p_alpha - alpha * pu) / (alpha * scale), u)
        worst.bump("subadditivity", (p_sum - pu - pv) / scale, u + v)
        worst.bump("solid_monotone", (p_dom - pu) / scale, dominated)
        l1 = float(np.dot(space.probs, np.abs(u)))
        linf = float(np.abs(u).max())
        if l1 > 0 and np.isfinite(pu):
            c_lower = min(c_lower, pu / l1)
        if linf > 0 and np.isfinite(pu):
            c_upper = max(c_upper, pu / linf)
        worst.bump_chain("order_continuity", pu, vals[6:-1], chain, scale)
        if not np.isfinite(vals[-1]):
            indicator_ok = False

    items = [worst.item(k, _AXIOM_SLACK) for k in ("nonnegative", "symmetry", "homogeneity", "subadditivity")]
    items += [
        CheckItem("lower_l1_bound", c_lower > 1e-10, c_lower),
        CheckItem("bounded_by_sup", np.isfinite(c_upper), c_upper),
        worst.item("solid_monotone", _AXIOM_SLACK),
        worst.item("order_continuity", _AXIOM_SLACK),
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


def fundamental_functions(space: FiniteProbSpace, spec: Seminorm) -> FundamentalFunctions:
    """Exact fundamental functions by subset enumeration.

    On more than 20 atoms enumeration is refused unless the spec is declared
    rearrangement invariant and the space is uniform, in which case only the
    subset cardinality matters.
    """
    n = space.n_atoms
    if spec.rearrangement_invariant and space.is_uniform:
        vals = np.array([spec._value_arr(space, ind) for ind in np.tri(n)])
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
        vals.append(spec._value_arr(space, sel))
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


def family_membership(space: FiniteProbSpace, u: Rv, family: NormFamily) -> np.ndarray:
    """Evaluate every seminorm of the family on u; all finite on finite spaces."""
    if not family:
        raise ValueError("the family must be nonempty")
    return np.array([spec.value(space, u) for spec in family])

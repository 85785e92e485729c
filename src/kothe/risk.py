"""Convex risk measures, their induced norms, penalties and dual norms.

A risk measure here is convex, nondecreasing, translation-equivariant on
constants and zero at zero.  Average value-at-risk and the entropic measure
are built in; arbitrary callables can be wrapped, with their declared
properties verified by the randomized axiom checker rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import (
    ConvergenceError,
    SmoothModular,
    _scaled_gauge,
    bisect_gauge,
    newton_gauge,
)
from .rearrange import _sorted_prefix, _tail_min
from .space import (
    CheckItem,
    FiniteProbSpace,
    Rv,
    _check_on_space,
    _pow2_scaled,
    _scale_back,
    _shrinking_rows,
    _WorstCase,
)

__all__ = [
    "RiskMeasureSpec",
    "avar",
    "entropic",
    "custom_risk",
    "evaluate_risk",
    "risk_norm",
    "PenaltyResult",
    "penalty",
    "penalty_gauge",
    "RiskDualResult",
    "risk_dual_norm",
    "RiskAxiomReport",
    "check_risk_axioms",
]

_INF = math.inf
# largest violation that the risk axiom checker forgives, relative to the probes' scale
_AXIOM_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class RiskMeasureSpec:
    """Tagged risk measure; build with avar(), entropic() or custom_risk()."""

    kind: str
    level: float = math.nan
    theta: float = math.nan
    fn: Callable[[FiniteProbSpace, np.ndarray], float] | None = None
    law_invariant: bool = True
    positively_homogeneous: bool = False

    @property
    def name(self) -> str:
        if self.kind == "avar":
            return f"avar({self.level:g})"
        if self.kind == "entropic":
            return f"entropic({self.theta:g})"
        return "custom-risk"

    def __post_init__(self):
        """An avar spec holds phi_t(s) = min(s, t) / t, whose Lorentz norm is
        avar(t), from birth, built without phi_tabulated's checks, as it
        passes them."""
        if self.kind != "avar":
            return
        from .norms import PhiConcave  # deferred: norms builds on this module

        ts = np.unique([0.0, self.level, 1.0])
        ys = np.minimum(ts, self.level) / self.level
        ts.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "_phi", PhiConcave("tabulated", ts=ts, ys=ys))


def avar(level: float) -> RiskMeasureSpec:
    """Average value-at-risk: the mean of the worst ``level`` tail."""
    if not 0.0 < level <= 1.0:
        raise ValueError("the tail level must lie in (0, 1]")
    return RiskMeasureSpec("avar", level=float(level), positively_homogeneous=True)


def entropic(theta: float) -> RiskMeasureSpec:
    """Entropic risk (1/theta) log E[exp(theta u)]."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return RiskMeasureSpec("entropic", theta=float(theta))


def custom_risk(
    fn: Callable[[FiniteProbSpace, np.ndarray], float],
    *,
    law_invariant: bool = False,
    positively_homogeneous: bool = False,
) -> RiskMeasureSpec:
    return RiskMeasureSpec(
        "custom",
        fn=fn,
        law_invariant=law_invariant,
        positively_homogeneous=positively_homogeneous,
    )


def _entropic_arr(probs: np.ndarray, x: np.ndarray, theta: float) -> float:
    t = theta * x
    hi = float(t.max())
    if hi <= 1.0 and float(t.min()) >= -1.0:
        # near t = 0 the log of a sum near 1 would lose about 1e-16/theta of
        # relative accuracy; the sum of expm1 keeps it
        return math.log1p(float(np.dot(probs, np.expm1(t)))) / theta
    return (hi + math.log(float(np.dot(probs, np.exp(t - hi))))) / theta


def _entropic_modular(rho: RiskMeasureSpec, n: int) -> SmoothModular | None:
    """The entropic risk-norm ball as a modular set; None for other measures.

    The ball {w >= 0 : E e^(theta w) <= e^theta} is the modular set of
    Phi(w) = (e^(theta w) - 1) / (e^theta - 1).  Past theta = 500 the terms
    e^(theta w) on the ball near the float ceiling, so those get None too.
    """
    theta = rho.theta
    if rho.kind != "entropic" or theta > 500.0:
        return None
    return SmoothModular("exp", np.full(n, 1.0 / math.expm1(theta)), np.full(n, theta))


def _risk_arr(space: FiniteProbSpace, rho: RiskMeasureSpec, x: np.ndarray) -> float:
    if rho.kind == "avar":
        # min over s of s + E[x - s]^+ / t, the Rockafellar-Uryasev form
        return float(_tail_min(space.probs, x, rho.level)) / rho.level
    if rho.kind == "entropic":
        return _entropic_arr(space.probs, x, rho.theta)
    assert rho.fn is not None
    return float(rho.fn(space, x))


def _risk_rows(space: FiniteProbSpace, rho: RiskMeasureSpec, X: np.ndarray) -> np.ndarray:
    """``_risk_arr`` of each row of X: one sorted scan of all rows for avar,
    one call per row otherwise, so a callback only ever sees 1-D arrays."""
    if rho.kind == "avar":
        return _tail_min(space.probs, X, rho.level) / rho.level
    return np.array([_risk_arr(space, rho, x) for x in X])


def evaluate_risk(space: FiniteProbSpace, rho: RiskMeasureSpec, u: Rv) -> float:
    """The risk of u; the tail-mean form for avar, log-exponential otherwise."""
    _check_on_space(space, u)
    return _risk_arr(space, rho, u.values)


def _risk_norm_arr(space: FiniteProbSpace, rho: RiskMeasureSpec, x_abs: np.ndarray) -> float:
    if rho.positively_homogeneous:
        # the gauge of a positively homogeneous rho is rho itself
        return _risk_arr(space, rho, x_abs) if np.any(x_abs > 0.0) else 0.0
    if rho.kind == "entropic":
        probs, theta = space.probs, rho.theta

        def entropic_gauge(z: np.ndarray) -> float:
            def slope(s: float) -> float:
                w = theta * s * z
                e = probs * np.exp(w - float(w.max()))
                return float(np.dot(e, z) / e.sum())

            # rho(s*z) is increasing and convex in s = 1/beta
            return newton_gauge(lambda s: _entropic_arr(probs, s * z, theta) - 1.0, slope, 1.0)

        return _scaled_gauge(x_abs, entropic_gauge)
    return _scaled_gauge(x_abs, lambda z: bisect_gauge(lambda b: _risk_arr(space, rho, z / b) <= 1.0))


def risk_norm(space: FiniteProbSpace, rho: RiskMeasureSpec, u: Rv) -> float:
    """inf{beta > 0 : rho(|u|/beta) <= 1}.

    rho itself for positively homogeneous rho, safeguarded Newton for the
    entropic measure and gauge bisection otherwise.
    """
    _check_on_space(space, u)
    return _risk_norm_arr(space, rho, np.abs(u.values))


@dataclass(frozen=True, eq=False)
class PenaltyResult:
    """Outcome of the penalty supremum, with a certificate ray when infinite."""

    value: float
    bounded: bool
    ray: np.ndarray | None
    maximizer: np.ndarray | None = None


def _penalty_value(space: FiniteProbSpace, rho: RiskMeasureSpec, xi: np.ndarray, z: np.ndarray) -> float:
    return float(np.dot(space.probs, xi * z)) - _risk_arr(space, rho, xi)


def _confirm_ray(space: FiniteProbSpace, rho: RiskMeasureSpec, xi: np.ndarray, z: np.ndarray) -> bool:
    v1 = _penalty_value(space, rho, xi, z)
    v2 = _penalty_value(space, rho, 2.0 * xi, z)
    v4 = _penalty_value(space, rho, 4.0 * xi, z)
    return v4 > v2 > v1 > 0.0


def penalty(space: FiniteProbSpace, rho: RiskMeasureSpec, y: Rv) -> PenaltyResult:
    """sup over nonnegative bounded xi of E[xi*y] - rho(xi), for y >= 0.

    For avar the objective is concave, positively homogeneous and linear on
    every arrangement cone, so it is 0 or inf, and it is inf iff some
    indicator gives E[y 1_A] > avar(1_A) = min(P(A), t) / t.  The largest
    excess lies on a top-k set of y (for P(A) >= t at A = everything, for
    P(A) <= t on {y > 1/t} unless that set outweighs t), so one sorted
    prefix scan over y finds it exactly.  Growth along the doubled ray
    certifies an infinite supremum.  The entropic case is unbounded exactly
    when E[y] > 1, along the constants ray, and has its KKT point as
    maximizer otherwise.  A custom rho is searched over indicators and
    random directions, drawn from one fixed stream.
    """
    _check_on_space(space, y, "y")
    z = y.values
    if np.any(z < 0.0):
        raise ValueError("the penalty argument must be nonnegative atomwise")
    if not np.any(z > 0.0):
        return PenaltyResult(0.0, True, None, np.zeros(space.n_atoms))
    scale = float(z.max())

    if rho.kind == "entropic":
        if float(np.dot(space.probs, z)) > 1.0 + 1e-12:
            ray = np.ones(space.n_atoms)
            assert _confirm_ray(space, rho, ray, z)
            return PenaltyResult(_INF, False, ray)
        xi = _entropic_kkt(space.probs, z, rho.theta)
        return PenaltyResult(max(_penalty_value(space, rho, xi, z), 0.0), True, None, xi)

    n = space.n_atoms
    threshold = 1e-11 * max(scale, 1.0)
    if rho.kind == "avar":
        order, levels, ps, mass = _sorted_prefix(space.probs, z)
        sums = np.cumsum(ps * levels)
        viol = sums - np.minimum(mass, rho.level) / rho.level
        k = int(np.argmax(viol))
        xi = np.zeros(n)
        xi[order[: k + 1]] = 1.0
        if viol[k] > threshold and _confirm_ray(space, rho, xi, z):
            return PenaltyResult(_INF, False, xi)
        return PenaltyResult(max(float(viol[k]), 0.0), True, None, xi)

    rng = np.random.default_rng(0)
    best_val, best_xi = 0.0, np.zeros(n)

    def candidates():
        # indicator directions come first: they span the growth cone for
        # tail-mean measures and give the cleanest certificates
        order = np.argsort(-z)
        for j in range(1, n + 1):
            xi = np.zeros(n)
            xi[order[:j]] = 1.0
            yield xi
        for _ in range(128):
            yield (rng.random(n) < 0.5).astype(float)
        yield z / scale
        for _ in range(32):
            yield np.abs(rng.standard_normal(n))

    for xi in candidates():
        v = _penalty_value(space, rho, xi, z)
        if v > best_val:
            best_val, best_xi = v, xi
        if v > threshold and _confirm_ray(space, rho, xi, z):
            return PenaltyResult(_INF, False, xi)
    return PenaltyResult(max(best_val, 0.0), True, None, best_xi)


def _entropic_kkt(probs: np.ndarray, z: np.ndarray, theta: float) -> np.ndarray:
    """The maximizer of E[xi*z] - entropic(xi) over xi >= 0, for E[z] <= 1.

    By the KKT conditions exp(theta*xi) = max(z, tau) / tau, where tau solves
    E[max(z, tau)] = 1, linear between the values of z: one descending sort
    finds the segment, and the root is clipped into it.  At E[z] = 1 with
    zeros in z tau falls to 0; its floor keeps the value exact to rounding.
    """
    order = np.argsort(-z, kind="stable")
    zs, ps = z[order], probs[order]
    above = np.cumsum(ps * zs) - ps * zs  # E[z] over the atoms before each one
    rest = np.cumsum(ps[::-1])[::-1]  # P over each atom and those after it
    k = int(np.count_nonzero(above + zs * rest > 1.0 + 1e-12))
    if k == 0:
        return np.zeros_like(z)  # max z <= 1
    tau, low = ((1.0 - above[k]) / rest[k], zs[k]) if k < z.size else (0.0, 0.0)
    tau = min(max(tau, low, 1e-18), float(zs[k - 1]))
    return np.log(np.maximum(z / tau, 1.0)) / theta


def _witness(space: FiniteProbSpace, rho: RiskMeasureSpec, z: np.ndarray, res: PenaltyResult) -> tuple[float, float, float]:
    """(E[xi*z], rho(xi), cap) for the ray or maximizer xi of a penalty call, with
    cap >= lim rho(t*xi)/t: rho(xi) if rho is positively homogeneous, else max(xi)."""
    xi = res.maximizer if res.bounded else res.ray
    r = _risk_arr(space, rho, xi)
    return float(np.dot(space.probs, xi * z)), r, r if rho.positively_homogeneous else float(xi.max())


def penalty_gauge(space: FiniteProbSpace, rho: RiskMeasureSpec, y: Rv) -> float:
    """inf{beta > 0 : penalty(|y|/beta) <= 1}, by Newton steps in s = 1/beta.

    penalty(s*z), z = |y|, is convex in s with tangent s*E[xi*z] - rho(xi)
    at the maximizer xi, so the root lies below the Newton step (1 + rho(xi))
    / E[xi*z], and below cap / E[xi*z] for a ray (1 / E[z] for constants);
    Dinkelbach's steps for positively homogeneous rho.  A ray that moves no
    bound (a custom rho) makes s bisect.
    """
    _check_on_space(space, y, "y")
    z = np.abs(y.values)
    if not np.any(z > 0.0):
        return 0.0
    a, e = _pow2_scaled(z)
    z = a / (m := float(a.max()))
    lo, hi = 0.0, 1.0 / float(np.dot(space.probs, z))
    s = hi
    for _ in range(100):
        res = penalty(space, rho, Rv(s * z))
        a, r, cap = _witness(space, rho, z, res)
        cut = (cap if rho.positively_homogeneous or not res.bounded else 1.0 + r) / a if a > 0.0 else _INF
        feasible = (s <= cut) if rho.positively_homogeneous else (res.bounded and res.value <= 1.0)
        lo, hi = (s, hi) if feasible else (lo, min(hi, s, cut))
        if hi - lo <= 1e-13 * hi or hi < s <= hi * (1.0 + 1e-13):
            break
        s = hi if hi < s else 0.5 * (lo + hi)
    return _scale_back(m / hi, e)


def dual_gauge_exact(space: FiniteProbSpace, rho: RiskMeasureSpec, z: np.ndarray) -> float | None:
    """Fast exact dual-norm evaluator for the built-in risk measures.

    The registered dual of ``RiskNorm(rho)`` (``duality.dual_spec_of``): the
    Marcinkiewicz norm of phi_t for avar(t), the Amemiya norm of the modular
    ball for the entropic measure.  It runs on |z| * 2**-e, exactly scaled
    so that p * |z| does not underflow.  None for a custom rho and for
    entropic theta > 500, which have no registered dual.  Used where the
    dual norm appears inside another optimization; the penalty-based
    infimal form stays the reference route in risk_dual_norm.
    """
    from .duality import dual_spec_of  # deferred: duality and norms build on this module
    from .norms import RiskNorm

    dual = dual_spec_of(space, RiskNorm(rho))
    if dual is None:
        return None
    a, e = _pow2_scaled(np.abs(z))
    return _scale_back(dual._value_arr(space, a), e)


def _dual_inf_form(space: FiniteProbSpace, rho: RiskMeasureSpec, z: np.ndarray) -> tuple:
    """(beta, h(beta), lower, penalty calls, stop) for the infimum over beta of
    h(beta) = beta * (1 + penalty(z/beta)), with lower <= inf h <= h(beta).

    h(beta) = sup over xi >= 0 of E[xi*z] + beta * (1 - rho(xi)) is convex;
    each witness xi is a line below it, touching h at the probe for a
    maximizer.  A ray makes h = +inf below E[xi*z] / cap, from E[z] on.  For
    positively homogeneous rho the probes are Dinkelbach's (1967) ratios,
    exact after finitely many calls; else regula falsi (Illinois) on the
    slopes 1 - rho(xi), bisecting when a ray moves no bound.  lower is the
    least point of the lines (Kelley 1960).
    """
    if not np.any(z > 0.0):
        return 0.0, 0.0, 0.0, 0, "zero"
    z = z / (m := float(z.max()))
    # the value scales back as ldexp(mant * best, e): m * best wherever that
    # is normal, and the least subnormal where it would round to 0
    mant, e = math.frexp(m)
    ph = rho.positively_homogeneous
    floor = float(np.dot(space.probs, z))
    lines = [(0.0, 1.0)]  # xi = 0
    ends = {-1: None, 1: None}  # the nearest finite probes with h' < 0, h' > 0
    beta, best_beta, best, dead, last = floor, floor, _INF, 0.0, 0
    for calls in range(1, 101):
        res = penalty(space, rho, Rv(z / beta))
        a, r, cap = _witness(space, rho, z, res)
        lines.append((a, 1.0 - r))
        ratio = a / cap if cap > 0.0 else 0.0
        h = (beta if ratio <= beta else _INF) if ph else (beta * (1.0 + res.value) if res.bounded else _INF)
        if h < best:
            best_beta, best = beta, h
        if h == _INF:
            dead = max(dead, beta)
        elif r != 1.0 and not ph:
            side = 1 if r < 1.0 else -1
            if side == last and ends[-side]:
                ends[-side][1] *= 0.5  # Illinois: an end kept twice weighs half
            ends[side], last = [beta, 1.0 - r], side
        floor = max(floor, dead, ratio if ph or not res.bounded else 0.0)
        # the lines' max is least at the floor or where a falling one crosses a rising one
        A, B = np.array(lines).T
        cross = (A[None, B >= 0.0] - A[B < 0.0, None]) / (B[B < 0.0, None] - B[None, B >= 0.0])
        cand = np.append(cross[cross > floor], floor)
        model = (A[:, None] + B[:, None] * cand).max(axis=0)
        k = int(np.argmin(model))
        beta, lower = float(cand[k]), min(float(model[k]), best)
        if best - lower <= 1e-13 * best < _INF:
            return m * best_beta, _scale_back(mant * best, e), m * lower, calls, "gap"
        if ends[-1] and ends[1]:
            (bl, gl), (br, gr) = ends[-1], ends[1]
            beta = bl - gl * (br - bl) / (gr - gl)
        elif beta <= dead:
            beta = 0.5 * (dead + best_beta) if best < _INF else 2.0 * dead
    return m * best_beta, _scale_back(mant * best, e), m * lower, calls, "budget"


@dataclass(frozen=True, eq=False)
class RiskDualResult:
    value: float           # the infimal form over beta, an upper end
    polar_value: float     # direct supremum over the unit ball of the risk norm
    beta: float
    agreement: float
    lower: float           # certified lower end of the infimal form
    n_penalty_calls: int
    stop: str              # "gap" (bracket within 1e-13), "budget" or "zero"


def risk_dual_norm(space: FiniteProbSpace, rho: RiskMeasureSpec, y: Rv) -> RiskDualResult:
    """Dual norm of y against the risk norm of rho.

    Computes inf over beta of beta * penalty(|y|/beta) + beta by cuts on the
    penalty's witnesses (``_dual_inf_form``), with a certified lower end,
    and independently the direct polar supremum over the unit ball; raises
    ConvergenceError when the two disagree by more than 1e-6 relative.
    """
    _check_on_space(space, y, "y")
    z = np.abs(y.values)
    if not np.any(z > 0.0):
        return RiskDualResult(0.0, 0.0, 0.0, 0.0, 0.0, 0, "zero")
    beta, value, lower, calls, stop = _dual_inf_form(space, rho, z)

    from .duality import polar  # deferred: duality builds on this module
    from .norms import RiskNorm

    direct = polar(space, RiskNorm(rho), y)
    gap = abs(value - direct.value)
    if gap > 1e-6 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"risk dual norm mismatch: infimal form {value!r} vs polar {direct.value!r}"
        )
    return RiskDualResult(value, direct.value, beta, gap, lower, calls, stop)


@dataclass(frozen=True)
class RiskAxiomReport:
    items: tuple[CheckItem, ...]

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)


def check_risk_axioms(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    trials: int = 40,
    *,
    seed: int = 0,
) -> RiskAxiomReport:
    """Randomized verification of the risk-measure axioms on this space.

    Each trial's n + 6 probes go to ``_risk_rows`` as one matrix."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    zero_gap = abs(_risk_arr(space, rho, np.zeros(n)))
    items = [CheckItem("zero", zero_gap <= _AXIOM_SLACK, zero_gap)]
    worst = _WorstCase(0.0)
    for _ in range(trials):
        u = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        v = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        scale = max(1.0, float(np.abs(u).max()), float(np.abs(v).max()))
        alpha = float(rng.standard_normal())
        upper = u + np.abs(rng.standard_normal(n))
        mid = 0.5 * (u + v)
        a = np.abs(u)
        chain = _shrinking_rows(a, rng)
        # one row evaluation per trial: u + alpha, u, upper, v, mid, |u| and its chain
        vals = _risk_rows(space, rho, np.vstack([u + alpha, u, upper, v, mid, a, chain]))
        r_shift, ru, r_upper, rv, r_mid, ra = vals[:6].tolist()
        worst.bump("translation", abs(r_shift - ru - alpha) / scale, u)
        worst.bump("monotone", (ru - r_upper) / scale, u)
        worst.bump("convex", (r_mid - 0.5 * (ru + rv)) / scale, mid)
        worst.bump_chain("lebesgue", ra, vals[6:], chain, scale)
    items += [worst.item(k, _AXIOM_SLACK) for k in ("translation", "monotone", "convex", "lebesgue")]
    return RiskAxiomReport(tuple(items))

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
    amemiya_multiplier,
    bisect_gauge,
    minimize_scalar_convex,
    newton_gauge,
)
from .rearrange import _sorted_prefix, _tail_min
from .space import (
    DEFAULT_TOL,
    CheckItem,
    FiniteProbSpace,
    Rv,
    Tolerances,
    _check_on_space,
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
        return _tail_min(space.probs, x, rho.level) / rho.level
    if rho.kind == "entropic":
        return _entropic_arr(space.probs, x, rho.theta)
    assert rho.fn is not None
    return float(rho.fn(space, x))


def evaluate_risk(space: FiniteProbSpace, rho: RiskMeasureSpec, u: Rv) -> float:
    """The risk of u; the tail-mean form for avar, log-exponential otherwise."""
    _check_on_space(space, u)
    return _risk_arr(space, rho, u.values)


def _risk_norm_arr(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    x_abs: np.ndarray,
    tol: Tolerances,
) -> float:
    if not np.any(x_abs > 0.0):
        return 0.0
    if rho.positively_homogeneous:
        # the gauge of a positively homogeneous rho is rho itself
        return _risk_arr(space, rho, x_abs)
    if rho.kind == "entropic":
        probs, theta = space.probs, rho.theta

        def slope(s: float) -> float:
            w = theta * s * x_abs
            e = probs * np.exp(w - float(w.max()))
            return float(np.dot(e, x_abs) / e.sum())

        # rho(s*|x|) is increasing and convex in s = 1/beta
        return newton_gauge(
            lambda s: _entropic_arr(probs, s * x_abs, theta) - 1.0,
            slope,
            1.0 / float(x_abs.max()),
            tol.gauge_rel,
        )
    hi0 = max(float(x_abs.max()), abs(_risk_arr(space, rho, x_abs)), 1e-12)
    return bisect_gauge(
        lambda b: _risk_arr(space, rho, x_abs / b) <= 1.0,
        hi0=hi0,
        rel_tol=tol.gauge_rel,
    )


def risk_norm(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    u: Rv,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """inf{beta > 0 : rho(|u|/beta) <= 1}.

    rho itself for positively homogeneous rho, safeguarded Newton for the
    entropic measure and gauge bisection otherwise.
    """
    _check_on_space(space, u)
    return _risk_norm_arr(space, rho, np.abs(u.values), tol)


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


def penalty(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    y: Rv,
    *,
    seed: int = 0,
) -> PenaltyResult:
    """sup over nonnegative bounded xi of E[xi*y] - rho(xi), for y >= 0.

    For avar the objective is concave, positively homogeneous and linear on
    every arrangement cone, so it is 0 or inf, and it is inf iff some
    indicator gives E[y 1_A] > avar(1_A) = min(P(A), t) / t.  The largest
    excess lies on a top-k set of y (for P(A) >= t at A = everything, for
    P(A) <= t on {y > 1/t} unless that set outweighs t), so one sorted
    prefix scan over y finds it exactly.  Growth along the doubled ray
    certifies an infinite supremum.  The entropic case is a smooth concave
    maximization, solved by projected gradient ascent; it is unbounded
    exactly when E[y] > 1, along the constants ray.  A custom rho is
    searched over indicators and random directions drawn from ``seed``.
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
        return _penalty_entropic(space, rho.theta, z)

    n = space.n_atoms
    threshold = 1e-11 * max(scale, 1.0)
    if rho.kind == "avar":
        order, mass, sums = _sorted_prefix(space.probs, z)
        viol = sums - np.minimum(mass, rho.level) / rho.level
        k = int(np.argmax(viol))
        xi = np.zeros(n)
        xi[order[: k + 1]] = 1.0
        if viol[k] > threshold and _confirm_ray(space, rho, xi, z):
            return PenaltyResult(_INF, False, xi)
        return PenaltyResult(max(float(viol[k]), 0.0), True, None, xi)

    rng = np.random.default_rng(seed)
    best_val, best_xi = 0.0, None

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


def _entropic_ascent_start(probs: np.ndarray, z: np.ndarray, theta: float) -> np.ndarray:
    """Stationarity-informed starting point for the entropic penalty ascent.

    At an interior optimum exp(theta*xi_i) is proportional to z_i on the
    active support; scanning supports by descending z gives the consistent
    proportionality constant.
    """
    order = np.argsort(-z)
    zs = z[order]
    ps = probs[order]
    for k in range(zs.size, 0, -1):
        top = float(np.dot(ps[:k], zs[:k]))
        rest = float(ps[k:].sum())
        if top >= 1.0 - 1e-14 or rest <= 0.0:
            continue
        d = rest / (1.0 - top)
        if zs[k - 1] * d > 1.0 and (k == zs.size or zs[k] * d <= 1.0):
            xi = np.zeros_like(z)
            idx = order[:k]
            xi[idx] = np.log(z[idx] * d) / theta
            return xi
    return np.zeros_like(z)


def _penalty_entropic(space: FiniteProbSpace, theta: float, z: np.ndarray) -> PenaltyResult:
    probs = space.probs

    def value_and_grad(xi: np.ndarray) -> tuple[float, np.ndarray]:
        w = theta * xi
        m = float(w.max())
        e = probs * np.exp(w - m)
        total = float(e.sum())
        val = float(np.dot(probs, xi * z)) - (m + math.log(total)) / theta
        grad = probs * z - e / total
        return val, grad

    xi = _entropic_ascent_start(probs, z, theta)
    val, grad = value_and_grad(xi)
    zero_val, _ = value_and_grad(np.zeros_like(z))
    if zero_val > val:
        xi = np.zeros_like(z)
        val = zero_val
        _, grad = value_and_grad(xi)
    step = 1.0
    for _ in range(1500):
        proj_grad = np.where((xi <= 0.0) & (grad < 0.0), 0.0, grad)
        gnorm = float(np.linalg.norm(proj_grad))
        if gnorm <= 1e-12 * max(1.0, abs(val)):
            break
        for _ in range(60):
            cand = np.maximum(xi + step * proj_grad, 0.0)
            cand_val, cand_grad = value_and_grad(cand)
            if cand_val > val + 1e-18:
                xi, val, grad = cand, cand_val, cand_grad
                step *= 1.6
                break
            step *= 0.5
        else:
            break
    return PenaltyResult(max(val, 0.0), True, None, xi)


def penalty_gauge(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    y: Rv,
    *,
    seed: int = 0,
) -> float:
    """inf{beta > 0 : penalty(|y|/beta) <= 1}."""
    _check_on_space(space, y, "y")
    z = np.abs(y.values)
    if not np.any(z > 0.0):
        return 0.0
    hi0 = max(float(np.dot(space.probs, z)), float(z.max()), 1e-12)

    def pred(beta: float) -> bool:
        return penalty(space, rho, Rv(z / beta), seed=seed).value <= 1.0

    return bisect_gauge(pred, hi0=hi0, rel_tol=1e-11)


def _avar_dual_gauge_exact(probs: np.ndarray, z: np.ndarray, t: float) -> float:
    """Exact dual norm against the tail-mean norm.

    The penalty of a positively homogeneous measure is 0 or inf, so the
    infimal dual form reduces to the feasibility gauge, and feasibility is a
    finite family of set bounds (the same ones the avar penalty scans):
    beta >= t * E[|z| 1_A] / min(P(A), t) for every atom set A.  The ratio
    is at most E|z| when P(A) >= t and t * max|z| when P(A) <= t, and top-k
    sets of |z| attain both, so one sorted prefix scan gives the maximum.
    """
    z = np.abs(z)
    if not np.any(z > 0.0):
        return 0.0
    _, mass, sums = _sorted_prefix(probs, z)
    return float(np.max(sums / (np.minimum(mass, t) / t)))


def _avar_dual_facet(probs: np.ndarray, z: np.ndarray, t: float) -> np.ndarray:
    """The set bound attaining _avar_dual_gauge_exact at z >= 0.

    t * p * 1_S / min(P(S), t) for the maximizing top-k set S of the same
    prefix scan; every such set bound lies below the gauge on z >= 0.
    """
    order, mass, sums = _sorted_prefix(probs, z)
    k = int(np.argmax(sums / (np.minimum(mass, t) / t)))
    g = np.zeros(z.size)
    top = order[: k + 1]
    g[top] = t * probs[top] / min(float(mass[k]), t)
    return g


def _avar_density(probs: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """The worst-case density g of avar(t) at x: g.x = avar(x), g.u <= avar(u).

    Along the stable descending sort of x, atoms wholly inside the top-t
    tail get p_i / t, the atom on its boundary gets (t - mass before) / t,
    and the rest get 0.  So 0 <= g <= p/t and sum(g) = 1, which makes g a
    feasible density of the dual representation of avar.
    """
    order, mass, _ = _sorted_prefix(probs, x)
    before = np.concatenate([[0.0], mass[:-1]])
    g = np.empty(x.size)
    g[order] = np.clip(t - before, 0.0, probs[order]) / t
    return g


def dual_gauge_exact(space: FiniteProbSpace, rho: RiskMeasureSpec, z: np.ndarray) -> float | None:
    """Fast exact dual-norm evaluator for the built-in risk measures.

    avar takes one sorted prefix scan.  The entropic norm ball is a modular
    set (``_entropic_modular``), so its dual norm is the Amemiya norm of that
    Phi, computed from one Lagrange multiplier by ``amemiya_multiplier``.
    None for a custom rho and for entropic theta > 500, which have no such
    form.  Used where the dual norm appears inside another optimization;
    the slower penalty-based infimal form stays the reference route in
    risk_dual_norm.
    """
    z = np.abs(z)
    if rho.kind == "avar":
        return _avar_dual_gauge_exact(space.probs, z, rho.level)
    modular = _entropic_modular(rho, space.n_atoms)
    if modular is None:
        return None
    return amemiya_multiplier(z, space.probs, modular, DEFAULT_TOL.gauge_rel)[1]


def _dual_inf_form(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    z: np.ndarray,
    *,
    seed: int = 0,
) -> tuple[float, float]:
    """(beta, value) minimizing beta * penalty(z/beta) + beta over beta > 0.

    Both are positively homogeneous in z, so the search runs on z / max(z).
    """
    if not np.any(z > 0.0):
        return 0.0, 0.0
    m = float(z.max())
    z = z / m

    def objective(beta: float) -> float:
        res = penalty(space, rho, Rv(z / beta), seed=seed)
        return beta * res.value + beta if res.bounded else _INF

    x0 = float(np.dot(space.probs, z))
    # tight bracket: for 0/inf penalties the objective is beta on one side of
    # a jump, and the landing point should be exact to rounding
    beta, value = minimize_scalar_convex(objective, x0=x0, tol=1e-13)
    return m * beta, m * value


@dataclass(frozen=True, eq=False)
class RiskDualResult:
    value: float           # the infimal form over beta
    polar_value: float     # direct supremum over the unit ball of the risk norm
    beta: float
    agreement: float


def risk_dual_norm(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    y: Rv,
    *,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> RiskDualResult:
    """Dual norm of y against the risk norm of rho.

    Computes inf over beta of beta * penalty(|y|/beta) + beta, and
    independently the direct polar supremum over the unit ball; raises
    ConvergenceError when the two disagree by more than 1e-6 relative.
    """
    _check_on_space(space, y, "y")
    z = np.abs(y.values)
    if not np.any(z > 0.0):
        return RiskDualResult(0.0, 0.0, 0.0, 0.0)
    beta, value = _dual_inf_form(space, rho, z, seed=seed)

    from .duality import polar  # deferred: duality builds on this module
    from .norms import RiskNorm

    direct = polar(space, RiskNorm(rho), y, seed=seed, tol=tol)
    gap = abs(value - direct.value)
    if gap > 1e-6 * max(1.0, abs(value)):
        raise ConvergenceError(
            f"risk dual norm mismatch: infimal form {value!r} vs polar {direct.value!r}"
        )
    return RiskDualResult(value, direct.value, beta, gap)


@dataclass(frozen=True)
class RiskAxiomReport:
    items: tuple[CheckItem, ...]

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "items": [
                {"name": i.name, "passed": i.passed, "worst": i.worst, "witness": i.witness}
                for i in self.items
            ],
        }


def check_risk_axioms(
    space: FiniteProbSpace,
    rho: RiskMeasureSpec,
    trials: int = 40,
    *,
    seed: int = 0,
    slack: float = 1e-9,
) -> RiskAxiomReport:
    """Randomized verification of the risk-measure axioms on this space."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    n = space.n_atoms

    def r(x: np.ndarray) -> float:
        return _risk_arr(space, rho, x)

    zero_gap = abs(r(np.zeros(n)))
    items = [CheckItem("zero", zero_gap <= slack, zero_gap)]
    worst = _WorstCase(0.0)
    for _ in range(trials):
        u = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        v = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        scale = max(1.0, float(np.abs(u).max()), float(np.abs(v).max()))
        alpha = float(rng.standard_normal())
        worst.bump("translation", abs(r(u + alpha) - r(u) - alpha) / scale, u)
        upper = u + np.abs(rng.standard_normal(n))
        worst.bump("monotone", (r(u) - r(upper)) / scale, u)
        mid = 0.5 * (u + v)
        worst.bump("convex", (r(mid) - 0.5 * (r(u) + r(v))) / scale, mid)
        a = np.abs(u)
        worst.bump_shrinking("lebesgue", r, a, r(a), scale, rng)
    items += [worst.item(k, slack) for k in ("translation", "monotone", "convex", "lebesgue")]
    return RiskAxiomReport(tuple(items))

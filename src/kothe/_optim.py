"""One-dimensional searches and the small convex solvers behind the norms.

Nothing here knows about probability spaces; callers pass plain vectors and
evaluation callbacks.  All routines tolerate +inf objective values, which the
gauge and perspective constructions produce routinely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConvergenceError",
    "bisect_gauge",
    "newton_gauge",
    "minimize_scalar_convex",
    "golden_max_interval",
    "MaximizeResult",
    "maximize_linear_on_ball",
    "maximize_linear_on_polytope",
    "SmoothModular",
    "amemiya_multiplier",
    "maximize_linear_on_modular_ball",
    "GenOrliczDualResult",
    "gen_orlicz_dual_brackets",
]

_INF = math.inf
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_EXPAND = 400
# line-search tolerances: coarse first, full precision once a pass stalls
_XTOLS = (3e-5, 3e-7, 3e-9, 3e-11)
# gauge roots (bisection and safeguarded Newton) stop at this relative width
_GAUGE_REL = 1e-12
# cutting planes: stop at this relative bracket width, or after this many cuts
_KELLEY_GAP = 1e-12
_KELLEY_ITERS = 500
# generalized Orlicz program: cuts per solve and Newton steps per master
_CUT_ITERS = 100
# simplex: smallest usable pivot (in primal pivots relative to its column),
# smallest reduced cost worth a pivot (costs are scaled to max 1), and
# pivots per solve and tableau row
_PIVOT_TOL = 1e-9
_COST_TOL = 1e-13
_PIVOTS_PER_ROW = 10
# certified upper bounds are multiplied by this, so that the few roundings
# in their evaluation cannot leave them below the exact maximum
_ROUND_UP = 1.0 + 8.0 * 2.0**-52
_VANISHING = "the seminorm vanishes along a direction with positive pairing; the polar value is +inf"


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget without meeting tolerance."""


def bisect_gauge(pred: Callable[[float], bool]) -> float:
    """inf{b > 0 : pred(b)} for pred that is monotone (False below, True above).

    Expands from 1, so it is meant for a gauge evaluated on a / max(a) by
    _scaled_gauge.  Returns the upper end of the final bracket, _GAUGE_REL
    relative wide, at which pred holds, so a point scaled by the result is
    feasible; 0.0 when pred holds arbitrarily close to zero and +inf when it
    never holds within the expansion budget.
    """
    hi = 1.0
    for _ in range(_MAX_EXPAND):
        if pred(hi):
            break
        hi *= 2.0
    else:
        return _INF
    lo = hi / 2.0
    while pred(lo):
        hi = lo
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    while hi - lo > _GAUGE_REL * hi:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def newton_gauge(g: Callable[[float], float], gprime: Callable[[float], float], s0: float) -> float:
    """1/s at the root s of g, for g increasing and convex on (0, inf).

    Gauges inf{beta : modular(a/beta) <= 1} are written in s = 1/beta, where
    the modular is increasing and convex.  The root is bracketed by doubling
    and halving from s0; Newton then runs from the upper end of the bracket
    and falls back to bisection whenever a step leaves it, until a step moves
    s by at most _GAUGE_REL relative.  Returns 0.0 when the root lies above
    1e300 and +inf when it lies below 1e-300.
    """
    hi = s0
    g_hi = g(hi)
    while g_hi < 0.0:
        hi *= 2.0
        if hi > 1e300:
            return 0.0
        g_hi = g(hi)
    lo = hi / 2.0
    while (g_lo := g(lo)) > 0.0:
        hi, g_hi = lo, g_lo
        lo /= 2.0
        if lo < 1e-300:
            return _INF
    # the first Newton step reuses g(hi) from the bracketing loops
    s, val = hi, g_hi
    for _ in range(100):
        if val > 0.0:
            hi = s
        else:
            lo = s
        nxt = s - val / gprime(s)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= _GAUGE_REL * s:
            return 1.0 / nxt
        s = nxt
        val = g(s)
    return 1.0 / s


def _scaled_gauge(a: np.ndarray, gauge: Callable[[np.ndarray], float]) -> float:
    """max(a) * gauge(a / max(a)) for a >= 0, and 0.0 when a is zero: the
    scale rule of every positively homogeneous scalar gauge, whose root
    search then runs on max 1 and holds anywhere in the float range."""
    m = float(a.max())
    if m <= 0.0:
        return 0.0
    return m * gauge(a / m)


def _power_gauge(a: np.ndarray, coef: np.ndarray, k: np.ndarray) -> float:
    """Solve sum(coef * (a/beta)**k) = 1 for beta, with max(a) = 1 and
    k >= 1.

    With w = coef * a**k, in t = 1/beta the equation reads
    sum(w * t**k) = 1, whose left side is increasing and convex, so the
    safeguarded Newton solves it.  Newton starts just above the root
    (sum w)**(-1/k_max) of the one-exponent equation, which is the upper
    end of the bracket when all exponents agree.
    """
    w = coef * a**k
    s0 = float(w.sum()) ** (-1.0 / float(k.max())) * (1.0 + 2.0**-20)
    return newton_gauge(
        lambda s: float(np.dot(w, s**k)) - 1.0,
        lambda s: float(np.dot(w * k, s ** (k - 1.0))),
        s0,
    )


def minimize_scalar_convex(
    f: Callable[[float], float],
    *,
    x0: float = 1.0,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Minimize a quasiconvex f over (0, inf); f may be +inf near zero.

    Brackets the minimizer by doubling / halving from x0, then refines with
    golden section until the bracket is narrower than tol times its upper
    end, so the result does not depend on the scale of the minimizer.  When
    f decreases monotonically toward 0+ the infimum is approached and the
    value at the smallest probed point is returned.
    """
    x0 = max(x0, 1e-300)
    xm, fm = x0, f(x0)
    for _ in range(_MAX_EXPAND):
        if math.isfinite(fm):
            break
        xm *= 2.0
        fm = f(xm)
    else:
        raise ConvergenceError("objective is +inf on the whole probed range")

    hi, f_hi = xm, fm
    while (f_next := f(hi * 2.0)) < f_hi:
        hi *= 2.0
        f_hi = f_next
        if hi > 1e280:
            raise ConvergenceError("objective keeps decreasing toward +inf")
    hi *= 2.0

    lo, f_lo = xm, fm
    shrink = 0
    while (f_next := f(lo / 2.0)) < f_lo and shrink < _MAX_EXPAND:
        lo /= 2.0
        f_lo = f_next
        shrink += 1
        if lo < 1e-290:
            return lo, f_lo  # infimum approached at 0+
    if shrink:
        hi = 2.0 * lo  # f rises from lo to 2 lo, so the minimizer lies below
    lo /= 2.0
    # golden section stops at width rel_xtol * max(1, hi); this makes it tol * hi
    return golden_min_interval(f, lo, hi, rel_xtol=tol * min(1.0, hi))


def golden_max_interval(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    rel_xtol: float = 3e-10,
) -> tuple[float, float]:
    """Maximize a unimodal g on [lo, hi]; tolerates -inf values."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    g1, g2 = g(x1), g(x2)
    xtol = rel_xtol * max(1.0, abs(lo), abs(hi))
    for _ in range(80):
        if b - a <= xtol:
            break
        if g1 < g2:
            a, x1, g1 = x1, x2, g2
            x2 = a + _GOLDEN * (b - a)
            g2 = g(x2)
        else:
            b, x2, g2 = x2, x1, g1
            x1 = b - _GOLDEN * (b - a)
            g1 = g(x1)
    ge = g(lo)
    gf = g(hi)
    best = max((g1, x1), (g2, x2), (ge, lo), (gf, hi))
    return best[1], best[0]


def golden_min_interval(
    f: Callable[[float], float], lo: float, hi: float, *, rel_xtol: float = 3e-10
) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; tolerates +inf values."""
    x, g = golden_max_interval(lambda t: -f(t), lo, hi, rel_xtol=rel_xtol)
    return x, -g


@dataclass(frozen=True)
class MaximizeResult:
    value: float
    x: np.ndarray
    converged: bool
    # oracle calls; on the cutting planes these are facets, whose values
    # scale the points onto the ball, so a facet's tightness places x
    n_evals: int
    upper: float | None = None  # a certified bound on the maximum, when one is known


def minimize_convex_on_orthant(
    f: Callable[[np.ndarray], float],
    starts: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> tuple[float, np.ndarray, bool]:
    """Minimize a convex f (values may be +inf) over the nonnegative orthant.

    Line searches run along coordinates, the multiplicative scaling direction
    v itself, the all-ones direction, support-block indicators and a few
    random directions per pass.  Every slice of a convex function is
    unimodal, so golden section is safe on each; the scaling and block
    directions cross the kinks that coordinate moves alone can stall on.
    """
    best_v: np.ndarray | None = None
    best_val = _INF
    converged = False
    for v0 in starts:
        v = np.maximum(np.asarray(v0, dtype=float), 0.0)
        val = f(v)
        if not math.isfinite(val):
            continue
        local_ok = False
        xtol_idx = 0
        for _ in range(12):
            val_pass = val
            n = v.size
            directions: list[np.ndarray] = [np.eye(n)[i] for i in range(n)]
            directions.append(v.copy())  # multiplicative rescaling
            directions.append(np.ones(n))
            directions.append((v > 0).astype(float))
            for _ in range(max(2, n // 2)):
                directions.append(rng.standard_normal(n))
            scale = max(float(np.abs(v).max()), 1e-12)
            for d in directions:
                dn = float(np.abs(d).max())
                if dn <= 0:
                    continue
                d = d / dn
                t_lo, t_hi = _feasible_interval(v, d)
                t_lo = max(t_lo, -16.0 * scale)
                t_hi = min(t_hi, 16.0 * scale)
                if t_hi - t_lo <= 1e-16 * scale:
                    continue
                t_best, f_best = golden_min_interval(
                    lambda t: f(np.maximum(v + t * d, 0.0)),
                    t_lo,
                    t_hi,
                    rel_xtol=_XTOLS[xtol_idx],
                )
                if f_best < val:
                    v = np.maximum(v + t_best * d, 0.0)
                    val = f_best
            if val_pass - val <= 1e-11 * max(1.0, abs(val)):
                if xtol_idx == len(_XTOLS) - 1:
                    local_ok = True
                    break
                xtol_idx = len(_XTOLS) - 1
            else:
                xtol_idx = min(xtol_idx + 1, len(_XTOLS) - 1)
        if val < best_val:
            best_val, best_v = val, v
        converged = converged or local_ok
    if best_v is None:
        raise ConvergenceError("no start produced a finite objective value")
    return best_val, best_v, converged


def _feasible_interval(w: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """t-range keeping w + t*d inside the orthant (w itself feasible)."""
    t_lo, t_hi = -_INF, _INF
    for a, b in zip(np.maximum(w, 0.0), d):
        if b > 1e-300:
            t_lo = max(t_lo, -a / b)
        elif b < -1e-300:
            t_hi = min(t_hi, a / -b)
    return min(t_lo, 0.0), max(t_hi, 0.0)


def maximize_linear_on_ball(
    c: np.ndarray,
    norm_fn: Callable[[np.ndarray], float],
    *,
    rng: np.random.Generator,
) -> MaximizeResult:
    """Maximize <c, w> over {w >= 0 : norm_fn(w) <= 1}; uncertified.

    norm_fn must be convex, positively homogeneous and nonnegative on the
    orthant, which makes the ratio <c, w>/norm_fn(w) quasiconcave: every line
    slice is unimodal, so golden-section line searches cannot get trapped
    below the optimum except on flats, which the restarts and the random
    directions are there to cross.  Three fixed starts and six random ones
    take 40 projected-subgradient steps each, and the best two are polished
    by at most 18 passes of line searches.  This is the fallback for
    seminorms with neither analytic facets nor a modular unit ball.
    """
    n = c.size
    evals = 0

    def ratio(w: np.ndarray) -> tuple[float, float]:
        """(<c, w> / norm_fn(w), norm_fn(w)); counts the evaluation."""
        nonlocal evals
        nrm = norm_fn(w)
        evals += 1
        if nrm <= 0.0:
            if float(np.dot(c, w)) > 1e-12 * max(1.0, float(np.abs(w).max())):
                raise ValueError(_VANISHING)
            return -_INF, nrm
        if math.isinf(nrm):
            return 0.0, nrm
        return float(np.dot(c, w)) / nrm, nrm

    starts: list[np.ndarray] = []
    cpos = np.maximum(c, 0.0)
    if cpos.max() > 0:
        starts.append(cpos)
    starts.append(np.ones(n))
    spike = np.zeros(n)
    spike[int(np.argmax(c))] = 1.0
    starts.append(spike)
    for _ in range(6):
        starts.append(np.abs(rng.standard_normal(n)))

    c_dir = c / max(float(np.linalg.norm(c)), 1e-300)
    scored: list[tuple[float, np.ndarray]] = []
    for w0 in starts:
        w = w0 / max(float(np.abs(w0).max()), 1e-300)
        best_r, nrm = ratio(w)
        if nrm > 0 and math.isfinite(nrm):
            w = w / nrm
        best_w = w.copy()
        step0 = float(np.abs(w).max()) or 1.0
        for k in range(40):
            w = np.maximum(w + step0 / math.sqrt(k + 1.0) * c_dir, 0.0)
            r, nrm = ratio(w)
            if nrm > 1.0 and math.isfinite(nrm):
                w = w / nrm
            if r > best_r:
                best_r, best_w = r, w.copy()
        scored.append((best_r, best_w))

    scored.sort(key=lambda t: -t[0])
    overall_r, overall_w = scored[0]
    converged = False

    # polish the two best starts
    for _, w_start in scored[:2]:
        w = w_start.copy()
        r_cur, _ = ratio(w)
        local_converged = False
        xtol_idx = 0
        for _ in range(18):
            r_pass = r_cur
            directions: list[np.ndarray] = [np.eye(n)[i] for i in range(n)]
            directions.append(c_dir - w * (float(np.dot(c_dir, w)) / max(float(np.dot(w, w)), 1e-300)))
            for _ in range(max(2, n // 2)):
                directions.append(rng.standard_normal(n))
            scale_w = max(float(np.abs(w).max()), 1e-12)
            for d in directions:
                dn = float(np.abs(d).max())
                if dn <= 0:
                    continue
                d = d / dn
                t_lo, t_hi = _feasible_interval(w, d)
                t_lo = max(t_lo, -16.0 * scale_w)
                t_hi = min(t_hi, 16.0 * scale_w)
                if t_hi - t_lo <= 1e-16 * scale_w:
                    continue
                # w + t*d stays in the orthant on [t_lo, t_hi]; no projection needed
                t_best, r_best = golden_max_interval(
                    lambda t: ratio(w + t * d)[0],
                    t_lo,
                    t_hi,
                    rel_xtol=_XTOLS[xtol_idx],
                )
                if r_best > r_cur:
                    w = np.maximum(w + t_best * d, 0.0)
                    r_cur = r_best
                    m = float(np.abs(w).max())
                    if m > 0:
                        w = w / m
                        scale_w = 1.0
            if r_cur - r_pass <= 1e-12 * max(1.0, abs(r_cur)):
                # a stalled pass at full precision is converged; a stalled
                # coarse pass jumps straight to full precision
                if xtol_idx == len(_XTOLS) - 1:
                    local_converged = True
                    break
                xtol_idx = len(_XTOLS) - 1
            else:
                xtol_idx = min(xtol_idx + 1, len(_XTOLS) - 1)
        if r_cur > overall_r:
            overall_r, overall_w = r_cur, w
        converged = converged or local_converged

    nrm = norm_fn(overall_w)
    if nrm <= 0.0 or math.isinf(nrm):
        return MaximizeResult(0.0, np.zeros(n), False, evals)
    x = overall_w / nrm
    return MaximizeResult(float(np.dot(c, x)), x, converged, evals)


def _pivot(tab: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    tab[r] /= tab[r, j]
    col = tab[:, j].copy()
    col[r] = 0.0
    tab -= np.outer(col, tab[r])
    basis[r] = j


def _min_ratio(cands: np.ndarray, num: np.ndarray, den: np.ndarray) -> int:
    """The candidate with the smallest num/den; ties go to the largest den."""
    ratios = num / den
    tied = ratios <= ratios.min() * (1.0 + 1e-12)
    return int(cands[tied][np.argmax(den[tied])])


def _primal_simplex(tab: np.ndarray, basis: np.ndarray) -> bool:
    """Primal pivots to optimality from a feasible basis (nonnegative rhs).

    Bland's rule picks the entering column, min-ratio ties go to the largest
    pivot element, pivots up to _PIVOT_TOL times the largest entry of their
    column are refused (a light atom's column is small, not a ray), and
    rounding never leaves a negative right-hand side.  Returns False when
    _PIVOTS_PER_ROW pivots per row run out before the optimum.  Raises
    ValueError when the LP is unbounded, which happens only for a seminorm
    that vanishes along a direction with positive pairing.
    """
    m = basis.size
    for _ in range(_PIVOTS_PER_ROW * m):
        entering = np.flatnonzero(tab[m, :-1] < -_COST_TOL)
        if entering.size == 0:
            return True
        j = int(entering[0])
        rows = np.flatnonzero(tab[:m, j] > _PIVOT_TOL * np.abs(tab[:m, j]).max())
        if rows.size == 0:
            raise ValueError(_VANISHING)
        _pivot(tab, basis, _min_ratio(rows, tab[rows, -1], tab[rows, j]), j)
        np.maximum(tab[:m, -1], 0.0, out=tab[:m, -1])
    return False


def _dual_simplex(tab: np.ndarray, basis: np.ndarray) -> bool:
    """Dual pivots from an optimal basis that a new cut made infeasible.

    The most negative right-hand side leaves; the entering column keeps the
    reduced costs nonnegative (min ratio, ties to the largest pivot).
    Returns False when no pivot is usable or the budget runs out.
    """
    m = basis.size
    for _ in range(_PIVOTS_PER_ROW * m):
        r = int(np.argmin(tab[:m, -1]))
        if tab[r, -1] >= -1e-12:
            np.maximum(tab[:m, -1], 0.0, out=tab[:m, -1])
            return True
        cols = np.flatnonzero(tab[r, :-1] < -_PIVOT_TOL)
        if cols.size == 0:
            return False
        _pivot(tab, basis, r, _min_ratio(cols, np.maximum(tab[m, cols], 0.0), -tab[r, cols]))
    return False


def _tableau(f: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max f.d subject to a @ d <= 1, d >= 0, with one slack per row.

    The origin is a feasible basis because every right-hand side is 1, so
    no phase 1 is needed.  The last row holds the reduced costs.
    """
    m, n = a.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[m, :n] = -f
    return tab, np.arange(n, n + m)


def _refactor(f: np.ndarray, a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The tableau of this basis computed afresh from the data, which clears
    the rounding that pivots accumulate."""
    m, n = a.shape
    full = np.hstack([a, np.eye(m), np.ones((m, 1))])
    cost = np.concatenate([f, np.zeros(m + 1)])
    rows = np.linalg.solve(full[:, basis], full)
    tab = np.vstack([rows, cost[basis] @ rows - cost])
    np.maximum(tab[:m, -1], 0.0, out=tab[:m, -1])
    return tab


def _add_cut(tab: np.ndarray, basis: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Append the row g.d <= 1 with its own slack, written in the current basis."""
    m, width = basis.size, tab.shape[1]
    out = np.zeros((m + 2, width + 1))
    out[:m, : width - 1] = tab[:m, :-1]
    out[:m, -1] = tab[:m, -1]
    out[m + 1, : width - 1] = tab[m, :-1]
    out[m + 1, -1] = tab[m, -1]
    row = np.zeros(width + 1)
    row[: g.size] = g
    row[width - 1] = 1.0
    row[-1] = 1.0
    out[m] = row - row[basis] @ out[:m]
    return out, np.append(basis, width - 1)


def _lp_point(tab: np.ndarray, basis: np.ndarray, f: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
    """The primal point of the basis, and an upper bound on the LP value.

    The bound comes from the dual: the slack columns of the last row hold
    multipliers y.  For any y >= 0 and any feasible d, f.d = (f - a^T y).d
    + y.(a d) <= sum(y) + sum_j max(0, f_j - (a^T y)_j) / max_i a_ij,
    because each d_j <= 1 / max_i a_ij, and f.d <= k * sum(y) for k >= 1
    with f <= k * a^T y, the tighter one where only rounding leaves y short.
    So the bound holds even when the pivots were inexact, and rounding in y
    only adds its own size to it.
    """
    m, n = a.shape
    x = np.zeros(tab.shape[1] - 1)
    x[basis] = tab[:m, -1]
    y = np.maximum(tab[m, n : n + m], 0.0)
    ay = a.T @ y
    over = f > ay
    total = float(y.sum())
    bound = total * float(np.max(f[over] / ay[over], initial=1.0)) if np.all(ay[over] > 0.0) else _INF
    reach = a.max(axis=0)[over]
    if np.all(reach > 0.0):
        bound = min(bound, total + float(np.sum((f - ay)[over] / reach)))
    return x[:n], bound


def maximize_linear_on_polytope(
    c: np.ndarray,
    facet_fn: Callable[[np.ndarray], np.ndarray | None],
    *,
    monotone: bool,
) -> MaximizeResult | None:
    """Maximize <c, w> over {w in cone : rho(w) <= 1} for a polyhedral ball.

    facet_fn(a) returns, for a >= 0, a vector g >= 0 with g.a = rho(a) and
    g.x <= rho(x) for every x >= 0, or None when the seminorm has no such
    pieces (then this returns None).  Kelley's cutting-plane method (1960)
    maximizes over {w : g.w <= 1 for the cuts so far}, a relaxation of the
    ball, so each LP value bounds the maximum from above.  The facet g at
    the LP point w, the one oracle call per point, gives rho(w) = g.w: the
    point w / g.w bounds the maximum from below, it is as feasible as g is
    tight, and g cuts w off unless g.w <= 1, until the two bounds meet.
    When the g come from a finite set this stops at the exact optimum;
    otherwise the bounds converge, and the width at the stop is reported.

    c >= 0.  cone is the nonnegative orthant, or with ``monotone`` the
    nonincreasing cone, written as w_i = sum_{j >= i} d_j over increments
    d >= 0 so that it is again an orthant.  The first cuts are the facets at
    the n unit vectors of d (the prefix indicators with ``monotone``), so
    the first LP is bounded.  Each later LP starts from the previous optimal
    basis (dual simplex on the new row).  c is divided by max(c), so the
    stopping width does not depend on its scale.  Stops when the certified
    bound is within _KELLEY_GAP of the best value; after _KELLEY_ITERS cuts,
    when a simplex solve runs out of pivots, or when rounding leaves a gap
    that no new cut closes, the result says converged=False.  Its bound
    stays certified.  n_evals counts facet_fn calls: n, then one per point.
    """
    n = c.size
    scale = float(c.max())
    f = c / scale
    starts = np.tri(n) if monotone else np.eye(n)
    first = facet_fn(starts[0])
    if first is None:
        return None
    a = np.array([first] + [facet_fn(w) for w in starts[1:]])
    if monotone:
        f, a = np.cumsum(f), np.cumsum(a, axis=1)
    held = {g.tobytes() for g in a}
    tab, basis = _tableau(f, a)
    optimal = _primal_simplex(tab, basis)
    evals = n
    best_val, best_x, upper = -_INF, np.zeros(n), _INF
    converged = False
    fresh = False  # whether the tableau was solved afresh from the data since the last cut
    for _ in range(_KELLEY_ITERS):
        d, bound = _lp_point(tab, basis, f, a)
        upper = min(upper, bound)
        w = np.cumsum(d[::-1])[::-1] if monotone else d
        g = np.cumsum(facet_fn(w)) if monotone else facet_fn(w)
        evals += 1
        nrm = float(np.dot(g, d))  # rho(w), from the facet at w
        if nrm <= 0.0:
            raise ValueError(_VANISHING)
        x = w / nrm
        val = float(np.dot(c, x))
        if val > best_val:
            best_val, best_x = val, x
        if upper * scale - best_val <= _KELLEY_GAP * upper * scale:
            converged = True
            break
        if not optimal:
            break  # the pivots ran out short of the LP optimum: stop, do not cut
        if nrm <= 1.0 + 1e-12 or g.tobytes() in held:
            # no new cut separates the LP point (a held one is only broken by
            # rounding), so only rounding in the tableau keeps the bound
            # loose: solve afresh once, then give up
            if fresh:
                break
            tab = _refactor(f, a, basis)
            optimal = _primal_simplex(tab, basis)
            fresh = True
            upper = min(upper, _lp_point(tab, basis, f, a)[1])
            if upper * scale - best_val <= _KELLEY_GAP * upper * scale:
                converged = True
                break
            continue
        a = np.vstack([a, g])
        held.add(g.tobytes())
        # the old optimum stays dual feasible after a new row
        tab, basis = _add_cut(tab, basis, g)
        if not _dual_simplex(tab, basis):
            tab, basis = _tableau(f, a)
        optimal = _primal_simplex(tab, basis)
        fresh = False
    return MaximizeResult(best_val, best_x, converged, evals, max(upper * scale * _ROUND_UP, best_val))


@dataclass(frozen=True, eq=False)
class SmoothModular:
    """Per-atom Young functions with an invertible derivative, of one shape:

    - "power": Phi_i(w) = scale_i * w**rate_i, with rate_i > 1;
    - "exp":   Phi_i(w) = scale_i * (exp(rate_i * w) - 1).

    Every method acts atomwise on arrays with one entry per atom.
    """

    kind: str
    scale: np.ndarray
    rate: np.ndarray

    def phi(self, w: np.ndarray) -> np.ndarray:
        return self.scale * (w**self.rate if self.kind == "power" else np.expm1(self.rate * w))

    def phi_inv(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return (u / self.scale) ** (1.0 / self.rate)
        return np.log1p(u / self.scale) / self.rate

    def dphi(self, w: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            return self.scale * self.rate * w ** (self.rate - 1.0)
        return self.scale * self.rate * np.exp(self.rate * w)

    def dphi_inv(self, t: np.ndarray) -> np.ndarray:
        """(Phi_i')^-1(t) for t >= 0, and 0 where t <= Phi_i'(0)."""
        x = t / (self.scale * self.rate)
        if self.kind == "power":
            return x ** (1.0 / (self.rate - 1.0))
        return np.log(np.maximum(x, 1.0)) / self.rate

    def dphi_inv_dlog(self, w: np.ndarray) -> np.ndarray:
        """t times the derivative of (Phi_i')^-1 at t, for w = (Phi_i')^-1(t)."""
        return w / (self.rate - 1.0) if self.kind == "power" else np.where(w > 0.0, 1.0 / self.rate, 0.0)

    def phi_star(self, t: np.ndarray) -> np.ndarray:
        """The conjugate sup_w (t w - Phi_i(w)) for t >= 0."""
        x = t / (self.scale * self.rate)
        if self.kind == "power":
            return self.scale * (self.rate - 1.0) * x ** (self.rate / (self.rate - 1.0))
        # x log x - x + 1 at x = 1 + d, with log1p: near x = 1 the terms
        # cancel to d**2 / 2, and scale can be as large as 1/theta
        d = np.maximum(x, 1.0) - 1.0
        return self.scale * ((1.0 + d) * np.log1p(d) - d)


def amemiya_multiplier(
    a: np.ndarray, probs: np.ndarray, modular: SmoothModular
) -> tuple[float, float]:
    """(mu, L(mu)) at the multiplier mu of the modular ball, for a >= 0;
    mu is that of a / max(a), which does not underflow at any scale of a.

    The ball is {w >= 0 : sum_i probs_i Phi_i(w_i) <= 1}.  With
    w_i(mu) = (Phi_i')^-1(a_i / mu), the maximizer of E[a w] - mu * modular,
    weak duality bounds sup{E[a w] : w in the ball} by the Amemiya expression
    L(mu) = mu * (1 + sum_i probs_i Phi_i*(a_i / mu)) at every mu > 0, and
    the minimum over mu, the Amemiya norm of a, attains it (Rockafellar
    1970, section 28; Hudzik and Maligranda 2000).

    mu is the root, in s = 1/mu, of sum_i probs_i Phi_i(w_i(1/s)) = 1, whose
    left side is increasing and convex.  For powers it is a power gauge in
    the conjugate exponents r/(r - 1); for the exp shape it is piecewise
    linear, and Newton from above stops on its exact root.  a is divided by
    max(a), so the root does not depend on the scale of a.  L(mu) is a
    bound at any mu, and it is rounded up so that it stays one under
    rounding.  (0, 0) when a is zero.
    """
    scale = float(a.max())
    if scale <= 0.0:
        return 0.0, 0.0
    a = a / scale
    if modular.kind == "power":
        k, r = modular.scale, modular.rate
        q = r / (r - 1.0)
        # probs * Phi(w(a s)) = probs * k * (k r)**-q * (a s)**q
        mu = _power_gauge(a, probs * k * (k * r) ** -q, q)
    else:
        # probs * Phi(w(a s)) = probs * max(a s / rate - scale, 0)
        slope = a / modular.rate
        top = int(np.argmax(a))
        mu = newton_gauge(
            lambda s: float(np.dot(probs, np.maximum(slope * s - modular.scale, 0.0))) - 1.0,
            lambda s: max(float(np.dot(probs, np.where(slope * s > modular.scale, slope, 0.0))), 1e-300),
            modular.rate[top] * (modular.scale[top] + 1.0 / probs[top]),
        )
    amemiya = mu * (1.0 + float(np.dot(probs, modular.phi_star(a / mu))))
    return mu, scale * amemiya * _ROUND_UP


def maximize_linear_on_modular_ball(
    a: np.ndarray,
    probs: np.ndarray,
    modular: SmoothModular,
    norm_fn: Callable[[np.ndarray], float],
) -> MaximizeResult:
    """Maximize sum_i probs_i a_i w_i over {w >= 0 : norm_fn(w) <= 1}.

    The ball must be the modular set {w >= 0 : sum_i probs_i Phi_i(w_i) <= 1},
    and a >= 0 not all zero.  amemiya_multiplier gives the multiplier mu of
    a / max(a) and the bound upper = L(mu), attained by
    w = (Phi')^-1(a / (max(a) mu)).  The value is the pairing of
    x = w / norm_fn(w), divided by 1 + _GAUGE_REL when x lies outside the
    ball (a Newton gauge may sit up to _GAUGE_REL below the norm; a
    bisection gauge returns the upper end of its bracket), so it is a
    feasible lower bound.
    n_evals counts seminorm evaluations.
    """
    mu, upper = amemiya_multiplier(a, probs, modular)
    w = modular.dphi_inv(a / float(a.max()) / mu)
    x = w / norm_fn(w)
    if float(np.dot(probs, modular.phi(x))) > 1.0:
        x = x / (1.0 + _GAUGE_REL)
    value = float(np.dot(probs * a, x))
    return MaximizeResult(value, x, True, 1, max(upper, value))


@dataclass(frozen=True, eq=False)
class GenOrliczDualResult:
    """value <= sum form <= value_upper and max_form <= max form <=
    max_form_upper; x attains value, v is the dual density of the upper
    ends; n_evals counts cut calls at master points, whose g.u gives r there
    (so the cut's tightness places x), n_cuts the start cuts plus the cuts
    added; stop is "gap", "no-cut" (the master's floor), "budget" or "zero"."""

    value: float
    value_upper: float
    max_form: float
    max_form_upper: float
    x: np.ndarray
    v: np.ndarray
    n_evals: int
    n_cuts: int
    stop: str

    @property
    def converged(self) -> bool:
        return self.stop in ("gap", "zero")


def _cut_master(a, cuts, lam, c, modular: SmoothModular) -> tuple[np.ndarray, float]:
    """(lam, D(lam)) at the minimum over lam >= 0 of the convex D(lam) =
    c sum(lam) + sum_i s_i Phi_i*(a_i / s_i), s = lam @ cuts: the dual of max
    a.x over {x >= 0 : cuts @ Phi(x) <= c}.  One log-log Newton step scales
    lam (exact for powers); then Newton steps on the free multipliers are
    projected onto lam >= 0 and damped in the Levenberg-Marquardt way, which
    keeps them sound when the Hessian is singular.
    """
    pos = a > 0.0

    def at(lam: np.ndarray):
        """D(lam), x = (Phi')^-1(a / s) and the Hessian weights h."""
        s = lam @ cuts
        if np.any(s[pos] <= 0.0):
            return _INF, s, s
        t = np.divide(a, s, out=np.zeros_like(a), where=pos)
        x = modular.dphi_inv(t)
        h = np.divide(t * modular.dphi_inv_dlog(x), s, out=np.zeros_like(a), where=pos)
        return c * lam.sum() + float(s @ modular.phi_star(t)), x, h

    value, x, h = at(lam)
    s = lam @ cuts
    pushed = float(s @ modular.phi(x))
    if pushed > 0.0:
        lam = lam * math.exp(math.log(pushed / (c * lam.sum())) * pushed / float(h @ (s * s)))
        value, x, h = at(lam)
    nu = 1e-12
    for _ in range(_CUT_ITERS):
        grad = c - cuts @ modular.phi(x)
        free = (lam > 0.0) | (grad < 0.0)
        if np.all(np.abs(grad[free]) <= 1e-13 * c):
            break
        rows = cuts[free]
        hess = (rows * h) @ rows.T
        damp = np.trace(hess) / len(rows) + np.linalg.norm(grad[free]) / max(np.linalg.norm(lam[free]), 1e-300)
        while nu < 1e6:
            step = np.linalg.solve(hess + nu * damp * np.eye(len(rows)), -grad[free])
            new = lam.copy()
            new[free] = np.maximum(lam[free] + step, 0.0)
            trial = at(new)
            if trial[0] <= value + 1e-4 * float(grad @ (new - lam)) + 4e-16 * abs(value):
                break
            nu *= 100.0
        else:
            break
        lam, (value, x, h), nu = new, trial, max(nu / 10.0, 1e-15)
    return lam, value


def gen_orlicz_dual_brackets(z, probs, modular: SmoothModular, cut_fn) -> GenOrliczDualResult | None:
    """Both forms of the generalized Orlicz dual at z >= 0, bracketed.

    With a = probs * z and P(c) = sup{a.x : x >= 0, r(Phi(x)) <= c}, the sum
    form is P(1) and the max form sup_c P(c) / (1 + c).  Kelley cuts g from
    cut_fn (g >= 0, g.u = r(u) and g <= r on the orthant; None: no cuts, and
    this returns None) relax the ball.  Any master multiplier lam bounds P(c)
    by D(lam) and the max form by max(sum(lam), D(lam) - c sum(lam)) (Young);
    the master point scaled onto the ball in u = Phi(x), and a.x / (1 +
    r(Phi(x))), give the lower ends, where r(u) = g.u for the cut g at u: r
    is never called, and the lower ends are as exact as g is tight.
    Polyhedral r has finitely many cuts, so the loop stops at the optimum.
    The max form sits where sum(lam) = D(lam) - c sum(lam); secant steps in
    log c find it, every solve keeping the cuts.
    """
    n = z.size
    scale = float(z.max())
    if scale <= 0.0:
        return GenOrliczDualResult(0.0, 0.0, 0.0, 0.0, np.zeros(n), np.zeros(n), 0, 0, "zero")
    a = probs * (z / scale)
    starts = [cut_fn(e) for e in np.eye(n)[a > 0.0]]
    if starts[0] is None:
        return None
    cuts = np.unique(np.array(starts), axis=0)
    lam = np.ones(len(cuts))
    n_evals, n_cuts = 0, len(starts)

    def solve(c: float):
        """P(c): stop, master point x, r(Phi(x)), feasible point and value, D."""
        nonlocal cuts, lam, n_evals, n_cuts
        for _ in range(_CUT_ITERS):
            lam, dual = _cut_master(a, cuts, lam, c, modular)
            x = modular.dphi_inv(np.divide(a, lam @ cuts, out=np.zeros(n), where=a > 0.0))
            u = modular.phi(x)
            g = cut_fn(u)
            rho = float(g @ u)  # r(u), from the cut at u
            n_evals += 1
            feasible = modular.phi_inv(u * (c / rho)) if rho > c else x
            lower = float(a @ feasible)
            if dual * _ROUND_UP - lower <= _KELLEY_GAP * dual:
                return "gap", x, rho, feasible, lower, dual
            if rho <= c * (1.0 + 1e-13):
                return "no-cut", x, rho, feasible, lower, dual
            cuts, lam = np.vstack([cuts, g]), np.append(lam, 0.0)
            n_cuts += 1
        return "budget", x, rho, feasible, lower, dual

    stop, x, rho, witness, lower, dual = solve(1.0)
    upper, last, ell, prev, max_lo, max_up = dual * _ROUND_UP, stop, 0.0, None, -_INF, _INF
    for _ in range(_CUT_ITERS):
        total = float(lam.sum())
        rest = dual - math.exp(ell) * total
        max_lo = max(max_lo, float(a @ x) / (1.0 + rho))
        max_up = min(max_up, max(total, rest) * _ROUND_UP)
        if max_up - max_lo <= _KELLEY_GAP * max_up or rest <= 0.0:
            break
        # the first step assumes the slope -1 of power Phi, where it is exact
        h = math.log(total / rest)
        step = h if prev is None or prev[1] == h else h * (ell - prev[0]) / (prev[1] - h)
        prev, ell = (ell, h), ell + step
        last, x, rho, _, _, dual = solve(math.exp(ell))
    if stop == "gap" and max_up - max_lo > _KELLEY_GAP * max_up:
        stop = last if last != "gap" else "budget"
    v = scale * (lam @ cuts) / probs
    return GenOrliczDualResult(
        scale * lower, scale * upper, scale * max_lo, scale * max_up, witness, v, n_evals, n_cuts, stop
    )

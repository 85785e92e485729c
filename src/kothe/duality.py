"""Polar (dual) seminorms by direct optimization, plus verification helpers.

The polar of a seminorm at y is the supremum of E[u*y] over the unit ball.
It is computed here without closed forms, after a comonotone reduction for
rearrangement-invariant seminorms on uniform spaces, by the first route that
applies:

- Kelley cutting planes on the analytic facets of the polyhedral families;
- one Lagrange multiplier for the modular balls (Lp with 1 < p < inf,
  Luxemburg over power or exp families, the entropic risk norm), and the
  primal norm for their dual, the Amemiya norm;
- cutting planes on the inner ball for generalized Orlicz norms;
- projected-subgradient ascent with line searches over the orthant for the
  rest (custom seminorms and risk measures, tabulated, indicator and linear
  Young functions, the entropic risk norm past theta = 500, the numeric
  dual of ``verify_bipolar``).

All but the last are exact and carry a certified upper bound.  Closed-form
duals, where registered, only provide certificates (the ``gap`` field),
never the returned value.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from ._optim import (
    _ROUND_UP,
    MaximizeResult,
    amemiya_multiplier,
    maximize_linear_on_ball,
    maximize_linear_on_modular_ball,
    maximize_linear_on_polytope,
    prefix_indicators,
)
from .norms import (
    CustomSeminorm,
    GenOrliczNorm,
    LorentzNorm,
    LpNorm,
    LuxemburgNorm,
    MarcinkiewiczNorm,
    RiskNorm,
    Seminorm,
    _conjugate_exponent,
    check_axioms,
    gen_orlicz_dual_norm,
)
from .risk import (
    RiskMeasureSpec,
    _avar_dual_facet,
    _avar_dual_gauge_exact,
    _dual_inf_form,
    penalty_gauge,
)
from .space import DEFAULT_TOL, FiniteProbSpace, Rv, Tolerances, _check_on_space, pairing
from .young import MusielakFamily

__all__ = [
    "PolarResult",
    "polar",
    "dual_spec_of",
    "verify_holder",
    "BipolarReport",
    "verify_bipolar",
    "SandwichReport",
    "verify_sandwich",
    "rho_m",
    "SingularPartReport",
    "singular_part_report",
]

_INF = math.inf


@dataclass(frozen=True, eq=False)
class PolarResult:
    """Value and witness of the polar supremum.

    The maximizer is feasible (seminorm at most 1 + 1e-9) and attains the
    value.  gap is the shortfall against a registered closed form, and 0.0
    both when the closed form confirms the value and when there is none, so
    it alone does not tell a certified value from an uncertified one.  upper
    does: it is a certified upper bound on the polar (the final cutting-plane
    LP value for polyhedral unit balls, the Amemiya bound at the multiplier
    for modular balls, the Luxemburg gauge for the Amemiya dual norm, the
    dual value of the last master for generalized Orlicz norms).  It is None
    only on the uncertified line-search fallback.
    """

    value: float
    maximizer: Rv
    method: str
    gap: float
    converged: bool
    upper: float | None = None


# atom-probability keys of the spaces each seminorm has passed the spot check on
_SPOT_CACHE: "weakref.WeakKeyDictionary[Seminorm, set[bytes]]" = weakref.WeakKeyDictionary()


def _spot_check(space: FiniteProbSpace, spec: Seminorm) -> None:
    """Cheap randomized screen: symmetry, homogeneity, subadditivity and
    monotonicity under domination (the solidity axiom) must hold before the
    sign and rearrangement reductions below are valid."""
    done = _SPOT_CACHE.get(spec)
    key = space.probs.tobytes()
    if done is not None and key in done:
        return
    report = check_axioms(space, spec, trials=5, seed=417)
    needed = {"nonnegative", "symmetry", "homogeneity", "subadditivity", "solid_monotone"}
    bad = [i.name for i in report.items if i.name in needed and not i.passed]
    if bad:
        raise ValueError(f"seminorm fails the axiom spot check: {bad}")
    _SPOT_CACHE.setdefault(spec, set()).add(key)


def polar(
    space: FiniteProbSpace,
    spec: Seminorm,
    y: Rv,
    *,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    strategy: str = "auto",
    enumerate_full: bool | None = None,
    axiom_check: bool = True,
    n_random_starts: int | None = None,
    subgrad_iters: int | None = None,
    max_passes: int | None = None,
) -> PolarResult:
    """sup{E[u*y] : seminorm(u) <= 1} by direct optimization.

    By solidity and symmetry the optimal u has u_i * y_i >= 0 and depends on
    y only through |y|, so the search runs over the nonnegative orthant; on
    uniform spaces with a rearrangement-invariant spec it runs on |y| sorted
    down, and the cutting planes restrict to nonincreasing profiles.  Specs
    with a ``linear_piece_arr`` (L1, Linf, Marcinkiewicz, Lorentz, the avar
    risk norm and the avar dual gauge) are solved exactly by Kelley cutting
    planes, specs with a ``smooth_modular`` (Lp, power and exp Luxemburg,
    the entropic risk norm) and their Amemiya dual norms exactly by one
    Lagrange multiplier, generalized Orlicz norms by cutting planes on their
    inner seminorm.  The rest go to the uncertified orthant line search;
    the budget parameters act on it alone and default to its own.
    ``enumerate_full`` re-evaluates the seminorm on every signed permutation
    of the best profile (small spaces only); by default a permutation sweep
    without re-evaluation confirms uncertified results for invariant specs
    on up to six atoms.
    """
    _check_on_space(space, y, "y")
    if axiom_check:
        _spot_check(space, spec)
    n = space.n_atoms
    z = y.values
    if not np.any(z != 0.0):
        return PolarResult(0.0, Rv.zero(n), "exact-comonotone", 0.0, True, 0.0)

    def norm_fn(w: np.ndarray) -> float:
        return spec._value_arr(space, w, tol)

    def facet_fn(w: np.ndarray) -> np.ndarray | None:
        return spec.linear_piece_arr(space, w)

    ri_uniform = spec.rearrangement_invariant and space.is_uniform
    if strategy == "comonotone" and not ri_uniform:
        raise ValueError("the comonotone strategy needs an invariant spec on a uniform space")
    use_comonotone = ri_uniform and strategy in ("auto", "comonotone")
    order = np.argsort(-np.abs(z), kind="stable")
    # the comonotone search runs on |y| sorted down, the general one in atom order
    index = order if use_comonotone else np.arange(n)
    c = space.probs[index] * np.abs(z)[index]
    if use_comonotone:
        starts = prefix_indicators(n)
    else:
        # unit vectors bound every variable; the top-k sets of |y| carry the
        # cuts of the greedy vertex, which is optimal for Marcinkiewicz balls
        rank = np.argsort(order)
        starts = list(np.eye(n)) + [h[rank] for h in prefix_indicators(n)]
    res = maximize_linear_on_polytope(c, norm_fn, facet_fn, monotone=use_comonotone, starts=starts)
    if res is None:
        res = _smooth_polar(space, spec, np.abs(z), norm_fn, tol)
        if res is not None:
            res = replace(res, x=res.x[index])
    if res is None:
        budget = {"n_random_starts": n_random_starts, "subgrad_iters": subgrad_iters, "max_passes": max_passes}
        budget = {k: v for k, v in budget.items() if v is not None}
        res = maximize_linear_on_ball(c, norm_fn, rng=np.random.default_rng(seed), **budget)
    profile = res.x
    u_vals = np.empty(n)
    u_vals[index] = profile
    u_vals *= np.sign(z)
    method = "comonotone" if use_comonotone else "subgradient"
    value = res.value

    if enumerate_full and n > 6:
        raise ValueError("full enumeration is limited to six atoms")
    if enumerate_full:
        best = (value, u_vals)
        mags = np.sort(np.abs(profile))[::-1]
        for perm in itertools.permutations(range(n)):
            arranged = mags[list(perm)]
            for signs in itertools.product((-1.0, 1.0), repeat=n):
                cand = arranged * np.asarray(signs)
                if norm_fn(cand) <= 1.0 + 1e-9:
                    val = float(np.dot(space.probs, cand * z))
                    if val > best[0]:
                        best = (val, cand)
                        method = "enumeration"
        value, u_vals = best
    elif ri_uniform and n <= 6 and res.upper is None:
        # invariance makes every rearrangement of the profile feasible; the
        # comonotone one should win, and this confirms uncertified results
        # on small spaces (a certified one has nothing left to confirm)
        mags = np.abs(profile)
        coeff = space.probs * np.abs(z)
        best_val = value
        for perm in itertools.permutations(range(n)):
            val = float(np.dot(coeff, mags[list(perm)]))
            if val > best_val + 1e-15:
                best_val = val
                u_vals = np.sign(z) * mags[list(perm)]
                method = "enumeration"
        value = max(value, best_val)

    closed = spec.dual_value_arr(space, z, tol)
    gap = max(0.0, closed - value) if closed is not None else 0.0
    upper = None if res.upper is None else max(res.upper, value)
    return PolarResult(value, Rv(u_vals), method, gap, res.converged, upper)


def _smooth_polar(
    space: FiniteProbSpace, spec: Seminorm, a: np.ndarray, norm_fn, tol: Tolerances
) -> MaximizeResult | None:
    """The exact polar at |y| = a, in atom order, for modular unit balls, the
    Amemiya dual norm and generalized Orlicz norms; None for other specs."""
    if isinstance(spec, GenOrliczNorm):
        found = spec.dual_brackets(space, a, tol)
        if found is None:
            return None
        return MaximizeResult(found.value, found.x, found.converged, found.n_evals, found.value_upper)
    if isinstance(spec, _AmemiyaDualNorm):
        found = spec.polar_witness(space, a, tol)
        if found is None:
            return None
        w, lam = found
        x = w / norm_fn(w)
        upper = lam * (1.0 + tol.gauge_rel) * _ROUND_UP
        return MaximizeResult(float(np.dot(space.probs * a, x)), x, True, 1, upper)
    modular = spec.smooth_modular(space)
    if modular is None:
        return None
    return maximize_linear_on_modular_ball(a, space.probs, modular, norm_fn, tol.gauge_rel)


class _AvarDualNorm(Seminorm):
    """The dual norm of the avar(t) risk norm: max over atom sets S of
    t * E[|z| 1_S] / min(P(S), t), a polyhedral gauge whose facets are
    those set bounds."""

    rearrangement_invariant = True
    name = "risk-dual"

    def __init__(self, level: float):
        self.level = level

    def _value_arr(self, space, x, tol):
        return _avar_dual_gauge_exact(space.probs, x, self.level)

    def linear_piece_arr(self, space, a):
        return _avar_dual_facet(space.probs, a, self.level)


class _AmemiyaDualNorm(Seminorm):
    """The dual norm of a seminorm whose unit ball is a modular set
    {E Phi(|x|) <= 1}: a Luxemburg norm, or the entropic risk norm.  It is
    the Amemiya (Orlicz) norm inf_b b * (1 + E Phi*(|x|/b)); its own polar is
    that primal seminorm, and Young's equality supplies the witness."""

    name = "amemiya-dual"

    def __init__(self, primal: LuxemburgNorm | RiskNorm):
        self.primal = primal
        self.rearrangement_invariant = primal.rearrangement_invariant

    def _value_arr(self, space, x, tol):
        modular = self.primal.smooth_modular(space)
        if modular is None:
            # a Young family without a closed-form Phi': its golden route
            return self.primal.dual_value_arr(space, x, tol)
        return amemiya_multiplier(np.abs(x), space.probs, modular, tol.gauge_rel)[1]

    def polar_witness(
        self, space: FiniteProbSpace, a: np.ndarray, tol: Tolerances
    ) -> tuple[np.ndarray, float] | None:
        """(w, lam) for a >= 0: lam is the primal norm of a, and
        w = Phi'(a / lam) attains it, <p a, w> = lam * (this norm of w).

        With v = a / lam, E Phi(v) = 1, and b = 1 in the Amemiya infimum at w
        gives E Phi*(Phi'(v)) + 1 = E[v Phi'(v)], its minimum, so the ratio
        is lam.  None when Phi' has no closed form here.
        """
        modular = self.primal.smooth_modular(space)
        if modular is None:
            return None
        lam = self.primal._value_arr(space, a, tol)
        v = a / lam
        return np.where(v > 0.0, modular.dphi(v), 0.0), lam


def dual_spec_of(space: FiniteProbSpace, spec: Seminorm) -> Seminorm | None:
    """A seminorm object evaluating the closed-form polar of spec, if known.

    None for custom seminorms and risk measures, for the generalized Orlicz
    norms, for Lorentz norms off uniform spaces and for the entropic risk
    norm past theta = 500, which has no modular form.
    """
    if isinstance(spec, LpNorm):
        return LpNorm(_conjugate_exponent(spec.p))
    if isinstance(spec, MarcinkiewiczNorm):
        return LorentzNorm(spec.phi)
    if isinstance(spec, LorentzNorm) and space.is_uniform:
        return MarcinkiewiczNorm(spec.phi)
    if isinstance(spec, RiskNorm) and spec.rho.kind == "avar":
        return _AvarDualNorm(spec.rho.level)
    if isinstance(spec, LuxemburgNorm) or (
        isinstance(spec, RiskNorm) and spec.smooth_modular(space) is not None
    ):
        return _AmemiyaDualNorm(spec)
    return None


def verify_holder(
    space: FiniteProbSpace,
    spec: Seminorm,
    u: Rv,
    y: Rv,
    *,
    slack: float = 1e-8,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> bool:
    """Check E[u*y] <= seminorm(u) * polar(y) + slack."""
    lhs = pairing(space, u, y)
    rhs = spec.value(space, u, tol=tol) * polar(space, spec, y, seed=seed, tol=tol).value
    return lhs <= rhs + slack


@dataclass(frozen=True, eq=False)
class BipolarReport:
    primal: float
    bipolar: float
    rel_gap: float
    converged: bool


def verify_bipolar(
    space: FiniteProbSpace,
    spec: Seminorm,
    u: Rv,
    *,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> BipolarReport:
    """Round-trip the polar: sup{E[u*y] : polar-value(y) <= 1} vs seminorm(u).

    The dual unit ball is gauged by the registered closed form when one
    exists; otherwise every feasibility test runs the inner polar optimizer.
    """
    dual = dual_spec_of(space, spec)
    if dual is None:
        # every outer feasibility probe runs an inner polar, so the inner
        # optimizer gets a reduced budget to keep the nesting tractable
        dual = CustomSeminorm(
            lambda sp, x: polar(
                sp,
                spec,
                Rv(x),
                seed=seed,
                tol=tol,
                axiom_check=False,
                n_random_starts=2,
                subgrad_iters=10,
                max_passes=5,
            ).value,
            rearrangement_invariant=spec.rearrangement_invariant,
            name="numeric-dual",
        )
    res = polar(space, dual, u, seed=seed, tol=tol)
    primal = spec.value(space, u, tol=tol)
    rel_gap = abs(res.value - primal) / max(abs(primal), 1e-30)
    if primal == 0.0 and res.value == 0.0:
        rel_gap = 0.0
    return BipolarReport(primal, res.value, rel_gap, res.converged)


@dataclass(frozen=True, eq=False)
class SandwichReport:
    lower: float   # the conjugate-gauge norm of y
    value: float   # the dual norm of y
    ratio: float
    ok: bool
    slack: float


def verify_sandwich(
    space: FiniteProbSpace,
    hspec,
    y: Rv,
    *,
    slack: float = 1e-6,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> SandwichReport:
    """Check gauge <= dual norm <= 2 * gauge for the Luxemburg-type pairs.

    hspec may be a MusielakFamily (Orlicz dual norm against the conjugate
    Luxemburg gauge), a RiskMeasureSpec (infimal dual form against the
    penalty gauge) or a GenOrliczNorm (sum form against the max form).
    """
    _check_on_space(space, y, "y")
    if isinstance(hspec, MusielakFamily):
        from .norms import amemiya_dual_norm, luxemburg_norm

        lower = luxemburg_norm(space, y, hspec.conjugate(), tol=tol)
        value = amemiya_dual_norm(space, y, hspec, tol=tol)
    elif isinstance(hspec, RiskMeasureSpec):
        lower = penalty_gauge(space, hspec, y, seed=seed)
        _, value = _dual_inf_form(space, hspec, np.abs(y.values), seed=seed)
    elif isinstance(hspec, GenOrliczNorm):
        res = gen_orlicz_dual_norm(space, y, hspec.phi, hspec.inner, tol=tol)
        lower, value = res.max_form, res.value
    else:
        raise TypeError("hspec must be a MusielakFamily, RiskMeasureSpec or GenOrliczNorm")
    ok = (lower <= value + slack) and (value <= 2.0 * lower + slack)
    ratio = value / lower if lower > 0 else (1.0 if value == 0.0 else _INF)
    return SandwichReport(lower, value, ratio, ok, slack)


def rho_m(space: FiniteProbSpace, u: Rv, y: Rv) -> float:
    """E[|u| * |y|]: the total variation of the pairing against the density y."""
    _check_on_space(space, u, "u")
    _check_on_space(space, y, "y")
    return float(np.dot(space.probs, np.abs(u.values) * np.abs(y.values)))


@dataclass(frozen=True, eq=False)
class SingularPartReport:
    """Every linear functional on a finite space is a density pairing.

    The dual of an n-dimensional space is n-dimensional, so the singular
    summands that can appear over infinite spaces are identically zero here;
    this report verifies the density reconstruction numerically.
    """

    n_functionals: int
    max_error: float
    dual_dimension: int

    @property
    def singular_part_trivial(self) -> bool:
        return True

    def as_dict(self) -> dict:
        return {
            "n_functionals": self.n_functionals,
            "max_error": self.max_error,
            "dual_dimension": self.dual_dimension,
            "singular_part_trivial": self.singular_part_trivial,
        }


def density_of_functional(space: FiniteProbSpace, coeffs: np.ndarray) -> Rv:
    """The density y with sum(coeffs * u) = E[u * y] for every u."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != space.probs.shape:
        raise ValueError("coefficient vector must have one entry per atom")
    return Rv(coeffs / space.probs)


def singular_part_report(
    space: FiniteProbSpace,
    *,
    n_functionals: int = 100,
    n_probes: int = 20,
    seed: int = 0,
) -> SingularPartReport:
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    max_err = 0.0
    for _ in range(n_functionals):
        coeffs = rng.standard_normal(n)
        y = density_of_functional(space, coeffs)
        for _ in range(n_probes):
            u = Rv(rng.standard_normal(n))
            direct = float(np.dot(coeffs, u.values))
            via_density = pairing(space, u, y)
            max_err = max(max_err, abs(direct - via_density))
    return SingularPartReport(n_functionals, max_err, n)

"""Polar (dual) seminorms by direct optimization, plus verification helpers.

The polar of a seminorm at y is the supremum of E[u*y] over the unit ball.
It is computed here without closed forms, after a comonotone reduction for
rearrangement-invariant seminorms, by the first route that applies:

- Kelley cutting planes on the analytic facets of the polyhedral families,
  and on the witnesses of inner polars for the numeric dual that
  ``verify_bipolar`` builds when no closed form is registered;
- one Lagrange multiplier for the modular balls (Lp with 1 < p < inf,
  Luxemburg over power or exp families, the entropic risk norm), and the
  primal norm for their dual, the Amemiya norm;
- cutting planes on the inner ball for generalized Orlicz norms;
- projected-subgradient ascent with line searches over the orthant for the
  rest (custom seminorms and risk measures, tabulated, indicator and linear
  Young functions, the entropic risk norm past theta = 500).

All but the last carry a certified upper bound and, but for the numeric
dual of a seminorm whose unit ball is not a polytope, are exact.
``dual_spec_of`` is the one registry of closed-form duals.  They provide
certificates (the ``gap`` field), the dual ball of ``verify_bipolar`` and
``risk.dual_gauge_exact``, never the returned value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._optim import (
    _GAUGE_REL,
    _ROUND_UP,
    MaximizeResult,
    maximize_linear_on_ball,
    maximize_linear_on_modular_ball,
    maximize_linear_on_polytope,
)
from .norms import (
    GenOrliczNorm,
    LorentzNorm,
    LpNorm,
    LuxemburgNorm,
    MarcinkiewiczNorm,
    RiskNorm,
    Seminorm,
    _AmemiyaDualNorm,
    _conjugate_exponent,
    amemiya_dual_norm,
    check_axioms,
    gen_orlicz_dual_norm,
    luxemburg_norm,
)
from .risk import RiskMeasureSpec, _dual_inf_form, penalty_gauge
from .space import FiniteProbSpace, Rv, _check_on_space, _pow2_scaled, _scale_back, pairing
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
# the slacks of verify_holder's inequality and verify_sandwich's two
_HOLDER_SLACK = 1e-8
_SANDWICH_SLACK = 1e-6


@dataclass(frozen=True, eq=False)
class PolarResult:
    """Value and witness of the polar supremum.

    The maximizer is feasible (seminorm at most 1 + 1e-9) and attains the
    value.  gap is the shortfall max(0, closed - value) against the closed
    form of ``dual_spec_of``, checked for every family with a registered
    dual, and 0.0 for the others, so it alone does not tell a certified
    value from an uncertified one.  upper does: it is a certified upper
    bound on the polar (the final cutting-plane LP value for polyhedral unit
    balls and the numeric dual, the Amemiya bound at the multiplier for
    modular balls, the Luxemburg gauge for the Amemiya dual norm, the dual
    value of the last master for generalized Orlicz norms).  It is None only
    on the uncertified line-search fallback.
    """

    value: float
    maximizer: Rv
    method: str
    gap: float
    converged: bool
    upper: float | None = None


def _spot_check(space: FiniteProbSpace, spec: Seminorm) -> None:
    """Cheap randomized screen: symmetry, homogeneity, subadditivity and
    monotonicity under domination (the solidity axiom) must hold before the
    sign and rearrangement reductions below are valid.  Only specs whose
    axioms a callback decides are screened, the inner seminorm of a
    generalized Orlicz norm first; it only raises."""
    if spec.axioms_by_construction:
        return
    if isinstance(spec, GenOrliczNorm):
        spec._ensure_inner(space)
    report = check_axioms(space, spec, trials=5, seed=417)
    needed = {"nonnegative", "symmetry", "homogeneity", "subadditivity", "solid_monotone"}
    bad = [i.name for i in report.items if i.name in needed and not i.passed]
    if bad:
        raise ValueError(f"seminorm fails the axiom spot check: {bad}")


def polar(space: FiniteProbSpace, spec: Seminorm, y: Rv) -> PolarResult:
    """sup{E[u*y] : seminorm(u) <= 1} by direct optimization.

    By solidity and symmetry the optimal u has u_i * y_i >= 0 and depends on
    y only through |y|, so the search runs over the nonnegative orthant.  A
    rearrangement-invariant spec attains it at a u that decreases as |y|
    does, on any masses (README, "Numerical notes"), so its search runs on
    the atoms relabelled in that order, on nonincreasing profiles.  Specs
    with a ``linear_piece_arr`` (L1, Linf, the Marcinkiewicz and Lorentz
    norms, among them the avar risk norm and its dual, and the numeric dual
    of ``verify_bipolar``) are solved by Kelley cutting planes, specs with a
    ``smooth_modular`` (Lp, power and exp Luxemburg, the entropic risk norm)
    and their Amemiya dual norms exactly by one Lagrange multiplier,
    generalized Orlicz norms by cutting planes on their inner seminorm.  The
    rest go to the uncertified line search, whose random directions come
    from one fixed stream, so equal inputs give equal outputs.  The
    reductions need the axioms, so specs without ``axioms_by_construction``
    first pass ``_spot_check``, on every call.
    """
    _check_on_space(space, y, "y")
    _spot_check(space, spec)
    return _polar(space, spec, y)


def _polar(space: FiniteProbSpace, spec: Seminorm, y: Rv) -> PolarResult:
    """``polar`` without the axiom screen, for a spec already screened."""
    n = space.n_atoms
    z = y.values
    if not np.any(z != 0.0):
        return PolarResult(0.0, Rv.zero(n), "exact-comonotone", 0.0, True, 0.0)

    comonotone = spec.rearrangement_invariant
    order = np.argsort(-np.abs(z), kind="stable")
    index = order if comonotone else np.arange(n)
    work = FiniteProbSpace(space.probs[order]) if comonotone else space
    # the polar is positively homogeneous: solve at |y| * 2**-e, exactly
    # scaled, so that p * |y| does not underflow for subnormal y
    a, e = _pow2_scaled(np.abs(z))
    c = work.probs * a[index]
    res = maximize_linear_on_polytope(c, lambda w: spec.linear_piece_arr(work, w), monotone=comonotone)
    if res is None:
        res = _smooth_polar(space, spec, a)
        if res is not None:
            res = replace(res, x=res.x[index])
    if res is None:
        # its stopping rules are not scale free, so it runs on p * |y| itself
        res = maximize_linear_on_ball(np.ldexp(c, e), lambda w: spec._value_arr(work, w))
        res = replace(res, value=math.ldexp(res.value, -e))
    u_vals = np.empty(n)
    u_vals[index] = res.x
    u_vals *= np.sign(z)
    method = "comonotone" if comonotone else "subgradient"
    value = _scale_back(res.value, e)

    if comonotone and res.upper is None and space.is_uniform:
        # on equal masses invariance makes every rearrangement of the profile
        # feasible, and by the rearrangement inequality the one comonotone
        # with |y| pays most (a certified result has nothing left to improve)
        arranged = np.empty(n)
        arranged[order] = np.sort(np.abs(res.x))[::-1]
        val = float(np.dot(space.probs * np.abs(z), arranged))
        if val > value + 1e-15:
            value, u_vals, method = val, np.sign(z) * arranged, "enumeration"

    dual = dual_spec_of(space, spec)
    gap = max(0.0, dual._value_arr(space, z) - value) if dual is not None else 0.0
    upper = None if res.upper is None else max(math.ldexp(res.upper, e), value)
    return PolarResult(value, Rv(u_vals), method, gap, res.converged, upper)


def _smooth_polar(space: FiniteProbSpace, spec: Seminorm, a: np.ndarray) -> MaximizeResult | None:
    """The exact polar at |y| = a, in atom order, for modular unit balls, the
    Amemiya dual norm and generalized Orlicz norms; None for other specs."""
    if isinstance(spec, GenOrliczNorm):
        found = spec.dual_brackets(space, a)
        if found is None:
            return None
        return MaximizeResult(found.value, found.x, found.converged, found.n_evals, found.value_upper)
    if isinstance(spec, _AmemiyaDualNorm):
        found = spec.polar_witness(space, a)
        if found is None:
            return None
        w, lam = found
        x = w / spec._value_arr(space, w)
        upper = lam * (1.0 + _GAUGE_REL) * _ROUND_UP
        return MaximizeResult(float(np.dot(space.probs * a, x)), x, True, 1, upper)
    modular = spec.smooth_modular(space)
    if modular is None:
        return None
    return maximize_linear_on_modular_ball(a, space.probs, modular, lambda w: spec._value_arr(space, w))


class _PolarNorm(Seminorm):
    """The polar of a seminorm without a registered dual, by ``polar`` itself.

    The maximizer u of the polar at a >= 0 lies in the primal ball, so
    g = p * |u| has g.x <= polar(x) for every x >= 0 and g.a = polar(a): a
    subgradient of the polar (Rockafellar 1970, Cor. 23.5.3) and a Kelley
    cut of its unit ball.  For a polyhedral primal the witnesses are vertices
    of its ball, finitely many, so the round trip is exact.
    """

    name = "numeric-dual"
    axioms_by_construction = True  # verify_bipolar screens the primal before it builds one

    def __init__(self, primal: Seminorm):
        self.primal = primal
        self.rearrangement_invariant = primal.rearrangement_invariant

    def _value_arr(self, space, x):
        return _polar(space, self.primal, Rv(x)).value

    def linear_piece_arr(self, space, a):
        u = _polar(space, self.primal, Rv(a)).maximizer
        return space.probs * np.abs(u.values)


def dual_spec_of(space: FiniteProbSpace, spec: Seminorm) -> Seminorm | None:
    """A seminorm object evaluating the closed-form polar of spec, if known;
    the one registry of closed-form duals.

    Lorentz and Marcinkiewicz norms are each other's duals on every space
    (in x = p * w the Marcinkiewicz ball is the polymatroid x(S) <= phi(P(S)),
    and the Lorentz norm is the Lovasz extension of S -> phi(P(S))), and
    avar(t) is the Lorentz norm of phi_t(s) = min(s, t) / t.  The modular
    balls (Luxemburg, entropic) have the Amemiya norm as dual.  None for
    custom seminorms and risk measures, for the generalized Orlicz norms and
    for the entropic risk norm past theta = 500, which has no modular form.
    """
    if isinstance(spec, LpNorm):
        return LpNorm(_conjugate_exponent(spec.p))
    if isinstance(spec, MarcinkiewiczNorm):
        return LorentzNorm(spec.phi)
    if isinstance(spec, LorentzNorm):
        return MarcinkiewiczNorm(spec.phi)
    if isinstance(spec, RiskNorm) and spec.rho.kind == "avar":
        return MarcinkiewiczNorm(spec.rho._phi)
    if isinstance(spec, LuxemburgNorm) or (
        isinstance(spec, RiskNorm) and spec.smooth_modular(space) is not None
    ):
        return _AmemiyaDualNorm(spec)
    return None


def verify_holder(space: FiniteProbSpace, spec: Seminorm, u: Rv, y: Rv) -> bool:
    """Check E[u*y] <= seminorm(u) * polar(y) + 1e-8."""
    lhs = pairing(space, u, y)
    rhs = polar(space, spec, y).value * spec._value_arr(space, u.values)
    return lhs <= rhs + _HOLDER_SLACK


@dataclass(frozen=True, eq=False)
class BipolarReport:
    primal: float
    bipolar: float
    rel_gap: float
    converged: bool


def verify_bipolar(space: FiniteProbSpace, spec: Seminorm, u: Rv) -> BipolarReport:
    """Round-trip the polar: sup{E[u*y] : polar-value(y) <= 1} vs seminorm(u).

    The dual unit ball is gauged by the closed form of ``dual_spec_of`` when
    there is one; otherwise by ``_PolarNorm``, whose cutting planes are the
    witnesses of inner polars, so the outer polar runs Kelley's method on
    them.  The primal is screened once, here, and not by the inner polars.
    """
    _spot_check(space, spec)
    dual = dual_spec_of(space, spec) or _PolarNorm(spec)
    res = polar(space, dual, u)
    primal = spec._value_arr(space, u.values)
    rel_gap = abs(res.value - primal) / max(abs(primal), 1e-30)
    return BipolarReport(primal, res.value, rel_gap, res.converged)


@dataclass(frozen=True, eq=False)
class SandwichReport:
    lower: float   # the conjugate-gauge norm of y
    value: float   # the dual norm of y
    ratio: float
    ok: bool


def verify_sandwich(space: FiniteProbSpace, hspec, y: Rv) -> SandwichReport:
    """Check gauge <= dual norm <= 2 * gauge for the Luxemburg-type pairs.

    hspec may be a MusielakFamily (Orlicz dual norm against the conjugate
    Luxemburg gauge), a RiskMeasureSpec (infimal dual form against the
    penalty gauge) or a GenOrliczNorm (sum form against the max form).
    """
    _check_on_space(space, y, "y")
    if isinstance(hspec, MusielakFamily):
        lower = luxemburg_norm(space, y, hspec.conjugate())
        value = amemiya_dual_norm(space, y, hspec)
    elif isinstance(hspec, RiskMeasureSpec):
        lower = penalty_gauge(space, hspec, y)
        value = _dual_inf_form(space, hspec, np.abs(y.values))[1]
    elif isinstance(hspec, GenOrliczNorm):
        res = gen_orlicz_dual_norm(space, y, hspec.phi, hspec.inner)
        lower, value = res.max_form, res.value
    else:
        raise TypeError("hspec must be a MusielakFamily, RiskMeasureSpec or GenOrliczNorm")
    ok = (lower <= value + _SANDWICH_SLACK) and (value <= 2.0 * lower + _SANDWICH_SLACK)
    ratio = value / lower if lower > 0 else (1.0 if value == 0.0 else _INF)
    return SandwichReport(lower, value, ratio, ok)


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

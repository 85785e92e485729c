"""Exact polars of the modular unit balls by one Lagrange multiplier.

On the orthant the unit balls of Lp (1 < p < inf), of the Luxemburg norms
over power or exp families and of the entropic risk norm are modular sets
{w >= 0 : sum_i p_i Phi_i(w_i) <= 1}.  The polar returns a feasible witness
and the Amemiya bound at its multiplier.  The oracle is scipy's SLSQP over
the same ball (a test-only dependency).
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kothe
from kothe import (
    FiniteProbSpace,
    MusielakFamily,
    Rv,
    entropic,
    lp_norm,
    luxemburg_norm,
    pairing,
    phi_sqrt,
    polar,
    young_exponential,
    young_power,
    young_tabulated,
)
from kothe.duality import dual_spec_of
from kothe.norms import LorentzNorm, LpNorm, LuxemburgNorm, MarcinkiewiczNorm, RiskNorm

FAMILIES = ("L1.5", "L3", "lux_x^2.3", "lux_exp", "lux_per_atom", "entropic")
GATE = 1e-9


def _per_atom(n: int) -> MusielakFamily:
    return MusielakFamily(tuple(young_power(1.3 + 0.4 * (i % 4), 0.5 + 0.25 * (i % 3)) for i in range(n)))


def _spec(name: str, n: int):
    return {
        "L1.5": lambda: LpNorm(1.5),
        "L3": lambda: LpNorm(3.0),
        "lux_x^2.3": lambda: LuxemburgNorm(MusielakFamily.constant(young_power(2.3), n)),
        "lux_exp": lambda: LuxemburgNorm(MusielakFamily.constant(young_exponential(), n)),
        "lux_per_atom": lambda: LuxemburgNorm(_per_atom(n)),
        "entropic": lambda: RiskNorm(entropic(1.0)),
    }[name]()


def _space(n: int, uniform: bool) -> FiniteProbSpace:
    if uniform:
        return FiniteProbSpace.uniform(n)
    return FiniteProbSpace(np.random.default_rng(3 + n).dirichlet(np.ones(n)))


def _young(name: str, n: int):
    """(Phi, Phi') of the unit ball {w >= 0 : sum_i p_i Phi_i(w_i) <= 1}, atomwise."""
    if name in ("L1.5", "L3", "lux_x^2.3"):
        r = {"L1.5": 1.5, "L3": 3.0, "lux_x^2.3": 2.3}[name]
        return (lambda w: w**r), (lambda w: r * w ** (r - 1.0))
    if name == "lux_exp":
        return np.expm1, np.exp
    if name == "lux_per_atom":
        fam = _per_atom(n)
        r = np.array([f.p for f in fam.functions])
        k = np.array([f.scale for f in fam.functions])
        return (lambda w: k * w**r), (lambda w: k * r * w ** (r - 1.0))
    e = math.expm1(1.0)
    return (lambda w: np.expm1(w) / e), (lambda w: np.exp(w) / e)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n", [1, 5, 50])
def test_multiplier_polar_is_bracketed_and_feasible(name, uniform, n):
    space = _space(n, uniform)
    spec = _spec(name, n)
    for k in range(3):
        y = Rv(np.random.default_rng(k).standard_normal(n))
        res = polar(space, spec, y)
        assert res.converged and res.upper is not None
        assert res.value <= res.upper
        assert res.upper - res.value <= GATE * res.upper
        assert spec.value(space, res.maximizer) <= 1.0 + GATE
        assert pairing(space, res.maximizer, y) == pytest.approx(res.value, rel=1e-12)
        assert res.method == ("comonotone" if spec.rearrangement_invariant and space.is_uniform else "subgradient")


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_multiplier_polar_is_homogeneous(name, uniform, scale):
    space = _space(7, uniform)
    spec = _spec(name, 7)
    y = np.random.default_rng(11).standard_normal(7)
    base = polar(space, spec, Rv(y))
    scaled = polar(space, spec, Rv(y * scale))
    assert scaled.value / scale == pytest.approx(base.value, rel=1e-12)
    assert scaled.upper / scale == pytest.approx(base.upper, rel=1e-12)


def test_lp_polar_is_the_conjugate_norm():
    space = _space(6, uniform=False)
    y = Rv(np.random.default_rng(5).standard_normal(6))
    for p in (1.2, 1.5, 2.0, 3.0, 8.0):
        res = polar(space, LpNorm(p), y)
        want = lp_norm(space, y, p / (p - 1.0))
        # 1e-14 allows for the rounding in the closed form and in the value;
        # the bound is rounded up, so it needs no slack (at p = 8 the unrounded
        # bound read one ulp below the closed form)
        assert res.value <= want * (1.0 + 1e-14)
        assert res.upper >= want
        assert res.upper - res.value <= 2e-12 * want


@pytest.mark.parametrize("family", ["x^2.3", "exp", "per_atom"])
@pytest.mark.parametrize("uniform", [True, False])
def test_amemiya_dual_polar_is_the_luxemburg_norm(family, uniform):
    n = 6
    space = _space(n, uniform)
    fam = {
        "x^2.3": MusielakFamily.constant(young_power(2.3), n),
        "exp": MusielakFamily.constant(young_exponential(), n),
        "per_atom": _per_atom(n),
    }[family]
    dual = dual_spec_of(space, LuxemburgNorm(fam))
    assert dual.name == "amemiya-dual"
    for k in range(3):
        u = Rv(np.random.default_rng(20 + k).standard_normal(n))
        res = polar(space, dual, u)
        lam = luxemburg_norm(space, u, fam)
        assert res.upper is not None
        assert res.value == pytest.approx(lam, rel=1e-11)
        assert res.upper - res.value <= GATE * res.upper
        assert dual.value(space, res.maximizer) <= 1.0 + GATE
        assert pairing(space, res.maximizer, u) == pytest.approx(res.value, rel=1e-12)


def test_amemiya_dual_polar_at_tiny_scale():
    n = 6
    space = _space(n, uniform=False)
    fam = MusielakFamily.constant(young_exponential(), n)
    dual = dual_spec_of(space, LuxemburgNorm(fam))
    u = np.random.default_rng(4).standard_normal(n)
    res = polar(space, dual, Rv(u * 1e-150))
    assert res.value / 1e-150 == pytest.approx(luxemburg_norm(space, Rv(u), fam), rel=1e-11)


def test_tabulated_luxemburg_keeps_the_uncertified_fallback():
    # a piecewise-linear Young function has no invertible derivative
    xs = np.linspace(0.0, 3.0, 7)
    fam = MusielakFamily.constant(young_tabulated(xs, xs**2), 2)
    res = polar(FiniteProbSpace.uniform(2), LuxemburgNorm(fam), Rv([1.0, -0.5]))
    assert res.upper is None


@pytest.mark.parametrize(
    "name", ["L1", "L1.5", "L3", "L8", "Linf", "lux_x^2.3", "lux_exp", "lux_per_atom", "marcinkiewicz", "lorentz"]
)
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    uniform=st.booleans(),
    weights=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
    y=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0)), min_size=8, max_size=8),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
# subnormal y: p * |y| underflowed to 0 and the polyhedral polars raised
@example(n=2, uniform=True, weights=[0.5] * 8, y=[0.0, 5e-324] + [0.0] * 6, scale=1.0)
def test_upper_is_a_bound_under_rounding(name, n, uniform, weights, y, scale):
    probs = np.full(n, 1.0 / n) if uniform else np.array(weights[:n]) / sum(weights[:n])
    space = FiniteProbSpace(probs)
    spec = {
        "L1": lambda: LpNorm(1.0),
        "L8": lambda: LpNorm(8.0),
        "Linf": lambda: LpNorm(math.inf),
        "marcinkiewicz": lambda: MarcinkiewiczNorm(phi_sqrt()),
        "lorentz": lambda: LorentzNorm(phi_sqrt()),
    }.get(name, lambda: _spec(name, n))()
    yv = np.array(y[:n]) * scale
    closed = dual_spec_of(space, spec)._value_arr(space, yv)
    assume(closed > 0.0)
    res = polar(space, spec, Rv(yv))
    assert res.upper >= closed
    # every gauge and the cutting planes stop within _GAUGE_REL = 1e-12; the
    # exp gauge is a bisection that returns the upper end of its bracket
    assert res.upper - res.value <= 1.3e-12 * res.upper


def _slsqp_max(probs, c, phi, dphi):
    """max c.w over the modular ball by SLSQP, scaled back onto the ball."""
    minimize = pytest.importorskip("scipy.optimize").minimize

    def modular(w):
        return float(np.dot(probs, phi(w)))

    res = minimize(
        lambda w: -float(np.dot(c, w)),
        np.full(c.size, 0.1),
        jac=lambda w: -c,
        method="SLSQP",
        bounds=[(0.0, None)] * c.size,
        constraints=[
            {
                "type": "ineq",
                "fun": lambda w: 1.0 - modular(np.maximum(w, 0.0)),
                "jac": lambda w: -probs * dphi(np.maximum(w, 0.0)),
            }
        ],
        options={"ftol": 1e-15, "maxiter": 500},
    )
    # at ftol 1e-15 SLSQP may stop on "positive directional derivative" at
    # the optimum, so its status is not checked; the bracket test is the check
    w = np.maximum(res.x, 0.0)
    lo, hi = 0.0, 2.0
    while modular(hi * w) <= 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular(mid * w) <= 1.0:
            lo = mid
        else:
            hi = mid
    return float(np.dot(c, lo * w))


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 6),
    weights=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    y=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
)
# subnormal y: the oracle's own p * |y| and m * oracle underflowed to 0
@example(n=2, weights=[1.0] * 6, y=[0.0, 5e-324] + [0.0] * 4)
@example(n=2, weights=[1.0, 0.3] + [1.0] * 4, y=[0.0, 5e-324] + [0.0] * 4)
def test_multiplier_polar_brackets_the_slsqp_oracle(name, n, weights, y):
    probs = np.array(weights[:n]) / sum(weights[:n])
    space = FiniteProbSpace(probs)
    yv = np.array(y[:n])
    res = polar(space, _spec(name, n), Rv(yv))
    if not np.any(yv != 0.0):
        assert res.value == 0.0
        return
    # SLSQP stops on absolute tolerances, so it runs on |y| / max|y|,
    # scaled before the masses multiply in: p * |y| underflows for subnormal y.
    # The polar of a nonzero y is positive: where m * oracle underflows to 0,
    # the polar reads the least subnormal
    m = float(np.abs(yv).max())
    oracle = max(m * _slsqp_max(probs, probs * (np.abs(yv) / m), *_young(name, n)), 5e-324)
    slack = GATE * res.upper
    assert res.value - slack <= oracle <= res.upper + slack


def test_import_and_polar_do_not_load_scipy():
    # runtime dependencies are numpy only
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        import kothe
        space = kothe.FiniteProbSpace.uniform(5)
        y = kothe.Rv(np.arange(5.0) - 2.0)
        kothe.polar(space, kothe.RiskNorm(kothe.entropic(1.0)), y)
        kothe.polar(space, kothe.LpNorm(3.0), y)
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
        """
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kothe.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr

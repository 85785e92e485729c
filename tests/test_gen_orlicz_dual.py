"""The generalized Orlicz dual norm as one certified cutting-plane program.

With z = |y| and P(c) = sup{E[z x] : x >= 0, r(Phi(x)) <= c}, the sum form
of the dual norm is P(1), the polar of the generalized Orlicz norm, and the
max form is sup_x E[z x] / (1 + r(Phi(x))).  Both come with brackets.  The
oracle is scipy's SLSQP over the full facet list of the inner Lorentz norm,
one greedy vector per atom order (a test-only dependency).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kothe
from kothe import (
    CustomSeminorm,
    FiniteProbSpace,
    MusielakFamily,
    Rv,
    gen_orlicz_dual_norm,
    pairing,
    phi_sqrt,
    polar,
    young_exponential,
    young_power,
    young_tabulated,
)
from kothe._optim import bisect_gauge
from kothe.norms import GenOrliczNorm, LorentzNorm, LpNorm, LuxemburgNorm

GATE = 1e-9


def _lorentz_facets(space: FiniteProbSpace) -> np.ndarray:
    rows = []
    for order in itertools.permutations(range(space.n_atoms)):
        order = list(order)
        inc = np.diff(phi_sqrt()(np.minimum(np.concatenate([[0.0], np.cumsum(space.probs[order])]), 1.0)))
        g = np.empty(space.n_atoms)
        g[order] = inc
        rows.append(g)
    return np.array(rows)


def _slsqp_forms(space: FiniteProbSpace, z: np.ndarray, p: float) -> tuple[float, float]:
    """(sum form, max form) for Phi = x**p and inner Lorentz(sqrt), by SLSQP
    over every facet F: max E[z x] s.t. F x**p <= 1, and max E[z x] / (1 + c)
    s.t. F x**p <= c.  Each point SLSQP returns is made feasible (x scaled
    onto the ball, c raised to max F x**p), so both are lower values."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    facets = _lorentz_facets(space)
    a = space.probs * z
    n = z.size

    def reach(x):
        return float((facets @ np.maximum(x, 0.0) ** p).max())

    starts = [np.full(n, 0.3), a / a.max()]
    total = peak = 0.0
    for x0 in starts:
        res = minimize(
            lambda x: -a @ x, x0, jac=lambda x: -a, method="SLSQP", bounds=[(0.0, None)] * n,
            constraints=[{"type": "ineq", "fun": lambda x: 1.0 - facets @ np.maximum(x, 0.0) ** p}],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        x = np.maximum(res.x, 0.0)
        total = max(total, float(a @ x) / reach(x) ** (1.0 / p))
        res = minimize(
            lambda v: -(a @ v[:n]) / (1.0 + v[n]), np.append(x0, 1.0),
            jac=lambda v: np.append(-a / (1.0 + v[n]), (a @ v[:n]) / (1.0 + v[n]) ** 2),
            method="SLSQP", bounds=[(0.0, None)] * (n + 1),
            constraints=[{"type": "ineq", "fun": lambda v: v[n] - facets @ np.maximum(v[:n], 0.0) ** p}],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        x = np.maximum(res.x[:n], 0.0)
        peak = max(peak, float(a @ x) / (1.0 + reach(x)))
    return total, peak


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    uniform=st.booleans(),
    weights=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=5),
    y=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
    p=st.floats(1.3, 4.0),
)
def test_inner_lorentz_dual_matches_the_facet_oracle(n, uniform, weights, y, p):
    probs = np.full(n, 1.0 / n) if uniform else np.array(weights[:n]) / sum(weights[:n])
    space = FiniteProbSpace(probs)
    yv = np.array(y[:n])
    z = np.abs(yv)
    if not np.any(z > 1e-3):
        return
    total, peak = _slsqp_forms(space, z, p)
    res = gen_orlicz_dual_norm(space, Rv(yv), young_power(p), LorentzNorm(phi_sqrt()))
    assert res.converged
    for lo, hi, want in ((res.value, res.value_upper, total), (res.max_form, res.max_form_upper, peak)):
        assert lo <= hi <= lo * (1.0 + GATE)
        assert want <= hi
        assert want >= lo * (1.0 - GATE)
    pol = polar(space, GenOrliczNorm(young_power(p), LorentzNorm(phi_sqrt())), Rv(yv))
    assert pol.upper is not None and pol.value <= pol.upper <= pol.value * (1.0 + GATE)
    assert pol.value == pytest.approx(total, rel=GATE)


def test_inner_lorentz_sandwich_on_eighty_random_densities():
    space = FiniteProbSpace.uniform(5)
    rng = np.random.default_rng(43)
    for _ in range(80):
        y = Rv(rng.standard_normal(5))
        res = gen_orlicz_dual_norm(space, y, young_power(2), LorentzNorm(phi_sqrt()))
        assert res.stop == "gap"
        assert res.max_form <= res.value_upper and res.value <= 2.0 * res.max_form_upper
        # for x**2, rescaling v makes the sum form exactly twice the max form
        assert res.value == pytest.approx(2.0 * res.max_form, rel=GATE)


@pytest.mark.parametrize("phi", [young_power(2.5), young_exponential()], ids=["x^2.5", "exp"])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_both_forms_are_homogeneous(phi, uniform, scale):
    space = FiniteProbSpace.uniform(5) if uniform else FiniteProbSpace(np.random.default_rng(2).dirichlet(np.ones(5)))
    y = np.random.default_rng(9).standard_normal(5)
    base = gen_orlicz_dual_norm(space, Rv(y), phi, LorentzNorm(phi_sqrt()))
    scaled = gen_orlicz_dual_norm(space, Rv(y * scale), phi, LorentzNorm(phi_sqrt()))
    for field in ("value", "value_upper", "max_form", "max_form_upper"):
        assert getattr(scaled, field) / scale == pytest.approx(getattr(base, field), rel=1e-12)


@pytest.mark.parametrize("uniform", [True, False])
def test_polar_witness_is_feasible_and_attains_the_value(uniform):
    space = FiniteProbSpace.uniform(4) if uniform else FiniteProbSpace(np.random.default_rng(4).dirichlet(np.ones(4)))
    spec = GenOrliczNorm(young_exponential(), LorentzNorm(phi_sqrt()))
    for k in range(3):
        y = Rv(np.random.default_rng(k).standard_normal(4))
        res = polar(space, spec, y)
        assert res.converged and res.value <= res.upper <= res.value * (1.0 + GATE)
        assert spec.inner.value(space, Rv(spec.phi.eval_array(np.abs(res.maximizer.values)))) <= 1.0 + 1e-15
        assert spec.value(space, res.maximizer) <= 1.0 + GATE
        assert pairing(space, res.maximizer, y) == pytest.approx(res.value, rel=1e-12)


def test_inner_l1_is_the_amemiya_dual_without_a_line_search(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("line search reached")

    monkeypatch.setattr(kothe._optim, "minimize_convex_on_orthant", banned)
    monkeypatch.setattr(kothe.duality, "maximize_linear_on_ball", banned)
    space = FiniteProbSpace(np.random.default_rng(6).dirichlet(np.ones(6)))
    y = Rv(np.random.default_rng(7).standard_normal(6))
    res = gen_orlicz_dual_norm(space, y, young_power(2), LpNorm(1))
    # x**2 has conjugate x**2 / 4, whose Amemiya norm is the L2 norm
    assert res.value == pytest.approx(kothe.lp_norm(space, y, 2.0), rel=1e-12)
    assert res.max_form == pytest.approx(res.value / 2.0, rel=1e-12)
    # one cut per atom, all the same facet, and one master: for x**2 the max
    # form peaks at c = 1, so the first solve closes both brackets
    assert (res.n_cuts, res.n_evals, res.stop) == (6, 1, "gap")
    spec = GenOrliczNorm(young_power(2), LorentzNorm(phi_sqrt()))
    assert polar(space, spec, y).upper is not None
    assert gen_orlicz_dual_norm(space, y, young_power(3), LorentzNorm(phi_sqrt())).converged


def test_zero_density_and_unsupported_inputs():
    space = FiniteProbSpace.uniform(3)
    res = gen_orlicz_dual_norm(space, Rv.zero(3), young_power(2), LorentzNorm(phi_sqrt()))
    assert (res.value, res.max_form, res.stop) == (0.0, 0.0, "zero")
    callback = CustomSeminorm(lambda sp, x: float(np.dot(sp.probs, np.abs(x))), name="l1-callback")
    with pytest.raises(ValueError, match="generalized Orlicz dual"):
        gen_orlicz_dual_norm(space, Rv([1.0, 2.0, 0.5]), young_power(2), callback)
    xs = np.linspace(0.0, 3.0, 7)
    with pytest.raises(ValueError, match="generalized Orlicz dual"):
        gen_orlicz_dual_norm(space, Rv([1.0, 2.0, 0.5]), young_tabulated(xs, xs**2), LpNorm(1))


def test_bisection_gauges_return_a_feasible_end():
    space = FiniteProbSpace(np.random.default_rng(8).dirichlet(np.ones(5)))
    family = MusielakFamily.constant(young_exponential(), 5)
    spec = GenOrliczNorm(young_power(2), LorentzNorm(phi_sqrt()))
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = np.abs(rng.standard_normal(5))
        a = a / a.max()
        # the predicates of LuxemburgNorm and GenOrliczNorm on a / max(a)
        preds = (
            lambda b: family.modular(space.probs, a / b) <= 1.0,
            lambda b: spec.inner._value_arr(space, spec.phi.eval_array(a / b), kothe.DEFAULT_TOL) <= 1.0,
        )
        for pred in preds:
            assert pred(bisect_gauge(pred, rel_tol=1e-12))
    assert LuxemburgNorm(family).value(space, Rv(a)) == pytest.approx(bisect_gauge(preds[0]), rel=1e-15)

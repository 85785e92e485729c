import math

import numpy as np
import pytest

import kothe._optim
from kothe import FiniteProbSpace, MusielakFamily, Rv, entropic, evaluate_risk, luxemburg_norm, young_power
from kothe._optim import golden_max_interval, minimize_scalar_convex, newton_gauge
from kothe.risk import _entropic_arr


@pytest.mark.parametrize("p", [1.0, 2.0, 2.3, 3.0])
@pytest.mark.parametrize("offset", [1e-100, 1.0, 1e100])
def test_newton_gauge_power_matches_closed_form(p, offset):
    # E c (a/beta)^p = 1 has the root beta = (E c a^p)^(1/p)
    rng = np.random.default_rng(int(10 * p))
    probs = rng.random(7) + 0.1
    probs /= probs.sum()
    a = rng.random(7) * 5.0
    scale = 0.7
    coef = probs * scale * a**p
    exact = float(np.sum(coef)) ** (1.0 / p)
    beta = newton_gauge(
        lambda s: float(np.sum(coef * s**p)) - 1.0,
        lambda s: float(np.sum(coef * p * s ** (p - 1.0))),
        offset / exact,
    )
    assert beta == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("theta", [0.2, 1.0, 7.0])
def test_newton_gauge_entropic_solves_the_modular_equation(theta):
    rng = np.random.default_rng(3)
    space = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.4]))
    a = np.abs(rng.standard_normal(4)) * 3.0
    probs = space.probs

    def slope(s):
        w = theta * s * a
        e = probs * np.exp(w - w.max())
        return float(np.dot(e, a) / e.sum())

    beta = newton_gauge(lambda s: _entropic_arr(probs, s * a, theta) - 1.0, slope, 1.0)
    assert evaluate_risk(space, entropic(theta), Rv(a / beta)) == pytest.approx(1.0, rel=1e-11)


def test_golden_max_interval_finds_endpoint_maxima():
    x, g = golden_max_interval(lambda t: -t, 2.0, 5.0)
    assert (x, g) == (2.0, -2.0)
    x, g = golden_max_interval(math.log, 1.0, 4.0)
    assert (x, g) == (4.0, math.log(4.0))


def test_golden_max_interval_tolerates_minus_infinity():
    # -inf outside a window of a concave bump; the peak at 1.5 is interior
    def g(t):
        return -((t - 1.5) ** 2) if 1.0 <= t <= 2.5 else -math.inf

    x, val = golden_max_interval(g, 0.0, 4.0, rel_xtol=1e-12)
    assert x == pytest.approx(1.5, abs=1e-6)
    assert val == pytest.approx(0.0, abs=1e-12)
    # -inf everywhere but one endpoint
    x, val = golden_max_interval(lambda t: 1.0 if t == 0.0 else -math.inf, 0.0, 1.0)
    assert (x, val) == (0.0, 1.0)


@pytest.mark.parametrize(
    "c, x0",
    [(c, 1.0) for c in (1e-100, 1e-20, 1e-3, 1.0, 1e20, 1e100)]
    + [(c, 0.3 * c) for c in (1e-200, 1e200)],
)
def test_minimize_scalar_convex_is_scale_free(c, x0):
    # x + c^2/x is minimized at c with value 2c; the stopping width is relative
    x, val = minimize_scalar_convex(lambda x: x + c * (c / x), x0=x0, tol=1e-9)
    assert x / c == pytest.approx(1.0, rel=1e-6)
    assert val / c == pytest.approx(2.0, rel=1e-12)


def test_newton_gauge_reuses_the_bracket_value(monkeypatch):
    # g at the upper end of the bracket seeds the first Newton step, so a
    # constant-exponent power gauge evaluates its sum three times
    calls = []
    real = kothe._optim.newton_gauge

    def counting(g, gprime, s0):
        calls.append(0)

        def counted(s):
            calls[-1] += 1
            return g(s)

        return real(counted, gprime, s0)

    monkeypatch.setattr(kothe._optim, "newton_gauge", counting)
    rng = np.random.default_rng(23)
    space = FiniteProbSpace(rng.dirichlet(np.ones(8)))
    family = MusielakFamily.constant(young_power(2.3), 8)
    for _ in range(50):
        luxemburg_norm(space, Rv(rng.standard_normal(8)), family)
    assert calls == [3] * 50

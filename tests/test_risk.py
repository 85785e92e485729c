import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kothe import (
    FiniteProbSpace,
    Rv,
    avar,
    check_risk_axioms,
    custom_risk,
    entropic,
    evaluate_risk,
    expectation,
    pairing,
    penalty,
    penalty_gauge,
    polar,
    quantile,
    quantile_integral,
    risk_dual_norm,
    risk_norm,
    verify_sandwich,
)
import kothe
from kothe._optim import bisect_gauge, minimize_scalar_convex
from kothe.norms import RiskNorm
from kothe.risk import _dual_inf_form, _entropic_arr, dual_gauge_exact
from tail_cases import tail_cases

UNIFORM4 = FiniteProbSpace.uniform(4)
U4132 = Rv([4.0, 1.0, 3.0, 2.0])


def test_evaluate_risk_examples():
    rng = np.random.default_rng(51)
    for _ in range(10):
        u = Rv(rng.standard_normal(4))
        assert evaluate_risk(UNIFORM4, avar(1.0), u) == pytest.approx(
            expectation(UNIFORM4, u), abs=1e-12
        )
    assert evaluate_risk(UNIFORM4, avar(0.5), U4132) == pytest.approx(3.5, abs=1e-12)
    for c in (-2.0, 0.0, 3.5):
        assert evaluate_risk(UNIFORM4, entropic(1.3), Rv.constant(c, 4)) == pytest.approx(
            c, abs=1e-12
        )
    with pytest.raises(ValueError):
        avar(0.0)
    with pytest.raises(ValueError):
        avar(1.5)


def test_avar_of_a_constant_is_exact_at_small_levels():
    # the tail term of the Rockafellar-Uryasev form is exactly 0 on a
    # constant, and t*s is added after it, so nothing rounds before the
    # division by t
    assert evaluate_risk(FiniteProbSpace.uniform(6), avar(0.01), Rv.constant(1.0, 6)) == 1.0


def test_avar_equals_tail_integral_for_nonnegative():
    rng = np.random.default_rng(52)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        u = Rv(np.abs(rng.standard_normal(n)))
        t = float(rng.uniform(0.05, 1.0))
        q = quantile(space, u)
        assert evaluate_risk(space, avar(t), u) == pytest.approx(
            quantile_integral(q, t) / t, abs=1e-10
        )


def test_risk_norm_examples():
    for c in (0.5, 1.0, 4.0):
        assert risk_norm(UNIFORM4, entropic(1.0), Rv.constant(c, 4)) == pytest.approx(
            c, rel=1e-9
        )
    assert risk_norm(UNIFORM4, avar(0.5), U4132) == pytest.approx(3.5, rel=1e-9)
    assert risk_norm(UNIFORM4, avar(0.5), Rv.zero(4)) == 0.0


def test_risk_norm_bisection_matches_shortcut():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        space = FiniteProbSpace.uniform(n)
        u = Rv(rng.standard_normal(n))
        m = float(np.abs(u.values).max())
        z = np.abs(u.values) / m
        for rho in (avar(0.4), entropic(0.7)):
            a = risk_norm(space, rho, u)
            b = m * bisect_gauge(lambda beta: evaluate_risk(space, rho, Rv(z / beta)) <= 1.0)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_risk_norm_positively_homogeneous_equals_rho():
    rng = np.random.default_rng(54)
    for _ in range(20):
        u = Rv(np.abs(rng.standard_normal(4)))
        assert risk_norm(UNIFORM4, avar(0.3), u) == pytest.approx(
            evaluate_risk(UNIFORM4, avar(0.3), u), rel=1e-9
        )


def test_penalty_hand_instances():
    res = penalty(UNIFORM4, avar(0.5), Rv([1.0, 1.0, 0.0, 0.0]))
    assert res.bounded and res.value == pytest.approx(0.0, abs=1e-12)
    res = penalty(UNIFORM4, avar(0.5), Rv([4.0, 0.0, 0.0, 0.0]))
    assert not res.bounded and res.value == math.inf
    assert res.ray is not None
    # the certificate ray grows the objective linearly: E[c*ray*y] - rho(c*ray)
    ray = Rv(res.ray)
    grow = [
        c * pairing(UNIFORM4, ray, Rv([4.0, 0, 0, 0]))
        - evaluate_risk(UNIFORM4, avar(0.5), Rv(c * res.ray))
        for c in (1.0, 2.0, 4.0)
    ]
    assert grow[0] < grow[1] < grow[2]
    res = penalty(UNIFORM4, avar(0.5), Rv.zero(4))
    assert res.bounded and res.value == 0.0
    with pytest.raises(ValueError):
        penalty(UNIFORM4, avar(0.5), Rv([1.0, -0.5, 0.0, 0.0]))


def test_custom_penalty_memory_is_linear_in_atoms():
    # the candidate directions are scanned one at a time, never all held at once
    n = 3000
    space = FiniteProbSpace.uniform(n)
    y = Rv(np.full(n, 0.5))
    rho = custom_risk(lambda sp, x: float(np.max(x)))
    tracemalloc.start()
    try:
        res = penalty(space, rho, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.bounded and res.value == 0.0
    assert peak < 8 * 2**20


def test_penalty_entropic():
    # on the unit-mean ray the supremum is the relative entropy
    z = np.array([2.0, 2 / 3, 2 / 3, 2 / 3])
    theta = 1.7
    res = penalty(UNIFORM4, entropic(theta), Rv(z))
    oracle = float(np.dot(UNIFORM4.probs, z * np.log(z))) / theta
    assert res.bounded and res.value == pytest.approx(oracle, abs=1e-8)
    res = penalty(UNIFORM4, entropic(1.0), Rv([3.0, 3.0, 3.0, 3.0]))
    assert not res.bounded and res.ray is not None
    assert res.ray.min() > 0  # constants ray
    small = penalty(UNIFORM4, entropic(1.0), Rv([0.4, 0.2, 0.1, 0.0]))
    assert small.bounded and small.value >= 0.0


def test_risk_dual_norm_examples():
    assert risk_dual_norm(UNIFORM4, avar(0.5), Rv.zero(4)).value == 0.0
    res = risk_dual_norm(UNIFORM4, avar(0.5), Rv.constant(1.0, 4))
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.agreement <= 1e-6
    res = risk_dual_norm(UNIFORM4, avar(0.5), U4132)
    # gauge oracle: max over subsets A of E[1_A |y|] / min(P(A), t) * t
    assert res.value == pytest.approx(2.5, abs=1e-8)


def test_risk_sandwich_randomized():
    rng = np.random.default_rng(55)
    for k in range(12):
        n = int(rng.integers(2, 7))
        space = FiniteProbSpace.uniform(n)
        rho = avar(float(rng.uniform(0.1, 1.0))) if k % 2 == 0 else entropic(
            float(rng.uniform(0.3, 2.0))
        )
        y = Rv(rng.standard_normal(n))
        rep = verify_sandwich(space, rho, y, seed=k)
        assert rep.ok, rep
        assert rep.lower - 1e-9 <= rep.value <= 2.0 * rep.lower + 1e-9


def test_holder_for_risk_norms():
    from kothe.duality import polar
    from kothe.norms import RiskNorm

    rng = np.random.default_rng(56)
    for k in range(8):
        n = int(rng.integers(2, 6))
        space = FiniteProbSpace.uniform(n)
        rho = avar(0.5) if k % 2 == 0 else entropic(1.0)
        spec = RiskNorm(rho)
        u = Rv(rng.standard_normal(n))
        y = Rv(rng.standard_normal(n))
        lhs = pairing(space, u, y)
        assert lhs <= spec.value(space, u) * polar(space, spec, y, seed=k).value + 1e-8


def test_check_risk_axioms():
    assert check_risk_axioms(UNIFORM4, avar(0.4), trials=30, seed=6).all_pass
    assert check_risk_axioms(UNIFORM4, entropic(1.2), trials=30, seed=6).all_pass
    quad = custom_risk(lambda s, x: float(np.dot(s.probs, x**2)))
    report = check_risk_axioms(UNIFORM4, quad, trials=30, seed=6)
    assert not report.all_pass
    failed = {i.name for i in report.items if not i.passed}
    assert "translation" in failed


def test_penalty_gauge_scaling():
    rng = np.random.default_rng(57)
    y = Rv(np.abs(rng.standard_normal(4)))
    g1 = penalty_gauge(UNIFORM4, avar(0.5), y)
    g2 = penalty_gauge(UNIFORM4, avar(0.5), Rv(3.0 * y.values))
    assert g2 == pytest.approx(3.0 * g1, rel=1e-8)


def test_gauges_of_subnormal_y_do_not_underflow():
    # |y| is scaled by a power of two before p * |y| is formed, so a
    # subnormal y gets the gauge of y * 2**100 scaled back, rounded once
    space = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
    y = np.array([0.0, 1e-315, 3e-316])
    for t in (0.1, 0.5, 1.0):
        assert dual_gauge_exact(space, avar(t), y) == math.ldexp(dual_gauge_exact(space, avar(t), y * 2.0**100), -100)
    # a gauge below half the least subnormal reads the least subnormal, not 0
    assert penalty_gauge(FiniteProbSpace.uniform(2), entropic(1.0), Rv([0.0, 5e-324])) == 5e-324
    # the exact avar(1/2) dual of [0, 5e-324] is 2**-1075, which rounds to 0
    tiny = np.array([0.0, 5e-324])
    assert dual_gauge_exact(FiniteProbSpace.uniform(2), avar(0.5), tiny) == 5e-324
    assert penalty_gauge(FiniteProbSpace.uniform(2), avar(0.5), Rv(tiny)) == 5e-324


def test_every_dual_route_keeps_the_subnormal_floor():
    # the exact avar(1/2) dual of [0, 5e-324] on two equal atoms is 2**-1075,
    # half the least subnormal: all four routes read 5e-324, none 0
    space, rho, y = FiniteProbSpace.uniform(2), avar(0.5), Rv([0.0, 5e-324])
    res = risk_dual_norm(space, rho, y)
    assert polar(space, RiskNorm(rho), y).value == 5e-324
    assert res.value == res.polar_value == 5e-324
    assert dual_gauge_exact(space, rho, y.values) == penalty_gauge(space, rho, y) == 5e-324
    # a certified lower end stays below the exact value, so it keeps the 0
    assert res.lower == 0.0


def _subset_oracle(probs: np.ndarray, z: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Brute force over all 2^n - 1 nonempty atom sets A: E[z 1_A] and avar_t(1_A)."""
    n = probs.size
    masks = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    return masks @ (probs * z), np.minimum(masks @ probs, t) / t


@settings(max_examples=300, deadline=None)
@given(tail_cases())
def test_avar_matches_grid_oracle(case):
    space, x, t = case
    # min over s in the values of x of t*s + E[x - s]^+, on the n x n grid
    s = np.unique(x)
    excess = np.clip(x[None, :] - s[:, None], 0.0, None)
    want = float((t * s + excess @ space.probs).min())
    got = evaluate_risk(space, avar(t), Rv(x)) * t
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(tail_cases(), st.floats(0.05, 3.0))
def test_avar_penalty_and_dual_gauge_match_subset_enumeration(case, scale):
    space, x, t = case
    z = np.abs(x) * scale
    sums, bound = _subset_oracle(space.probs, z, t)
    if z.max() > 0.0:
        want = float((sums / bound).max())
        assert dual_gauge_exact(space, avar(t), z) == pytest.approx(want, rel=1e-13)
    worst = float((sums - bound).max())
    threshold = 1e-11 * max(float(z.max()), 1.0)
    res = penalty(space, avar(t), Rv(z))
    if abs(worst - threshold) < 1e-13:
        return  # the verdict is decided by rounding
    assert res.bounded == (worst <= threshold)
    if res.bounded:
        assert res.ray is None
        assert res.value == pytest.approx(max(worst, 0.0), abs=1e-14)
        return
    assert res.value == math.inf
    ray = res.ray
    assert set(np.unique(ray)) <= {0.0, 1.0}
    # the certificate is the indicator of a top-k set of z ...
    assert z[ray == 1.0].min() >= z[ray == 0.0].max(initial=-math.inf)
    # ... along which the objective grows linearly
    grow = [
        c * pairing(space, Rv(ray), Rv(z)) - evaluate_risk(space, avar(t), Rv(c * ray))
        for c in (1.0, 2.0, 4.0)
    ]
    assert 0.0 < grow[0] < grow[1] < grow[2]
    assert grow[2] == pytest.approx(4.0 * grow[0], rel=1e-9)


@pytest.mark.parametrize("scale", [1e-100, 1e-20, 1e20, 1e100, 1e-300, 1e-150, 1e150, 1e300])
def test_entropic_dual_gauge_is_scale_free(scale):
    space = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
    y = np.array([0.3, 1.2, 2.0])
    base = dual_gauge_exact(space, entropic(1.0), y)
    assert dual_gauge_exact(space, entropic(1.0), y * scale) / scale == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_risk_dual_norm_is_scale_free(scale):
    space = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
    y = np.array([0.3, 1.2, 2.0])
    base = risk_dual_norm(space, entropic(1.0), Rv(y))
    scaled = risk_dual_norm(space, entropic(1.0), Rv(y * scale))
    assert scaled.value / scale == pytest.approx(base.value, rel=1e-9)
    assert scaled.beta / scale == pytest.approx(base.beta, rel=1e-6)


def test_entropic_dual_gauge_regression():
    # the golden search over the penalty seeded at E|z| read alpha = 0 there,
    # stopped its bracket at 2 E|z|, below the minimizer, and returned 5.3547
    got = dual_gauge_exact(UNIFORM4, entropic(0.01), np.array([1.0, 0.0, 0.11, 0.03]))
    assert got == pytest.approx(0.98534112161, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(1e-2, 1e2),
    weights=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40),
    values=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0)), min_size=40, max_size=40),
)
def test_entropic_dual_gauge_lies_in_the_polar_bracket(theta, weights, values):
    # integer values give ties and zero atoms; the polar's value comes from a
    # feasible witness, so [value, upper] brackets the exact dual norm
    n = len(weights)
    space = FiniteProbSpace(np.array(weights) / sum(weights))
    y = np.array(values[:n])
    res = polar(space, RiskNorm(entropic(theta)), Rv(y))
    got = dual_gauge_exact(space, entropic(theta), y)
    slack = 1e-9 * res.upper
    assert res.value - slack <= got <= res.upper + slack


def _entropic_decimal(probs, x, theta):
    """(1/theta) log E e^(theta x) in 50-digit decimal arithmetic.

    The float masses need not sum to 1 exactly, and at theta = 1e-8 their
    excess would show 1e-8 relative, so they are normalized in decimal.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        th = Decimal(float(theta))
        total = sum(Decimal(float(p)) * (th * Decimal(float(v))).exp() for p, v in zip(probs, x))
        mass = sum(Decimal(float(p)) for p in probs)
        return float((total / mass).ln() / th)


@pytest.mark.parametrize("theta", [1e-8, 1e-6, 1e-4, 1.0, 100.0])
def test_entropic_risk_matches_a_decimal_reference(theta):
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        probs = rng.dirichlet(np.ones(n))
        x = rng.standard_normal(n) + 1.5
        want = _entropic_decimal(probs, x, theta)
        assert _entropic_arr(probs, x, theta) == pytest.approx(want, rel=1e-14)


def test_small_theta_entropic_polar_keeps_its_bracket():
    # the log of a sum near 1, and x log x - x + 1 near x = 1, each lost about
    # 1e-16/theta; the bracket read 1.9e-10 at theta = 1e-6.  Its floor is the
    # gauge tolerance 1e-12 that the witness is scaled by.
    rng = np.random.default_rng(6)
    space = FiniteProbSpace(rng.dirichlet(np.ones(6)))
    for _ in range(10):
        res = polar(space, RiskNorm(entropic(1e-6)), Rv(rng.standard_normal(6)))
        assert res.upper - res.value <= 1.3e-12 * res.upper


def _entropic_ascent(probs: np.ndarray, z: np.ndarray, theta: float, xi: np.ndarray) -> float:
    """Projected gradient ascent on E[xi*z] - entropic(xi) over xi >= 0, from xi.

    The entropic penalty's own route before it returned the KKT point; kept
    as that point's oracle.
    """

    def value_and_grad(xi: np.ndarray) -> tuple[float, np.ndarray]:
        w = theta * xi
        m = float(w.max())
        e = probs * np.exp(w - m)
        total = float(e.sum())
        return float(np.dot(probs, xi * z)) - (m + math.log(total)) / theta, probs * z - e / total

    val, grad = value_and_grad(xi)
    step = 1.0
    for _ in range(1500):
        proj_grad = np.where((xi <= 0.0) & (grad < 0.0), 0.0, grad)
        if float(np.linalg.norm(proj_grad)) <= 1e-12 * max(1.0, abs(val)):
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
    return val


def test_entropic_penalty_is_the_kkt_point():
    # the ascent, from zero and from the KKT point, gains nothing on it; the
    # slack is relative to 1 + value, the scale at which the value enters
    # the infimal form beta * (1 + penalty)
    rng = np.random.default_rng(61)
    for k in range(200):
        n = int(rng.integers(1, 9))
        space = FiniteProbSpace.uniform(n) if k % 2 else FiniteProbSpace(rng.dirichlet(np.ones(n)))
        z = np.abs(rng.standard_normal(n)) * rng.integers(0, 2, n) if k % 3 == 0 else np.abs(rng.standard_normal(n))
        if not np.any(z > 0.0):
            continue
        # E[z] = 1 (the edge of the bounded region) on every fifth case
        z = z / float(np.dot(space.probs, z)) * (1.0 if k % 5 == 0 else rng.uniform(0.2, 1.0))
        theta = float(rng.uniform(0.1, 10.0))
        res = penalty(space, entropic(theta), Rv(z))
        assert res.bounded and res.value >= 0.0
        best = max(
            _entropic_ascent(space.probs, z, theta, np.zeros(n)),
            _entropic_ascent(space.probs, z, theta, res.maximizer),
        )
        assert res.value >= best - 1e-12 * (1.0 + best)


def test_entropic_risk_dual_regression():
    # the golden search over beta stopped 6.0e-6 short of the exact gauge,
    # so the polar check raised ConvergenceError on this valid input
    probs = np.array([
        0.07513347115604474, 0.07034633578667814, 0.07949899897147597, 0.1685883530212431,
        0.35215361885648, 0.2172598018153359, 0.0010196086988044702, 0.03599981169393789,
    ])
    y = np.array([
        -1.7870292161807393, -8.562903620081245, -14.869211693820771, -4.010097410497039,
        -4.70380309345032, 6.2853770259226085, 11.31800541053196, -0.12515389663473123,
    ])
    space, rho = FiniteProbSpace(probs), entropic(6.503374545862155)
    res = risk_dual_norm(space, rho, Rv(y))
    exact = dual_gauge_exact(space, rho, y)
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.lower <= res.value and res.stop == "gap"


@settings(max_examples=150, deadline=None)
@given(
    rho=st.one_of(st.floats(1e-2, 50.0).map(entropic), st.floats(1e-2, 1.0).map(avar)),
    n=st.integers(1, 12),
    masses=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    values=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0)), min_size=12, max_size=12),
)
# subnormal y: p * |y| underflowed in the avar dual gauge (Dirichlet masses)
# and made polar raise (uniform masses).  The last four are where 1e-12 is
# finer than the float grid: a bracket one grid step wide, a lower probe that
# has no float below g = 5e-324, and a gauge near 1e-316 with about 8 digits
@example(rho=avar(1.0), n=2, masses=0, values=[0.0, 5e-324] + [0.0] * 10)
@example(rho=avar(1.0), n=2, masses=None, values=[0.0, 5e-324] + [0.0] * 10)
@example(rho=avar(0.5), n=2, masses=None, values=[0.0, 5e-324] + [0.0] * 10)
@example(rho=entropic(1.0), n=1, masses=None, values=[5e-324] + [0.0] * 11)
@example(rho=entropic(1.0), n=2, masses=None, values=[0.0, 5e-324] + [0.0] * 10)
@example(rho=entropic(1.0), n=2, masses=None, values=[0.0, 1e-315] + [0.0] * 10)
def test_risk_dual_brackets_hold_the_exact_gauge(rho, n, masses, values):
    # uniform or Dirichlet masses; integer values give ties and zero atoms
    probs = np.random.default_rng(masses).dirichlet(np.ones(n)) if masses is not None else np.full(n, 1.0 / n)
    space = FiniteProbSpace(probs)
    y = Rv(np.array(values[:n]))
    z = np.abs(y.values)
    if not np.any(z > 0.0):
        return
    exact = dual_gauge_exact(space, rho, z)
    res = risk_dual_norm(space, rho, y)
    # the bracket [lower, value] of the infimal form holds the exact gauge
    # to rounding, and is at most 1e-12 wide, or one grid step below the
    # normal range; avar(t) of a witness carries a relative rounding of
    # about 1e-16 / t (at t = 0.01, 1.0e-14 was seen)
    assert res.stop == "gap"
    assert res.lower * (1.0 - 1e-13) <= exact <= res.value * (1.0 + 1e-13)
    assert res.value - res.lower <= max(1e-12 * res.value, math.ulp(res.value))
    assert res.value == pytest.approx(exact, rel=1e-12)
    g = penalty_gauge(space, rho, y)
    if rho.kind == "avar":
        # for positively homogeneous rho the penalty gauge is the dual norm
        assert g == pytest.approx(exact, rel=1e-12)
    else:
        # [g, g (1 + 1e-12)] holds the gauge; below g the penalty exceeds 1
        # (2e-12 clears the 1e-12 by which E[|y|/beta] may exceed 1 before
        # the entropic penalty counts as unbounded).  Where 1e-12 is finer
        # than the float grid, each probe sits one grid step from g, and
        # the lower one is skipped when no positive float lies below g
        above = max(g * (1.0 + 1e-12), math.nextafter(g, math.inf))
        below = min(g * (1.0 - 2e-12), math.nextafter(g, 0.0))
        assert penalty(space, rho, Rv(z / above)).value <= 1.0
        if below > 0.0:
            assert penalty(space, rho, Rv(z / below)).value > 1.0
        assert g - 1e-12 * g <= res.value <= 2.0 * g + 1e-12 * g


def _inf_form_by_golden_search(space, rho, z):
    """The infimal form by the golden search over beta that it used before."""
    m = float(z.max())
    z = z / m

    def objective(beta: float) -> float:
        res = penalty(space, rho, Rv(z / beta))
        return beta * res.value + beta if res.bounded else math.inf

    return m * minimize_scalar_convex(objective, x0=float(np.dot(space.probs, z)), tol=1e-13)[1]


def test_positively_homogeneous_custom_risk_dual_matches_the_golden_search():
    # rho = max is positively homogeneous with the L1 norm as dual: the
    # Dinkelbach ratios from the custom penalty's rays end on it
    rho = custom_risk(lambda sp, x: float(np.max(x)), positively_homogeneous=True)
    rng = np.random.default_rng(62)
    for k in range(8):
        n = int(rng.integers(2, 7))
        space = FiniteProbSpace.uniform(n) if k % 2 else FiniteProbSpace(rng.dirichlet(np.ones(n)))
        z = np.abs(rng.standard_normal(n))
        beta, value, lower, calls, stop = _dual_inf_form(space, rho, z)
        assert stop == "gap" and lower == value
        assert value == pytest.approx(_inf_form_by_golden_search(space, rho, z), rel=1e-12)
        assert value == pytest.approx(float(np.dot(space.probs, z)), rel=1e-12)


def test_risk_duals_run_no_scalar_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scalar search ran")

    for module in (kothe._optim, kothe.young, kothe.norms, kothe.risk, kothe.duality):
        for name in ("minimize_scalar_convex", "golden_max_interval", "bisect_gauge"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(63)
    for space in (FiniteProbSpace.uniform(6), FiniteProbSpace(rng.dirichlet(np.ones(6)))):
        for rho in (avar(0.3), entropic(2.0)):
            y = Rv(rng.standard_normal(6))
            res = risk_dual_norm(space, rho, y)
            assert res.stop == "gap" and res.n_penalty_calls <= 20
            assert penalty_gauge(space, rho, y) <= res.value
            assert verify_sandwich(space, rho, y).ok

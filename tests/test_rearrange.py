import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from kothe import (
    FiniteProbSpace,
    Rv,
    StepFunction,
    avar,
    cvar_infimum,
    distribution_fn,
    evaluate_risk,
    expectation,
    hardy_littlewood_sup,
    indicator,
    pairing,
    quantile,
    quantile_integral,
)
from tail_cases import tail_cases

UNIFORM4 = FiniteProbSpace.uniform(4)
U4132 = Rv([4.0, 1.0, 3.0, 2.0])


def test_distribution_fn_examples():
    assert distribution_fn(UNIFORM4, U4132, 2.5) == pytest.approx(0.5)
    assert distribution_fn(UNIFORM4, U4132, -1.0) == 1.0
    assert distribution_fn(UNIFORM4, U4132, 4.0) == 0.0


def test_quantile_examples():
    q = quantile(UNIFORM4, U4132)
    assert np.allclose(q.breakpoints, [0, 0.25, 0.5, 0.75, 1])
    assert np.array_equal(q.values, [4, 3, 2, 1])
    q = quantile(UNIFORM4, Rv.constant(-3.0, 4))
    assert np.array_equal(q.values, [3.0])
    q = quantile(FiniteProbSpace([0.25, 0.75]), Rv([2.0, 1.0]))
    assert np.allclose(q.breakpoints, [0, 0.25, 1])
    assert np.array_equal(q.values, [2, 1])


def test_quantile_pointwise_definition():
    # q(t) = inf{tau : P(|u| > tau) <= t}, checked against the direct scan
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        u = Rv(rng.standard_normal(n) * 3)
        q = quantile(space, u)
        taus = np.sort(np.unique(np.abs(u.values)))
        for t in rng.uniform(0, 1, 12):
            candidates = [tau for tau in taus if distribution_fn(space, u, tau) <= t]
            direct = min(candidates) if candidates else taus[-1]
            assert q(float(t)) == pytest.approx(direct, abs=1e-12)


def test_quantile_ties_merge():
    q = quantile(UNIFORM4, Rv([2.0, -2.0, 1.0, 1.0]))
    assert np.array_equal(q.values, [2, 1])
    assert np.allclose(q.breakpoints, [0, 0.5, 1])


def test_quantile_drops_plateaus_the_running_sum_rounds_away():
    # 1e-17 is below half an ulp of the running mass 0.5, so the running sum
    # repeats the breakpoint 0.5: no t in [0, 1] lies on the plateau of 1
    q = quantile(FiniteProbSpace([0.5, 1e-17, 0.5]), Rv([2.0, 1.0, 0.0]))
    assert np.array_equal(q.breakpoints, [0.0, 0.5, 1.0])
    assert np.array_equal(q.values, [2.0, 0.0])
    # a running sum past 1 before the last atom ends the function at 1
    q = quantile(FiniteProbSpace([0.5 + 1e-13, 0.5, 1e-14]), Rv([2.0, 1.0, 0.0]))
    assert np.array_equal(q.breakpoints, [0.0, 0.5 + 1e-13, 1.0])
    assert np.array_equal(q.values, [2.0, 1.0])


def test_quantile_integral_examples():
    q = quantile(UNIFORM4, U4132)
    assert quantile_integral(q, 0.5) == pytest.approx(1.75, abs=1e-12)
    assert quantile_integral(q, 1.0) == pytest.approx(expectation(UNIFORM4, U4132), abs=1e-12)
    assert quantile_integral(q, 0.0) == 0.0
    with pytest.raises(ValueError):
        quantile_integral(q, 1.5)


def test_cvar_examples():
    assert cvar_infimum(UNIFORM4, U4132, 0.5) == pytest.approx(1.75, abs=1e-12)
    two = FiniteProbSpace([0.5, 0.5])
    assert cvar_infimum(two, Rv([0.0, 1.0]), 0.5) == pytest.approx(0.5, abs=1e-12)
    assert cvar_infimum(UNIFORM4, U4132, 1.0) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(ValueError):
        cvar_infimum(UNIFORM4, U4132, 0.0)


def test_tail_scan_does_not_overflow_at_the_top_of_the_float_range():
    # the layer 0.99 * (x_(0) - x_(1)) is 3.4e308 here, past the float
    # maximum; the scan runs on x / 4 and scales the minimum back exactly
    space = FiniteProbSpace([0.99, 0.01])
    x = Rv([1.7e308, -1.7e308])
    assert evaluate_risk(space, avar(1.0), x) == pytest.approx(0.99 * 1.7e308 - 0.01 * 1.7e308, rel=1e-15)
    for t in (0.005, 0.3, 0.99, 1.0):
        assert evaluate_risk(space, avar(t), x) == 4.0 * evaluate_risk(space, avar(t), Rv(x.values / 4.0))


def test_cvar_identity_randomized():
    rng = np.random.default_rng(22)
    grid = np.linspace(0.05, 1.0, 11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 17))
        probs = rng.random(n) + 0.05
        space = FiniteProbSpace(probs / probs.sum())
        u = Rv(rng.standard_normal(n) * 10 ** rng.uniform(-1, 1))
        q = quantile(space, u)
        for t in grid:
            worst = max(worst, abs(quantile_integral(q, t) - cvar_infimum(space, u, t)))
    assert worst <= 1e-10


def _cvar_grid_oracle(probs: np.ndarray, a: np.ndarray, t: float) -> float:
    """Brute force: t*s + E[a - s]^+ on the n x n grid of candidates {0} and the values of a."""
    candidates = np.concatenate([[0.0], np.unique(a)])
    excess = np.clip(a[None, :] - candidates[:, None], 0.0, None)
    return float((t * candidates + excess @ probs).min())


@settings(max_examples=300, deadline=None)
@given(tail_cases())
def test_cvar_matches_grid_oracle(case):
    space, x, t = case
    want = _cvar_grid_oracle(space.probs, np.abs(x), t)
    assert cvar_infimum(space, Rv(x), t) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_tail_functionals_at_a_million_atoms():
    # the n x n candidate grid would need about 8 TB here
    rng = np.random.default_rng(26)
    n = 10**6
    space = FiniteProbSpace(rng.dirichlet(np.ones(n)))
    x = rng.standard_normal(n)

    def tail_integral(a: np.ndarray, t: float) -> float:
        order = np.argsort(-a, kind="stable")
        w = space.probs[order]
        return float(np.dot(a[order], np.clip(t - (np.cumsum(w) - w), 0.0, w)))

    for t in (1e-6, 0.05, 0.7, 1.0):
        assert abs(cvar_infimum(space, Rv(x), t) - tail_integral(np.abs(x), t)) <= 1e-10
        assert abs(evaluate_risk(space, avar(t), Rv(x)) - tail_integral(x, t) / t) <= 1e-10


def test_hardy_littlewood_examples():
    y = Rv([1.0, 2.0, 3.0, 4.0])
    # enumeration oracle: max over all 24 arrangements of u against y
    best = max(
        pairing(UNIFORM4, Rv(np.asarray(U4132.values)[list(p)]), y)
        for p in itertools.permutations(range(4))
    )
    val = hardy_littlewood_sup(UNIFORM4, U4132, y)
    assert val == pytest.approx(best, abs=1e-12)
    assert val == pytest.approx(7.5, abs=1e-12)
    assert hardy_littlewood_sup(UNIFORM4, U4132, Rv.constant(1.0, 4)) == pytest.approx(2.5)
    a = indicator(UNIFORM4, [2])
    assert hardy_littlewood_sup(UNIFORM4, a, a) == pytest.approx(0.25)


def test_hardy_littlewood_dominates_all_permutations():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5, 8):
        space = FiniteProbSpace.uniform(n)
        u = rng.standard_normal(n)
        y = rng.standard_normal(n)
        bound = hardy_littlewood_sup(space, Rv(u), Rv(y))
        perms = np.array(list(itertools.permutations(range(n))))
        values = (u[perms] * y).sum(axis=1) / n
        assert values.max() <= bound + 1e-12
        # on nonnegative data the bound is attained by comonotone sorting
        ua, ya = np.abs(u), np.abs(y)
        nonneg = (ua[perms] * ya).sum(axis=1) / n
        assert nonneg.max() == pytest.approx(bound, abs=1e-12)


def test_hardy_littlewood_needs_uniform():
    with pytest.raises(ValueError):
        hardy_littlewood_sup(FiniteProbSpace([0.25, 0.75]), Rv([1, 2]), Rv([3, 4]))


def test_rearrangement_invariance():
    rng = np.random.default_rng(24)
    space = FiniteProbSpace.uniform(7)
    u = rng.standard_normal(7)
    q0 = quantile(space, Rv(u))
    for _ in range(10):
        qp = quantile(space, Rv(rng.permutation(u)))
        assert np.array_equal(q0.breakpoints, qp.breakpoints)
        assert np.array_equal(q0.values, qp.values)


def test_integral_subadditivity():
    rng = np.random.default_rng(25)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        qu = quantile(space, Rv(u))
        qv = quantile(space, Rv(v))
        qs = quantile(space, Rv(u + v))
        for t in np.linspace(0, 1, 9):
            assert quantile_integral(qs, t) <= (
                quantile_integral(qu, t) + quantile_integral(qv, t) + 1e-12
            )


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        StepFunction([0.1, 1.0], [1.0])
    with pytest.raises(ValueError):
        StepFunction([0.0, 0.5, 0.5, 1.0], [3.0, 2.0, 1.0])

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kothe import (
    FiniteProbSpace,
    MusielakFamily,
    Partition,
    Rv,
    amemiya_dual_norm,
    check_axioms,
    conditional_expectation,
    custom_risk,
    entropic,
    family_membership,
    fundamental_functions,
    gen_orlicz_dual_norm,
    gen_orlicz_norm,
    indicator,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
    marcinkiewicz_norm,
    phi_identity,
    phi_power_root,
    phi_sqrt,
    phi_tabulated,
    quantile,
    young_exponential,
    young_indicator_ball,
    young_power,
    young_power_over_p,
    young_tabulated,
)
from kothe._optim import minimize_scalar_convex
from kothe.norms import (
    CustomSeminorm,
    LorentzNorm,
    LpNorm,
    LuxemburgNorm,
    MarcinkiewiczNorm,
    RiskNorm,
)
from families import BUILTIN_FAMILIES

UNIFORM4 = FiniteProbSpace.uniform(4)
U4132 = Rv([4.0, 1.0, 3.0, 2.0])


def test_lp_examples():
    assert lp_norm(UNIFORM4, Rv.constant(1.0, 4), 2) == pytest.approx(1.0)
    assert lp_norm(UNIFORM4, Rv([4.0, 0, 0, 0]), 1) == pytest.approx(1.0)
    assert lp_norm(UNIFORM4, U4132, math.inf) == 4.0
    with pytest.raises(ValueError):
        lp_norm(UNIFORM4, U4132, 0.5)


def test_luxemburg_examples():
    fam = MusielakFamily.constant(young_power(2), 4)
    assert luxemburg_norm(UNIFORM4, Rv.constant(1.0, 4), fam) == pytest.approx(1.0, rel=1e-9)
    assert luxemburg_norm(UNIFORM4, Rv.zero(4), fam) == 0.0
    ball = MusielakFamily.constant(young_indicator_ball(1.0), 4)
    assert luxemburg_norm(UNIFORM4, U4132, ball) == pytest.approx(4.0, rel=1e-9)


def test_luxemburg_equals_lp_for_powers():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        p = float(rng.uniform(1.0, 4.0))
        u = Rv(rng.standard_normal(n) * 10 ** rng.uniform(-1, 1))
        fam = MusielakFamily.constant(young_power(p), n)
        assert luxemburg_norm(space, u, fam) == pytest.approx(
            lp_norm(space, u, p), rel=1e-9
        )


def test_luxemburg_scaling():
    rng = np.random.default_rng(32)
    fam = MusielakFamily.constant(young_power_over_p(2.5), 5)
    space = FiniteProbSpace.uniform(5)
    for _ in range(20):
        u = Rv(rng.standard_normal(5))
        alpha = float(rng.uniform(0.1, 10))
        a = luxemburg_norm(space, Rv(alpha * u.values), fam)
        b = alpha * luxemburg_norm(space, u, fam)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_amemiya_examples():
    fam = MusielakFamily.constant(young_power(2), 4)
    assert amemiya_dual_norm(UNIFORM4, Rv([2.0, 0, 0, 0]), fam) == pytest.approx(1.0, abs=1e-9)
    assert amemiya_dual_norm(UNIFORM4, Rv.zero(4), fam) == 0.0
    pop = MusielakFamily.constant(young_power_over_p(2), 4)
    y = Rv.constant(1.0, 4)
    value = amemiya_dual_norm(UNIFORM4, y, pop)
    lower = luxemburg_norm(UNIFORM4, y, pop.conjugate())
    assert lower - 1e-9 <= value <= 2.0 * lower + 1e-9


def test_marcinkiewicz_examples():
    # phi(t) = t turns the running average into the sup norm
    rng = np.random.default_rng(33)
    for _ in range(10):
        u = Rv(rng.standard_normal(6))
        space = FiniteProbSpace.uniform(6)
        assert marcinkiewicz_norm(space, u, phi_identity()) == pytest.approx(
            lp_norm(space, u, math.inf), abs=1e-12
        )
    assert marcinkiewicz_norm(UNIFORM4, U4132, phi_sqrt()) == pytest.approx(
        2.25 / math.sqrt(0.75), abs=1e-12
    )
    a = indicator(UNIFORM4, [0])
    assert marcinkiewicz_norm(UNIFORM4, a, phi_sqrt()) == pytest.approx(0.5, abs=1e-12)


def _dense_grid_marcinkiewicz(space, u, phi, n_grid=10**4):
    q = quantile(space, u)
    ts = np.arange(1, n_grid + 1) / n_grid
    bp = q.breakpoints
    f_at_bp = q.integrals_at_breakpoints()
    f = np.interp(ts, bp, f_at_bp)
    return float(np.max(f / phi(ts)))


def test_marcinkiewicz_breakpoints_match_dense_grid():
    rng = np.random.default_rng(34)
    sizes = [2, 4, 5, 8, 10, 16]
    worst = 0.0
    for k in range(100):
        n = sizes[k % len(sizes)]
        space = FiniteProbSpace.uniform(n)
        u = Rv(rng.standard_normal(n) * 10 ** rng.uniform(-1, 1))
        phi = phi_sqrt() if k % 2 == 0 else phi_power_root(0.75)
        exact = marcinkiewicz_norm(space, u, phi)
        gridded = _dense_grid_marcinkiewicz(space, u, phi)
        worst = max(worst, abs(exact - gridded))
        assert exact >= gridded - 1e-12
    assert worst <= 1e-8


def test_marcinkiewicz_rejects_vanishing_phi():
    flat = phi_tabulated([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        marcinkiewicz_norm(UNIFORM4, U4132, flat)


def test_lorentz_examples():
    a = indicator(UNIFORM4, [0])
    assert lorentz_norm(UNIFORM4, a, phi_sqrt()) == pytest.approx(0.5, abs=1e-12)
    assert lorentz_norm(UNIFORM4, Rv.constant(-2.0, 4), phi_sqrt()) == pytest.approx(2.0)
    rng = np.random.default_rng(35)
    u = Rv(rng.standard_normal(4))
    assert lorentz_norm(UNIFORM4, u, phi_identity()) == pytest.approx(
        lp_norm(UNIFORM4, u, 1), abs=1e-12
    )


def test_gen_orlicz_examples():
    rng = np.random.default_rng(36)
    phi = young_power(2)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        space = FiniteProbSpace.uniform(n)
        u = Rv(rng.standard_normal(n))
        fam = MusielakFamily.constant(phi, n)
        # inner L1 recovers the plain Luxemburg construction
        assert gen_orlicz_norm(space, u, phi, LpNorm(1)) == pytest.approx(
            luxemburg_norm(space, u, fam), rel=1e-9, abs=1e-9
        )
        assert gen_orlicz_norm(space, u, phi, LpNorm(math.inf)) == pytest.approx(
            lp_norm(space, u, math.inf), rel=1e-9, abs=1e-12
        )
    assert gen_orlicz_norm(UNIFORM4, Rv.zero(4), phi, LpNorm(1)) == 0.0


def test_gen_orlicz_rejects_broken_inner():
    broken = CustomSeminorm(lambda s, x: float(np.dot(s.probs, x)), name="signed-mean")
    with pytest.raises(ValueError):
        gen_orlicz_norm(UNIFORM4, U4132, young_power(2), broken)


def test_gen_orlicz_dual_reduces_to_amemiya():
    rng = np.random.default_rng(37)
    for k in range(5):
        n = int(rng.integers(2, 6))
        space = FiniteProbSpace.uniform(n)
        phi = young_power(float(rng.uniform(1.5, 3.0)))
        y = Rv(rng.standard_normal(n))
        res = gen_orlicz_dual_norm(space, y, phi, LpNorm(1))
        fam = MusielakFamily.constant(phi, n)
        assert res.value == pytest.approx(amemiya_dual_norm(space, y, fam), abs=1e-6)
    assert gen_orlicz_dual_norm(UNIFORM4, Rv.zero(4), young_power(2), LpNorm(1)).value == 0.0


def test_gen_orlicz_dual_sandwich_lorentz_inner():
    # the pinned instance: quadratic Young function, spiky density
    res = gen_orlicz_dual_norm(
        UNIFORM4, Rv([1.0, 0.0, 0.0, 0.0]), young_power(2), LorentzNorm(phi_sqrt())
    )
    assert res.max_form <= res.value + 1e-9
    assert res.value <= 2.0 * res.max_form + 1e-9
    rng = np.random.default_rng(38)
    for k in range(4):
        n = int(rng.integers(2, 5))
        space = FiniteProbSpace.uniform(n)
        y = Rv(rng.standard_normal(n))
        res = gen_orlicz_dual_norm(
            space, y, young_power(float(rng.uniform(1.5, 3.0))), LorentzNorm(phi_sqrt())
        )
        assert res.max_form <= res.value + 1e-6
        assert res.value <= 2.0 * res.max_form + 1e-6


def test_check_axioms_pass_and_fail():
    assert check_axioms(UNIFORM4, LpNorm(2), trials=30, seed=5).all_pass
    report = check_axioms(
        FiniteProbSpace.uniform(6), MarcinkiewiczNorm(phi_sqrt()), trials=30, seed=5
    )
    assert report.all_pass
    broken = CustomSeminorm(lambda s, x: float(np.dot(s.probs, x)), name="signed-mean")
    rb = check_axioms(UNIFORM4, broken, trials=30, seed=5)
    assert not rb.all_pass
    assert "symmetry" in rb.failure_names()
    witnesses = [i.witness for i in rb.items if i.name == "symmetry"]
    assert witnesses[0] is not None


def test_fundamental_functions_lp():
    ff = fundamental_functions(UNIFORM4, LpNorm(2))
    assert np.allclose(ff.ts, [0.25, 0.5, 0.75, 1.0])
    assert np.allclose(ff.upper, np.sqrt(ff.ts), atol=1e-12)
    assert np.allclose(ff.lower, np.sqrt(ff.ts), atol=1e-12)


def test_fundamental_functions_marcinkiewicz():
    space = FiniteProbSpace.uniform(8)
    phi = phi_sqrt()
    ff = fundamental_functions(space, MarcinkiewiczNorm(phi))
    expected = ff.ts / phi(ff.ts)
    assert np.allclose(ff.upper, expected, atol=1e-12)
    assert np.allclose(ff.lower, expected, atol=1e-12)


def test_fundamental_functions_nonuniform_enumeration():
    space = FiniteProbSpace([0.1, 0.2, 0.3, 0.4])
    spec = LpNorm(2)
    ff = fundamental_functions(space, spec)
    # brute-force oracle over all subsets
    import itertools

    subs = []
    for r in range(1, 5):
        for comb in itertools.combinations(range(4), r):
            pa = float(space.probs[list(comb)].sum())
            subs.append((pa, math.sqrt(pa)))
    for t, up, lo in zip(ff.ts, ff.upper, ff.lower):
        want_up = max(v for pa, v in subs if pa <= t + 1e-12)
        want_lo = min(v for pa, v in subs if pa >= t - 1e-12)
        assert up == pytest.approx(want_up, abs=1e-12)
        assert lo == pytest.approx(want_lo, abs=1e-12)


def test_family_membership():
    fam = [LpNorm(1), LpNorm(2), LpNorm(4)]
    vals = family_membership(UNIFORM4, U4132, fam)
    # direct power sums
    expect = [
        (4 + 1 + 3 + 2) / 4,
        math.sqrt((16 + 1 + 9 + 4) / 4),
        ((256 + 1 + 81 + 16) / 4) ** 0.25,
    ]
    assert np.allclose(vals, expect, atol=1e-12)
    assert np.allclose(family_membership(UNIFORM4, Rv.zero(4), fam), 0.0)
    assert family_membership(UNIFORM4, U4132, [LpNorm(math.inf)])[0] == 4.0
    with pytest.raises(ValueError):
        family_membership(UNIFORM4, U4132, [])


def _random_partition(rng, n):
    idx = list(rng.permutation(n))
    blocks, i = [], 0
    while i < n:
        j = min(n, i + int(rng.integers(1, 4)))
        blocks.append(tuple(idx[i:j]))
        i = j
    return Partition(tuple(blocks))


def test_jensen_contraction_invariant_specs():
    rng = np.random.default_rng(39)
    space = FiniteProbSpace.uniform(6)
    specs = [
        LpNorm(2),
        LuxemburgNorm(MusielakFamily.constant(young_power(2.5), 6)),
        MarcinkiewiczNorm(phi_sqrt()),
        LorentzNorm(phi_sqrt()),
    ]
    for _ in range(50):
        u = Rv(rng.standard_normal(6))
        g = _random_partition(rng, 6)
        eu = conditional_expectation(space, u, g)
        for spec in specs:
            assert spec.value(space, eu) <= spec.value(space, u) + 1e-10


def test_jensen_counterexample_without_invariance():
    # the norm max(E|u|, first-atom mass) contracts under the one nontrivial
    # coarsening of a two-point space yet is not rearrangement invariant
    space = FiniteProbSpace.uniform(2)
    spec = CustomSeminorm(
        lambda s, x: max(float(np.dot(s.probs, np.abs(x))), abs(float(x[0]))),
        name="first-atom-mass",
    )
    a = indicator(space, [0])
    ac = indicator(space, [1])
    assert spec.value(space, a) == 1.0
    assert spec.value(space, ac) == 0.5
    rng = np.random.default_rng(40)
    for _ in range(20):
        u = Rv(rng.standard_normal(2))
        eu = conditional_expectation(space, u, Partition.trivial(2))
        assert spec.value(space, eu) <= spec.value(space, u) + 1e-12


def test_phi_concave_validation():
    with pytest.raises(ValueError):
        phi_power_root(0.0)
    with pytest.raises(ValueError):
        phi_power_root(1.5)
    with pytest.raises(ValueError):
        phi_tabulated([0.0, 0.4, 1.0], [0.0, 0.1, 1.0])  # convex, not concave
    phi = phi_tabulated([0.0, 0.5, 1.0], [0.0, 0.8, 1.0])
    assert phi(0.25) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# power gauges: scale-free, and the Amemiya dual by its stationarity equation

NONUNIFORM4 = FiniteProbSpace(np.array([0.1, 0.2, 0.3, 0.4]))
Y4 = np.array([0.5, -2.0, 1.5, 0.25])
MIXED4 = MusielakFamily(
    (young_power(3.0, 0.5), young_power(2.0), young_power_over_p(2.5), young_power(1.5, 2.0))
)
CUBIC4 = MusielakFamily.constant(young_power(3.0), 4)
EXP4 = MusielakFamily.constant(young_exponential(), 4)
TABLE_XS = np.linspace(0.0, 3.0, 31)
TABULATED4 = MusielakFamily.constant(young_tabulated(TABLE_XS, TABLE_XS**2), 4)
SCALES = [1e-200, 1e-100, 1e-20, 1e20, 1e100, 1e200]
# the bisection gauges divide by max|x| first, so they hold to the ends of the range
BISECTION_KINDS = ["gen_orlicz_l1", "luxemburg_tabulated"]


def _amemiya_oracle(space, y, family):
    """The minimize_scalar_convex route that the power families used before."""
    conj = family.conjugate()
    a = np.abs(y)

    def objective(beta):
        return beta * conj.modular(space.probs, a / beta) + beta

    return minimize_scalar_convex(objective, x0=float(np.dot(space.probs, a)), tol=1e-9)[1]


@pytest.mark.parametrize(
    "kind, scale",
    [
        (kind, scale)
        for kind in ["lp", "luxemburg_cubic", "luxemburg_mixed", "amemiya_const", "amemiya_mixed", "amemiya_exp"]
        for scale in SCALES
    ]
    + [(kind, scale) for kind in BISECTION_KINDS for scale in SCALES + [1e-300, 1e300]]
    # the golden-section route minimizes on |y| / max|y|, so it too holds there
    + [("amemiya_exp", scale) for scale in (1e-300, 1e-150, 1e150, 1e300)],
)
def test_norms_are_homogeneous_across_scales(kind, scale):
    fn = {
        "lp": lambda y: lp_norm(NONUNIFORM4, Rv(y), 3.0),
        "luxemburg_cubic": lambda y: luxemburg_norm(NONUNIFORM4, Rv(y), CUBIC4),
        "luxemburg_mixed": lambda y: luxemburg_norm(NONUNIFORM4, Rv(y), MIXED4),
        "amemiya_const": lambda y: amemiya_dual_norm(NONUNIFORM4, Rv(y), CUBIC4),
        "amemiya_mixed": lambda y: amemiya_dual_norm(NONUNIFORM4, Rv(y), MIXED4),
        # golden-section route: its stopping width is relative to the bracket
        "amemiya_exp": lambda y: amemiya_dual_norm(NONUNIFORM4, Rv(y), EXP4),
        "gen_orlicz_l1": lambda y: gen_orlicz_norm(NONUNIFORM4, Rv(y), young_power(2.0), LpNorm(1.0)),
        "luxemburg_tabulated": lambda y: luxemburg_norm(NONUNIFORM4, Rv(y), TABULATED4),
    }[kind]
    assert fn(Y4 * scale) / scale == pytest.approx(fn(Y4), rel=1e-12)


# risk norms whose gauge is a root search, besides the built-in entropic(2)
RISK_GAUGES = {
    "risk_entropic_0.7": lambda n: RiskNorm(entropic(0.7)),
    "risk_entropic_50": lambda n: RiskNorm(entropic(50.0)),
    # E[x] + E[(x+)^2] / 2 overflows at 2**995 even where its gauge does not
    "risk_custom_quadratic": lambda n: RiskNorm(
        custom_risk(lambda sp, x: float(sp.probs @ x + 0.5 * (sp.probs @ np.maximum(x, 0.0) ** 2)))
    ),
}


@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES) + sorted(RISK_GAUGES))
def test_every_family_is_homogeneous_at_the_ends_of_the_float_range(family):
    make = BUILTIN_FAMILIES.get(family) or RISK_GAUGES[family]
    rng = np.random.default_rng(1000)
    for n in (1, 3, 6):
        for space in (FiniteProbSpace.uniform(n), FiniteProbSpace(rng.dirichlet(np.ones(n)))):
            spec = make(n)
            x = rng.standard_normal(n)
            want = spec.value(space, Rv(x))
            for e in (-1000, -996, 995, 1000):
                got = spec.value(space, Rv(np.ldexp(x, e)))
                assert got == pytest.approx(math.ldexp(want, e), rel=1e-9), (n, space.is_uniform, e)


@pytest.mark.parametrize("p", [1.2, 2.0, 2.3, 3.0, 6.0])
def test_power_amemiya_equals_conjugate_lp(p):
    # for Phi = x^p the Amemiya (Orlicz) norm is exactly the L^q norm
    rng = np.random.default_rng(int(10 * p))
    q = p / (p - 1.0)
    for n in (1, 3, 7):
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        y = Rv(rng.standard_normal(n) * 10 ** rng.uniform(-2, 2))
        fam = MusielakFamily.constant(young_power(p), n)
        assert amemiya_dual_norm(space, y, fam) == pytest.approx(lp_norm(space, y, q), rel=1e-12)


def test_mixed_power_amemiya_matches_minimizer_oracle(monkeypatch):
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 9))
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        fam = MusielakFamily(
            tuple(young_power(float(rng.uniform(1.05, 5.0)), float(rng.uniform(0.1, 4.0))) for _ in range(n))
        )
        y = rng.standard_normal(n) * 10 ** rng.uniform(-1, 1)
        cases.append((space, y, fam, _amemiya_oracle(space, y, fam)))
        # amemiya_exp: Phi = e^x - 1 on every atom
        exp_fam = MusielakFamily.constant(young_exponential(), n)
        cases.append((space, y, exp_fam, _amemiya_oracle(space, y, exp_fam)))

    # the all-power and all-exp routes solve for one multiplier and never minimize
    def refuse(*args, **kwargs):
        raise AssertionError("power and exp families must not take the golden route")

    monkeypatch.setattr("kothe.norms.minimize_scalar_convex", refuse)
    for space, y, fam, expected in cases:
        assert amemiya_dual_norm(space, Rv(y), fam) == pytest.approx(expected, rel=1e-10)


def test_linear_conjugate_families_keep_the_generic_route(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return minimize_scalar_convex(*args, **kwargs)

    monkeypatch.setattr("kothe.norms.minimize_scalar_convex", counting)
    y = Rv(Y4)
    # indicator ball of radius 1.5: the conjugate is 1.5 x, the infimum 1.5 E|y|
    ball = MusielakFamily.constant(young_indicator_ball(1.5), 4)
    assert amemiya_dual_norm(NONUNIFORM4, y, ball) == pytest.approx(1.5, rel=1e-15)
    # Phi = 2x: the conjugate is the ball of radius 2, the minimum max|y| / 2
    linear = MusielakFamily.constant(young_power(1.0, 2.0), 4)
    assert amemiya_dual_norm(NONUNIFORM4, y, linear) == pytest.approx(1.0, rel=1e-9)
    mixed = MusielakFamily((young_power(1.0, 2.0), young_power(2.0), young_power(3.0, 0.5), young_power(1.5)))
    expected = _amemiya_oracle(NONUNIFORM4, Y4, mixed)
    assert amemiya_dual_norm(NONUNIFORM4, y, mixed) == pytest.approx(expected, rel=1e-15)
    assert len(calls) == 3



@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
@settings(max_examples=6, deadline=None)
@given(n=st.integers(1, 10), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_builtin_families_hold_the_axioms_by_construction(family, n, uniform, seed):
    rng = np.random.default_rng(seed)
    space = FiniteProbSpace.uniform(n) if uniform else FiniteProbSpace(rng.dirichlet(np.ones(n)))
    spec = BUILTIN_FAMILIES[family](n)
    assert spec.axioms_by_construction
    report = check_axioms(space, spec, trials=8, seed=seed)
    assert report.core_pass, report.failure_names()

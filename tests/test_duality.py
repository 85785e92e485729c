import math

import numpy as np
import pytest

from kothe import (
    FiniteProbSpace,
    MusielakFamily,
    Rv,
    amemiya_dual_norm,
    density_of_functional,
    expectation,
    indicator,
    lorentz_norm,
    lp_norm,
    marcinkiewicz_norm,
    pairing,
    phi_sqrt,
    polar,
    rho_m,
    singular_part_report,
    verify_bipolar,
    verify_holder,
    verify_sandwich,
    young_power,
    young_power_over_p,
)
import kothe.duality
import kothe.norms
from kothe import avar, check_axioms, custom_risk, entropic, gen_orlicz_dual_norm, risk_dual_norm, young_exponential
from kothe.duality import _AmemiyaDualNorm, _PolarNorm, dual_spec_of
from kothe.norms import (
    CustomSeminorm,
    GenOrliczNorm,
    LorentzNorm,
    LpNorm,
    LuxemburgNorm,
    MarcinkiewiczNorm,
    RiskNorm,
)
from kothe.risk import RiskMeasureSpec

from families import BUILTIN_FAMILIES

UNIFORM4 = FiniteProbSpace.uniform(4)
# two atoms, and from seed 11 the masses of the Dirichlet space and both y
_GAP_RNG = np.random.default_rng(11)
GAP_CASES = {
    "uniform": (FiniteProbSpace.uniform(2), Rv(_GAP_RNG.standard_normal(2))),
    "dirichlet": (FiniteProbSpace(_GAP_RNG.dirichlet(np.ones(2))), Rv(_GAP_RNG.standard_normal(2))),
}


def test_polar_l2_example():
    res = polar(UNIFORM4, LpNorm(2), Rv([2.0, 0, 0, 0]))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.gap <= 1e-9
    assert pairing(UNIFORM4, res.maximizer, Rv([2.0, 0, 0, 0])) == pytest.approx(
        res.value, abs=1e-9
    )
    assert LpNorm(2).value(UNIFORM4, res.maximizer) <= 1.0 + 1e-9


@pytest.mark.parametrize("masses", sorted(GAP_CASES))
@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
def test_polar_gap_is_the_shortfall_against_the_registered_dual(family, masses):
    # every family with a registered dual gets a checked gap, the avar and
    # entropic risk norms included (their closed forms exceed the value by
    # up to 4.3e-13 here); the others report 0.0
    space, y = GAP_CASES[masses]
    spec = BUILTIN_FAMILIES[family](2)
    res = polar(space, spec, y)
    dual = dual_spec_of(space, spec)
    assert res.gap == (0.0 if dual is None else max(0.0, dual.value(space, y) - res.value))


def test_polar_l1_is_sup_norm():
    rng = np.random.default_rng(61)
    for _ in range(10):
        y = Rv(rng.standard_normal(4))
        res = polar(UNIFORM4, LpNorm(1), y)
        assert res.value == pytest.approx(np.abs(y.values).max(), abs=1e-9)


def test_polar_marcinkiewicz_equals_lorentz():
    res = polar(UNIFORM4, MarcinkiewiczNorm(phi_sqrt()), indicator(UNIFORM4, [0]))
    assert res.value == pytest.approx(0.5, abs=1e-6)
    rng = np.random.default_rng(62)
    for k in range(10):
        n = int(rng.integers(2, 9))
        space = FiniteProbSpace.uniform(n)
        y = Rv(rng.standard_normal(n))
        res = polar(space, MarcinkiewiczNorm(phi_sqrt()), y, seed=k)
        assert res.value == pytest.approx(lorentz_norm(space, y, phi_sqrt()), abs=1e-6)
        # and the mutual direction
        res = polar(space, LorentzNorm(phi_sqrt()), y, seed=k)
        assert res.value == pytest.approx(marcinkiewicz_norm(space, y, phi_sqrt()), abs=1e-6)


def test_polar_lp_conjugate_pairs():
    rng = np.random.default_rng(63)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        q = math.inf if p == 1.0 else (1.0 if math.isinf(p) else p / (p - 1.0))
        for _ in range(5):
            n = int(rng.integers(2, 7))
            probs = rng.random(n) + 0.2
            space = FiniteProbSpace(probs / probs.sum())
            y = Rv(rng.standard_normal(n))
            res = polar(space, LpNorm(p), y)
            assert res.value == pytest.approx(lp_norm(space, y, q), abs=1e-6)


def test_polar_monotone_in_domination():
    rng = np.random.default_rng(65)
    spec = MarcinkiewiczNorm(phi_sqrt())
    for k in range(10):
        n = int(rng.integers(2, 7))
        space = FiniteProbSpace.uniform(n)
        y = rng.standard_normal(n)
        smaller = y * rng.uniform(0, 1, n)
        big = polar(space, spec, Rv(y), seed=k).value
        small = polar(space, spec, Rv(smaller), seed=k).value
        assert small <= big + 1e-7


def test_polar_luxemburg_matches_amemiya():
    rng = np.random.default_rng(66)
    for k in range(10):
        n = int(rng.integers(2, 6))
        probs = rng.random(n) + 0.2
        space = FiniteProbSpace(probs / probs.sum())
        fam = MusielakFamily(
            tuple(
                young_power(p, s)
                for p, s in zip(rng.uniform(1.3, 3.0, n), rng.uniform(0.5, 2.0, n))
            )
        )
        y = Rv(rng.standard_normal(n))
        res = polar(space, LuxemburgNorm(fam), y, seed=k)
        assert res.value == pytest.approx(amemiya_dual_norm(space, y, fam), abs=1e-5)


def test_polar_zero_and_axiom_failure():
    res = polar(UNIFORM4, LpNorm(2), Rv.zero(4))
    assert res.value == 0.0 and res.converged
    broken = CustomSeminorm(lambda s, x: float(np.dot(s.probs, x)), name="signed-mean")
    with pytest.raises(ValueError):
        polar(UNIFORM4, broken, Rv([1.0, 0, 0, 0]))


def test_callback_specs_are_still_screened():
    # the risk norm of a concave callback is the L^(1/2) quasi-norm, which
    # fails subadditivity; the signed mean fails symmetry inside the gauge
    root = RiskNorm(custom_risk(lambda s, x: float(np.dot(s.probs, np.sqrt(np.abs(x))))))
    assert not root.axioms_by_construction
    with pytest.raises(ValueError, match="subadditivity"):
        polar(UNIFORM4, root, Rv([1.0, 0, 0, 0]))
    # any kind other than the two that the library evaluates itself runs a
    # callback, so it is screened whatever its tag
    tagged = RiskNorm(RiskMeasureSpec("tagged", fn=root.rho.fn))
    assert not tagged.axioms_by_construction
    with pytest.raises(ValueError, match="subadditivity"):
        polar(UNIFORM4, tagged, Rv([1.0, 0, 0, 0]))
    signed = CustomSeminorm(lambda s, x: float(np.dot(s.probs, x)), name="signed-mean")
    with pytest.raises(ValueError, match="inner seminorm"):
        GenOrliczNorm(young_power(2), signed).value(UNIFORM4, Rv([1.0, 0, 0, 0]))


def test_callback_specs_that_hold_the_axioms_reach_the_screen(monkeypatch):
    # the screen depends on the type, not on the outcome: a callback that
    # happens to be a seminorm (the mean of |x| gauges to L1) is checked once
    # per space and then served from the cache
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return check_axioms(*args, **kwargs)

    monkeypatch.setattr(kothe.duality, "check_axioms", counted)
    mean = RiskNorm(custom_risk(lambda s, x: float(np.dot(s.probs, x))))
    for y in ([1.0, 0, 0, 0], [0.0, 2, -1, 3]):
        assert polar(UNIFORM4, mean, Rv(y)).value == pytest.approx(max(np.abs(y)), rel=1e-6)
    assert calls == [mean]


def test_builtin_specs_never_reach_the_axiom_checker(monkeypatch):
    # the constructors of the built-in families guarantee the axioms, so no
    # randomized screen runs on them, nor on the duals built from them
    def refused(*args, **kwargs):
        raise AssertionError("check_axioms ran on a built-in spec")

    monkeypatch.setattr(kothe.duality, "check_axioms", refused)
    monkeypatch.setattr(kothe.norms, "check_axioms", refused)
    rng = np.random.default_rng(418)
    n = 5
    spaces = [FiniteProbSpace.uniform(n), FiniteProbSpace(rng.dirichlet(np.ones(n)))]
    quad = MusielakFamily.constant(young_power(2.3), n)
    specs = [
        LpNorm(1),
        LpNorm(2),
        LpNorm(math.inf),
        LuxemburgNorm(quad),
        LuxemburgNorm(MusielakFamily.constant(young_exponential(), n)),
        MarcinkiewiczNorm(phi_sqrt()),
        LorentzNorm(phi_sqrt()),
        RiskNorm(avar(0.3)),
        RiskNorm(entropic(1.0)),
        GenOrliczNorm(young_power(2), LpNorm(1)),
        dual_spec_of(spaces[0], RiskNorm(avar(0.3))),
        _AmemiyaDualNorm(LuxemburgNorm(quad)),
        _AmemiyaDualNorm(RiskNorm(entropic(1.0))),
    ]
    for space in spaces:
        y = Rv(rng.standard_normal(n))
        for spec in specs:
            assert spec.axioms_by_construction
            assert polar(space, spec, y).converged
        for rho in (avar(0.3), entropic(1.0)):
            risk_dual_norm(space, rho, y)
        gen_orlicz_dual_norm(space, y, young_power(2), LpNorm(1))
    nonuniform = spaces[1]
    u = Rv(rng.standard_normal(n))
    for spec in (LpNorm(3), LorentzNorm(phi_sqrt())):
        assert verify_bipolar(nonuniform, spec, u).rel_gap <= 1e-9
    # Lorentz has a registered dual, so its numeric dual is built directly
    numeric = _PolarNorm(LorentzNorm(phi_sqrt()), 0)
    assert numeric.axioms_by_construction
    assert polar(nonuniform, numeric, u).converged


def test_verify_holder():
    rng = np.random.default_rng(67)
    assert verify_holder(UNIFORM4, LpNorm(2), Rv.zero(4), Rv([1.0, 2, 3, 4]))
    for _ in range(10):
        u = Rv(rng.standard_normal(4))
        y = Rv(rng.standard_normal(4))
        assert verify_holder(UNIFORM4, LpNorm(2), u, y)
    # equality exactly on proportional pairs
    u = Rv(rng.standard_normal(4))
    y = Rv(2.5 * u.values)
    res = polar(UNIFORM4, LpNorm(2), y)
    assert pairing(UNIFORM4, u, y) == pytest.approx(
        lp_norm(UNIFORM4, u, 2) * res.value, rel=1e-8
    )
    for k in range(30):
        n = int(rng.integers(2, 7))
        space = FiniteProbSpace.uniform(n)
        spec = MarcinkiewiczNorm(phi_sqrt()) if k % 2 == 0 else LorentzNorm(phi_sqrt())
        assert verify_holder(
            space, spec, Rv(rng.standard_normal(n)), Rv(rng.standard_normal(n)), seed=k
        )


def test_verify_bipolar():
    rng = np.random.default_rng(68)
    for p in (1.0, 2.0, 3.0):
        for k in range(4):
            n = int(rng.integers(2, 7))
            space = FiniteProbSpace.uniform(n)
            rep = verify_bipolar(space, LpNorm(p), Rv(rng.standard_normal(n)), seed=k)
            assert rep.rel_gap <= 1e-5
    space = FiniteProbSpace.uniform(8)
    rep = verify_bipolar(space, MarcinkiewiczNorm(phi_sqrt()), indicator(space, [0, 3]))
    assert rep.rel_gap <= 1e-5
    rep = verify_bipolar(UNIFORM4, LpNorm(2), Rv.zero(4))
    assert rep.primal == 0.0 and rep.bipolar == 0.0 and rep.rel_gap == 0.0


def test_verify_bipolar_risk_norm():
    from kothe import avar
    from kothe.norms import RiskNorm

    rng = np.random.default_rng(681)
    space = FiniteProbSpace.uniform(4)
    rep = verify_bipolar(space, RiskNorm(avar(0.6)), Rv(rng.standard_normal(4)), seed=1)
    assert rep.rel_gap <= 1e-5


def test_verify_bipolar_without_closed_form():
    # a wrapped callback norm has no registered dual: the numeric dual, cut
    # by the witnesses of the inner line-search polars, must still round-trip
    custom = CustomSeminorm(
        lambda s, x: 1.7 * math.sqrt(float(np.dot(s.probs, x**2))), name="scaled-l2"
    )
    rng = np.random.default_rng(682)
    space = FiniteProbSpace.uniform(3)
    rep = verify_bipolar(space, custom, Rv(rng.standard_normal(3)), seed=1)
    assert rep.rel_gap <= 1e-9


@pytest.mark.parametrize(
    "name, n, uniform, gate",
    [
        ("lorentz", 5, False, 1e-12),
        ("lorentz", 8, False, 1e-12),
        ("genorlicz-l1", 5, True, 1e-11),
        ("genorlicz-l1", 5, False, 1e-11),
        ("genorlicz-lorentz", 5, True, 1e-11),
        ("genorlicz-lorentz", 5, False, 1e-11),
    ],
)
def test_verify_bipolar_by_cuts_on_polar_witnesses(name, n, uniform, gate):
    # the numeric dual is cut by the witnesses of inner polars.  The
    # generalized Orlicz norms have no registered dual, so verify_bipolar
    # takes it; Lorentz has one, so its numeric dual is built here.  Lorentz
    # balls are polytopes, so the round trip is exact; the generalized Orlicz
    # one stops at the 1e-12 brackets of its inner polars.  A nested
    # line-search polar read 3.7e-2 (n = 5) and 3.1e-2 (n = 8) on these
    # Lorentz cases.
    inner = {"lorentz": None, "genorlicz-l1": LpNorm(1.0), "genorlicz-lorentz": LorentzNorm(phi_sqrt())}[name]
    spec = LorentzNorm(phi_sqrt()) if inner is None else GenOrliczNorm(young_power(2), inner)
    rng = np.random.default_rng(683 + n)
    space = FiniteProbSpace.uniform(n) if uniform else FiniteProbSpace(rng.dirichlet(np.ones(n)))
    u = Rv(rng.standard_normal(n))
    if inner is None:
        res = polar(space, _PolarNorm(spec, 2), u, seed=2)
        assert abs(res.value - spec.value(space, u)) <= gate * spec.value(space, u)
        return
    assert dual_spec_of(space, spec) is None
    assert verify_bipolar(space, spec, u, seed=2).rel_gap <= gate


def test_numeric_dual_runs_one_inner_polar_per_kelley_point(monkeypatch):
    # the facet of the numeric dual at a point is the witness of one inner
    # polar, and its pairing with the point is the dual norm there, so no
    # second inner polar evaluates the norm: every point costs one inner polar
    spec = GenOrliczNorm(young_power(2), LpNorm(1.0))
    space = FiniteProbSpace(np.random.default_rng(3).dirichlet(np.ones(6)))
    u = Rv(np.random.default_rng(4).standard_normal(6))
    points: list[bytes] = []
    inner = kothe.duality.polar

    def counting(space, s, y, **kwargs):
        if s is spec:
            points.append(y.values.tobytes())
        return inner(space, s, y, **kwargs)

    monkeypatch.setattr(kothe.duality, "polar", counting)
    rep = verify_bipolar(space, spec, u)
    assert rep.rel_gap <= 1e-11
    assert len(points) == len(set(points))


def test_line_search_polar_is_rearranged_onto_y():
    # an invariant callback on a uniform space keeps the uncertified line
    # search, whose profile can land off the order of |y| (it does on the
    # first draw here); by the rearrangement inequality the profile is moved
    # onto that order, so the maximizer is comonotone with y
    spec = CustomSeminorm(
        lambda s, x: marcinkiewicz_norm(s, Rv(x), phi_sqrt()), rearrangement_invariant=True, name="marc-callback"
    )
    space = FiniteProbSpace.uniform(8)
    rng = np.random.default_rng(684)
    for k in range(3):
        y = rng.standard_normal(8)
        res = polar(space, spec, Rv(y), seed=k)
        assert res.upper is None
        u = res.maximizer.values
        assert np.all(u * y >= 0.0)
        assert np.all(np.diff(np.abs(u)[np.argsort(-np.abs(y))]) <= 0.0)
        assert spec.value(space, res.maximizer) <= 1.0 + 1e-9
        # the Lorentz norm is the exact polar
        assert res.value <= lorentz_norm(space, Rv(y), phi_sqrt()) * (1.0 + 1e-12)


def test_verify_sandwich_musielak():
    rng = np.random.default_rng(69)
    fam2 = MusielakFamily.constant(young_power(2), 4)
    for _ in range(5):
        y = Rv(rng.standard_normal(4))
        rep = verify_sandwich(UNIFORM4, fam2, y)
        assert rep.ok
        # quadratic case: the conjugate-modular gauge is half the dual norm, so
        # the sandwich collapses onto its upper edge
        assert rep.ratio == pytest.approx(2.0, rel=1e-9)
    fam3 = MusielakFamily.constant(young_power_over_p(3), 5)
    space = FiniteProbSpace.uniform(5)
    for _ in range(10):
        y = Rv(rng.standard_normal(5))
        rep = verify_sandwich(space, fam3, y)
        assert rep.ok
        assert 1.0 - 1e-9 <= rep.ratio <= 2.0 + 1e-9
    rep = verify_sandwich(UNIFORM4, fam2, Rv.zero(4))
    assert rep.ok and rep.lower == 0.0 and rep.value == 0.0


def test_rho_m_examples():
    u = Rv([4.0, 1.0, 3.0, 2.0])
    y = Rv([1.0, -1.0, 1.0, -1.0])
    assert rho_m(UNIFORM4, u, y) == pytest.approx(2.5)
    assert rho_m(UNIFORM4, u, Rv.zero(4)) == 0.0
    assert rho_m(UNIFORM4, Rv(-u.values), y) == rho_m(UNIFORM4, u, y)
    assert rho_m(UNIFORM4, u, Rv(-np.asarray(y.values))) == rho_m(UNIFORM4, u, y)


def test_singular_part_report():
    y = density_of_functional(UNIFORM4, np.array([1.0, 0, 0, 0]))
    assert np.allclose(y.values, [4.0, 0, 0, 0])
    rng = np.random.default_rng(70)
    u = Rv(rng.standard_normal(4))
    assert pairing(UNIFORM4, u, y) == pytest.approx(u.values[0], abs=1e-12)
    ones = density_of_functional(UNIFORM4, UNIFORM4.probs)
    assert np.allclose(ones.values, 1.0)
    assert pairing(UNIFORM4, u, ones) == pytest.approx(expectation(UNIFORM4, u), abs=1e-12)
    report = singular_part_report(UNIFORM4, n_functionals=20, seed=3)
    assert report.max_error <= 1e-12
    assert report.singular_part_trivial
    assert report.dual_dimension == 4


def test_polar_relabels_a_space_whose_permuted_sum_rounds_past_the_tolerance():
    # these masses sum to 1 - 9.9998e-13, inside the 1e-12 tolerance, but
    # summed in the order of |y| below (atoms 2, 3, 5, 4, 0, 1) they read
    # 1 - 1.00009e-12: the sum check must not depend on the atom order
    probs = np.array([0.23288278309738944, 0.19248173211572367, 0.15046400403945892,
                      0.30748620510542535, 0.034799218981849935, 0.08188605665915275])
    space = FiniteProbSpace(probs)
    assert abs(float(probs[[2, 3, 5, 4, 0, 1]].sum()) - 1.0) > 1e-12
    FiniteProbSpace(probs[[2, 3, 5, 4, 0, 1]])
    y = Rv([2.0, 1.0, 6.0, 5.0, 3.0, 4.0])
    res = polar(space, LorentzNorm(phi_sqrt()), y)
    assert res.method == "comonotone" and res.converged
    assert res.value == pytest.approx(marcinkiewicz_norm(space, y, phi_sqrt()), rel=1e-12)
    l2 = CustomSeminorm(lambda s, x: float(np.sqrt(np.dot(s.probs, x * x))), rearrangement_invariant=True)
    assert polar(space, l2, y).value == pytest.approx(lp_norm(space, y, 2.0), rel=1e-6)

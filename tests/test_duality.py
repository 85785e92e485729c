import collections.abc
import math
import sys

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
        res = polar(space, MarcinkiewiczNorm(phi_sqrt()), y)
        assert res.value == pytest.approx(lorentz_norm(space, y, phi_sqrt()), abs=1e-6)
        # and the mutual direction
        res = polar(space, LorentzNorm(phi_sqrt()), y)
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
        big = polar(space, spec, Rv(y)).value
        small = polar(space, spec, Rv(smaller)).value
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
        res = polar(space, LuxemburgNorm(fam), y)
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
    # happens to be a seminorm (the mean of |x| gauges to L1) is checked on
    # every polar call, as no screen is kept between calls
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return check_axioms(*args, **kwargs)

    monkeypatch.setattr(kothe.duality, "check_axioms", counted)
    mean = RiskNorm(custom_risk(lambda s, x: float(np.dot(s.probs, x))))
    for y in ([1.0, 0, 0, 0], [0.0, 2, -1, 3]):
        assert polar(UNIFORM4, mean, Rv(y)).value == pytest.approx(max(np.abs(y)), rel=1e-6)
    assert calls == [mean, mean]


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
    numeric = _PolarNorm(LorentzNorm(phi_sqrt()))
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
            space, spec, Rv(rng.standard_normal(n)), Rv(rng.standard_normal(n))
        )


def test_verify_bipolar():
    rng = np.random.default_rng(68)
    for p in (1.0, 2.0, 3.0):
        for k in range(4):
            n = int(rng.integers(2, 7))
            space = FiniteProbSpace.uniform(n)
            rep = verify_bipolar(space, LpNorm(p), Rv(rng.standard_normal(n)))
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
    rep = verify_bipolar(space, RiskNorm(avar(0.6)), Rv(rng.standard_normal(4)))
    assert rep.rel_gap <= 1e-5


def test_verify_bipolar_without_closed_form():
    # a wrapped callback norm has no registered dual: the numeric dual, cut
    # by the witnesses of the inner line-search polars, must still round-trip
    custom = CustomSeminorm(
        lambda s, x: 1.7 * math.sqrt(float(np.dot(s.probs, x**2))), name="scaled-l2"
    )
    rng = np.random.default_rng(682)
    space = FiniteProbSpace.uniform(3)
    rep = verify_bipolar(space, custom, Rv(rng.standard_normal(3)))
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
        res = polar(space, _PolarNorm(spec), u)
        assert abs(res.value - spec.value(space, u)) <= gate * spec.value(space, u)
        return
    assert dual_spec_of(space, spec) is None
    assert verify_bipolar(space, spec, u).rel_gap <= gate


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
        res = polar(space, spec, Rv(y))
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


def test_a_broken_callback_inner_is_named_by_every_entry():
    signed = CustomSeminorm(lambda s, x: float(np.dot(s.probs, x)), name="signed-mean")
    norm = GenOrliczNorm(young_power(2), signed)
    y = Rv([1.0, 0, 0, 0])
    for entry in (
        lambda: norm.value(UNIFORM4, y),
        lambda: polar(UNIFORM4, norm, y),
        lambda: gen_orlicz_dual_norm(UNIFORM4, y, young_power(2), signed),
    ):
        with pytest.raises(ValueError, match="inner seminorm fails"):
            entry()


def _state(obj):
    """What a kothe object holds, through the __dict__s of the kothe objects
    it reaches: arrays by their bytes, anything else by identity."""
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if type(obj).__module__.startswith("kothe") and hasattr(obj, "__dict__"):
        return type(obj), {k: _state(v) for k, v in vars(obj).items()}
    return id(obj)


def _module_state():
    """Each kothe module's globals by identity, with the items of the
    containers among them."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "kothe" or name.startswith("kothe."):
            for key, val in vars(mod).items():
                items = None
                if isinstance(val, collections.abc.Mapping):
                    items = [(id(k), id(v)) for k, v in val.items()]
                elif isinstance(val, (collections.abc.MutableSet, collections.abc.MutableSequence)):
                    items = [id(v) for v in val]
                out[name, key] = id(val), items
    return out


def test_public_calls_keep_no_state_and_screen_once_per_call(monkeypatch):
    # every public call is a pure function of its arguments: it leaves the
    # specs and the modules as it found them, so a callback spec is screened
    # by each call anew, exactly once (a generalized Orlicz norm over a
    # callback: its inner seminorm once, and itself once where polar needs it)
    screened = []

    def counted(space, spec, *args, **kwargs):
        screened.append(spec)
        return check_axioms(space, spec, *args, **kwargs)

    monkeypatch.setattr(kothe.duality, "check_axioms", counted)
    monkeypatch.setattr(kothe.norms, "check_axioms", counted)
    space = FiniteProbSpace(np.random.default_rng(5).dirichlet(np.ones(2)))
    y = Rv([0.5, -2.0])
    l1 = CustomSeminorm(lambda s, x: float(np.dot(s.probs, np.abs(x))), name="l1-callback")
    l2 = CustomSeminorm(lambda s, x: float(np.sqrt(np.dot(s.probs, x * x))), rearrangement_invariant=True)
    over_l1 = GenOrliczNorm(young_power(2), l1)
    peak = custom_risk(lambda s, x: float(np.max(x)), positively_homogeneous=True)
    builtin = [LpNorm(2), LorentzNorm(phi_sqrt()), RiskNorm(avar(0.3)), GenOrliczNorm(young_power(2), LpNorm(1.5))]
    rhos = [avar(0.3), entropic(1.0), peak]

    def unsupported(norm):
        with pytest.raises(ValueError, match="generalized Orlicz dual"):
            gen_orlicz_dual_norm(space, y, norm.phi, norm.inner)

    calls = [(lambda s=s: polar(space, s, y), []) for s in builtin]
    calls += [(lambda s=s: verify_bipolar(space, s, y), []) for s in builtin]
    calls += [(lambda r=r: risk_dual_norm(space, r, y), []) for r in rhos[:2]]
    calls += [
        (lambda: GenOrliczNorm(young_power(2), LpNorm(1.5)).value(space, y), []),
        (lambda: gen_orlicz_dual_norm(space, y, young_power(2), LpNorm(1.5)), []),
        (lambda: polar(space, l2, y), [l2]),
        (lambda: polar(space, l2, y), [l2]),
        (lambda: polar(space, over_l1, y), [l1, over_l1]),
        (lambda: verify_bipolar(space, l2, y), [l2]),
        (lambda: over_l1.value(space, y), [l1]),
        (lambda: unsupported(over_l1), [l1]),
        (lambda: risk_dual_norm(space, peak, y), ["risk"]),
    ]
    specs = builtin + rhos + [l1, l2, over_l1]
    before = [_state(s) for s in specs], _module_state()
    for call, expected in calls:
        screened.clear()
        call()
        assert ["risk" if isinstance(s, RiskNorm) else s for s in screened] == expected
    assert ([_state(s) for s in specs], _module_state()) == before


# the line-search polar of the tabulated Luxemburg norm takes about 0.8 s on
# two atoms and 19 s on eight, so it gets one tied two-atom case
_RELABEL_CASES = {name: (12, 8) for name in BUILTIN_FAMILIES}
_RELABEL_CASES["luxemburg_tabulated"] = (1, 2)


@pytest.mark.parametrize("name", list(BUILTIN_FAMILIES))
def test_invariant_polars_ignore_atom_labels(name):
    # permuting the atoms together with their masses leaves an invariant
    # polar unchanged, also where |y| ties and the order of the tied atoms is
    # all that moves.  A modular-ball polar divides its witness by
    # 1 + _GAUGE_REL when rounding puts it outside the ball, so two labellings
    # may differ by that factor and the rounding of the sums.  An unconverged
    # value is only a lower end, so there the certified brackets must meet
    cases, n_max = _RELABEL_CASES[name]
    for k in range(cases):
        rng = np.random.default_rng(k)
        n = int(rng.integers(2, n_max + 1))
        spec = BUILTIN_FAMILIES[name](n)
        assert spec.rearrangement_invariant
        probs = rng.dirichlet(np.ones(n))
        if k % 2 == 0:  # |y| ties on the first two atoms at least
            y = rng.choice([0.5, 2.0], size=n) * rng.choice([-1.0, 1.0], size=n)
            y[1] = -y[0]
        else:
            y = rng.standard_normal(n)
        perm = rng.permutation(n)
        if np.array_equal(perm, np.arange(n)):
            perm = perm[::-1]
        base = polar(FiniteProbSpace(probs), spec, Rv(y))
        moved = polar(FiniteProbSpace(probs[perm]), spec, Rv(y[perm]))
        rel = 2e-12 if spec.smooth_modular(FiniteProbSpace(probs)) is not None else 1e-12
        if base.converged and moved.converged:
            assert moved.value == pytest.approx(base.value, rel=rel), (k, base, moved)
        if base.upper is not None:
            assert base.value <= moved.upper and moved.value <= base.upper, (k, base, moved)


@pytest.mark.parametrize("name", list(BUILTIN_FAMILIES))
def test_invariant_polars_on_one_atom(name):
    # the unit ball on one atom is [-1/r(1), 1/r(1)], so the polar is |y| / r(1)
    space = FiniteProbSpace.uniform(1)
    spec = BUILTIN_FAMILIES[name](1)
    unit = spec.value(space, Rv([1.0]))
    for y in (-3.5, 7e-3):
        assert polar(space, spec, Rv([y])).value == pytest.approx(abs(y) / unit, rel=1e-12)

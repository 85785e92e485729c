"""Exact polars of the polyhedral seminorms by Kelley cutting planes.

The oracle is an independent LP over the full facet list of each unit ball
on the orthant, solved by scipy's HiGHS (a test-only dependency):

- Marcinkiewicz: p * 1_S / phi(P(S)) for every nonempty atom set S;
- Lorentz: the n! greedy vectors phi(T_j) - phi(T_{j-1}) along each order;
- avar risk norm: the same with phi(s) = min(s/t, 1) (CVaR_t is that Lorentz norm);
- avar dual gauge: t * p * 1_S / min(P(S), t) for every nonempty S;
- L1: p;  Linf: the unit vectors.
"""

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kothe._optim
from kothe import (
    FiniteProbSpace,
    Rv,
    avar,
    lorentz_norm,
    pairing,
    phi_identity,
    phi_sqrt,
    phi_tabulated,
    polar,
    verify_bipolar,
)
from kothe.cli import main
from kothe.duality import _PolarNorm, dual_spec_of
from kothe.norms import CustomSeminorm, LorentzNorm, LpNorm, MarcinkiewiczNorm, RiskNorm, Seminorm

FAMILIES = ("L1", "Linf", "marcinkiewicz", "lorentz", "avar", "avar_dual")
T = 0.35


def _spec(name: str, space: FiniteProbSpace) -> Seminorm:
    return {
        "L1": lambda: LpNorm(1.0),
        "Linf": lambda: LpNorm(math.inf),
        "marcinkiewicz": lambda: MarcinkiewiczNorm(phi_sqrt()),
        "lorentz": lambda: LorentzNorm(phi_sqrt()),
        "avar": lambda: RiskNorm(avar(T)),
        "avar_dual": lambda: dual_spec_of(space, RiskNorm(avar(T))),
    }[name]()


def _subsets(n: int):
    for mask in range(1, 2**n):
        yield np.array([(mask >> i) & 1 for i in range(n)], dtype=float)


def _greedy(probs: np.ndarray, phi) -> list[np.ndarray]:
    out = []
    for perm in itertools.permutations(range(probs.size)):
        cum = np.concatenate([[0.0], np.cumsum(probs[list(perm)])])
        g = np.empty(probs.size)
        g[list(perm)] = np.diff(phi(np.minimum(cum, 1.0)))
        out.append(g)
    return out


def _facets(name: str, probs: np.ndarray) -> np.ndarray:
    n = probs.size
    if name == "L1":
        return probs[None, :]
    if name == "Linf":
        return np.eye(n)
    if name == "marcinkiewicz":
        return np.array([probs * s / math.sqrt(min(float(probs @ s), 1.0)) for s in _subsets(n)])
    if name == "lorentz":
        return np.array(_greedy(probs, np.sqrt))
    if name == "avar":
        return np.array(_greedy(probs, lambda s: np.minimum(s / T, 1.0)))
    return np.array([T * probs * s / min(float(probs @ s), T) for s in _subsets(n)])


def _oracle(name: str, probs: np.ndarray, y: np.ndarray) -> float:
    linprog = pytest.importorskip("scipy.optimize").linprog
    facets = _facets(name, probs)
    c = probs * np.abs(y)
    # in x = c * w every cost is 1: HiGHS would round small costs c_i away,
    # and an atom with c_i = 0 takes w_i = 0 at an optimum
    keep = c > 0.0
    a = facets[:, keep] / c[keep]
    res = linprog(-np.ones(a.shape[1]), A_ub=a, b_ub=np.ones(len(a)), bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


@st.composite
def polar_cases(draw, max_n=6):
    """(space, y): one to max_n atoms, with uniform masses (the comonotone
    path) half the time and random ones otherwise, ties from a small integer
    grid, zeros and sign changes in y.  Values are rounded to 1e-6 so that
    the oracle's scaled LP keeps coefficients HiGHS accepts."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        space = FiniteProbSpace.uniform(n)
    else:
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        space = FiniteProbSpace(weights / weights.sum())
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0).map(lambda v: round(v, 6)))
    y = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return space, y


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(case=polar_cases())
def test_kelley_polar_matches_lp_oracle(name, case):
    space, y = case
    res = polar(space, _spec(name, space), Rv(y))
    if not np.any(y != 0.0):
        assert res.value == 0.0
        return
    want = _oracle(name, space.probs, y)
    assert res.converged
    assert abs(res.value - want) <= 1e-12 * max(1.0, want)
    # the certified bound lies above the exact value; 1e-14 allows for the
    # rounding of both LPs (the oracle itself lands a few ulps off)
    assert res.upper >= want * (1.0 - 1e-14)
    assert res.upper - res.value <= 1e-12 * res.upper
    spec = _spec(name, space)
    assert spec.value(space, res.maximizer) <= 1.0 + 1e-12
    assert pairing(space, res.maximizer, Rv(y)) == pytest.approx(res.value, rel=1e-12)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_kelley_polar_is_homogeneous(name, uniform, scale):
    rng = np.random.default_rng(7)
    probs = np.full(7, 1.0 / 7) if uniform else rng.dirichlet(np.ones(7))
    space = FiniteProbSpace(probs)
    y = rng.standard_normal(7)
    spec = _spec(name, space)
    base = polar(space, spec, Rv(y))
    scaled = polar(space, spec, Rv(y * scale))
    assert scaled.value / scale == pytest.approx(base.value, rel=1e-12)
    assert scaled.upper / scale == pytest.approx(base.upper, rel=1e-12)
    assert scaled.converged


@pytest.mark.parametrize("n", [16, 50])
@pytest.mark.parametrize("name", ["marcinkiewicz", "lorentz", "avar"])
def test_kelley_polar_converges_on_larger_nonuniform_spaces(name, n):
    # on the atoms relabelled in the order of |y| each of these closes on its
    # first LP: n + 1 facet calls, as test_invariant_polars_close_on_the_first_lp counts
    space = FiniteProbSpace(np.random.default_rng(3).dirichlet(np.ones(n)))
    spec = _spec(name, space)
    for k in range(10):
        y = np.random.default_rng(k).standard_normal(n)
        res = polar(space, spec, Rv(y))
        assert res.converged
        assert res.upper - res.value <= 1e-12 * res.upper
        assert spec.value(space, res.maximizer) <= 1.0 + 1e-12
        if name == "marcinkiewicz":
            # in x = p * w the ball is the polymatroid x(S) <= phi(P(S)), so the
            # greedy vertex in |y| order is optimal: the Lorentz norm of y
            assert res.value == pytest.approx(lorentz_norm(space, Rv(y), phi_sqrt()), rel=1e-12)


_PHI_TAB = phi_tabulated([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
# the Marcinkiewicz counts date from polars that ran to the cut budget; each
# case now takes at most n + 2 facet calls and about 1 ms, though about a
# quarter of the Marcinkiewicz polars still stop unconverged on these masses
_SKEWED_CASES = {
    "L1": 200,
    "Linf": 200,
    "marcinkiewicz": 40,
    "marcinkiewicz_tabulated": 20,
    "lorentz": 200,
    "lorentz_tabulated": 200,
    "avar": 200,
    "avar_dual": 200,
}


@pytest.mark.parametrize("name", list(_SKEWED_CASES))
def test_skewed_masses_keep_the_registered_dual_in_the_bracket(name):
    # masses p ~ 10^(-15 U) span 1e-15 to 1.  A light atom's facet entry
    # must keep its digits: else the cuts sever the vertex 1_S / phi(P(S))
    # of a light top set S, and a converged bracket misses the dual
    for k in range(_SKEWED_CASES[name]):
        rng = np.random.default_rng(k)
        n = int(rng.integers(1, 13))
        w = 10.0 ** (-15.0 * rng.uniform(size=n))
        space = FiniteProbSpace(w / w.sum())
        y = Rv(rng.standard_normal(n))
        if name.endswith("_tabulated"):
            spec = (LorentzNorm if name.startswith("lorentz") else MarcinkiewiczNorm)(_PHI_TAB)
        else:
            spec = _spec(name, space)
        res = polar(space, spec, y)
        dual = dual_spec_of(space, spec).value(space, y)
        assert res.value * (1.0 - 1e-15) <= dual <= res.upper * (1.0 + 1e-15), (k, res)
        if res.converged:
            assert dual - res.value <= 1e-12 * dual, (k, res)


def test_light_atom_increments_keep_the_lorentz_bracket():
    # the best top-k set is the single atom of mass 4.5e-13, whose vertex
    # pairs to |y_1| / 2 exactly.  Increments taken as differences of phi at
    # rounded running masses put one cut 7.6e-8 above 1 there, and the
    # polar stopped converged at 1.0988356762322518
    p = [4.56036734491918e-05, 4.5263539928756586e-13, 9.037828826530412e-05, 0.40662560554553945,
         0.0002335369406573347, 0.5747304666109482, 8.260421838956876e-13, 0.017511259394222396,
         2.936394007599943e-15, 0.0007631495456365092]
    y = [-1.1616095185495017, -2.197671367087202, 0.5704695747069322, 0.027615835350643075,
         0.9625532543524465, -0.12588436360404337, 0.2197549635234998, -1.499989013056637,
         0.44800965515897445, -0.44489845287418683]
    res = polar(FiniteProbSpace(p), LorentzNorm(_PHI_TAB), Rv(y))
    exact = 2.197671367087202 / 2.0
    assert res.value * (1.0 - 1e-15) <= exact <= res.upper
    assert res.converged and exact - res.value <= 1e-15 * exact


@pytest.mark.parametrize("config", ["lp1", "avar_half"])
def test_dual_on_an_atom_of_mass_1e_10(tmp_path, capsys, config):
    path = tmp_path / "tiny.csv"
    path.write_text("prob,x\n1e-10,3\n0.4999999999,-1\n0.5,2\n")
    fixture = Path(__file__).parent / "fixtures" / f"{config}.cfg"
    code = main(["dual", "--scenario", str(path), "--config", str(fixture)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(capsys.readouterr().out)
    assert doc["polar"] == doc["closed_form"]


def test_kelley_polar_on_a_degenerate_lorentz_case():
    # a degenerate LP that drove an early simplex with tiny pivots and a
    # Bland leaving rule into LP points breaking a cut by 0.2%
    space = FiniteProbSpace.uniform(6)
    y = Rv([0.4005487, -1.61443942, -1.83693092, -1.02756601, -0.07472, -1.76874025])
    res = polar(space, LorentzNorm(phi_sqrt()), y)
    assert res.converged
    assert res.value == pytest.approx(1.27530164566, abs=1e-11)
    assert res.upper - res.value <= 1e-12 * res.upper
    assert LorentzNorm(phi_sqrt()).value(space, res.maximizer) <= 1.0 + 1e-12


def test_upper_bound_on_every_path_but_callbacks():
    space = FiniteProbSpace.uniform(4)
    y = Rv([1.0, -2.0, 0.5, 3.0])
    # the modular ball of L2 is certified by its multiplier: ||y||_2 = sqrt(3.5625)
    l2 = polar(space, LpNorm(2.0), y)
    assert l2.value <= math.sqrt(3.5625) <= l2.upper
    assert l2.upper - l2.value <= 1e-9 * l2.upper
    # only a user callback leaves the line search uncertified
    callback = CustomSeminorm(lambda s, x: float(np.sqrt(np.dot(s.probs, x * x))), rearrangement_invariant=True)
    assert polar(space, callback, y).upper is None
    # the avar(1/2) dual norm is max(E|y|, max|y| / 2) = max(1.625, 1.5)
    assert polar(space, RiskNorm(avar(0.5)), y).upper == pytest.approx(1.625, rel=1e-12)
    assert polar(space, LpNorm(1.0), Rv.zero(4)).upper == 0.0


@pytest.mark.parametrize("n", [3, 8, 16])
def test_marcinkiewicz_closed_form_dual_on_nonuniform_spaces(n):
    # in x = p * w the Marcinkiewicz ball is the polymatroid x(S) <= phi(P(S)),
    # maximized by the greedy vertex in |y| order: the Lorentz norm of y
    rng = np.random.default_rng(300 + n)
    space = FiniteProbSpace(rng.dirichlet(np.ones(n)))
    spec = MarcinkiewiczNorm(phi_sqrt())
    assert isinstance(dual_spec_of(space, spec), LorentzNorm)
    for _ in range(3):
        y = Rv(rng.standard_normal(n))
        res = polar(space, spec, y)
        assert res.value == pytest.approx(lorentz_norm(space, y, phi_sqrt()), rel=1e-12)
        assert res.gap <= 1e-12
        assert verify_bipolar(space, spec, y).rel_gap <= 1e-9


class _FirstCoordinate(Seminorm):
    """|x_0|: a polyhedral seminorm that vanishes on the other coordinates."""

    def _value_arr(self, space, x):
        return abs(float(x[0]))

    def linear_piece_arr(self, space, a):
        g = np.zeros(a.size)
        g[0] = 1.0
        return g


def test_vanishing_direction_raises_on_both_paths():
    space = FiniteProbSpace.uniform(4)
    y = Rv([1.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="vanishes"):
        polar(space, _FirstCoordinate(), y)
    smooth = CustomSeminorm(lambda s, x: abs(float(x[0])), name="first-coordinate")
    with pytest.raises(ValueError, match="vanishes"):
        polar(space, smooth, y)


def _bipolar_on_dirichlet(tmp_path, seed: int, config: str) -> dict:
    """The bipolar item of ``kothe check`` on 8 Dirichlet atoms drawn from
    seed, under the config text; the check must pass."""
    rng = np.random.default_rng(100 + seed)
    probs, x = rng.dirichlet(np.ones(8)), rng.standard_normal(8)
    path = tmp_path / "scenario.csv"
    path.write_text("prob,v\n" + "".join(f"{float(p)!r},{float(v)!r}\n" for p, v in zip(probs, x)))
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(config)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["check", "--scenario", str(path), "--config", str(cfg)])
    doc = json.loads(buf.getvalue())
    assert code == 0, doc
    return next(c for c in doc["checks"] if c["name"] == "bipolar")


@pytest.mark.parametrize("seed", range(4))
def test_avar_check_passes_on_nonuniform_spaces(tmp_path, seed):
    # the bipolar round trip needs the exact polar of the avar dual gauge;
    # the line-search optimizer fell 1e-2 to 6e-2 short here
    bipolar = _bipolar_on_dirichlet(tmp_path, seed, "kind=avar\nlevel=0.5\n")
    assert bipolar["passed"] and bipolar["worst"] <= 1e-12


def test_lorentz_check_runs_bipolar_on_nonuniform_spaces(tmp_path):
    # with the Marcinkiewicz norm registered as its dual on every space, the
    # Lorentz check no longer skips the bipolar round trip off uniform spaces
    bipolar = _bipolar_on_dirichlet(tmp_path, 0, "kind=lorentz\nphi=sqrt\n")
    assert bipolar["passed"] and bipolar["worst"] <= 1e-12


_ONE_ATOM_W = np.array([0.05, 0.55, 0.06, 0.52, 0.66, 0.86, 0.06])


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(case=polar_cases(max_n=10))
# a single nonzero atom: a tail scan on x - max(x) put the avar polar 1.1e-14
# above its closed form here, by cancelling t * max(x) against the tail
@example(case=(FiniteProbSpace(_ONE_ATOM_W / _ONE_ATOM_W.sum()), np.eye(7)[2]))
def test_every_polyhedral_family_has_a_registered_dual(name, case):
    # the Lorentz dual is the top-k ratio scan of the Marcinkiewicz norm on
    # every space, so each polyhedral polar is certified by a closed form
    space, y = case
    spec = _spec(name, space)
    dual = dual_spec_of(space, spec)
    assert dual is not None
    res = polar(space, spec, Rv(y))
    closed = dual.value(space, Rv(y))
    assert res.gap <= 1e-12 * max(1.0, closed)
    assert res.value * (1.0 - 1e-14) <= closed <= res.upper * (1.0 + 1e-14)


@settings(max_examples=200, deadline=None)
@given(case=polar_cases(max_n=10), t=st.sampled_from([0.01, 0.1, 0.35, 0.5, 0.9, 1.0]))
# a constant on thirds: the tail scan read 5.353515999999911 while it formed
# E[u - s]^+ as the prefix sum of p * u less s times the prefix sum of p
@example(case=(FiniteProbSpace.uniform(3), np.array([5.353516] * 3)), t=0.01)
def test_avar_and_l1_are_lorentz_norms(case, t):
    space, y = case
    u = Rv(y)
    phi_t = phi_tabulated([0.0, t, 1.0], [0.0, 1.0, 1.0]) if t < 1.0 else phi_identity()
    assert RiskNorm(avar(t)).value(space, u) == pytest.approx(LorentzNorm(phi_t).value(space, u), rel=1e-14, abs=0.0)
    assert LpNorm(1.0).value(space, u) == pytest.approx(LorentzNorm(phi_identity()).value(space, u), rel=1e-14, abs=0.0)


def test_kelley_never_evaluates_the_seminorm():
    # the facet at each LP point also gives the norm there (g.w), so the
    # cutting planes call linear_piece_arr once per point and _value_arr never
    spec = LorentzNorm(phi_sqrt())
    calls = {"facets": 0}
    facet = spec.linear_piece_arr

    def counting(space, a):
        calls["facets"] += 1
        return facet(space, a)

    def refuse(space, x):
        raise AssertionError("the cutting planes evaluated the seminorm")

    spec.linear_piece_arr, spec._value_arr = counting, refuse
    rng = np.random.default_rng(8)
    space = FiniteProbSpace(rng.dirichlet(np.ones(8)))
    y = Rv(rng.standard_normal(8))
    res = polar(space, spec, y)
    assert res.converged and res.upper is not None
    closed = MarcinkiewiczNorm(phi_sqrt()).value(space, y)
    assert abs(res.value - closed) <= 1e-12 * closed
    assert calls["facets"] >= 8 + 1  # the starts, then one per LP point


_PHI_TAB = phi_tabulated([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
_FACET_FAMILIES = {
    "L1": lambda space: LpNorm(1.0),
    "Linf": lambda space: LpNorm(math.inf),
    "marcinkiewicz_sqrt": lambda space: MarcinkiewiczNorm(phi_sqrt()),
    "marcinkiewicz_tabulated": lambda space: MarcinkiewiczNorm(_PHI_TAB),
    "lorentz_sqrt": lambda space: LorentzNorm(phi_sqrt()),
    "lorentz_tabulated": lambda space: LorentzNorm(_PHI_TAB),
    "avar": lambda space: RiskNorm(avar(T)),
    "avar_dual": lambda space: dual_spec_of(space, RiskNorm(avar(T))),
    "numeric_dual_l1": lambda space: _PolarNorm(LpNorm(1.0)),
}


@st.composite
def facet_cases(draw):
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    space = FiniteProbSpace.uniform(n) if draw(st.booleans()) else FiniteProbSpace(rng.dirichlet(np.ones(n)))
    if draw(st.booleans()):
        a = rng.integers(0, 4, size=n).astype(float)  # ties and zeros
    else:
        a = rng.exponential(size=n) * (rng.random(n) < 0.8)
    scale = draw(st.sampled_from([1e-5, 1.0, 1e5]))
    return space, a * scale, np.abs(rng.standard_normal((8, n))) * scale


@pytest.mark.parametrize("name", list(_FACET_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(case=facet_cases())
def test_facets_are_tight_and_valid(name, case):
    # the cutting planes read the seminorm at a as g.a, so the facet must be
    # tight to rounding, and below the seminorm on the whole orthant
    space, a, probes = case
    spec = _FACET_FAMILIES[name](space)
    g = spec.linear_piece_arr(space, a)
    assert np.all(g >= 0.0)
    rho = spec._value_arr(space, a)
    assert abs(float(g @ a) - rho) <= 1e-14 * rho
    for x in probes:
        assert float(g @ x) <= spec._value_arr(space, x) * (1.0 + 1e-14)


def _counting_facets(spec: Seminorm) -> dict:
    """Count the calls of spec's linear_piece_arr from now on."""
    calls = {"facets": 0}
    facet = spec.linear_piece_arr

    def counting(space, a):
        calls["facets"] += 1
        return facet(space, a)

    spec.linear_piece_arr = counting
    return calls


_INVARIANT_FACET_FAMILIES = [name for name in _FACET_FAMILIES if name != "numeric_dual_l1"]


@pytest.mark.parametrize("name", _INVARIANT_FACET_FAMILIES)
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 50), seed=st.integers(0, 2**31))
def test_invariant_polars_close_on_the_first_lp(name, n, seed):
    # on the atoms relabelled in the order of |y| the prefix cuts of the
    # monotone cone already hold the optimal vertex, on any masses: one LP,
    # then one facet at its point closes the bracket
    rng = np.random.default_rng(seed)
    space = FiniteProbSpace(rng.dirichlet(np.ones(n)))
    spec = _FACET_FAMILIES[name](space)
    calls = _counting_facets(spec)
    res = polar(space, spec, Rv(rng.standard_normal(n)))
    assert res.converged and res.method == "comonotone"
    assert res.upper - res.value <= 1e-12 * res.upper
    assert calls["facets"] == n + 1


def test_lorentz_polar_on_200_dirichlet_atoms_takes_one_lp():
    # one LP on non-uniform masses too: 200 prefix cuts and one facet at
    # its point (a counted guard, not a timed one)
    rng = np.random.default_rng(5)
    space = FiniteProbSpace(rng.dirichlet(np.ones(200)))
    spec = LorentzNorm(phi_sqrt())
    calls = _counting_facets(spec)
    y = Rv(rng.standard_normal(200))
    res = polar(space, spec, y)
    assert res.converged and calls["facets"] == 201
    closed = MarcinkiewiczNorm(phi_sqrt()).value(space, y)
    assert res.value <= closed * (1.0 + 1e-15) and closed <= res.upper * (1.0 + 1e-15)


def test_pivot_cap_scales_with_the_tableau():
    # the comonotone LP starts with 600 prefix cuts; a cap of 500 pivots per
    # solve stopped it 6.7e-3 short of the closed form, with converged=False
    space = FiniteProbSpace.uniform(600)
    y = Rv(np.random.default_rng(3).standard_normal(600))
    res = polar(space, MarcinkiewiczNorm(phi_sqrt()), y)
    assert res.converged
    assert res.value == pytest.approx(lorentz_norm(space, y, phi_sqrt()), rel=1e-12)


def test_a_capped_simplex_ends_the_polar_unconverged_with_a_bound(monkeypatch):
    # one pivot per tableau row does not reach this LP's optimum: the polar
    # stops there, unconverged, and its bound still holds the closed form
    monkeypatch.setattr(kothe._optim, "_PIVOTS_PER_ROW", 1)
    rng = np.random.default_rng(5)
    space = FiniteProbSpace(rng.dirichlet(np.ones(20)))
    y = Rv(rng.standard_normal(20))
    spec = MarcinkiewiczNorm(_PHI_TAB)
    res = polar(space, spec, y)
    closed = dual_spec_of(space, spec).value(space, y)
    assert not res.converged
    assert res.value <= closed <= res.upper
    assert spec.value(space, res.maximizer) <= 1.0 + 1e-12

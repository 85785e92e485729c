"""The batched axiom screens against the sequential loops they replace.

``check_axioms`` and ``check_risk_axioms`` evaluate each trial's probes as one
matrix, through ``Seminorm._value_rows`` and ``risk._risk_rows``.  The
sequential loops below, one evaluation per probe, are the oracles: the same
random stream, the same probes and the same judgement, so the reports must
agree item by item.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kothe.norms
import kothe.risk
from kothe import FiniteProbSpace, avar, check_axioms, check_risk_axioms, custom_risk, entropic
from kothe.norms import AxiomReport, CustomSeminorm
from kothe.risk import _risk_arr, _risk_rows
from kothe.space import CheckItem, _WorstCase
from families import BUILTIN_FAMILIES


def _bump_shrinking(worst, key, f, x, fx, scale, rng):
    alive = list(range(x.size))
    rng.shuffle(alive)
    prev = fx
    while alive:
        alive.pop()
        masked = np.zeros(x.size)
        masked[alive] = x[alive]
        cur = f(masked)
        worst.bump(key, (cur - prev) / scale, masked)
        prev = cur
    worst.bump(key, abs(prev) / scale, None)


def _check_axioms_sequential(space, spec, trials, seed, slack=1e-8):
    rng = np.random.default_rng(seed)
    n = space.n_atoms

    def p(x):
        return spec._value_arr(space, x)

    worst = _WorstCase(-math.inf)
    c_lower, c_upper = math.inf, 0.0
    indicator_ok = True
    for _ in range(trials):
        u = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        v = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        pu, pv = p(u), p(v)
        scale = max(1.0, abs(pu), abs(pv))
        worst.bump("nonnegative", -pu / scale, u)
        worst.bump("symmetry", abs(p(-u) - pu) / scale, u)
        alpha = float(np.exp(rng.uniform(-2.0, 2.0)))
        worst.bump("homogeneity", abs(p(alpha * u) - alpha * pu) / (alpha * scale), u)
        worst.bump("subadditivity", (p(u + v) - pu - pv) / scale, u + v)
        dominated = u * rng.uniform(0.0, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        worst.bump("solid_monotone", (p(dominated) - pu) / scale, dominated)
        l1 = float(np.dot(space.probs, np.abs(u)))
        linf = float(np.abs(u).max())
        if l1 > 0 and np.isfinite(pu):
            c_lower = min(c_lower, pu / l1)
        if linf > 0 and np.isfinite(pu):
            c_upper = max(c_upper, pu / linf)
        _bump_shrinking(worst, "order_continuity", p, u, pu, scale, rng)
        idx = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        ind = np.zeros(n)
        ind[idx] = 1.0
        if not np.isfinite(p(ind)):
            indicator_ok = False
    items = [worst.item(k, slack) for k in ("nonnegative", "symmetry", "homogeneity", "subadditivity")]
    items += [
        CheckItem("lower_l1_bound", c_lower > 1e-10, c_lower),
        CheckItem("bounded_by_sup", np.isfinite(c_upper), c_upper),
        worst.item("solid_monotone", slack),
        worst.item("order_continuity", slack),
        CheckItem("decomposable", indicator_ok, 0.0 if indicator_ok else math.inf),
    ]
    return AxiomReport(tuple(items), c_lower, c_upper)


def _check_risk_axioms_sequential(space, rho, trials, seed, slack=1e-9):
    rng = np.random.default_rng(seed)
    n = space.n_atoms

    def r(x):
        return _risk_arr(space, rho, x)

    zero_gap = abs(r(np.zeros(n)))
    items = [CheckItem("zero", zero_gap <= slack, zero_gap)]
    worst = _WorstCase(0.0)
    for _ in range(trials):
        u = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        v = rng.standard_normal(n) * 10 ** rng.uniform(-1.0, 1.0)
        scale = max(1.0, float(np.abs(u).max()), float(np.abs(v).max()))
        alpha = float(rng.standard_normal())
        worst.bump("translation", abs(r(u + alpha) - r(u) - alpha) / scale, u)
        upper = u + np.abs(rng.standard_normal(n))
        worst.bump("monotone", (r(u) - r(upper)) / scale, u)
        mid = 0.5 * (u + v)
        worst.bump("convex", (r(mid) - 0.5 * (r(u) + r(v))) / scale, mid)
        a = np.abs(u)
        _bump_shrinking(worst, "lebesgue", r, a, r(a), scale, rng)
    items += [worst.item(k, slack) for k in ("translation", "monotone", "convex", "lebesgue")]
    return items


def _close(a, b):
    return a == b or abs(a - b) <= 1e-14 * max(1.0, abs(b)) or (math.isnan(a) and math.isnan(b))


def _assert_same_items(batched, sequential):
    assert [i.name for i in batched] == [i.name for i in sequential]
    for got, want in zip(batched, sequential):
        assert got.passed == want.passed, got.name
        assert got.witness == want.witness, got.name
        assert _close(got.worst, want.worst), (got.name, got.worst, want.worst)


_DIMS = []  # the ndim of every array a callback below received


def _record(fn):
    def wrapped(space, x):
        _DIMS.append(np.ndim(x))
        return fn(space, x)

    return wrapped


# callbacks that break different axioms, so failing items and their witnesses
# are compared too: the signed mean (the CLI's negative control), the count of
# zero atoms off the zero vector (it grows along every shrinking chain in
# equal steps, so the first step is the witness), an offset sup norm (nonzero
# at zero) and a norm that is infinite on 0/1 vectors
CUSTOM_SEMINORMS = {
    "broken_signed_mean": lambda: CustomSeminorm(_record(lambda sp, x: float(np.dot(sp.probs, x))), name="signed-mean"),
    "zero_count": lambda: CustomSeminorm(_record(lambda sp, x: float(np.count_nonzero(x == 0.0) if np.any(x) else 0))),
    "offset_sup": lambda: CustomSeminorm(_record(lambda sp, x: float(np.abs(x).max()) + 1.0)),
    "infinite_on_indicators": lambda: CustomSeminorm(
        _record(lambda sp, x: math.inf if np.all((x == 0.0) | (x == 1.0)) else float(np.abs(x).max()))
    ),
}
RISKS = {
    "avar_small": lambda: avar(0.05),
    "avar_half": lambda: avar(0.5),
    "avar_one": lambda: avar(1.0),
    "entropic": lambda: entropic(2.0),
    "custom_mean": lambda: custom_risk(_record(lambda sp, x: float(np.dot(sp.probs, x)))),
    "custom_median": lambda: custom_risk(_record(lambda sp, x: float(np.median(x)))),
    "custom_offset_max": lambda: custom_risk(_record(lambda sp, x: float(np.max(x)) + 1.0)),
    "custom_zero_count": lambda: custom_risk(_record(lambda sp, x: float(np.count_nonzero(x == 0.0)))),
}
# (n, uniform, seed, trials)
CASES = [(1, True, 0, 3), (2, False, 5, 1), (5, True, 3, 9), (7, False, 11, 6), (9, True, 29, 4)]


def _space(n, uniform, seed):
    return FiniteProbSpace.uniform(n) if uniform else FiniteProbSpace(np.random.default_rng(seed).dirichlet(np.ones(n)))


def _guard_rows(monkeypatch, cls, sizes):
    """Wrap cls._value_rows to record (n, rows) of every batch it gets."""
    inner = cls._value_rows

    def wrapped(self, space, X):
        assert X.ndim == 2
        sizes.append((space.n_atoms, X.shape[0]))
        return inner(self, space, X)

    monkeypatch.setattr(cls, "_value_rows", wrapped)


@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES) + sorted(CUSTOM_SEMINORMS))
def test_check_axioms_matches_the_sequential_loop(family, monkeypatch):
    sizes = []
    for n, uniform, seed, trials in CASES:
        space = _space(n, uniform, seed)
        make = BUILTIN_FAMILIES.get(family)
        spec = make(n) if make else CUSTOM_SEMINORMS[family]()
        want = _check_axioms_sequential(space, spec, trials, seed)
        _DIMS.clear()
        with monkeypatch.context() as m:
            _guard_rows(m, type(spec), sizes)
            got = check_axioms(space, spec, trials=trials, seed=seed)
        assert set(_DIMS) <= {1}  # callbacks only ever see 1-D arrays
        _assert_same_items(got.items, want.items)
        assert _close(got.c_lower, want.c_lower) and _close(got.c_upper, want.c_upper)
    # one batch per trial, never more than n + 7 rows
    assert len(sizes) == sum(c[3] for c in CASES)
    assert all(rows <= n + 7 for n, rows in sizes)


def test_failing_custom_seminorms_report_witnesses():
    # the oracle comparison above is only as strong as the failures it sees
    space = _space(5, True, 3)
    failures = {
        name: {i.name: i.witness for i in check_axioms(space, make(), trials=9, seed=3).items if not i.passed}
        for name, make in CUSTOM_SEMINORMS.items()
    }
    assert {"nonnegative", "symmetry"} <= set(failures["broken_signed_mean"])
    assert failures["zero_count"]["order_continuity"] is not None  # a chain step is the witness
    assert failures["offset_sup"]["order_continuity"] is None  # the value at zero is
    assert "decomposable" in failures["infinite_on_indicators"]


@pytest.mark.parametrize("risk", sorted(RISKS))
def test_check_risk_axioms_matches_the_sequential_loop(risk, monkeypatch):
    sizes = []

    def guarded(space, rho, X):
        assert X.ndim == 2
        sizes.append((space.n_atoms, X.shape[0]))
        return _risk_rows(space, rho, X)

    monkeypatch.setattr(kothe.risk, "_risk_rows", guarded)
    failed = set()
    for n, uniform, seed, trials in CASES:
        space = _space(n, uniform, seed)
        rho = RISKS[risk]()
        want = _check_risk_axioms_sequential(space, rho, trials, seed)
        _DIMS.clear()
        got = check_risk_axioms(space, rho, trials=trials, seed=seed)
        assert set(_DIMS) <= {1}
        _assert_same_items(got.items, want)
        failed |= {i.name for i in got.items if not i.passed}
    assert len(sizes) == sum(c[3] for c in CASES)
    assert all(rows <= n + 7 for n, rows in sizes)
    assert (not failed) == (risk in ("avar_small", "avar_half", "avar_one", "entropic", "custom_mean"))


@pytest.mark.parametrize("family", sorted(BUILTIN_FAMILIES))
@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(1, 10),
    uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
)
def test_value_rows_matches_value_arr(family, n, uniform, seed, scale):
    rng = np.random.default_rng(seed)
    space = FiniteProbSpace.uniform(n) if uniform else FiniteProbSpace(rng.dirichlet(np.ones(n)))
    spec = BUILTIN_FAMILIES[family](n)
    # normal rows, a zero row, and integer rows whose ties the sorts must break
    X = np.vstack([rng.standard_normal((4, n)), np.zeros(n), np.round(2.0 * rng.standard_normal((4, n)))]) * scale
    got = spec._value_rows(space, X)
    assert got.shape == (X.shape[0],)
    for row, value in zip(X, got):
        want = spec._value_arr(space, row)
        assert abs(value - want) <= 1e-15 * abs(want), (row, value, want)


@pytest.mark.parametrize("risk", sorted(RISKS))
@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 10), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_risk_rows_matches_risk_arr(risk, n, uniform, seed):
    rng = np.random.default_rng(seed)
    space = FiniteProbSpace.uniform(n) if uniform else FiniteProbSpace(rng.dirichlet(np.ones(n)))
    rho = RISKS[risk]()
    X = np.vstack([rng.standard_normal((4, n)), np.zeros(n), np.round(2.0 * rng.standard_normal((4, n)))])
    for row, value in zip(X, _risk_rows(space, rho, X)):
        want = _risk_arr(space, rho, row)
        assert abs(value - want) <= 1e-15 * abs(want), (row, value, want)


def test_builtin_row_evaluators_are_vectorized(monkeypatch):
    # Lp, Marcinkiewicz, Lorentz and the avar risk norm never fall back to a
    # loop over _value_arr; the rest do, so callbacks keep 1-D arrays
    def refuse(self, space, x):
        raise AssertionError(f"{type(self).__name__} looped over rows")

    X = np.random.default_rng(1).standard_normal((15, 8))
    space = FiniteProbSpace.uniform(8)
    for family in ("L1", "L2", "Linf", "marcinkiewicz_sqrt", "lorentz_tabulated", "avar"):
        spec = BUILTIN_FAMILIES[family](8)
        with monkeypatch.context() as m:
            m.setattr(type(spec), "_value_arr", refuse)
            spec._value_rows(space, X)
    assert kothe.norms.LuxemburgNorm._value_rows is kothe.norms.Seminorm._value_rows

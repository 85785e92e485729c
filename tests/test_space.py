import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kothe
import kothe._optim
from kothe import (
    FiniteProbSpace,
    Partition,
    Rv,
    conditional_expectation,
    expectation,
    indicator,
    pairing,
)

UNIFORM4 = FiniteProbSpace.uniform(4)
U4132 = Rv([4.0, 1.0, 3.0, 2.0])


def test_expectation_examples():
    assert expectation(UNIFORM4, U4132) == pytest.approx(2.5, abs=1e-12)
    assert expectation(UNIFORM4, Rv.zero(4)) == 0.0
    two = FiniteProbSpace([0.5, 0.5])
    assert expectation(two, Rv([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_pairing_examples():
    assert pairing(UNIFORM4, U4132, Rv([1.0, 1.0, 1.0, 1.0])) == pytest.approx(2.5)
    two = FiniteProbSpace([0.5, 0.5])
    assert pairing(two, Rv([1.0, -1.0]), Rv([1.0, 1.0])) == 0.0
    # direct hand sum: (4*1 + 1*2 + 3*3 + 2*4) / 4 = 23/4
    assert pairing(UNIFORM4, U4132, Rv([1.0, 2.0, 3.0, 4.0])) == pytest.approx(5.75)


def test_conditional_expectation_examples():
    out = conditional_expectation(UNIFORM4, U4132, Partition.trivial(4))
    assert np.allclose(out.values, 2.5, atol=1e-12)
    out = conditional_expectation(UNIFORM4, U4132, Partition.singletons(4))
    assert np.array_equal(out.values, U4132.values)
    two = FiniteProbSpace([0.5, 0.5])
    out = conditional_expectation(two, Rv([1.0, 0.0]), Partition.trivial(2))
    assert np.allclose(out.values, 0.5, atol=1e-12)


def test_indicator_examples():
    assert np.array_equal(indicator(UNIFORM4, [1]).values, [0, 1, 0, 0])
    assert np.array_equal(indicator(UNIFORM4, []).values, np.zeros(4))
    assert np.array_equal(indicator(UNIFORM4, range(4)).values, np.ones(4))
    with pytest.raises(ValueError):
        indicator(UNIFORM4, [4])


def _random_partition(rng, n):
    idx = list(rng.permutation(n))
    blocks, i = [], 0
    while i < n:
        j = min(n, i + int(rng.integers(1, 4)))
        blocks.append(tuple(idx[i:j]))
        i = j
    return Partition(tuple(blocks))


def test_tower_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        u = Rv(rng.standard_normal(n))
        g = _random_partition(rng, n)
        eu = conditional_expectation(space, u, g)
        assert expectation(space, eu) == pytest.approx(expectation(space, u), abs=1e-12)


def test_conditional_expectation_linear_and_constant():
    rng = np.random.default_rng(12)
    space = FiniteProbSpace.uniform(6)
    g = _random_partition(rng, 6)
    u = Rv(rng.standard_normal(6))
    v = Rv(rng.standard_normal(6))
    lhs = conditional_expectation(space, Rv(2.0 * u.values - 3.0 * v.values), g)
    rhs = 2.0 * conditional_expectation(space, u, g).values - 3.0 * conditional_expectation(
        space, v, g
    ).values
    assert np.allclose(lhs.values, rhs, atol=1e-12)
    const = conditional_expectation(space, Rv.constant(7.0, 6), g)
    assert np.allclose(const.values, 7.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.floats(-5, 5),
)
def test_pairing_bilinear_symmetric(us, ys, alpha):
    n = min(len(us), len(ys))
    space = FiniteProbSpace.uniform(n)
    u, y = Rv(us[:n]), Rv(ys[:n])
    assert pairing(space, u, y) == pytest.approx(pairing(space, y, u), abs=1e-9)
    scaled = pairing(space, Rv(alpha * u.values), y)
    assert scaled == pytest.approx(alpha * pairing(space, u, y), abs=1e-7)


def test_validation_errors():
    with pytest.raises(ValueError):
        FiniteProbSpace([0.5, 0.6])
    with pytest.raises(ValueError):
        FiniteProbSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        FiniteProbSpace([-0.5, 1.5])
    with pytest.raises(ValueError):
        Rv([1.0, np.nan])
    with pytest.raises(ValueError):
        expectation(UNIFORM4, Rv([1.0, 2.0]))
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Partition(((),))
    with pytest.raises(ValueError):
        conditional_expectation(UNIFORM4, U4132, Partition(((0, 1),)))


def test_immutability():
    with pytest.raises(ValueError):
        UNIFORM4.probs[0] = 0.3
    with pytest.raises(ValueError):
        U4132.values[0] = 0.0


def test_the_numeric_policy_has_no_knobs():
    # the tolerances are module constants: nothing exported carries a
    # Tolerances object or takes a tol, rel_tol or labels parameter
    assert not hasattr(kothe, "Tolerances") and not hasattr(kothe, "DEFAULT_TOL")
    exported = [getattr(kothe, name) for name in dir(kothe) if not name.startswith("_")]
    fns = [obj for obj in exported if callable(obj)]
    fns += [m for cls in fns if inspect.isclass(cls) for _, m in inspect.getmembers(cls, inspect.isroutine)]
    checked = 0
    for fn in fns:
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked += 1
        assert not {"tol", "rel_tol", "labels"} & set(params), fn
    assert checked > 100
    # the gauge routines stop at _optim._GAUGE_REL
    for name in kothe._optim.__all__:
        fn = getattr(kothe._optim, name)
        if inspect.isfunction(fn):
            assert "rel_tol" not in inspect.signature(fn).parameters, name

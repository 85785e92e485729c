import math

import numpy as np
import pytest

from kothe import (
    LuxemburgNorm,
    MusielakFamily,
    check_delta2,
    conjugate,
    young_exponential,
    young_from_table_file,
    young_indicator_ball,
    young_power,
    young_power_over_p,
    young_tabulated,
)


def grid_conjugate(phi, y, hi=200.0, n=400001):
    """Brute-force sup_{x >= 0} {x*y - phi(x)} on a dense grid."""
    xs = np.linspace(0.0, hi, n)
    vals = xs * y - phi.eval_array(xs)
    return float(np.max(vals[np.isfinite(vals)]))


def test_evaluate_examples():
    assert young_power(2)(3.0) == 9.0
    ball = young_indicator_ball(1.0)
    assert ball(0.5) == 0.0
    assert ball(2.0) == math.inf
    assert young_power_over_p(2)(3.0) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        young_power(2)(-1.0)


def test_conjugate_closed_forms_against_grid():
    cases = [
        (young_power(2), [0.5, 1.0, 2.0, 5.0]),
        (young_power(1.5, 0.7), [0.5, 1.0, 3.0]),
        (young_power_over_p(3), [0.5, 1.0, 2.0]),
        (young_exponential(), [0.3, 1.0, 2.0, 4.0]),
    ]
    for phi, ys in cases:
        star = conjugate(phi)
        for y in ys:
            assert star(y) == pytest.approx(grid_conjugate(phi, y), abs=1e-6)


def test_conjugate_examples():
    # x^2/2 is its own conjugate
    pop = young_power_over_p(2)
    star = conjugate(pop)
    for x in (0.0, 0.7, 2.0):
        assert star(x) == pytest.approx(pop(x), abs=1e-12)
    # sup_x {2x - x^2} = 1
    assert conjugate(young_power(2))(2.0) == pytest.approx(1.0, abs=1e-12)
    # support function of [0, a]
    assert conjugate(young_indicator_ball(1.5))(2.0) == pytest.approx(3.0)
    assert conjugate(young_power(1.0, 2.0))(1.5) == 0.0
    assert conjugate(young_power(1.0, 2.0))(2.5) == math.inf


def test_fenchel_young_inequality():
    specs = [
        young_power(2),
        young_power(3, 0.4),
        young_power_over_p(2.5),
        young_exponential(),
        young_indicator_ball(2.0),
    ]
    grid = np.linspace(0.0, 6.0, 25)
    for phi in specs:
        star = conjugate(phi)
        for x in grid:
            fx = phi(float(x))
            for y in grid:
                fy = star(float(y))
                if math.isinf(fx) or math.isinf(fy):
                    continue
                assert x * y <= fx + fy + 1e-10


def test_biconjugacy_catalog():
    specs = [
        young_power(2),
        young_power(1.0, 0.7),
        young_power(4, 2.0),
        young_power_over_p(3),
        young_exponential(),
        young_indicator_ball(1.2),
    ]
    xs = [0.0, 0.3, 0.9, 1.1, 2.5]
    for phi in specs:
        second = conjugate(conjugate(phi))
        for x in xs:
            a, b = phi(x), second(x)
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert b == pytest.approx(a, abs=1e-8)


def test_biconjugacy_tabulated():
    xs = np.linspace(0.0, 3.0, 61)
    phi = young_tabulated(xs, xs**2)
    second = conjugate(conjugate(phi))
    for x in (0.2, 0.9, 1.7, 2.5):
        assert second(x) == pytest.approx(phi(x), abs=1e-7)


def test_tabulated_conjugate_is_the_node_maximum():
    # sup_x (x y - phi(x)) of a piecewise-linear phi sits at a node, exactly,
    # and is +inf past the final slope 2.0; conjugating twice gives phi back
    xs, fs = [0.0, 0.5, 1.0, 2.0], [0.0, 0.25, 1.0, 3.0]
    phi = young_tabulated(xs, fs)
    star = conjugate(phi)
    ys = np.append(np.linspace(0.0, 2.0, 101), [2.0 + 1e-12, 7.0])
    want = [max(x * y - f for x, f in zip(xs, fs)) if y <= 2.0 else math.inf for y in ys]
    assert star.eval_array(ys).tolist() == want
    assert conjugate(star) is phi


def test_conjugate_of_an_atom_constant_family_stays_atom_constant():
    fam = MusielakFamily.constant(young_tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.25, 1.0, 3.0]), 5)
    conj = fam.conjugate()
    assert conj.is_constant
    assert LuxemburgNorm(conj).rearrangement_invariant
    # conjugates of different tabulated functions stay apart
    other = young_tabulated([0.0, 1.0], [0.0, 1.0])
    assert not MusielakFamily((fam.functions[0], other)).conjugate().is_constant


def test_monotone_conjugation():
    small = young_power(2, 0.5)
    large = young_power(2, 2.0)
    ssmall = conjugate(small)
    slarge = conjugate(large)
    for y in np.linspace(0.0, 5.0, 21):
        assert ssmall(float(y)) >= slarge(float(y)) - 1e-12


def test_delta2_examples():
    assert check_delta2(young_power(3), 1.0, 8.0)
    assert not check_delta2(young_power(3), 1.0, 7.9)
    assert not check_delta2(young_exponential(), 1.0, 1e6)
    assert check_delta2(young_power_over_p(2), 1.0, 4.0)
    xs = np.linspace(0.0, 5.0, 41)
    assert check_delta2(young_tabulated(xs, xs**2), 0.5, 8.0)


def test_tabulated_validation_and_loading(tmp_path):
    with pytest.raises(ValueError):
        young_tabulated([0.0, 1.0], [0.5, 1.0])  # does not start at 0
    with pytest.raises(ValueError):
        young_tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])  # concave, not convex
    path = tmp_path / "table.txt"
    xs = np.linspace(0.0, 2.0, 21)
    np.savetxt(path, np.column_stack([xs, xs**3]))
    phi = young_from_table_file(path)
    assert phi(1.0) == pytest.approx(1.0, abs=1e-2)
    # linear continuation beyond the grid keeps the last slope
    slope = (phi(2.0 + 1e-6) - phi(2.0)) / 1e-6
    assert slope == pytest.approx((2.0**3 - 1.9**3) / 0.1, rel=1e-3)


def test_musielak_family():
    fam = MusielakFamily.constant(young_power(2), 3)
    assert fam.is_constant and fam.is_finite and len(fam) == 3
    mixed = MusielakFamily((young_power(2), young_power(3)))
    assert not mixed.is_constant
    conj = mixed.conjugate()
    assert conj.functions[0](2.0) == pytest.approx(1.0, abs=1e-12)
    probs = np.array([0.5, 0.5])
    assert fam.modular(np.array([1 / 3] * 3), np.array([1.0, 2.0, 3.0])) == pytest.approx(
        (1 + 4 + 9) / 3
    )
    ball = MusielakFamily.constant(young_indicator_ball(1.0), 2)
    assert ball.modular(probs, np.array([0.5, 0.9])) == 0.0
    assert ball.modular(probs, np.array([0.5, 1.1])) == math.inf

"""Distribution functions, decreasing rearrangements and tail functionals.

The decreasing rearrangement (quantile function) of a random variable on a
finite space is represented exactly as a right-continuous nonincreasing step
function on [0, 1).  Keeping it exact removes discretization error from every
norm built on top of it: all integrals against a step function are closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import FiniteProbSpace, Rv, _check_on_space

__all__ = [
    "StepFunction",
    "distribution_fn",
    "quantile",
    "quantile_integral",
    "cvar_infimum",
    "hardy_littlewood_sup",
]


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-continuous step function on [0, 1).

    ``values[k]`` is the value on ``[breakpoints[k], breakpoints[k+1])``.
    Breakpoints are strictly increasing, starting at 0 and ending at 1.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise ValueError("need K+1 breakpoints for K plateau values")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, t: float) -> float:
        """Value at t in [0, 1); t = 1 returns the last plateau value."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        k = min(max(k, 0), self.values.size - 1)
        return float(self.values[k])

    def integral(self, t: float) -> float:
        """Exact integral over [0, t]; piecewise linear in t."""
        if not -1e-12 <= t <= 1.0 + 1e-12:
            raise ValueError("t must lie in [0, 1]")
        t = min(max(t, 0.0), 1.0)
        cum = self._cumulative()
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        k = min(max(k, 0), self.values.size - 1)
        return float(cum[k] + self.values[k] * (t - self.breakpoints[k]))

    def integrals_at_breakpoints(self) -> np.ndarray:
        """Integral values at every breakpoint, starting with 0."""
        cum = self._cumulative()
        return np.append(cum, cum[-1] + self.values[-1] * (1.0 - self.breakpoints[-2]))

    def _cumulative(self) -> np.ndarray:
        seg = self.values[:-1] * np.diff(self.breakpoints)[:-1]
        return np.concatenate([[0.0], np.cumsum(seg)])


def _quantile_levels(probs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |values| levels in descending order with their total masses."""
    a = np.abs(np.asarray(values, dtype=float))
    neg_levels, inverse = np.unique(-a, return_inverse=True)
    weights = np.bincount(inverse, weights=probs)
    return -neg_levels, weights


def distribution_fn(space: FiniteProbSpace, u: Rv, tau: float) -> float:
    """P(|u| > tau), with strict inequality."""
    _check_on_space(space, u)
    return float(space.probs[np.abs(u.values) > tau].sum())


def quantile(space: FiniteProbSpace, u: Rv) -> StepFunction:
    """Decreasing rearrangement of |u| as an exact step function.

    Atoms with equal |u| merge into a single plateau, so the representation
    is deterministic under permutations of equal values.  Plateaus that the
    running sum rounds to zero width hold no t and are dropped.
    """
    _check_on_space(space, u)
    levels, weights = _quantile_levels(space.probs, u.values)
    bp = np.concatenate([[0.0], np.minimum(np.cumsum(weights[:-1]), 1.0), [1.0]])
    keep = np.diff(bp) > 0.0
    return StepFunction(np.append(bp[:-1][keep], 1.0), levels[keep])


def quantile_integral(q: StepFunction, t: float) -> float:
    """Running integral of a quantile step function over [0, t]."""
    return q.integral(t)


def _sorted_prefix(
    probs: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable descending order of x along its last axis, the sorted values,
    the masses p in that order and their prefix sums."""
    order = np.argsort(-x, axis=-1, kind="stable")
    levels = x[order] if x.ndim == 1 else np.take_along_axis(x, order, axis=-1)
    ps = probs[order]
    return order, levels, ps, np.cumsum(ps, axis=-1)


def _tail_min(probs: np.ndarray, x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """min over real s of t*s + E[x - s]^+, for 0 < t <= 1, along the last
    axis of x; t broadcasts against x, so a column of levels for a 1-D x
    gives one minimum per level.

    The objective is convex and piecewise linear in s with kinks at the values
    of x.  Its slope t - P(x > s) is t - 1 <= 0 below min(x) and t > 0 above
    max(x), so a value of x attains the minimum.  At s = x_(k), the k-th value
    in descending order, E[x - s]^+ is the layer sum over j < k of
    mass_j * (x_(j) - x_(j+1)), with mass_j the mass of the top j + 1 atoms.
    Each layer, a difference of two products that cannot overflow, is >= 0
    and exactly 0 on ties, so a constant x gives t * x and a single nonzero
    atom p * x, each rounded once.  One sort and two prefix sums give every
    candidate, in O(n log n) time and O(n) memory per row or level.  The
    layer sum can reach 2 max|x|, so x above 2**1021 is scanned at x / 4.
    """
    _, s, _, mass = _sorted_prefix(probs, x)
    k = 4.0 if max(s[..., 0].max(), -s[..., -1].min()) > 2.0**1021 else 1.0
    s = s / k  # exact, as is the scale-back
    f = t * s
    f[..., 1:] += np.cumsum(mass[..., :-1] * s[..., :-1] - mass[..., :-1] * s[..., 1:], axis=-1)
    return f.min(axis=-1) * k


def cvar_infimum(space: FiniteProbSpace, u: Rv, t: float) -> float:
    """inf over s >= 0 of t*s + E[|u| - s]^+ (the Rockafellar-Uryasev form).

    The objective is piecewise linear and convex in s with kinks exactly at
    the values of |u|, so the infimum is attained on the finite candidate set
    {0} union {values of |u|}.  Every candidate is evaluated exactly by one
    sorted prefix scan, in O(n log n) time and O(n) memory.
    """
    _check_on_space(space, u)
    if t <= 0.0:
        raise ValueError("t must be positive")
    if t > 1.0:
        raise ValueError("t must not exceed 1")
    a = np.abs(u.values)
    # the candidate s = 0 has the value E|u|
    return min(float(_tail_min(space.probs, a, t)), float(np.dot(space.probs, a)))


def hardy_littlewood_sup(space: FiniteProbSpace, u: Rv, y: Rv) -> float:
    """Integral of the product of the two decreasing rearrangements.

    Only defined here on spaces with equal atom probabilities, where it
    reduces to the comonotone (sorted-descending) dot product divided by the
    number of atoms, and upper-bounds E[(u o pi) * y] over permutations pi.
    """
    _check_on_space(space, u, "u")
    _check_on_space(space, y, "y")
    if not space.is_uniform:
        raise ValueError("rearrangement supremum requires equal atom probabilities")
    us = np.sort(np.abs(u.values))[::-1]
    ys = np.sort(np.abs(y.values))[::-1]
    return float(np.dot(us, ys) / space.n_atoms)

"""Reference values computed with plain numpy, independent of kothe.

Each function takes atom probabilities and a value vector.  They serve as
certificates for the exact closed-form layers: the benchmark compares kothe's
output with them and counts a mismatch beyond the acceptance-suite
tolerance as a failed operation.
"""

from __future__ import annotations

import math

import numpy as np


def lp(probs: np.ndarray, x: np.ndarray, p: float) -> float:
    return float(np.dot(probs, np.abs(x) ** p) ** (1.0 / p))


def _descending(probs: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(-a, kind="stable")
    return a[order], probs[order]


def tail_integral(probs: np.ndarray, a: np.ndarray, t: float) -> float:
    """Integral over [0, t] of the decreasing rearrangement of a."""
    levels, weights = _descending(probs, a)
    before = np.cumsum(weights) - weights
    take = np.clip(t - before, 0.0, weights)
    return float(np.dot(levels, take))


def tail_mean(probs: np.ndarray, x: np.ndarray, t: float) -> float:
    """Average value-at-risk: mean of the largest values over mass t."""
    return tail_integral(probs, np.asarray(x, dtype=float), t) / t


def entropic(probs: np.ndarray, x: np.ndarray, theta: float) -> float:
    w = theta * x
    m = float(w.max())
    return (m + math.log(float(np.dot(probs, np.exp(w - m))))) / theta


def marcinkiewicz(probs: np.ndarray, x: np.ndarray, a: float) -> float:
    levels, weights = _descending(probs, np.abs(x))
    return float((np.cumsum(levels * weights) / np.cumsum(weights) ** a).max())


def lorentz(probs: np.ndarray, x: np.ndarray, a: float) -> float:
    levels, weights = _descending(probs, np.abs(x))
    edges = np.concatenate([[0.0], np.cumsum(weights)]) ** a
    return float(np.dot(levels, np.diff(edges)))


def rearrangement(probs: np.ndarray, x: np.ndarray) -> dict[str, list[float]]:
    """Breakpoints, plateau values and running integrals of |x| rearranged."""
    a = np.abs(x)
    levels = np.unique(a)[::-1]
    masses = np.array([probs[a == v].sum() for v in levels])
    bp = np.concatenate([[0.0], np.cumsum(masses)])
    integrals = np.concatenate([[0.0], np.cumsum(levels * masses)])
    return {"breakpoints": bp.tolist(), "values": levels.tolist(), "integrals": integrals.tolist()}


def _subset_sums(probs: np.ndarray, z: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """E[z 1_A] and avar_t(1_A) = min(P(A), t) / t over every nonempty atom set A."""
    n = probs.size
    masks = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    return masks @ (probs * z), np.minimum(masks @ probs, t) / t


def avar_penalty_finite(probs: np.ndarray, z: np.ndarray, t: float) -> bool:
    """Is sup over xi >= 0 of E[xi z] - avar_t(xi) finite, for z >= 0?

    For a positively homogeneous measure the penalty is 0 or +inf, and it is
    finite iff E[z 1_A] <= avar_t(1_A) for every atom set A (small spaces
    only: every subset is enumerated).
    """
    sums, bound = _subset_sums(probs, z, t)
    return bool((sums - bound).max() <= 1e-11 * max(float(z.max()), 1.0))


def avar_dual(probs: np.ndarray, y: np.ndarray, t: float) -> float:
    """Dual norm of y against the avar_t risk norm: max over A of E[|y| 1_A] / avar_t(1_A)."""
    sums, bound = _subset_sums(probs, np.abs(y), t)
    return float((sums / bound).max())


def close(got: float, want: float, tol: float) -> bool:
    """|got - want| <= tol * max(1, |want|), with both finite."""
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))

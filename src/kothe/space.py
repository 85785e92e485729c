"""Finite probability spaces and scalar random variables on them.

Everything in this package works over an explicit finite sample space:
atoms with strictly positive probabilities summing to one.  A random
variable is a plain value-per-atom vector.  All objects are immutable
values and every operation is a pure function, so concurrent evaluation
needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "CheckItem",
    "FiniteProbSpace",
    "Rv",
    "Partition",
    "expectation",
    "pairing",
    "conditional_expectation",
    "indicator",
]

# absolute tolerance of the probability sum and of the uniformity test
_LINEAR = 1e-12


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FiniteProbSpace:
    """Atoms with strictly positive probabilities summing to one."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = _frozen_array(self.probs, "probs")
        if probs.size == 0:
            raise ValueError("a probability space needs at least one atom")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        # Zero-probability atoms are rejected: values are identified up to
        # null sets, and a zero atom would make quantile functions ambiguous.
        if np.any(probs <= 0.0):
            raise ValueError("all atom probabilities must be strictly positive")
        # fsum is exactly rounded, so a relabelled space passes as well
        total = math.fsum(probs)
        if abs(total - 1.0) > _LINEAR:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n: int) -> "FiniteProbSpace":
        if n < 1:
            raise ValueError("need at least one atom")
        return cls(np.full(n, 1.0 / n))

    @property
    def n_atoms(self) -> int:
        return int(self.probs.size)

    @property
    def is_uniform(self) -> bool:
        return bool(np.ptp(self.probs) <= _LINEAR)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteProbSpace(n={self.n_atoms})"


@dataclass(frozen=True, eq=False)
class Rv:
    """A real random variable: one finite value per atom."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _frozen_array(self.values, "values")
        if not np.all(np.isfinite(values)):
            raise ValueError("random variable values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, c: float, n: int) -> "Rv":
        return cls(np.full(n, float(c)))

    @classmethod
    def zero(cls, n: int) -> "Rv":
        return cls(np.zeros(n))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty blocks of atom indices; coverage is checked per space."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(i) for i in block) for block in self.blocks)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            for i in block:
                if i < 0:
                    raise ValueError("atom indices must be nonnegative")
                if i in seen:
                    raise ValueError(f"atom {i} appears in more than one block")
                seen.add(i)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(n)))

    def covered_atoms(self) -> set[int]:
        return {i for block in self.blocks for i in block}


def _check_on_space(space: FiniteProbSpace, u: Rv, name: str = "u") -> None:
    if len(u) != space.n_atoms:
        raise ValueError(
            f"{name} has {len(u)} values but the space has {space.n_atoms} atoms"
        )


def expectation(space: FiniteProbSpace, u: Rv) -> float:
    """E[u] under the space's probabilities."""
    _check_on_space(space, u)
    return float(np.dot(space.probs, u.values))


def pairing(space: FiniteProbSpace, u: Rv, y: Rv) -> float:
    """The bilinear form E[u*y]; symmetric in its two arguments."""
    _check_on_space(space, u, "u")
    _check_on_space(space, y, "y")
    return float(np.dot(space.probs, u.values * y.values))


def conditional_expectation(space: FiniteProbSpace, u: Rv, g: Partition) -> Rv:
    """Average u over each block of g; constant on blocks, linear in u."""
    _check_on_space(space, u)
    covered = g.covered_atoms()
    if covered != set(range(space.n_atoms)):
        raise ValueError("partition does not cover every atom of the space")
    out = np.empty(space.n_atoms)
    for block in g.blocks:
        idx = np.asarray(block, dtype=int)
        block_prob = float(space.probs[idx].sum())
        out[idx] = float(np.dot(space.probs[idx], u.values[idx])) / block_prob
    return Rv(out)


def indicator(space: FiniteProbSpace, atoms: Iterable[int]) -> Rv:
    """The 0/1 random variable of the given atom index set."""
    out = np.zeros(space.n_atoms)
    for i in atoms:
        i = int(i)
        if not 0 <= i < space.n_atoms:
            raise ValueError(f"atom index {i} out of range")
        out[i] = 1.0
    return Rv(out)


@dataclass(frozen=True)
class CheckItem:
    """One randomized property check: its worst violation and, when it fails,
    the input that produced it."""

    name: str
    passed: bool
    worst: float
    witness: str | None = None


def _pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * 2**-e, e) for a >= 0, with e the binary exponent of max(a) (0 for
    a = 0), so the largest entry lands in [0.5, 1) and products such as
    p * a do not underflow for subnormal a.  The scaling is exact, so on
    normal-range a a result scaled back by ldexp(., e) is unchanged."""
    e = math.frexp(float(a.max()))[1]
    return np.ldexp(a, -e), e


def _scale_back(value: float, e: int) -> float:
    """ldexp(value, e) for a value computed on an input scaled by 2**-e, as
    ``_pow2_scaled`` scales: exact where the result is normal, and at least
    the least subnormal for a positive value, so that a nonzero input never
    reads 0 where its exact value rounds below the float grid."""
    return max(math.ldexp(value, e), math.ulp(0.0)) if value > 0.0 else value


def _shrinking_rows(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """x on a random nested sequence of shrinking supports, one row per
    step: row j keeps the first n - 1 - j atoms of a shuffled order, so the
    last row is zero.  Draws one shuffle from rng."""
    n = x.size
    alive = list(range(n))
    rng.shuffle(alive)
    rank = np.empty(n, dtype=int)
    rank[alive] = np.arange(n)
    return np.where(rank < np.arange(n - 1, -1, -1)[:, None], x, 0.0)


def _fmt(x: np.ndarray) -> str:
    return np.array2string(np.asarray(x), precision=6, separator=", ")


class _WorstCase:
    """Largest violation seen per property, starting from ``floor``.

    Witness arrays are kept as given and formatted only for failing items.
    """

    def __init__(self, floor: float):
        self._floor = floor
        self._worst: dict[str, tuple[float, np.ndarray | None]] = {}

    def bump(self, key: str, val: float, witness: np.ndarray | None) -> None:
        if val > self._worst.get(key, (self._floor, None))[0]:
            self._worst[key] = (val, witness)

    def bump_chain(self, key: str, fx: float, vals: np.ndarray, rows: np.ndarray, scale: float) -> None:
        """Growth of f along the rows of ``_shrinking_rows`` from x, where
        f(x) = fx and f(rows) = vals, and then |f| at the last row, zero,
        where f must vanish (order continuity).  Bumping only the chain's
        first largest step keeps what bumping each step in turn would."""
        prev, best, at = fx, -math.inf, 0
        for j, cur in enumerate(vals.tolist()):
            if (cur - prev) / scale > best:
                best, at = (cur - prev) / scale, j
            prev = cur
        self.bump(key, best, rows[at].copy())  # a copy, so the witness keeps no n x n chain alive
        self.bump(key, abs(prev) / scale, None)

    def item(self, key: str, slack: float) -> CheckItem:
        val, wit = self._worst.get(key, (self._floor, None))
        shown = _fmt(wit) if val > slack and wit is not None else None
        return CheckItem(key, val <= slack, val, shown)

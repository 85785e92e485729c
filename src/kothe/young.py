"""Young functions, their convex conjugates and growth checks.

A Young function is convex, nondecreasing on [0, inf) with value 0 at 0, not
identically zero, and may take the value +inf.  The catalog kinds carry
closed-form conjugates; the conjugate of a tabulated function is the exact
maximum over its nodes.  Extended-real conventions: 0 * inf = 0
in perspective-type expressions (handled by the callers that need it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "YoungFunction",
    "MusielakFamily",
    "young_power",
    "young_power_over_p",
    "young_exponential",
    "young_indicator_ball",
    "young_tabulated",
    "young_from_table_file",
    "conjugate",
    "check_delta2",
]

_INF = math.inf


@dataclass(frozen=True, eq=False)
class YoungFunction:
    """Tagged Young function; use the module constructors to build one.

    kinds: "power" (scale * x**p), "indicator" (0 on [0, bound], inf beyond),
    "exp" (e^x - 1), "entropy" (y log y - y + 1 on [1, inf), 0 below),
    "tabulated" (piecewise-linear interpolation, extended linearly beyond the
    last node with its final slope), "conjugate" (conjugate of a tabulated
    base).
    """

    kind: str
    p: float = math.nan
    scale: float = 1.0
    bound: float = math.nan
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    base: "YoungFunction | None" = None

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError("Young functions are evaluated at x >= 0")
        return float(self.eval_array(np.asarray([x], dtype=float))[0])

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; entries may be +inf."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("Young functions are evaluated at x >= 0")
        if self.kind == "power":
            with np.errstate(over="ignore"):
                return self.scale * x**self.p
        if self.kind == "indicator":
            return np.where(x <= self.bound, 0.0, _INF)
        if self.kind == "exp":
            with np.errstate(over="ignore"):
                return np.expm1(x)
        if self.kind == "entropy":
            out = np.zeros_like(x)
            mask = x > 1.0
            xm = x[mask]
            out[mask] = xm * np.log(xm) - xm + 1.0
            return out
        if self.kind == "tabulated":
            assert self.xs is not None and self.ys is not None
            out = np.interp(x, self.xs, self.ys)
            beyond = x > self.xs[-1]
            if np.any(beyond):
                out[beyond] = self.ys[-1] + self._tail_slope() * (x[beyond] - self.xs[-1])
            return out
        if self.kind == "conjugate":
            # a piecewise-linear base attains sup_t (t x - base(t)) at a node,
            # and beyond its final slope the supremand grows without bound
            b = self.base
            assert b is not None and b.xs is not None and b.ys is not None
            return np.where(x > b.sup_slope, _INF, (x[..., None] * b.xs - b.ys).max(axis=-1))
        raise AssertionError(f"unknown kind {self.kind!r}")

    def _tail_slope(self) -> float:
        assert self.xs is not None and self.ys is not None
        return float((self.ys[-1] - self.ys[-2]) / (self.xs[-1] - self.xs[-2]))

    @property
    def domain_bound(self) -> float:
        """sup{x : value(x) < inf}."""
        if self.kind == "indicator":
            return self.bound
        if self.kind == "conjugate":
            assert self.base is not None
            return self.base.sup_slope
        return _INF

    @property
    def sup_slope(self) -> float:
        """Asymptotic slope; the conjugate is finite exactly on [0, sup_slope]."""
        if self.kind == "power":
            return self.scale if self.p == 1.0 else _INF
        if self.kind == "tabulated":
            return self._tail_slope()
        if self.kind == "conjugate":
            assert self.base is not None
            return self.base.domain_bound
        return _INF

    @property
    def is_finite(self) -> bool:
        return self.domain_bound == _INF

    def conjugate(self) -> "YoungFunction":
        return conjugate(self)

    def _signature(self) -> tuple:
        if self.kind in ("power", "indicator"):
            return (self.kind, self.p, self.scale, self.bound)
        if self.kind in ("exp", "entropy"):
            return (self.kind,)
        if self.kind == "conjugate":
            assert self.base is not None
            return (self.kind,) + self.base._signature()
        return (self.kind, id(self))


def young_power(p: float, scale: float = 1.0) -> YoungFunction:
    """scale * x**p with p >= 1, scale > 0."""
    if p < 1:
        raise ValueError("power Young functions need p >= 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    return YoungFunction("power", p=float(p), scale=float(scale))


def young_power_over_p(p: float) -> YoungFunction:
    """x**p / p with p > 1; conjugate to its own kind with the dual exponent."""
    if p <= 1:
        raise ValueError("x**p/p needs p > 1")
    return young_power(p, 1.0 / p)


def young_exponential() -> YoungFunction:
    """e^x - 1."""
    return YoungFunction("exp")


def young_indicator_ball(a: float) -> YoungFunction:
    """0 on [0, a], +inf beyond."""
    if a <= 0:
        raise ValueError("the ball radius must be positive")
    return YoungFunction("indicator", bound=float(a))


def young_tabulated(xs, ys) -> YoungFunction:
    """Piecewise-linear Young function through the given nodes.

    Nodes must start at (0, 0) with strictly increasing x, nondecreasing
    convex y.  Beyond the last node the function continues with its final
    slope (the smallest convex extension of the data).
    """
    xs = np.array(xs, dtype=float)
    ys = np.array(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("need matching 1-d node arrays with at least two nodes")
    if xs[0] != 0.0 or ys[0] != 0.0:
        raise ValueError("the first node must be (0, 0)")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("node x values must be strictly increasing")
    if np.any(np.diff(ys) < -1e-12):
        raise ValueError("node y values must be nondecreasing")
    slopes = np.diff(ys) / np.diff(xs)
    if np.any(np.diff(slopes) < -1e-9):
        raise ValueError("nodes must describe a convex function")
    if ys[-1] <= 0.0:
        raise ValueError("a Young function cannot be identically zero")
    xs.setflags(write=False)
    ys.setflags(write=False)
    return YoungFunction("tabulated", xs=xs, ys=ys)


def young_from_table_file(path: str | Path) -> YoungFunction:
    """Load a tabulated Young function from two-column numeric text."""
    data = np.loadtxt(path, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected two numeric columns (x, value)")
    return young_tabulated(data[:, 0], data[:, 1])


def conjugate(phi: YoungFunction) -> YoungFunction:
    """Legendre conjugate sup_{x>=0} {x*y - phi(x)}, closed form when known."""
    if phi.kind == "power":
        if phi.p == 1.0:
            return young_indicator_ball(phi.scale)
        q = phi.p / (phi.p - 1.0)
        new_scale = (phi.p - 1.0) / phi.p * (phi.scale * phi.p) ** (-1.0 / (phi.p - 1.0))
        return young_power(q, new_scale)
    if phi.kind == "indicator":
        return young_power(1.0, phi.bound)
    if phi.kind == "exp":
        return YoungFunction("entropy")
    if phi.kind == "entropy":
        return YoungFunction("exp")
    if phi.kind == "conjugate":
        return phi.base  # a tabulated base is convex and lower semicontinuous: Phi** = Phi
    return YoungFunction("conjugate", base=phi)


def check_delta2(phi: YoungFunction, x0: float, K: float) -> bool:
    """Does value(2x) <= K * value(x) hold for all x >= x0?

    Closed form for power (true iff K >= 2**p) and exponential (false);
    tabulated and entropy kinds are checked on a logarithmic grid above x0.
    """
    if x0 <= 0 or K <= 0:
        raise ValueError("x0 and K must be positive")
    if phi.kind == "power":
        return bool(K >= 2.0**phi.p - 1e-12)
    if phi.kind == "exp":
        return False
    if phi.kind == "indicator":
        # beyond the ball both sides are infinite; inside, doubling escapes it
        return x0 > phi.bound
    grid = x0 * 2.0 ** (np.arange(0, 97) / 8.0)
    lhs = phi.eval_array(2.0 * grid)
    rhs = phi.eval_array(grid)
    ok = np.logical_or(lhs <= K * rhs + 1e-12, np.isinf(rhs))
    return bool(np.all(ok))


@dataclass(frozen=True, eq=False)
class MusielakFamily:
    """One Young function per atom; the atom-constant case is the Orlicz case."""

    functions: tuple[YoungFunction, ...]

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("a family needs at least one Young function")
        object.__setattr__(self, "functions", tuple(self.functions))
        sig = self.functions[0]._signature()
        constant = all(f._signature() == sig for f in self.functions)
        object.__setattr__(self, "_constant", constant)
        if all(f.kind == "power" for f in self.functions):
            object.__setattr__(self, "_pow_p", np.array([f.p for f in self.functions]))
            object.__setattr__(self, "_pow_scale", np.array([f.scale for f in self.functions]))
        else:
            object.__setattr__(self, "_pow_p", None)
            object.__setattr__(self, "_pow_scale", None)

    @classmethod
    def constant(cls, phi: YoungFunction, n: int) -> "MusielakFamily":
        return cls((phi,) * n)

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def is_constant(self) -> bool:
        return self._constant  # type: ignore[attr-defined]

    @property
    def is_finite(self) -> bool:
        return all(f.is_finite for f in self.functions)

    def conjugate(self) -> "MusielakFamily":
        return MusielakFamily(tuple(f.conjugate() for f in self.functions))

    def modular(self, probs: np.ndarray, x_abs: np.ndarray) -> float:
        """E Phi(|x|) with per-atom Phi; +inf propagates (all probs are > 0)."""
        if self._pow_p is not None:  # type: ignore[attr-defined]
            with np.errstate(over="ignore"):
                vals = self._pow_scale * x_abs**self._pow_p  # type: ignore[attr-defined]
            out = float(np.dot(probs, vals))
            return out if math.isfinite(out) else _INF
        if self._constant:  # type: ignore[attr-defined]
            vals = self.functions[0].eval_array(np.asarray(x_abs, dtype=float))
            if np.any(np.isinf(vals)):
                return _INF
            return float(np.dot(probs, vals))
        total = 0.0
        for p_i, f, v in zip(probs, self.functions, x_abs):
            term = f.eval_array(np.asarray([v]))[0]
            if math.isinf(term):
                return _INF
            total += p_i * float(term)
        return total

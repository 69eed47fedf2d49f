"""Differentiable field interfaces used by the solvers.

A Field1D maps x to values and answers derivative queries up to the
order it supports; a Field2D maps (x, t) to values.  Both carry a safe
evaluation domain.  Speeds are fields of x alone; couplings and forcing
are fields of (x, t) and may vary in t.  Analytic fields wrap
closed-form callables, constant fields a number; a shifted field
re-places a Field1D on the line; the embedded fields produced by
:mod:`roughwave.mollify` plug into the same interface.

`simpson_weights` is the composite Simpson rule that the fixed-lattice
quadratures in `hypsolve` and `scenarios` share;
`running_trapezoid` is the running trapezoid integral that
`characteristics`, `hypsolve` and `scenarios` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ParameterError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether every entry lies within tol of the interval.

        An empty query is contained and a NaN never is.  The array's own
        min and max skip the Python wrappers of np.all.
        """
        if not isinstance(x, np.ndarray):
            x = np.asarray(x)
        if x.size == 0:
            return True
        return bool(x.min() >= self.lo - tol and x.max() <= self.hi + tol)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


FULL_LINE = Interval(-1e30, 1e30)


@dataclass(frozen=True)
class Rect:
    x: Interval
    t: Interval

    def contains(self, x, t, tol: float = 1e-9) -> bool:
        return self.x.contains(x, tol) and self.t.contains(t, tol)


FULL_PLANE = Rect(FULL_LINE, FULL_LINE)


class Field1D:
    """Base: field of one variable with derivative queries."""

    domain: Interval = FULL_LINE
    scale: float | None = None  # smoothing scale, when meaningful

    def values(self, x, order: int = 0) -> np.ndarray:
        raise NotImplementedError

    def check_domain(self, x):
        if not self.domain.contains(x):
            lo = float(np.min(x)) if np.size(x) else math.nan
            hi = float(np.max(x)) if np.size(x) else math.nan
            raise DomainError(
                f"evaluation range [{lo}, {hi}] outside safe domain "
                f"[{self.domain.lo}, {self.domain.hi}]"
            )


def simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 on n equispaced nodes.

    Multiply by step / 3 for the quadrature weights.
    """
    if n < 3 or n % 2 == 0:
        raise ParameterError("Simpson rule needs an odd node count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def running_trapezoid(y: np.ndarray, dx) -> np.ndarray:
    """Trapezoid integrals of y from its first node to each node, 0 first.

    dx is the node step, or the steps np.diff(x) of a non-uniform lattice.
    """
    return np.concatenate([[0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)])


def _owned(out, shape: tuple, *inputs) -> np.ndarray:
    """out as a writable float array of shape that shares no memory with inputs."""
    out = np.asarray(out, dtype=float)
    if (out.shape == shape and out.flags.writeable
            and not any(np.may_share_memory(out, a) for a in inputs)):
        return out
    return np.broadcast_to(out, shape).copy()


class AnalyticField1D(Field1D):
    """Closed-form field: one callable per derivative order.

    fns[k] evaluates the k-th derivative.  Orders beyond the supplied
    list raise.
    """

    def __init__(
        self,
        fns: Sequence[Callable[[np.ndarray], np.ndarray]],
        domain: Interval = FULL_LINE,
    ):
        if not fns:
            raise ParameterError("need at least the order-0 callable")
        self._fns = list(fns)
        self.domain = domain

    def values(self, x, order: int = 0) -> np.ndarray:
        if not 0 <= order < len(self._fns):
            raise ParameterError(
                f"field provides derivatives of order 0 to {len(self._fns) - 1}, got {order}"
            )
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        return _owned(self._fns[order](x), x.shape, x)


class ConstantField1D(Field1D):
    """The constant c on the whole line; every derivative is zero."""

    def __init__(self, c: float):
        self.c = float(c)

    def values(self, x, order: int = 0) -> np.ndarray:
        if order < 0:
            raise ParameterError(f"derivative order must be >= 0, got {order}")
        shape = np.shape(x)
        return np.full(shape, self.c) if order == 0 else np.zeros(shape)


class ShiftedField1D(Field1D):
    """The parent field translated: values(x, k) = parent(x - shift, k)."""

    def __init__(self, parent: Field1D, shift: float):
        self._parent = parent
        self.shift = float(shift)
        self.domain = Interval(parent.domain.lo + shift, parent.domain.hi + shift)
        self.scale = parent.scale

    def values(self, x, order: int = 0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._parent.values(x - self.shift, order)


class Field2D:
    """Base: field of (x, t), queried for values only."""

    domain: Rect = FULL_PLANE
    t_independent: bool = False

    def values(self, x, t) -> np.ndarray:
        raise NotImplementedError

    def check_domain(self, x, t):
        if not self.domain.contains(x, t):
            raise DomainError("evaluation outside the field's safe rectangle")


class ConstantField2D(Field2D):
    def __init__(self, c: float):
        self.c = float(c)
        self.t_independent = True

    def values(self, x, t) -> np.ndarray:
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(t)), self.c)


def is_zero_field(f: Field2D | None) -> bool:
    return f is None or (isinstance(f, ConstantField2D) and f.c == 0.0)


class AnalyticField2D(Field2D):
    """Closed-form field of (x, t): fn(x, t) gives its values."""

    def __init__(
        self,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        domain: Rect = FULL_PLANE,
        t_independent: bool = False,
    ):
        self._fn = fn
        self.domain = domain
        self.t_independent = t_independent

    def values(self, x, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        self.check_domain(x, t)
        shape = np.broadcast_shapes(x.shape, t.shape)
        return _owned(self._fn(x, t), shape, x, t)

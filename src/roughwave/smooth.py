"""Differentiable field interfaces used by the solvers.

A Field1D maps x to values; a Field2D maps (x, t).  Both carry a safe
evaluation domain and answer derivative queries up to the order they
support.  Analytic fields wrap closed-form callables; transformed
fields wrap pointwise maps of parent fields (value queries only);
shifted and lifted fields re-place a Field1D on the line or in the
plane; the embedded fields produced by :mod:`roughwave.mollify` plug
into the same interface.

`simpson_weights` is the composite Simpson rule that the fixed-lattice
quadratures here and in `hypsolve` and `scenarios` share;
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
        x = np.asarray(x)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

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

    def intersect(self, other: "Rect") -> "Rect":
        return Rect(self.x.intersect(other.x), self.t.intersect(other.t))


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

    def integral(self, a: float, b: float) -> float:
        """Definite integral; dense Simpson fallback."""
        if a == b:
            return 0.0
        step = self.scale / 8.0 if self.scale else abs(b - a) / 256.0
        n = max(4, 2 * int(np.ceil(abs(b - a) / (2.0 * step))))
        ys = self.values(np.linspace(a, b, n + 1))
        return float((b - a) / n / 3.0 * (simpson_weights(n + 1) @ ys))


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
    list raise.  An optional antiderivative callable makes definite
    integrals exact.
    """

    def __init__(
        self,
        fns: Sequence[Callable[[np.ndarray], np.ndarray]],
        domain: Interval = FULL_LINE,
        antiderivative: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if not fns:
            raise ParameterError("need at least the order-0 callable")
        self._fns = list(fns)
        self.domain = domain
        self._antideriv = antiderivative

    def values(self, x, order: int = 0) -> np.ndarray:
        if not 0 <= order < len(self._fns):
            raise ParameterError(
                f"field provides derivatives of order 0 to {len(self._fns) - 1}, got {order}"
            )
        x = np.asarray(x, dtype=float)
        self.check_domain(x)
        return _owned(self._fns[order](x), x.shape, x)

    def integral(self, a: float, b: float) -> float:
        if self._antideriv is not None:
            return float(self._antideriv(b) - self._antideriv(a))
        return super().integral(a, b)


def constant_field_1d(c: float) -> AnalyticField1D:
    return AnalyticField1D(
        [lambda x: np.full_like(x, c), lambda x: np.zeros_like(x)],
        antiderivative=lambda x: c * x,
    )


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

    def integral(self, a: float, b: float) -> float:
        return self._parent.integral(a - self.shift, b - self.shift)


class Field2D:
    """Base: field of (x, t) with partial-derivative queries."""

    domain: Rect = FULL_PLANE
    t_independent: bool = False
    scale: float | None = None

    def values(self, x, t, dx: int = 0, dt: int = 0) -> np.ndarray:
        raise NotImplementedError

    def check_domain(self, x, t):
        if not self.domain.contains(x, t):
            raise DomainError("evaluation outside the field's safe rectangle")


class ConstantField2D(Field2D):
    def __init__(self, c: float, domain: Rect | None = None):
        self.c = float(c)
        self.t_independent = True
        if domain is not None:
            self.domain = domain

    def values(self, x, t, dx: int = 0, dt: int = 0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out_shape = np.broadcast_shapes(x.shape, np.asarray(t).shape)
        if dx == 0 and dt == 0:
            return np.full(out_shape, self.c)
        return np.zeros(out_shape)


def is_zero_field(f: Field2D | None) -> bool:
    return f is None or (isinstance(f, ConstantField2D) and f.c == 0.0)


class AnalyticField2D(Field2D):
    """Closed-form field of (x, t); fn_table maps (dx, dt) to a callable."""

    def __init__(
        self,
        fn_table: dict[tuple[int, int], Callable[[np.ndarray, np.ndarray], np.ndarray]],
        domain: Rect = FULL_PLANE,
        t_independent: bool = False,
    ):
        if (0, 0) not in fn_table:
            raise ParameterError("fn_table must provide the (0, 0) entry")
        self._fns = dict(fn_table)
        self.domain = domain
        self.t_independent = t_independent

    def values(self, x, t, dx: int = 0, dt: int = 0) -> np.ndarray:
        if (dx, dt) not in self._fns:
            raise ParameterError(f"no callable for derivative order ({dx}, {dt})")
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        self.check_domain(x, t)
        shape = np.broadcast_shapes(x.shape, t.shape)
        return _owned(self._fns[(dx, dt)](x, t), shape, x, t)


class FromX(Field2D):
    """Lift a Field1D of x into the plane (constant in t)."""

    def __init__(self, f: Field1D):
        self._f = f
        self.domain = Rect(f.domain, FULL_LINE)
        self.t_independent = True
        self.scale = f.scale

    def values(self, x, t, dx: int = 0, dt: int = 0) -> np.ndarray:
        if dx < 0 or dt < 0:
            raise ParameterError(f"derivative orders must be >= 0, got ({dx}, {dt})")
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(x.shape, np.asarray(t).shape)
        if dt > 0:
            return np.zeros(shape)
        return _owned(self._f.values(x, dx), shape, x, t)


class TransformedField2D(Field2D):
    """fn applied pointwise to parent field values (value queries only)."""

    def __init__(self, fn: Callable[..., np.ndarray], *parents: Field2D):
        if not parents:
            raise ParameterError("need at least one parent field")
        self._fn = fn
        self._parents = parents
        dom = parents[0].domain
        for p in parents[1:]:
            dom = dom.intersect(p.domain)
        self.domain = dom
        self.t_independent = all(p.t_independent for p in parents)
        scales = [p.scale for p in parents if p.scale is not None]
        self.scale = min(scales) if scales else None

    def values(self, x, t, dx: int = 0, dt: int = 0) -> np.ndarray:
        if dx or dt:
            raise ParameterError("transformed field supports value queries only")
        vals = [p.values(x, t) for p in self._parents]
        return np.asarray(self._fn(*vals), dtype=float)

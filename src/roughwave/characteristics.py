"""Characteristic curves of dx/dt = c(x, t) and their geometry.

Two independent integration routes are kept deliberately separate: a
vectorized fixed-step RK4 (`flow_levels`), which the solver's feet
tables march, and a global Picard iteration on a fixed time lattice
(`picard_characteristic_oracle`).  They share no code path, so agreement
between them is evidence, not tautology.

`determinacy_domain` builds the shrinking trapezoid on which a solution
of a hyperbolic problem with speed bound `c_max` is determined by data
on the base interval.  `ArclengthChart` handles the unit-speed
parametrization of a graph curve, used when the characteristic flow is
prescribed through arclength rather than through an ODE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainEscapeError,
    EmptyDomainError,
    IterationLimitError,
    ParameterError,
)
from .smooth import Field1D, Field2D, Interval, running_trapezoid

def _clip_to_domain(speed: Field2D, x: np.ndarray, t: float):
    dom = speed.domain
    xc = np.clip(x, dom.x.lo, dom.x.hi)
    tc = np.clip(t, dom.t.lo, dom.t.hi)
    return xc, tc


def flow_levels(
    speed: Field2D,
    xs: np.ndarray,
    t0: float | np.ndarray,
    t1: float | np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Positions at every RK4 level, shape (n_steps+1,) + xs.shape.

    All walkers march together.  Stage points are clipped to the domain
    so the field never sees out-of-range queries; a walker whose
    unclipped update leaves the x-domain freezes at its last interior
    position instead of raising, so callers that tabulate past the
    determinacy region must quarantine those entries themselves.  t0
    and t1 may be arrays that broadcast against xs, giving each column
    its own time span.
    """
    n = int(n_steps)
    if n < 1:
        raise ParameterError("n_steps must be >= 1")
    h = (t1 - t0) / n
    dom = speed.domain
    xs = np.array(xs, dtype=float)
    alive = np.ones(xs.shape, dtype=bool)
    levels = np.empty((n + 1,) + xs.shape)
    levels[0] = xs

    def f(x, t):
        xc, tc = _clip_to_domain(speed, x, t)
        return speed.values(xc, np.full_like(xc, tc))

    for k in range(n):
        t = t0 + k * h
        k1 = f(xs, t)
        k2 = f(xs + 0.5 * h * k1, t + 0.5 * h)
        k3 = f(xs + 0.5 * h * k2, t + 0.5 * h)
        k4 = f(xs + h * k3, t + h)
        step = xs + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        nxt = np.where(alive, step, xs)
        alive = alive & ~((nxt < dom.x.lo) | (nxt > dom.x.hi))
        xs = np.where(alive, nxt, xs)
        levels[k + 1] = xs
    return levels


@dataclass
class PicardResult:
    xs: np.ndarray
    gaps: np.ndarray  # sup-norm update sizes per iteration


def picard_characteristic_oracle(
    speed: Field2D,
    x0: float,
    t0: float,
    t1: float,
    n_nodes: int = 513,
    tol: float = 1e-12,
    max_iter: int = 400,
) -> PicardResult:
    """Fixed-point route: x(t) = x0 + integral of c(x(s), s) ds.

    Trapezoid quadrature on a fixed time lattice, iterated from the
    constant path.  Independent of the RK4 marcher by construction.
    """
    if n_nodes < 2:
        raise ParameterError("need at least two time nodes")
    ts = np.linspace(t0, t1, n_nodes)
    dts = np.diff(ts)
    dom = speed.domain
    xs = np.full(n_nodes, float(x0))
    gaps = []
    for _ in range(max_iter):
        xc = np.clip(xs, dom.x.lo, dom.x.hi)
        rhs = speed.values(xc, ts)
        new = x0 + running_trapezoid(rhs, dts)
        gap = float(np.max(np.abs(new - xs)))
        gaps.append(gap)
        xs = new
        if gap <= tol:
            break
    else:
        raise IterationLimitError(
            f"picard iteration did not reach {tol} in {max_iter} sweeps "
            f"(last update {gaps[-1]:.3g})"
        )
    if np.any(xs < dom.x.lo) or np.any(xs > dom.x.hi):
        bad = np.argmax((xs < dom.x.lo) | (xs > dom.x.hi))
        raise DomainEscapeError(f"picard path left the domain near t={ts[bad]:.6g}")
    return PicardResult(xs=xs, gaps=np.array(gaps))


@dataclass(frozen=True)
class DeterminacyTrapezoid:
    """Shrinking influence region over a base interval.

    At time t the determined interval is the base shrunk by
    speed_bound * |t| from both ends.
    """

    base: Interval
    speed_bound: float

    @property
    def max_time(self) -> float:
        return self.base.width / (2.0 * self.speed_bound)

    def interval_at(self, t: float) -> Interval:
        inset = self.speed_bound * abs(t)
        lo = self.base.lo + inset
        hi = self.base.hi - inset
        if lo >= hi:
            raise EmptyDomainError(
                f"determinacy region is empty at |t|={abs(t):.6g} "
                f"(collapses at {self.max_time:.6g})"
            )
        return Interval(lo, hi)

    def contains(self, x, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        inset = self.speed_bound * np.abs(t)
        return (x >= self.base.lo + inset) & (x <= self.base.hi - inset)


def determinacy_domain(
    speed: Field2D,
    base: Interval,
    horizon: float,
    samples: int = 512,
    safety: float = 1.01,
) -> DeterminacyTrapezoid:
    """Trapezoid from a sampled speed bound.

    The bound is sup |c| over a lattice on base x [-horizon, horizon],
    inflated by `safety`.  A `t_independent` speed gives identical rows,
    so it is sampled on one row only; the sup, and the bound, are the
    same floats.  Raises EmptyDomainError up front if the trapezoid
    collapses before the requested horizon.
    """
    if horizon <= 0.0:
        raise ParameterError("horizon must be positive")
    xs = np.linspace(base.lo, base.hi, samples)
    t_lo = max(-horizon, speed.domain.t.lo)
    t_hi = min(horizon, speed.domain.t.hi)
    rows = 1 if speed.t_independent else min(samples, 129)
    ts = np.linspace(t_lo, t_hi, rows)
    sup = 0.0
    for t in ts:
        sup = max(sup, float(np.max(np.abs(speed.values(xs, np.full_like(xs, t))))))
    bound = safety * sup
    if bound == 0.0:
        bound = 1e-30  # zero speed: region never shrinks
    trap = DeterminacyTrapezoid(base=base, speed_bound=bound)
    if horizon >= trap.max_time:
        raise EmptyDomainError(
            f"horizon {horizon} reaches past the determinacy collapse time "
            f"{trap.max_time:.6g} for speed bound {bound:.6g}"
        )
    return trap


class ArclengthChart:
    """Unit-speed travel along the graph of a C^1 curve.

    Given a curve field c on an interval, the chart tabulates the
    arclength L(x) = integral of sqrt(1 + c'(x)^2) and inverts it.
    Both L and its inverse are piecewise linear on the same breakpoints,
    so inversion by interpolation is exact up to roundoff.
    """

    def __init__(self, curve: Field1D, n_nodes: int = 4097):
        if n_nodes < 3:
            raise ParameterError("need at least three arclength nodes")
        dom = curve.domain
        xs = np.linspace(dom.lo, dom.hi, n_nodes)
        slopes = curve.values(xs, order=1)
        weight = np.sqrt(1.0 + slopes**2)
        self.xs = xs
        self.lengths = running_trapezoid(weight, np.diff(xs))

    def length(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.any(x < self.xs[0]) or np.any(x > self.xs[-1]):
            raise DomainEscapeError("arclength query outside the chart interval")
        return np.interp(x, self.xs, self.lengths)

    def position(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if np.any(s < self.lengths[0]) or np.any(s > self.lengths[-1]):
            raise DomainEscapeError("inverse arclength query outside the chart")
        return np.interp(s, self.lengths, self.xs)

    def gamma(self, x, t: float, sign: int) -> np.ndarray:
        """Foot of the characteristic through (x, t): L^{-1}(L(x) -+ t).

        sign +1 moves left along the curve as t grows (right-moving
        family), sign -1 the opposite.  |gamma - x| <= |t| always,
        because L has slope >= 1.
        """
        if sign not in (-1, 1):
            raise ParameterError("sign must be -1 or +1")
        return self.position(self.length(x) - sign * t)

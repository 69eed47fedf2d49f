"""Growth measurement and classification along a smoothing ladder.

Families of fields indexed by the ladder parameter are summarized by
sup-norms (pathwise or in L^p over the sample space), and the resulting
series are fitted against the standard growth laws.  The two
injectivity counterexample families come with exact moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError
from .smooth import Interval

__all__ = [
    "NormDescriptor",
    "EpsSeries",
    "Classification",
    "ExponentialTailFamily",
    "SlidingSpikeFamily",
    "measure_series",
    "norm_interchange",
    "classify",
    "format_classification",
]

# Densification factor: sup over a window is taken on a grid of step
# level/SUP_REFINE so the grid resolves the smoothing scale.
SUP_REFINE = 8.0

# Certification margin for integer negligibility orders and the residual
# gate below which a fitted law is accepted.
SLOPE_MARGIN = 0.05
RESIDUAL_GATE = 0.1
DEFAULT_B_MAX = 8


def _levels_of(ladder) -> np.ndarray:
    if hasattr(ladder, "levels"):
        eps = np.asarray(ladder.levels(), dtype=float)
    else:
        eps = np.asarray(ladder, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise ParameterError("ladder must provide a 1-d sequence of levels")
    if np.any(eps <= 0.0) or np.any(eps > 1.0):
        raise ParameterError("ladder levels must lie in (0, 1]")
    if np.any(np.diff(eps) >= 0.0):
        raise ParameterError("ladder levels must be strictly decreasing")
    return eps


@dataclass(frozen=True)
class NormDescriptor:
    """What an EpsSeries measures: window, derivative order, p, samples."""

    window: Interval
    order: int = 0
    p: float = 0.0
    n_samples: int = 1

    def __post_init__(self):
        if self.order < 0:
            raise ParameterError(f"derivative order must be >= 0, got {self.order}")
        if not (self.p == 0.0 or self.p >= 1.0):
            raise ParameterError(f"p must be 0, >= 1, or inf, got {self.p}")
        if self.n_samples < 1:
            raise ParameterError("n_samples must be >= 1")


@dataclass(frozen=True)
class EpsSeries:
    """Per-level measurements of one norm along a ladder.

    `ladder` is either an EpsLadder or an explicit decreasing sequence of
    levels (planted subsequences are not geometric).
    """

    ladder: object
    measurements: np.ndarray
    descriptor: NormDescriptor
    epsilons: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eps = _levels_of(self.ladder)
        m = np.asarray(self.measurements, dtype=float)
        if m.shape != eps.shape:
            raise ParameterError(
                f"{m.size} measurements for {eps.size} ladder levels"
            )
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ParameterError("measurements must be finite and >= 0")
        object.__setattr__(self, "measurements", m)
        object.__setattr__(self, "epsilons", eps)

    def __len__(self) -> int:
        return self.epsilons.size


@dataclass(frozen=True)
class Classification:
    """Fitted growth law: verdict, its exponent or constant, fit residual.

    exp_rate is the slope of log m against 1/level, populated for the
    negligible verdict where superpolynomial decay makes it informative.
    """

    verdict: str
    value: float | None
    residual: float
    exp_rate: float | None = None


def _dense_window(window: Interval, eps: float) -> np.ndarray:
    width = window.hi - window.lo
    count = int(math.ceil(width / (eps / SUP_REFINE))) + 1
    return np.linspace(window.lo, window.hi, max(count, 9))


def _sup_matrix(factory, window, order, eps, seeds) -> np.ndarray:
    xs = _dense_window(window, eps)
    sups = np.empty(len(seeds))
    for i, seed in enumerate(seeds):
        u = factory(eps, seed)
        sups[i] = np.max(np.abs(u.values(xs, order)))
    return sups


def measure_series(factory, window: Interval, order: int, p: float,
                   ladder, n_samples: int = 1000, seed0: int = 0) -> EpsSeries:
    """Measure sup_window |d^order u_level| along the ladder.

    factory(level, seed) builds one realization.  p = 0 is pathwise: the
    seed is held fixed so the series follows a single sample path.  For
    p >= 1 the L^p(Omega) norm of the sup is estimated over n_samples
    seeds; p = inf records the empirical maximum (a lower bound).
    """
    if p == 0.0:
        seeds = [seed0]
    else:
        seeds = [seed0 + i for i in range(n_samples)]
    eps = _levels_of(ladder)
    out = np.empty(eps.size)
    for k, level in enumerate(eps):
        sups = _sup_matrix(factory, window, order, level, seeds)
        if p == 0.0:
            out[k] = sups[0]
        elif p == np.inf:
            out[k] = np.max(sups)
        else:
            out[k] = float(np.mean(sups**p)) ** (1.0 / p)
    desc = NormDescriptor(window, order, p, len(seeds))
    return EpsSeries(ladder, out, desc)


def norm_interchange(samples: np.ndarray, p: float) -> tuple[float, float]:
    """(sup_x L^p-norm, L^p-norm of sup_x) from one sample matrix.

    samples has shape (n_samples, n_points).  Computed from the same
    draws, the first never exceeds the second; callers assert that.
    """
    a = np.abs(np.asarray(samples, dtype=float))
    if a.ndim != 2:
        raise ParameterError("samples must be a (n_samples, n_points) matrix")
    if p < 1.0:
        raise ParameterError(f"interchange needs p >= 1, got {p}")
    if p == np.inf:
        return float(np.max(a)), float(np.max(a))
    lhs = float(np.max(np.mean(a**p, axis=0)) ** (1.0 / p))
    rhs = float(np.mean(np.max(a, axis=1) ** p) ** (1.0 / p))
    return lhs, rhs


def _rel_residual(y: np.ndarray, y_hat: np.ndarray) -> float:
    # log-space RMS misfit, itself a relative-error scale
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def classify(series: EpsSeries, b_max: int = DEFAULT_B_MAX) -> Classification:
    """Fit the measurements against the growth taxonomy.

    Candidate laws: power growth in 1/level (moderate), decay certified
    order by order (negligible-to-order), proportionality to |log level|
    (log type), and a constant (bounded; reported as L1-type when the
    series is an L^1 norm).  The verdict is the best relative residual
    with ties broken bounded > log-type > moderate; anything worse than
    the residual gate is inconclusive.
    """
    if len(series) < 5:
        raise ParameterError(f"classification needs >= 5 levels, got {len(series)}")
    eps = series.epsilons
    m = series.measurements
    if np.any(m <= 0.0):
        return Classification("inconclusive", None, float("nan"))

    big_l = np.log(1.0 / eps)
    y = np.log(m)

    # Negligibility first: superpolynomial decay wrecks the global power
    # fit, so certify with local slopes over the second half of the ladder.
    local = np.diff(y) / np.diff(big_l)
    tail = local[local.size // 2 :]
    b_cert = 0
    for b in range(1, b_max + 1):
        if np.max(tail) <= -b + SLOPE_MARGIN:
            b_cert = b
    if b_cert >= 1:
        a_fit, b_fit = np.polyfit(big_l, y, 1)
        r_pow = _rel_residual(y, a_fit * big_l + b_fit)
        inv = 1.0 / eps
        rate, off = np.polyfit(inv, y, 1)
        r_exp = _rel_residual(y, rate * inv + off)
        # report whichever decay model actually fits
        return Classification(
            "negligible-to-order", float(b_cert), min(r_pow, r_exp), float(rate)
        )

    a_fit, b_fit = np.polyfit(big_l, y, 1)
    r_power = _rel_residual(y, a_fit * big_l + b_fit)

    ratios = m / np.abs(np.log(eps))
    c_log = float(np.mean(ratios))
    r_log = float(np.std(ratios) / abs(c_log)) if c_log != 0.0 else np.inf

    c_flat = float(np.mean(m))
    r_flat = float(np.std(m) / abs(c_flat)) if c_flat != 0.0 else np.inf

    best = min(r_power, r_log, r_flat)
    if best > RESIDUAL_GATE:
        return Classification("inconclusive", None, best)
    # tie-break priority: bounded, then log-type, then moderate
    if r_flat <= best + 1e-12:
        verdict = "L1-type" if series.descriptor.p == 1.0 else "bounded"
        return Classification(verdict, c_flat, r_flat)
    if r_log <= best + 1e-12:
        return Classification("log-type", c_log, r_log)
    return Classification("moderate", float(a_fit), r_power)


class ExponentialTailFamily:
    """Indicator family on Omega = [0, inf) with exponential law.

    u_level(omega) = e^(1/level) on {omega >= threshold/level}, else 0,
    so E(u_level^p) = e^((p - threshold)/level) exactly: negligible for
    p < threshold, identically 1 at p = threshold.
    """

    def __init__(self, p_prime: float = 2.0):
        if p_prime < 1.0:
            raise ParameterError(f"p_prime must be >= 1, got {p_prime}")
        self.p_prime = float(p_prime)

    def value(self, omega, eps: float) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        return np.where(omega >= self.p_prime / eps, math.exp(1.0 / eps), 0.0)

    def moment(self, p: float, eps: float) -> float:
        return math.exp((p - self.p_prime) / eps)

    def sample(self, eps: float, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.value(rng.exponential(1.0, n), eps)

    def moment_series(self, p: float, ladder) -> EpsSeries:
        eps = _levels_of(ladder)
        m = np.array([self.moment(p, e) for e in eps])
        desc = NormDescriptor(Interval(0.0, 1.0), 0, max(p, 1.0), 1)
        return EpsSeries(ladder, m, desc)


class SlidingSpikeFamily:
    """Spike of height e^(1/level) sliding over Omega = [-1, 1] uniform.

    The window has half-width e^(-1/level) centered at sin(1/level), so
    E|u_level| <= 1 always, while every omega is hit infinitely often
    along the planted subsequence 1/(arcsin omega + 2 pi k).
    """

    def center(self, eps: float) -> float:
        return math.sin(1.0 / eps)

    def halfwidth(self, eps: float) -> float:
        return math.exp(-1.0 / eps)

    def value(self, omega, eps: float) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        inside = np.abs(omega - self.center(eps)) < self.halfwidth(eps)
        return np.where(inside, math.exp(1.0 / eps), 0.0)

    def l1_moment(self, eps: float) -> float:
        c, d = self.center(eps), self.halfwidth(eps)
        # fully inside: 0.5 * e^(1/eps) * 2 e^(-1/eps) collapses to 1
        # exactly; the additive form would annihilate once d < ulp(c)
        if -1.0 <= c - d and c + d <= 1.0:
            return 1.0
        overlap = max(0.0, min(1.0, c + d) - max(-1.0, c - d))
        return 0.5 * math.exp(1.0 / eps) * overlap

    def l1_series(self, ladder) -> EpsSeries:
        eps = _levels_of(ladder)
        m = np.array([self.l1_moment(e) for e in eps])
        desc = NormDescriptor(Interval(-1.0, 1.0), 0, 1.0, 1)
        return EpsSeries(ladder, m, desc)

    def blowup_levels(self, omega: float, count: int, k0: int = 1) -> np.ndarray:
        if not -1.0 <= omega <= 1.0:
            raise DomainError(f"omega must lie in [-1, 1], got {omega}")
        ks = np.arange(k0, k0 + count)
        return 1.0 / (math.asin(omega) + 2.0 * np.pi * ks)

    def pathwise_series(self, omega: float, count: int, k0: int = 1) -> EpsSeries:
        """Exact values along the planted subsequence, u = e^(1/level).

        Closed form rather than the indicator: for deep levels the
        window is narrower than the rounding of sin(1/level), so the
        float indicator would miss hits the construction guarantees.
        """
        eps = self.blowup_levels(omega, count, k0)
        if 1.0 / eps[-1] > 700.0:
            raise ParameterError(
                f"planted level {eps[-1]:.3g} overflows e^(1/level)"
            )
        m = np.exp(1.0 / eps)
        desc = NormDescriptor(Interval(-1.0, 1.0), 0, 0.0, 1)
        return EpsSeries(eps, m, desc)


def format_classification(c: Classification) -> str:
    if c.value is None:
        core = c.verdict
    else:
        core = f"{c.verdict}({c.value:.6g})"
    line = f"{core} residual={c.residual:.3g}"
    if c.exp_rate is not None:
        line += f" exp_rate={c.exp_rate:.6g}"
    return line

"""Sampling of the stochastic processes used as coefficients and data.

Everything here is pathwise: a sample is an array of values on a uniform
grid, reproducible bit-for-bit from its integer seed.  Between nodes a
sampled process is understood as its piecewise-linear interpolant; the
smoothing step elsewhere in the package turns these tabulations into
differentiable fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.special import ndtr

from .errors import (
    InvalidGridError,
    KernelNotPSDError,
    ParameterError,
    ShapeMismatchError,
)
from .grids import Grid1D, Grid2D

# Grids above this size make dense covariance factorizations unreasonable.
MAX_DENSE_NODES = 4096

_KERNEL_KINDS = ("exponential", "squared-exponential", "brownian", "custom")


@dataclass(frozen=True)
class CovarianceKernel:
    """Positive semi-definite covariance function k(x, y).

    kind selects one of the built-in families; "custom" requires `func`.
    The built-in stationary kernels decay with distance:

        exponential           sigma2 * exp(-|x-y| / ell)
        squared-exponential   sigma2 * exp(-|x-y|**2 / ell**2)
        brownian              sigma2 * min(|x|, |y|) for x, y of equal sign

    sigma2 is the variance scale, ell the correlation length.
    """

    kind: str
    sigma2: float = 1.0
    ell: float = 1.0
    func: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if not self.sigma2 > 0.0:
            raise ParameterError(f"kernel sigma2 must be positive, got {self.sigma2}")
        if not self.ell > 0.0:
            raise ParameterError(f"kernel ell must be positive, got {self.ell}")
        if self.kind == "custom" and self.func is None:
            raise ParameterError("custom kernel requires func")

    def matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dx = x[:, None] - x[None, :]
        if self.kind == "exponential":
            return self.sigma2 * np.exp(-np.abs(dx) / self.ell)
        if self.kind == "squared-exponential":
            return self.sigma2 * np.exp(-(dx**2) / self.ell**2)
        if self.kind == "brownian":
            same_sign = (x[:, None] * x[None, :]) > 0.0
            return self.sigma2 * np.where(
                same_sign, np.minimum(np.abs(x)[:, None], np.abs(x)[None, :]), 0.0
            )
        return np.asarray(self.func(x[:, None], x[None, :]), dtype=float)


@dataclass(frozen=True)
class SampledProcess:
    """One realization of a process tabulated on a uniform grid."""

    grid: Grid1D
    values: np.ndarray
    seed: int
    source: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.count,):
            raise ShapeMismatchError(
                f"values shape {v.shape} does not match grid count {self.grid.count}"
            )
        object.__setattr__(self, "values", v)

    def interp(self, x) -> np.ndarray:
        """Piecewise-linear evaluation between nodes."""
        return np.interp(x, self.grid.nodes(), self.values)


@dataclass(frozen=True)
class SampledField2D:
    """One realization of a two-parameter process on a tensor grid."""

    grid: Grid2D
    values: np.ndarray  # shape (nx, nt)
    seed: int
    source: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ShapeMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class WhiteNoiseField:
    """Cell-indexed Gaussian increments: independent N(0, cell measure).

    Pairings with tabulated test functions are Riemann sums over cell
    centers, see :func:`white_noise_action`.
    """

    grid: Grid2D
    increments: np.ndarray  # shape (nx - 1, nt - 1)
    seed: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        want = (self.grid.x.count - 1, self.grid.t.count - 1)
        if inc.shape != want:
            raise ShapeMismatchError(
                f"increments shape {inc.shape} does not match cell shape {want}"
            )
        object.__setattr__(self, "increments", inc)


def _check_dense(grid: Grid1D):
    # applies only to the O(n^2) covariance-factorization sampler
    if grid.count > MAX_DENSE_NODES:
        raise InvalidGridError(
            f"grid with {grid.count} nodes exceeds dense-path cap {MAX_DENSE_NODES}"
        )


def sample_brownian_1d(grid: Grid1D, seed: int) -> SampledProcess:
    """Brownian path on the grid, pinned to zero at the node nearest 0.

    Increments between neighbouring nodes are independent N(0, step).
    Subtracting the value at the pinned node leaves the increments
    untouched, so the law is two-sided Brownian motion started at the
    node nearest the origin.
    """
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(grid.count - 1) * np.sqrt(grid.step)
    path = np.concatenate([[0.0], np.cumsum(steps)])
    pin = grid.nearest_index(0.0)
    path = path - path[pin]
    return SampledProcess(grid, path, seed, "brownian-1d")


def sample_brownian_2d(grid: Grid2D, seed: int) -> SampledField2D:
    """Brownian sheet on the tensor grid, zero on the axes through the pin node.

    Built by double cumulative summation of independent cell increments
    N(0, cell measure), anchored at the node nearest the origin on each
    axis; covariance of the positive quadrant is min(x,x') * min(t,t').
    """
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((grid.x.count - 1, grid.t.count - 1))
    cells *= np.sqrt(grid.cell_measure)
    sheet = np.zeros(grid.shape)
    sheet[1:, 1:] = np.cumsum(np.cumsum(cells, axis=0), axis=1)
    ix = grid.x.nearest_index(0.0)
    it = grid.t.nearest_index(0.0)
    sheet = sheet - sheet[ix : ix + 1, :] - sheet[:, it : it + 1] + sheet[ix, it]
    return SampledField2D(grid, sheet, seed, "brownian-2d")


def sample_stationary_gaussian(
    grid: Grid1D, kernel: CovarianceKernel, seed: int
) -> SampledProcess:
    """Stationary (or custom) Gaussian path via dense Cholesky.

    The covariance matrix gets a diagonal jitter of at most
    1e-10 * sigma2 before factorization; if Cholesky still fails the
    kernel is reported as not positive semi-definite.
    """
    _check_dense(grid)
    cov = kernel.matrix(grid.nodes())
    chol = None
    for jitter in (0.0, 1e-12 * kernel.sigma2, 1e-10 * kernel.sigma2):
        try:
            chol = np.linalg.cholesky(cov + jitter * np.eye(grid.count))
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise KernelNotPSDError(
            f"kernel {kernel.kind!r} is not PSD on this grid within jitter 1e-10*sigma2"
        )
    rng = np.random.default_rng(seed)
    values = chol @ rng.standard_normal(grid.count)
    return SampledProcess(grid, values, seed, f"stationary-{kernel.kind}")


def ou_process(grid: Grid1D, theta: float, sigma: float, seed: int) -> SampledProcess:
    """Stationary Ornstein-Uhlenbeck path by its exact AR(1) transition.

    dX = -theta X dt + sigma dW; started from N(0, sigma^2 / (2 theta)),
    with X_{k+1} = phi X_k + sqrt((1 - phi^2) sigma^2 / (2 theta)) xi,
    phi = exp(-theta * step).  No discretization error in law.
    """
    if not theta > 0.0:
        raise ParameterError(f"ou theta must be positive, got {theta}")
    if not sigma > 0.0:
        raise ParameterError(f"ou sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    var_stat = sigma**2 / (2.0 * theta)
    phi = np.exp(-theta * grid.step)
    innov_sd = np.sqrt(var_stat * (1.0 - phi**2))
    drive = innov_sd * rng.standard_normal(grid.count)
    drive[0] = np.sqrt(var_stat) / innov_sd * drive[0]
    from scipy.signal import lfilter  # slow to import; no scenario needs it
    path = lfilter([1.0], [1.0, -phi], drive)
    return SampledProcess(grid, path, seed, "ou")


def white_noise_field(grid: Grid2D, seed: int) -> WhiteNoiseField:
    """Independent N(0, cell measure) increments on every grid cell."""
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((grid.x.count - 1, grid.t.count - 1))
    inc *= np.sqrt(grid.cell_measure)
    return WhiteNoiseField(grid, inc, seed)


def white_noise_action(
    noise: WhiteNoiseField,
    phi: Union[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]],
) -> float:
    """Pairing <noise, phi> = sum over cells of phi(cell center) * increment.

    phi is either a callable evaluated on the cell-center meshgrid or an
    array already tabulated at cell centers (shape (nx-1, nt-1)).  In law
    the pairing is Gaussian with variance ~ integral of phi^2; pairings
    with disjointly supported test functions are independent.
    """
    if callable(phi):
        cx = noise.grid.x.cell_centers()
        ct = noise.grid.t.cell_centers()
        tab = np.asarray(phi(cx[:, None], ct[None, :]), dtype=float)
        tab = np.broadcast_to(tab, noise.increments.shape)
    else:
        tab = np.asarray(phi, dtype=float)
        if tab.shape != noise.increments.shape:
            raise ShapeMismatchError(
                f"phi tabulation {tab.shape} does not match cells {noise.increments.shape}"
            )
    return float(np.sum(tab * noise.increments))


def translation_transform(
    p: SampledProcess, f_inverse: Callable[[np.ndarray], np.ndarray]
) -> SampledProcess:
    """Map a Gaussian path through F^{-1}(Phi(.)) node by node.

    Phi is the standard normal CDF; its output is clipped away from 0 and
    1 so that inverse CDFs with infinite tails cannot overflow.  When
    f_inverse has bounded range the transformed path inherits the bound
    exactly.
    """
    u = ndtr(p.values)
    tiny = np.finfo(float).tiny
    u = np.clip(u, tiny, 1.0 - 1e-16)
    values = np.asarray(f_inverse(u), dtype=float)
    if values.shape != p.values.shape:
        raise ShapeMismatchError("f_inverse changed the shape of the path")
    return SampledProcess(p.grid, values, p.seed, f"translation({p.source})")

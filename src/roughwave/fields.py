"""Sampling of the stochastic processes used as coefficients and data.

Everything here is pathwise: a sample is an array of values on a uniform
grid, reproducible bit-for-bit from its integer seed.  Between nodes a
sampled process is understood as its piecewise-linear interpolant; the
smoothing step elsewhere in the package turns these tabulations into
differentiable fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import ShapeMismatchError
from .grids import Grid1D, Grid2D


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


def white_noise_field(grid: Grid2D, seed: int) -> WhiteNoiseField:
    """Independent N(0, cell measure) increments on every grid cell."""
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((grid.x.count - 1, grid.t.count - 1))
    inc *= np.sqrt(grid.cell_measure)
    return WhiteNoiseField(grid, inc, seed)


def white_noise_action(noise: WhiteNoiseField, phi: np.ndarray) -> float:
    """Pairing <noise, phi> = sum over cells of phi(cell center) * increment.

    phi is tabulated at the cell centers, shape (nx-1, nt-1).  In law the
    pairing is Gaussian with variance ~ integral of phi^2; pairings with
    disjointly supported test functions are independent.
    """
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

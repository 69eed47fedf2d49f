"""Uniform grids for tabulated processes and solution fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError

MAX_NODES_PER_AXIS = 1 << 22  # hard cap so a typo cannot allocate gigabytes


@dataclass(frozen=True)
class Grid1D:
    """Uniform one-dimensional grid, nodes lower + k*step for k < count."""

    lower: float
    step: float
    count: int

    def __post_init__(self):
        if not np.isfinite(self.lower):
            raise InvalidGridError("grid lower bound must be finite")
        if not (self.step > 0.0) or not np.isfinite(self.step):
            raise InvalidGridError(f"grid step must be positive, got {self.step}")
        if self.count < 2:
            raise InvalidGridError(f"grid needs at least 2 nodes, got {self.count}")
        if self.count > MAX_NODES_PER_AXIS:
            raise InvalidGridError(
                f"grid with {self.count} nodes exceeds cap {MAX_NODES_PER_AXIS}"
            )

    @property
    def upper(self) -> float:
        return self.lower + self.step * (self.count - 1)

    def nodes(self) -> np.ndarray:
        return self.lower + self.step * np.arange(self.count)

    def cell_centers(self) -> np.ndarray:
        return self.lower + self.step * (np.arange(self.count - 1) + 0.5)

    def nearest_index(self, x: float) -> int:
        k = int(round((x - self.lower) / self.step))
        return min(max(k, 0), self.count - 1)

    @staticmethod
    def from_bounds(lower: float, upper: float, count: int) -> "Grid1D":
        if count < 2:
            raise InvalidGridError(f"grid needs at least 2 nodes, got {count}")
        if not upper > lower:
            raise InvalidGridError(f"need upper > lower, got [{lower}, {upper}]")
        return Grid1D(lower, (upper - lower) / (count - 1), count)


@dataclass(frozen=True)
class Grid2D:
    """Tensor grid: x axis times t axis."""

    x: Grid1D
    t: Grid1D

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x.count, self.t.count)

    @property
    def cell_measure(self) -> float:
        return self.x.step * self.t.step

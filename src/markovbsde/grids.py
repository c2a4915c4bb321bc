"""Uniform time grids holding per-state vector functions."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateGridFunction:
    """A function [0, T] -> R^N sampled on a uniform time grid.

    ``values[k]`` is the R^N slice at ``grid[k]``. Used for value curves,
    obstacles, reflection processes and stock-price components alike.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two nodes")
        steps = np.diff(grid)
        if not np.all(steps > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=0, atol=1e-9 * max(steps[0], 1.0)):
            raise ValueError("grid must be uniform")
        if values.shape[0] != grid.size:
            raise ValueError("values must have one slice per grid node")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self):
        return self.grid.size - 1

    @property
    def step(self):
        return (self.grid[-1] - self.grid[0]) / self.n_steps

    def interp(self, t):
        """Linear interpolation in t, vector valued."""
        t = float(t)
        if t <= self.grid[0]:
            return self.values[0].copy()
        if t >= self.grid[-1]:
            return self.values[-1].copy()
        x = (t - self.grid[0]) / self.step
        k = min(int(x), self.n_steps - 1)
        w = x - k
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]


def uniform_grid(horizon, steps):
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return np.linspace(0.0, float(horizon), int(steps) + 1)


def sample_on_grid(fn, grid, n_states):
    """Sample a scalar fn(t, state) into a (K+1, N) array."""
    out = np.empty((grid.size, n_states))
    for k, t in enumerate(grid):
        for i in range(n_states):
            out[k, i] = fn(t, i)
    return out

"""Uniform time grids holding per-state vector functions."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateGridFunction:
    """A function [0, T] -> R^N sampled on a uniform time grid.

    ``values[k]`` is the R^N slice at ``grid[k]``. Used for value curves
    and reflection processes.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two nodes")
        steps = grid[1:] - grid[:-1]
        if not (steps > 0).all():
            raise ValueError("grid must be strictly increasing")
        if np.abs(steps - steps[0]).max() > 1e-9 * max(steps[0], 1.0):
            raise ValueError("grid must be uniform")
        if values.shape[0] != grid.size:
            raise ValueError("values must have one slice per grid node")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def uniform_grid(horizon, steps):
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return np.linspace(0.0, float(horizon), int(steps) + 1)


def interp(grid, values, times):
    """Linear interpolation in t of the slices ``values[k]`` at the nodes
    ``grid[k]`` of a uniform grid, as a (len(times), ...) array: one slice
    per time, the first and the last slice outside the grid."""
    times = np.asarray(times, dtype=float)
    n_steps = grid.size - 1
    x = np.clip((times - grid[0]) / ((grid[-1] - grid[0]) / n_steps), 0.0, n_steps)
    k = np.minimum(x.astype(np.intp), n_steps - 1)
    w = (x - k).reshape(-1, *(1,) * (values.ndim - 1))
    out = (1.0 - w) * values[k] + w * values[k + 1]
    out[times <= grid[0]] = values[0]
    out[times >= grid[-1]] = values[-1]
    return out


def sample_on_grid(fn, grid, n_states):
    """Sample a scalar fn(t, state) into a (K+1, N) array: fn is called
    at each node of ``grid`` in turn, for the states 0 .. N-1."""
    states = range(n_states)
    return np.array([fn(t, i) for t in grid for i in states],
                    dtype=float).reshape(grid.size, n_states)

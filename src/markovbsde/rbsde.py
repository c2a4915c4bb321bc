"""Reflected BSDEs: direct reflected backward scheme, the penalization
sequence, the Skorokhod flatness check and a dynamic-programming optimal
stopping oracle.

The reflected scheme and the stopping recursion are deliberately the same
formula arrived at from two directions (constraint reflection vs optimal
stopping); both entry points are kept and must agree to machine precision.
"""

from dataclasses import dataclass, field

import numpy as np

from .bsde import MarkovDriver, _rhs, solve_bsde
from .errors import NoConvergenceError, NonFiniteError, ObstacleIncompatibleError
from .grids import StateGridFunction, sample_on_grid, uniform_grid


@dataclass(frozen=True)
class Obstacle:
    """Lower barrier g(t, state), continuous in t per state. As the payoff
    of an American claim, g is the exercise value and g(T, .) the terminal
    claim."""

    g: callable

    def sample(self, grid, n_states):
        vals = sample_on_grid(self.g, grid, n_states)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("obstacle produced non-finite values")
        return vals

    def terminal(self, horizon, n_states):
        return np.array([self.g(horizon, i) for i in range(n_states)])


def constant_obstacle(level):
    c = float(level)
    return Obstacle(g=lambda t, i: c)


@dataclass(frozen=True)
class RbsdeSolution:
    """Triple (value, canonical integrand, reflection) on a uniform grid;
    the integrand is z = v, and ``z`` wraps the same array as ``v``.

    ``k`` holds the cumulative per-state reflection with k(0) = 0;
    ``step_pushes[j]`` is the push applied over [t_j, t_{j+1}); ``g`` is
    the (K+1, N) obstacle sampled on the grid, once per solve.
    """

    v: StateGridFunction
    z: StateGridFunction
    k: StateGridFunction
    step_pushes: np.ndarray
    g: np.ndarray
    penalization_trace: list = field(default_factory=list)

    @property
    def grid(self):
        return self.v.grid

    @property
    def values(self):
        return self.v.values


def _check_terminal(terminal, obstacle_vals_T):
    if np.any(obstacle_vals_T > terminal + 1e-9):
        raise ObstacleIncompatibleError(
            "obstacle exceeds the terminal condition at the horizon")


def _reflected_sweep(spec, driver, terminal, obstacle_vals, grid):
    """Shared backward recursion: explicit Euler predictor then projection
    on the obstacle. Returns (values, per-step pushes).

    Each step takes the generator in force at its left node and is not cut
    at a breakpoint that falls between two nodes.
    """
    n = spec.n_states
    steps = grid.size - 1
    dt = grid[1] - grid[0]
    vals = np.empty((steps + 1, n))
    pushes = np.zeros((steps, n))
    vals[-1] = terminal
    for k in range(steps - 1, -1, -1):
        t = grid[k]
        pred = vals[k + 1] - dt * _rhs(spec.generator_at(t), driver, t, vals[k + 1])
        vals[k] = np.maximum(obstacle_vals[k], pred)
        pushes[k] = vals[k] - pred
        if not np.all(np.isfinite(vals[k])):
            raise NonFiniteError(f"reflected sweep blew up at t={t:.6g}")
    return vals, pushes


def _assemble(grid, vals, pushes, obstacle_vals, trace=None):
    # k(t_m) accumulates the pushes applied on steps fully inside [0, t_m]
    steps, n = pushes.shape
    k_vals = np.zeros((steps + 1, n))
    k_vals[1:] = np.cumsum(pushes, axis=0)
    sg = lambda a: StateGridFunction(grid=grid, values=a)
    return RbsdeSolution(v=sg(vals), z=sg(vals), k=sg(k_vals),
                         step_pushes=pushes, g=obstacle_vals,
                         penalization_trace=list(trace or []))


def solve_reflected(spec, driver, terminal, obstacle, steps):
    """Direct reflected backward scheme.

    Per step: explicit predictor for the unconstrained value, then
    projection onto the obstacle; the projection excess is the reflection
    increment, accumulated so k(0) = 0 and k is nondecreasing.
    """
    terminal = np.asarray(terminal, dtype=float)
    grid = uniform_grid(spec.horizon, steps)
    obstacle_vals = obstacle.sample(grid, spec.n_states)
    _check_terminal(terminal, obstacle_vals[-1])
    vals, pushes = _reflected_sweep(spec, driver, terminal, obstacle_vals, grid)
    return _assemble(grid, vals, pushes, obstacle_vals)


def snell_oracle(spec, driver, terminal, obstacle, steps):
    """Dynamic-programming value of optimal stopping against the obstacle:
    continue one step (explicit Euler on the reduced ODE) or take g now.

    Independent derivation of the reflected value; the recursion is
    literally identical to solve_reflected and the two must agree exactly.
    """
    terminal = np.asarray(terminal, dtype=float)
    grid = uniform_grid(spec.horizon, steps)
    obstacle_vals = obstacle.sample(grid, spec.n_states)
    vals, _ = _reflected_sweep(spec, driver, terminal, obstacle_vals, grid)
    return StateGridFunction(grid=grid, values=vals)


def penalized_driver(driver, obstacle, n):
    """f + n * (v - g(t))^-, the penalty approximation of the reflection."""
    base = driver.evaluate
    g = obstacle.g
    n = float(n)

    def evaluate(t, i, y, z):
        return base(t, i, y, z) + n * max(g(t, i) - y, 0.0)

    return MarkovDriver(evaluate=evaluate,
                        lipschitz_y=driver.lipschitz_y + n,
                        lipschitz_z=driver.lipschitz_z)


def solve_penalized(spec, driver, terminal, obstacle, n, steps):
    """Solve the penalized BSDE for penalty level n.

    Implicit Euler whenever n * dt >= 1, explicit RK4 below: the penalty
    makes the reduced system stiff and the explicit scheme unstable.
    """
    if n < 1:
        raise ValueError("penalty level must be >= 1")
    dt = spec.horizon / steps
    scheme = "implicit_euler" if n * dt >= 1.0 else "explicit_rk4"
    return solve_bsde(spec, penalized_driver(driver, obstacle, n),
                      np.asarray(terminal, dtype=float), steps, scheme=scheme)


def penalization_limit(spec, driver, terminal, obstacle, steps, tol,
                       n_start=None, n_cap=2 ** 20):
    """Double the penalty until successive solutions move less than tol in
    sup norm; reconstruct the reflection by quadrature of the penalty term.

    Every level uses implicit Euler so the whole family shares one scheme:
    mixing schemes across the stiffness threshold would break the monotone
    decay of the successive distances. The doubling starts at n of order
    1/dt by default; below that the penalty is too weak for the distance
    sequence to have entered its decaying O(1/n) tail.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    terminal = np.asarray(terminal, dtype=float)
    grid = uniform_grid(spec.horizon, steps)
    obstacle_vals = obstacle.sample(grid, spec.n_states)
    trace = []
    if n_start is None:
        n_start = max(4, int(np.ceil(steps / spec.horizon)))
    n = int(n_start)
    if n < 1:
        raise ValueError("penalty level must be >= 1")
    prev = solve_bsde(spec, penalized_driver(driver, obstacle, n), terminal, steps,
                      scheme="implicit_euler")
    while True:
        n *= 2
        if n > n_cap:
            raise NoConvergenceError(
                f"penalty cap {n_cap} reached without tol {tol}", trace=trace)
        cur = solve_bsde(spec, penalized_driver(driver, obstacle, n), terminal,
                         steps, scheme="implicit_euler")
        dist = float(np.abs(cur.values - prev.values).max())
        trace.append((n, dist))
        prev = cur
        if dist < tol:
            break
    vals = prev.values
    # k^n density is n (v^n - g)^-; trapezoid per step
    density = n * np.maximum(obstacle_vals - vals, 0.0)
    pushes = 0.5 * (density[:-1] + density[1:]) * (grid[1] - grid[0])
    return _assemble(grid, vals, pushes, obstacle_vals, trace=trace)


def skorokhod_integral(solution):
    """Trapezoidal evaluation of int (v - g) dk per state against the
    solution's obstacle, maximized over states. Near zero exactly when the
    reflection only acts on contact.
    """
    gap = solution.values - solution.g
    avg = 0.5 * (gap[:-1] + gap[1:])
    per_state = np.abs(np.sum(avg * solution.step_pushes, axis=0))
    return float(per_state.max())


def optimal_stop_time(solution, paths):
    """First grid time along each path of the batch at which the value
    touches the solution's obstacle; horizon if it never does."""
    grid = solution.grid
    states = paths.states_at(grid)
    idx = np.arange(grid.size)
    touching = solution.values[idx, states] <= solution.g[idx, states] + 1e-9
    return np.where(touching.any(axis=1), grid[touching.argmax(axis=1)], grid[-1])

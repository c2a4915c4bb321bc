"""Reflected BSDEs: direct reflected backward scheme, the penalization
sequence, the Skorokhod flatness check and a dynamic-programming optimal
stopping oracle.

The reflected scheme and the stopping recursion are deliberately the same
formula arrived at from two directions (constraint reflection vs optimal
stopping); both entry points are kept and must agree to machine precision.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .bsde import (MarkovDriver, _checked, _implicit_levels, _linear_pieces, _rhs,
                   solve_bsde)
from .chain import pieces_at, sweep
from .errors import NoConvergenceError, NonFiniteError, ObstacleIncompatibleError
from .grids import StateGridFunction, sample_on_grid, uniform_grid

_PENALTY_CAP = 2 ** 20  # the highest penalty level penalization_limit tries


@dataclass(frozen=True)
class Obstacle:
    """Lower barrier g(t, state), continuous in t per state. As the payoff
    of an American claim, g is the exercise value and g(T, .) the terminal
    claim. ``values``, when given, is g in array form: sorted times -> the
    (len(times), N) array of g there, which sampling uses in place of one
    call of g per time and state; without a ``g``, g is read off it, and
    a g read off one ``values`` is read again off the ``values`` a copy
    made by ``dataclasses.replace`` holds."""

    g: callable = None
    values: callable = None

    def __post_init__(self):
        if self.g is None or getattr(self.g, "values", self.values) is not self.values:
            object.__setattr__(self, "g", _values_g(self.values))

    def sample(self, times, n_states):
        times = np.asarray(times, dtype=float)
        if self.values is None:
            vals = sample_on_grid(self.g, times, n_states)
        else:
            vals = self.values(times)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteError("obstacle produced non-finite values")
        return vals

    def terminal(self, horizon, n_states):
        return self.sample([horizon], n_states)[0]


def _values_g(values):
    """g(t, i) read off the array form ``values``, one time at a time."""
    def g(t, i):
        return values(np.array([t]))[0, i]

    g.values = values
    return g


def constant_obstacle(level):
    c = float(level)
    return Obstacle(g=lambda t, i: c)


@dataclass(frozen=True)
class RbsdeSolution(StateGridFunction):
    """Value v and reflection on a uniform grid; the canonical integrand
    is z = v, so ``values`` serves as both.

    ``k`` holds the cumulative per-state reflection with k(0) = 0;
    ``step_pushes[j]`` is the push applied over [t_j, t_{j+1}); ``g`` is
    the (K+1, N) obstacle sampled on the grid, once per solve.
    """

    k: StateGridFunction
    step_pushes: np.ndarray
    g: np.ndarray
    penalization_trace: list = field(default_factory=list)


def _check_terminal(terminal, obstacle_vals_T):
    if np.any(obstacle_vals_T > terminal + 1e-9):
        raise ObstacleIncompatibleError(
            "obstacle exceeds the terminal condition at the horizon")


def _reflected_sweep(spec, driver, terminal, obstacle_vals, grid):
    """Shared backward recursion: explicit Euler predictor then projection
    on the obstacle. Returns (values, per-step pushes).

    Each step takes the generator and driver in force at its left node and
    is not cut at a breakpoint that falls between two nodes. With an affine
    form the predictor is one matrix per piece, (I + dt M) v + dt beta.
    """
    n = spec.n_states
    dt = grid[1] - grid[0]
    form = driver.affine
    if form is not None and form.obstacle is None:
        starts, a_g, alpha, beta = _linear_pieces(spec, form)
        q = np.eye(n) + dt * (a_g + alpha[:, :, None] * np.eye(n))
        c = dt * beta
        piece = pieces_at(starts, grid).tolist()

        def predict(k, v):
            return q[piece[k]] @ v + c[piece[k]]
    else:
        def predict(k, v):
            return v - dt * _rhs(spec.generator_at(grid[k]), driver, grid[k], v)
    return sweep(predict, terminal, grid, "reflected sweep blew up", floor=obstacle_vals)


def _assemble(grid, vals, pushes, obstacle_vals, trace=None):
    # k(t_m) accumulates the pushes applied on steps fully inside [0, t_m]
    steps, n = pushes.shape
    k_vals = np.zeros((steps + 1, n))
    k_vals[1:] = np.cumsum(pushes, axis=0)
    return RbsdeSolution(grid=grid, values=vals,
                         k=StateGridFunction(grid=grid, values=k_vals),
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
    """f + n * (v - g(t))^-, the penalty approximation of the reflection.
    An unpenalized affine form of f carries over with the obstacle and n."""
    base = driver.evaluate
    g = obstacle.g
    n = float(n)
    form = None  # a second penalty has no affine form
    if driver.affine is not None and driver.affine.obstacle is None:
        form = replace(driver.affine, obstacle=obstacle, n=n)

    def evaluate(t, i, y, z):
        return base(t, i, y, z) + n * max(g(t, i) - y, 0.0)

    return MarkovDriver(evaluate=evaluate,
                        lipschitz_y=driver.lipschitz_y + n,
                        lipschitz_z=driver.lipschitz_z, affine=form)


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


def penalization_limit(spec, driver, terminal, obstacle, steps, tol):
    """Double the penalty until successive solutions move less than tol in
    sup norm; reconstruct the reflection by quadrature of the penalty term.

    Every level uses implicit Euler so the whole family shares one scheme:
    mixing schemes across the stiffness threshold would break the monotone
    decay of the successive distances. The doubling starts at n of order
    1/dt; below that the penalty is too weak for the distance sequence to
    have entered its decaying O(1/n) tail. It stops with
    ``NoConvergenceError`` past n = ``_PENALTY_CAP``. An affine driver's
    implicit steps are tabled once for all levels (``_implicit_levels``).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    terminal = np.asarray(terminal, dtype=float)
    grid = uniform_grid(spec.horizon, steps)
    obstacle_vals = obstacle.sample(grid, spec.n_states)
    form, levels = driver.affine, None
    if form is not None and form.obstacle is None:
        levels = _implicit_levels(spec, replace(form, obstacle=obstacle), grid)

    def solve(n):
        """The values of ``solve_penalized`` at level n under implicit Euler."""
        if levels is None:
            return solve_bsde(spec, penalized_driver(driver, obstacle, n), terminal, steps,
                              scheme="implicit_euler").values
        _checked(spec, driver, terminal, steps, "implicit_euler", False)
        return sweep(levels(float(n)), terminal, grid, "driver blow-up")

    trace = []
    n = max(4, int(np.ceil(steps / spec.horizon)))
    prev = solve(n)
    while True:
        n *= 2
        if n > _PENALTY_CAP:
            raise NoConvergenceError(
                f"penalty cap {_PENALTY_CAP} reached without tol {tol}", trace=trace)
        cur = solve(n)
        dist = float(np.abs(cur - prev).max())
        trace.append((n, dist))
        prev = cur
        if dist < tol:
            break
    # k^n density is n (v^n - g)^-; trapezoid per step
    density = n * np.maximum(obstacle_vals - prev, 0.0)
    pushes = 0.5 * (density[:-1] + density[1:]) * (grid[1] - grid[0])
    return _assemble(grid, prev, pushes, obstacle_vals, trace=trace)


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

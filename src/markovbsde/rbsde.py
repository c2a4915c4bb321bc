"""Reflected BSDEs: direct reflected backward scheme, the penalization
sequence, the Skorokhod flatness check and a dynamic-programming optimal
stopping oracle.

The reflected scheme and the stopping recursion are deliberately the same
formula arrived at from two directions (constraint reflection vs optimal
stopping); both entry points are kept and must agree to machine precision.
"""

from dataclasses import dataclass, field

import numpy as np

from .bsde import BsdeSolution, _contraction, _inputs, _levels, _linear_pieces, _rhs
from .chain import pieces_at, solve_floored, sweep
from .errors import NoConvergenceError, NonFiniteError, ObstacleIncompatibleError
from .grids import StateGridFunction, sample_on_grid

_PENALTY_CAP = 2 ** 20  # the highest penalty level penalization_limit tries
_BLOW_UP = "reflected sweep blew up"


@dataclass(frozen=True)
class Obstacle:
    """Lower barrier g(t, state), continuous in t per state. As the payoff
    of an American claim, g is the exercise value and g(T, .) the terminal
    claim. ``values``, when given, is g in array form: sorted times -> the
    (len(times), N) array of g there, which sampling uses in place of one
    call of g per time and state; without a ``g``, g is read off it, and
    a g read off one ``values`` is read again off the ``values`` a copy
    made by ``dataclasses.replace`` holds. An obstacle with neither g nor
    ``values`` to read it off raises ``ValueError``, and so does a sample
    of ``values`` of any other shape."""

    g: callable = None
    values: callable = None

    def __post_init__(self):
        if self.g is None or getattr(self.g, "values", self.values) is not self.values:
            if self.values is None:
                raise ValueError("an obstacle needs its g or the values to read g off")
            object.__setattr__(self, "g", _values_g(self.values))

    def sample(self, times, n_states):
        times = np.asarray(times, dtype=float)
        if self.values is None:
            vals = sample_on_grid(self.g, times, n_states)
        else:
            vals = self.values(times)
        if np.shape(vals) != (times.size, n_states):
            raise ValueError(f"obstacle values have shape {np.shape(vals)}, "
                             f"want {(times.size, n_states)}")
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


def _sampled(spec, terminal, obstacle, steps):
    """(terminal, grid, g) of a reflected solve: the terminal and grid after
    the checks of ``bsde._inputs``, and the obstacle sampled on the grid."""
    terminal, grid = _inputs(spec, terminal, steps)
    return terminal, grid, obstacle.sample(grid, spec.n_states)


def _reflected_sweep(spec, driver, terminal, obstacle_vals, grid):
    """Shared backward recursion: explicit Euler predictor then projection
    on the obstacle. Returns (values, per-step pushes).

    Each step takes the generator and driver in force at its left node and
    is not cut at a breakpoint that falls between two nodes. With an affine
    form the predictor is one map per step, (I + h M) v + h beta, and a row
    of the obstacle step is the map v -> g: ``chain.solve_floored`` takes
    the larger of the two by policy iteration. Else the predictor calls the
    driver back under a generator tabled per node, swept by ``chain.sweep``
    with the obstacle as its floor.
    """
    form = driver.affine
    if form is None:
        dt = grid[1] - grid[0]
        gens = spec.gens[pieces_at(spec.starts, grid[:-1])]

        def predict(k, v):
            return v - dt * _rhs(gens[k], driver.evaluate, grid[k], v)

        return sweep(predict, terminal, grid, _BLOW_UP, floor=obstacle_vals)
    maps = _reflected_maps(spec, form, grid, obstacle_vals)
    values, preds, _, _ = solve_floored(maps, terminal, grid, np.arange(grid.size), _BLOW_UP)
    return values, values[:-1] - preds


def _reflected_maps(spec, form, grid, obstacle_vals):
    """nodes -> maps: per step between the grid ``nodes``, the rows [P c] of
    the affine form's predictor (I + h M) v + h beta under the piece at the
    step's bottom (maps[0]), and of the obstacle map v -> g there (maps[1])."""
    n = spec.n_states
    starts, a_g, alpha, beta = _linear_pieces(spec, form)
    mats = a_g + alpha[:, :, None] * np.eye(n)
    piece = pieces_at(starts, grid[:-1])

    def maps(nodes):
        h = np.diff(grid[nodes])[:, None]
        p = piece[nodes[:-1]]
        pair = np.zeros((2, p.size, n, n + 1))
        pair[0, ..., :n] = np.eye(n) + h[:, :, None] * mats[p]
        pair[0, ..., n] = h * beta[p]
        pair[1, ..., n] = obstacle_vals[nodes[:-1]]
        return pair

    return maps


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
    terminal, grid, obstacle_vals = _sampled(spec, terminal, obstacle, steps)
    if np.any(obstacle_vals[-1] > terminal + 1e-9):
        raise ObstacleIncompatibleError(
            "obstacle exceeds the terminal condition at the horizon")
    vals, pushes = _reflected_sweep(spec, driver, terminal, obstacle_vals, grid)
    return _assemble(grid, vals, pushes, obstacle_vals)


def snell_oracle(spec, driver, terminal, obstacle, steps):
    """Dynamic-programming value of optimal stopping against the obstacle:
    continue one step (explicit Euler on the reduced ODE) or take g now.

    Independent derivation of the reflected value; the recursion is
    literally identical to solve_reflected and the two must agree exactly.
    """
    terminal, grid, obstacle_vals = _sampled(spec, terminal, obstacle, steps)
    vals, _ = _reflected_sweep(spec, driver, terminal, obstacle_vals, grid)
    return StateGridFunction(grid=grid, values=vals)


def solve_penalized(spec, driver, terminal, obstacle, n, steps):
    """Solve the penalized BSDE for penalty level n: f plus n (g - y)^+.

    Implicit Euler whenever n * dt >= 1, explicit RK4 below: the penalty
    makes the reduced system stiff and the explicit scheme unstable.
    """
    if n < 1:
        raise ValueError("penalty level must be >= 1")
    terminal, grid = _inputs(spec, terminal, steps)
    dt = spec.horizon / steps
    scheme = "implicit_euler" if n * dt >= 1.0 else "explicit_rk4"
    _contraction(spec, driver.lipschitz_z, False)
    values, _ = _levels(spec, driver, scheme, grid, obstacle)(float(n), terminal)
    return BsdeSolution(grid=grid, values=values, scheme=scheme, steps=int(steps))


def penalization_limit(spec, driver, terminal, obstacle, steps, tol):
    """Double the penalty until successive solutions move less than tol in
    sup norm; reconstruct the reflection by quadrature of the penalty term.

    Every level uses implicit Euler so the whole family shares one scheme:
    mixing schemes across the stiffness threshold would break the monotone
    decay of the successive distances. The doubling starts at n of order
    1/dt; below that the penalty is too weak for the distance sequence to
    have entered its decaying O(1/n) tail. It stops with
    ``NoConvergenceError`` past n = ``_PENALTY_CAP``. The levels come from
    one ``bsde._levels``, which tables whatever no level changes once, and
    ``solve_bsde``'s checks run once for them all; each level's policy
    iteration starts from the choice of the level before, and ends at the
    values ``solve_penalized`` gives.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    terminal, grid, obstacle_vals = _sampled(spec, terminal, obstacle, steps)
    _contraction(spec, driver.lipschitz_z, False)
    levels = _levels(spec, driver, "implicit_euler", grid, obstacle)
    trace = []
    n = max(4, int(np.ceil(steps / spec.horizon)))
    prev, choice = levels(float(n), terminal)
    while True:
        n *= 2
        if n > _PENALTY_CAP:
            raise NoConvergenceError(
                f"penalty cap {_PENALTY_CAP} reached without tol {tol}", trace=trace)
        # the values of solve_penalized at level n, started from the last choice
        cur, choice = levels(float(n), terminal, choice)
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

"""Reflected BSDEs: the direct reflected backward scheme, whose value is
the Snell envelope of the obstacle under the scheme's one-step
continuation, the penalization sequence, the Skorokhod flatness check and
optimal stopping times.
"""

from dataclasses import dataclass, field

import numpy as np

from .bsde import _REFLECTED_BLOW_UP, BsdeSolution, _levels
from .errors import NoConvergenceError, NonFiniteError
from .grids import StateGridFunction, sample_on_grid

_PENALTY_CAP = 2 ** 20  # the highest penalty level penalization_limit tries


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
        if not np.isfinite(vals).all():
            raise NonFiniteError("obstacle produced non-finite values")
        return vals

    def terminal(self, horizon, n_states):
        return self.sample([horizon], n_states)[0]


def _values_g(values):
    """g(t, i) read off the array form ``values``, one time at a time."""
    def g(t, i):
        return values(np.array([t]))[0][i]

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
    """Direct reflected backward scheme: per step an explicit Euler
    predictor for the unconstrained value, then projection onto the
    obstacle; the projection excess is the reflection increment,
    accumulated so k(0) = 0 and k is nondecreasing.

    The steps are ``bsde._levels``' reflected scheme: each takes its own
    length and the generator and driver in force at its left node, is not
    cut at a breakpoint that falls between two nodes, and raises its
    prediction to the obstacle's grid sample, as ``np.maximum`` does. A
    prediction of -inf, which the obstacle raises to a finite value, still
    raises ``NonFiniteError`` at its node: its push is not finite. The
    checks are every solve's, in ``bsde._levels``: a driver that fails the
    contraction check warns, as in the other solves.
    """
    grid, g, level = _levels(spec, driver, "reflected", terminal, steps, obstacle)
    values, preds, _ = level(0.0)
    pushes = values[:-1] - preds
    bad = np.flatnonzero(~np.isfinite(pushes).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"{_REFLECTED_BLOW_UP} at t={grid[bad[-1]]:.6g}")
    return _assemble(grid, values, pushes, g)


def solve_penalized(spec, driver, terminal, obstacle, n, steps):
    """Solve the penalized BSDE for penalty level n: f plus n (g - y)^+, by
    implicit Euler at every n (the plain step, solved again below g), as
    one level of ``penalization_limit``'s family: the same ``bsde._levels``,
    with its checks of the inputs, of the obstacle against the terminal and
    of the contraction. An n that is not a finite number >= 1 raises
    ``ValueError``.
    """
    if not (np.isfinite(n) and n >= 1):
        raise ValueError(f"penalty level must be a finite number >= 1, got {n!r}")
    grid, _, level = _levels(spec, driver, "implicit_euler", terminal, steps, obstacle)
    values = level(float(n))[0]
    return BsdeSolution(grid=grid, values=values, scheme="implicit_euler", steps=int(steps))


def penalization_limit(spec, driver, terminal, obstacle, steps, tol):
    """Double the penalty until successive solutions move less than tol in
    sup norm; reconstruct the reflection by quadrature of the penalty term.

    Every level is a ``solve_penalized`` solve, by implicit Euler, which is
    stable at every n. The doubling starts at n of order 1/dt; below that
    the penalty is too weak for the distance sequence to have entered its
    decaying O(1/n) tail. It stops with ``NoConvergenceError`` past
    n = ``_PENALTY_CAP``. The levels come from one ``bsde._levels``, which
    tables whatever no level changes once, the obstacle's grid sample
    among it, and the checks run once for them all; each level's policy
    iteration starts from the choice of the level before, and ends at the
    values ``solve_penalized`` gives.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    grid, g, levels = _levels(spec, driver, "implicit_euler", terminal, steps, obstacle)
    trace = []
    n = max(4, int(np.ceil(steps / spec.horizon)))
    prev, _, choice = levels(float(n))
    while True:
        n *= 2
        if n > _PENALTY_CAP:
            raise NoConvergenceError(
                f"penalty cap {_PENALTY_CAP} reached without tol {tol}", trace=trace)
        # the values of solve_penalized at level n, started from the last choice
        cur, _, choice = levels(float(n), choice)
        dist = float(np.abs(cur - prev).max())
        trace.append((n, dist))
        prev = cur
        if dist < tol:
            break
    # k^n density is n (v^n - g)^-; trapezoid per step
    density = n * np.maximum(g - prev, 0.0)
    pushes = 0.5 * (density[:-1] + density[1:]) * (grid[1] - grid[0])
    return _assemble(grid, prev, pushes, g, trace=trace)


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
